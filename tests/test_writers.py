"""Output file writers: full output bytes against plain per-value references."""

import json
import math

import numpy as np
import pytest

import quditcs.cli as cli
from quditcs import gridcsv
from quditcs.fock import photon_distribution
from quditcs.phase_space import WignerGrid, nonclassical_volume, wigner_grid
from quditcs.qcs import QcsParams, linear_qcs, nonlinear_qcs, quasiperiod
from quditcs.tomography import Tomogram, tomogram_grid

SPECIALS = [-0.0, 5e-324, 1e-300, 0.1, 1e16, 3.0, -2.5]
# A meta string holding the text the JSON writer splits at; json escapes its
# newline and quotes, so only the real "values" key may match.
TRICKY_META = 'family=alpha\n "values": null'


def reference_wigner_csv(grid, path):
    with open(path, "w", newline="\n") as fh:
        fh.write("q,p,w\n")
        for i, qv in enumerate(grid.q_axis()):
            row = grid.values[i]
            for j, pv in enumerate(grid.p_axis()):
                fh.write(f"{qv:.17g},{pv:.17g},{row[j]:.17g}\n")


def reference_tomogram_csv(tomo, path):
    with open(path, "w", newline="\n") as fh:
        fh.write("q,theta,w\n")
        for i, tv in enumerate(tomo.theta_grid):
            row = tomo.values[i]
            for j, qv in enumerate(tomo.q_grid):
                fh.write(f"{qv:.17g},{tv:.17g},{row[j]:.17g}\n")


def reference_json(payload, path):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def grid_payload(grid):
    # The fields of a grid JSON file, each as json.dump would take it.
    if isinstance(grid, WignerGrid):
        fields = {
            "q_min": grid.q_min, "q_max": grid.q_max, "p_min": grid.p_min,
            "p_max": grid.p_max, "nq": grid.nq, "np": grid.np,
        }
    else:
        fields = {"q_grid": grid.q_grid.tolist(), "theta_grid": grid.theta_grid.tolist()}
    return {**fields, "state_meta": grid.state_meta, "values": grid.values.tolist()}


def _special_values():
    # 3 x 7: every special value, mirrored, negated and scaled
    return np.array([SPECIALS, SPECIALS[::-1], [-1e-3 * v for v in SPECIALS]])


def _wigner_grids():
    hand = WignerGrid(
        q_min=-2.5, q_max=3.0, p_min=1e-300, p_max=1e16, nq=3, np=7,
        values=_special_values(), state_meta=TRICKY_META,
    )
    s = nonlinear_qcs(QcsParams(8, 1.3 - 0.6j))
    real = wigner_grid(s, window=(-4.0, 3.5, -3.0, 4.1), nq=37, npts=53)
    return [hand, real]


def _tomograms():
    hand = Tomogram(
        q_grid=np.array(SPECIALS),
        theta_grid=np.array([0.1, -0.0, 3.0]),
        values=_special_values(),
        state_meta=TRICKY_META,
    )
    real = tomogram_grid(nonlinear_qcs(QcsParams(8, 1.3 - 0.6j)), nq=41, ntheta=33)
    return [hand, real]


@pytest.mark.parametrize("k", [0, 1], ids=["hand", "real"])
def test_wigner_csv_bytes(tmp_path, k):
    grid = _wigner_grids()[k]
    assert grid.values.shape[0] != grid.values.shape[1]
    grid.write_csv(tmp_path / "got.csv")
    reference_wigner_csv(grid, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("k", [0, 1], ids=["hand", "real"])
def test_tomogram_csv_bytes(tmp_path, k):
    tomo = _tomograms()[k]
    assert tomo.values.shape[0] != tomo.values.shape[1]
    tomo.write_csv(tmp_path / "got.csv")
    reference_tomogram_csv(tomo, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# The vectorized "%.17g" of the grid writers, value by value.
def format_17g(values):
    values = np.asarray(values, dtype=float)
    out = np.zeros((values.size, 4), np.dtype("<i8"))
    gridcsv.format_values(values, out)
    text = out.tobytes().translate(None, b"\0").decode()
    assert text.count("\n") == values.size and text.endswith("\n")
    return text.split("\n")[:-1]


def assert_formats_like_python(values):
    values = np.asarray(values, dtype=float)
    want = ["%.17g" % v for v in values.tolist()]
    got = format_17g(values)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def test_format_random_bit_patterns():
    rng = np.random.default_rng(17)
    values = rng.integers(0, 2**64, size=250_000, dtype=np.uint64).view(np.float64)
    assert_formats_like_python(values[np.isfinite(values)])
    # and as many in the vectorized range, spread over its decades
    mags = 10.0 ** rng.uniform(-270.0, 0.0, size=250_000)
    assert_formats_like_python(mags * rng.choice([-1.0, 1.0], size=mags.size))


def test_format_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    assert_formats_like_python(powers)
    assert_formats_like_python(np.nextafter(powers, 0.0))
    assert_formats_like_python(np.nextafter(powers, np.inf))
    assert_formats_like_python(-powers)


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_format_corrects_an_exponent_guess_off_by_one(monkeypatch, shift):
    # np.log10 only guesses the decimal exponent; a guess one off either way
    # must still give the same text.
    rng = np.random.default_rng(20)
    powers = np.array([float(f"1e{k}") for k in range(-269, 0)])
    values = np.concatenate(
        [10.0 ** rng.uniform(-270.0, 0.0, 20_000), powers, np.nextafter(powers, 0.0)]
    )
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    got = format_17g(values)
    monkeypatch.undo()
    assert got == ["%.17g" % v for v in values.tolist()]


def test_format_powers_of_one_half():
    assert_formats_like_python(0.5 ** np.arange(1075))


def test_format_exact_and_near_ties():
    # m 5^k / 2 with m odd is an exact tie of 17-digit rounding; v = m / 2^(k+1)
    # is exact for m < 2^53 and has 18 significant digits.
    rng = np.random.default_rng(18)
    ties = []
    for k in range(17, 25):
        lo, hi = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        ms = rng.integers(lo, hi, size=2000) | 1
        ties += [int(m) / 2 ** (k + 1) for m in ms if lo <= m < hi]
    assert len(ties) > 10_000
    assert_formats_like_python(ties)
    # 18-digit decimals ending in 5: the nearest double is within an ulp of a tie
    near = [
        float(f"{rng.integers(10**16, 10**17)}5e{rng.integers(-290, -17)}")
        for _ in range(50_000)
    ]
    assert_formats_like_python(near)


def test_format_specials():
    subnormals = [5e-324, 1e-320, 2.2250738585072009e-308, 1e-300, 1e-270, 1.0000000000000002e-270]
    large = [1.0, 0.99999999999999989, 1.5, 10.0, 1e16, 1e17, 1.7976931348623157e308, 12345.678]
    values = [0.0, -0.0, np.nan, np.inf, -np.inf, *subnormals, *large]
    assert_formats_like_python(values + [-v for v in values])
    assert format_17g([0.0, -0.0, -np.nan]) == ["0", "-0", "nan"]


def _block_rows(columns):
    return max(1, gridcsv._BLOCK_VALUES // columns)


def _mixed_values(rng, rows, columns):
    # W-like values with zeros, tiny, large and non-finite ones mixed in
    values = rng.standard_normal((rows, columns)) * 10.0 ** rng.integers(-20, 1, (rows, columns))
    flat = values.reshape(-1)
    picks = rng.choice(flat.size, size=min(flat.size, 200), replace=False)
    flat[picks] = rng.choice([0.0, -0.0, 1e-300, -5e-324, 2.5, -1e16, np.inf, np.nan, 0.125], 200)
    return values


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_wigner_csv_bytes_around_the_block_size(tmp_path, offset):
    rng = np.random.default_rng(19 + offset)
    columns = 401
    rows = 2 * _block_rows(columns) + offset
    grid = WignerGrid(
        q_min=-7.3, q_max=1e16, p_min=-4.1, p_max=4.1, nq=rows, np=columns,
        values=_mixed_values(rng, rows, columns), state_meta="x",
    )
    grid.write_csv(tmp_path / "got.csv")
    reference_wigner_csv(grid, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_tomogram_csv_bytes_around_the_block_size(tmp_path, offset):
    rng = np.random.default_rng(29 + offset)
    columns = 181
    rows = _block_rows(columns) + offset
    tomo = Tomogram(
        q_grid=rng.uniform(-9.0, 9.0, columns),
        theta_grid=np.linspace(0.0, np.pi, rows),
        values=_mixed_values(rng, rows, columns),
        state_meta="x",
    )
    tomo.write_csv(tmp_path / "got.csv")
    reference_tomogram_csv(tomo, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize(
    "k", [0, 1, 2, 3, 4, 5],
    ids=["wigner-hand", "wigner-real", "tomogram-hand", "tomogram-real", "state", "rows"],
)
def test_json_bytes(tmp_path, k):
    grids = _wigner_grids() + _tomograms()
    payloads = [grid_payload(g) for g in grids]
    payloads.append({"meta": TRICKY_META, "dim": 2, "amps_re": SPECIALS, "amps_im": []})
    payloads.append([{"n": n, "p_alpha": v} for n, v in enumerate(SPECIALS)])
    if k < len(grids):
        grids[k].write_json(tmp_path / "got.json")
    else:
        cli._write_json(tmp_path / "got.json", payloads[k])
    reference_json(payloads[k], tmp_path / "want.json")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


# Row tables, written through cli.main; each reference is the per-row
# f-string loop and json.dump that once wrote that file.
FIDELITY_KEYS = ("f_alpha_beta", "f_alpha_cat_alpha", "f_alpha_cat_beta", "f_cat_cat", "f_mix")
# Values on and next to 4-decimal rounding edges: the CSV writes "%.4f" and
# the JSON writes round(v, 4). 0.03125 is an exact binary tie.
EDGE_FIDELITIES = [
    0.03125, 0.12345, np.nextafter(0.12345, 0.0), np.nextafter(0.12345, 1.0), 0.99995,
    np.nextafter(0.99995, 1.0), 0.00005, 0.00015, 1.0, 0.0,
    0.71155, 0.5616499999999999, 0.61835, 0.9999499999999999, 5e-324,
]


def reference_rows_csv(path, header, lines):
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def reference_state(fmt, path):
    s = linear_qcs(QcsParams(5, 0.8 - 0.3j))
    if fmt == "csv":
        lines = [f"{n},{c.real:.17g},{c.imag:.17g}" for n, c in enumerate(s.amps)]
        reference_rows_csv(path, "n,re,im", lines)
    else:
        reference_json({"meta": "family=beta;dim=5;amp=0.8,-0.3", **s.to_json_dict()}, path)


def reference_photon_dist(fmt, path):
    params = QcsParams(7, 1.2 + 0.4j)
    p_alpha = photon_distribution(nonlinear_qcs(params))
    p_beta = photon_distribution(linear_qcs(params))
    if fmt == "csv":
        lines = [f"{n},{p_alpha[n]:.17g},{p_beta[n]:.17g}" for n in range(7)]
        reference_rows_csv(path, "n,p_alpha,p_beta", lines)
    else:
        rows = [{"n": n, "p_alpha": p_alpha[n], "p_beta": p_beta[n]} for n in range(7)]
        reference_json(rows, path)


def reference_fidelity_table(fmt, path):
    values = [float(v) for v in EDGE_FIDELITIES]
    rows = [
        {"d": d, **dict(zip(FIDELITY_KEYS, values[5 * i : 5 * i + 5]))}
        for i, d in enumerate((2, 3, 4))
    ]
    if fmt == "csv":
        lines = [
            str(row["d"]) + "," + ",".join(f"{row[k]:.4f}" for k in FIDELITY_KEYS) for row in rows
        ]
        reference_rows_csv(path, "d," + ",".join(FIDELITY_KEYS), lines)
    else:
        reference_json(
            [{"d": row["d"], **{k: round(row[k], 4) for k in FIDELITY_KEYS}} for row in rows],
            path,
        )


def reference_volume_sweep(fmt, path):
    rows = []
    for frac in np.linspace(0.0, 2.0, 3):
        params = QcsParams(2, frac * quasiperiod(2).value)
        rows.append(
            (
                frac,
                nonclassical_volume(nonlinear_qcs(params)),
                nonclassical_volume(linear_qcs(params)),
            )
        )
    if fmt == "csv":
        lines = [f"{frac:.17g},{da:.17g},{db:.17g}" for frac, da, db in rows]
        reference_rows_csv(path, "amp_over_period,delta_alpha,delta_beta", lines)
    else:
        reference_json(
            [
                {"amp_over_period": frac, "delta_alpha": da, "delta_beta": db}
                for frac, da, db in rows
            ],
            path,
        )


ROW_TABLES = {
    "state": (["state", "--dim", "5", "--family", "beta", "--amp", "0.8,-0.3"], reference_state),
    "photon-dist": (["photon-dist", "--dim", "7", "--amp", "1.2,0.4"], reference_photon_dist),
    "fidelity-table": (["fidelity-table", "--dims", "2,3,4"], reference_fidelity_table),
    "volume-sweep": (["volume-sweep", "--dim", "2", "--n-points", "3"], reference_volume_sweep),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(ROW_TABLES))
def test_row_table_bytes(tmp_path, monkeypatch, capsys, command, fmt):
    if command == "fidelity-table":
        # fidelity(...) x 4, then mixed_fidelity(...), per dimension
        values = iter([float(v) for v in EDGE_FIDELITIES])
        monkeypatch.setattr(cli, "fidelity", lambda a, b: next(values))
        monkeypatch.setattr(cli, "mixed_fidelity", lambda a, b, c: next(values))
    argv, reference = ROW_TABLES[command]
    got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
    assert cli.main([*argv, "--format", fmt, "--out", str(got)]) == 0
    reference(fmt, want)
    assert got.read_bytes() == want.read_bytes()


# The vectorized json float text of the grid JSON writer, value by value:
# repr's shortest round-trip digits, and NaN, Infinity, -Infinity.
def format_shortest(values):
    values = np.asarray(values, dtype=float)
    out = np.zeros((values.size, 5), np.dtype("<i8"))
    out[:, 4] = ord("\n")
    gridcsv.format_shortest(values, out[:, :4])
    text = out.tobytes().translate(None, b"\0").decode()
    assert text.count("\n") == values.size and text.endswith("\n")
    return text.split("\n")[:-1]


def assert_shortest_like_json(values):
    values = np.asarray(values, dtype=float)
    want = [json.dumps(v) for v in values.tolist()]
    got = format_shortest(values)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def test_shortest_random_bit_patterns():
    rng = np.random.default_rng(21)
    assert_shortest_like_json(rng.integers(0, 2**64, size=250_000, dtype=np.uint64).view(float))
    # and as many in the vectorized range, spread over its decades
    mags = 10.0 ** rng.uniform(-270.0, 0.0, size=250_000)
    assert_shortest_like_json(mags * rng.choice([-1.0, 1.0], size=mags.size))


def test_shortest_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-320, 1)])
    for values in (powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers):
        assert_shortest_like_json(values)


def test_shortest_powers_of_one_half():
    # a power-of-two mantissa has a lower half-gap half the upper one
    values = 0.5 ** np.arange(1075)
    assert_shortest_like_json(values)
    assert_shortest_like_json(np.nextafter(values, 0.0))
    assert_shortest_like_json(3.0 * values)


@pytest.mark.parametrize("digits", range(1, 17))
def test_shortest_values_rounded_to_few_digits(digits):
    rng = np.random.default_rng(22 + digits)
    mags = rng.uniform(0.1, 1.0, 5000) * 10.0 ** rng.integers(-280, 1, 5000)
    assert_shortest_like_json([float("%.*g" % (digits, v)) for v in mags.tolist()])


def _half_gap_near_ties(rng, per_case=40):
    # Doubles v = m 2^(E - 53) one of whose rounding-interval ends,
    # (2m +- 1) 2^(E - 54), lies within about 1e-16..1e-7 units of S (see
    # gridcsv) of a k-digit decimal: solve (2m +- 1) 10^(k - 1 - X) = c 2^(k - 1 - X)
    # (mod 2^(54 - E)) for a small odd c, i.e. 2m +- 1 = c / 5^(k - 1 - X)
    # (mod 2^T), T = 54 - E - (k - 1 - X); the end is then |c| 10^(17 - k) / 2^T
    # units from the decimal.
    values = []
    for x in range(-6, 0):
        for e in range(math.frexp(10.0**x)[1], math.frexp(10.0 ** (x + 1))[1] + 1):
            for k in (16, 15, 14):
                t = 54 - e - (k - 1 - x)
                inverse = pow(5 ** (k - 1 - x), -1, 2**t)
                for _ in range(per_case):
                    units = 10.0 ** rng.uniform(-16.0, -7.0)
                    c = (int(units * 2**t / 10 ** (17 - k)) | 1) * int(rng.choice([-1, 1]))
                    odd = c * inverse % 2**t + int(rng.integers(0, 2**54)) // 2**t * 2**t
                    m = (odd + int(rng.choice([-1, 1]))) // 2
                    if 2**52 <= m < 2**53:
                        v = math.ldexp(m, e - 53)
                        if 10.0**x <= v < 10.0 ** (x + 1):
                            values.append(v)
    return values


def test_shortest_near_ties():
    rng = np.random.default_rng(23)
    near = _half_gap_near_ties(rng)
    assert len(near) > 1000
    assert_shortest_like_json(near + [-v for v in near])
    # exact ties between two candidates: o / 2^j has j decimals, the last a 5
    ties = [
        int(o | 1) / 2**j for j in range(17, 60) for o in rng.integers(2 ** (j - 4), 2**j, 300)
    ]
    assert_shortest_like_json(ties)
    # and decimals next to such ties, for 15 to 17 digits
    for digits in (15, 16, 17):
        near_five = [
            float(f"{rng.integers(10 ** (digits - 1), 10**digits)}5e{rng.integers(-290, -digits)}")
            for _ in range(20_000)
        ]
        assert_shortest_like_json(near_five)


def test_shortest_specials():
    subnormals = [5e-324, 1e-320, 2.2250738585072009e-308, 1e-300, 1e-270, 1.0000000000000002e-270]
    large = [1.0, 0.99999999999999989, 1.5, 10.0, 1e16, 1e17, 1.7976931348623157e308, 12345.678]
    values = [0.0, -0.0, np.nan, np.inf, -np.inf, *subnormals, *large]
    assert_shortest_like_json(values + [-v for v in values])
    assert format_shortest([0.0, -0.0, -np.nan, -np.inf]) == ["0.0", "-0.0", "NaN", "-Infinity"]


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_shortest_corrects_an_exponent_guess_off_by_one(monkeypatch, shift):
    rng = np.random.default_rng(24)
    powers = np.array([float(f"1e{k}") for k in range(-269, 0)])
    values = np.concatenate(
        [10.0 ** rng.uniform(-270.0, 0.0, 20_000), powers, np.nextafter(powers, 0.0)]
    )
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    got = format_shortest(values)
    monkeypatch.undo()
    assert got == [json.dumps(v) for v in values.tolist()]


def assert_grid_json_like_json_dump(tmp_path, grid):
    grid.write_json(tmp_path / "got.json")
    reference_json(grid_payload(grid), tmp_path / "want.json")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


@pytest.mark.parametrize("k", [0, 1], ids=["hand", "real"])
def test_grid_json_bytes(tmp_path, k):
    assert_grid_json_like_json_dump(tmp_path, _wigner_grids()[k])
    assert_grid_json_like_json_dump(tmp_path, _tomograms()[k])


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_wigner_json_bytes_around_the_block_size(tmp_path, offset):
    rng = np.random.default_rng(39 + offset)
    columns = 201
    rows = _block_rows(columns) + offset
    grid = WignerGrid(
        q_min=-7.3, q_max=1e16, p_min=-4.1, p_max=4.1, nq=rows, np=columns,
        values=_mixed_values(rng, rows, columns), state_meta=TRICKY_META,
    )
    assert_grid_json_like_json_dump(tmp_path, grid)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_tomogram_json_bytes_around_the_block_size(tmp_path, offset):
    rng = np.random.default_rng(49 + offset)
    columns = 181
    rows = _block_rows(columns) + offset
    tomo = Tomogram(
        q_grid=rng.uniform(-9.0, 9.0, columns),
        theta_grid=np.linspace(0.0, np.pi, rows),
        values=_mixed_values(rng, rows, columns),
        state_meta="x",
    )
    assert_grid_json_like_json_dump(tmp_path, tomo)


def test_json_values_with_non_finite_int_and_bool_entries(tmp_path):
    # A "values" matrix json would write as NaN, Infinity, 1 or true is
    # written as json writes it, and reads back.
    payload = {"meta": "x", "values": [[1.5, float("nan")], [float("inf"), -float("inf")], [1, True]]}
    cli._write_json(tmp_path / "got.json", payload)
    reference_json(payload, tmp_path / "want.json")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    assert json.loads((tmp_path / "got.json").read_text())["values"][2] == [1, True]
    grid = np.array([[0.25, np.nan], [np.inf, -np.inf]])
    gridcsv.write_grid_json(tmp_path / "got.json", {"meta": "x"}, grid)
    reference_json({"meta": "x", "values": grid.tolist()}, tmp_path / "want.json")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


# One call of each JSON grid shape the benchmark's cli-grids workload runs.
CLI_JSON_GRIDS = {
    "wigner-8": ["wigner", "--dim", "8", "--family", "gamma", "--amp", "1.1,0.7"],
    "wigner-32": ["wigner", "--dim", "32", "--family", "beta", "--amp=-3.2,1.9"],
    "tomogram-2": ["tomogram", "--dim", "2", "--family", "beta", "--amp", "0.4,-1.1"],
    "tomogram-32": ["tomogram", "--dim", "32", "--family", "beta", "--amp", "2.5,2.6"],
}


@pytest.mark.parametrize("name", list(CLI_JSON_GRIDS))
def test_cli_grid_json_bytes(tmp_path, monkeypatch, name):
    calls = []
    write_grid_json = gridcsv.write_grid_json

    def record(path, fields, values):
        calls.append((fields, values))
        write_grid_json(path, fields, values)

    monkeypatch.setattr(gridcsv, "write_grid_json", record)
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    assert cli.main([*CLI_JSON_GRIDS[name], "--format", "json", "--out", str(got)]) == 0
    ((fields, values),) = calls
    assert isinstance(values, np.ndarray) and values.size >= 181 * 201
    reference_json({**fields, "values": values.tolist()}, want)
    assert got.read_bytes() == want.read_bytes()
