"""End-to-end command-line checks (subprocess round trips plus exit codes)."""

import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quditcs.cli as cli
from quditcs import gridcsv
from quditcs.errors import ConvergenceError
from quditcs.qcs import QcsParams, cat_state


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "quditcs", *args],
        capture_output=True,
        text=True,
    )


def test_state_qutrit_json(tmp_path):
    out = tmp_path / "s.json"
    proc = run_cli(
        "state", "--dim", "3", "--family", "alpha", "--amp", "Td/2",
        "--out", str(out), "--format", "json",
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# family=alpha;dim=3;amp=Td/2")
    payload = json.loads(out.read_text())
    assert payload["dim"] == 3
    np.testing.assert_allclose(
        payload["amps_re"], [1.0 / 3.0, 0.0, 2.0 * math.sqrt(2.0) / 3.0], atol=1e-10
    )
    np.testing.assert_allclose(payload["amps_im"], 0.0, atol=1e-10)


def test_state_full_period_qubit(tmp_path):
    out = tmp_path / "s.csv"
    proc = run_cli("state", "--dim", "2", "--amp", "Td", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,re,im"
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    assert rows[0][1] == pytest.approx(-1.0, abs=1e-12)
    assert rows[1][1] == pytest.approx(0.0, abs=1e-12)


def test_state_dimension_one(tmp_path):
    out = tmp_path / "s.csv"
    proc = run_cli("state", "--dim", "1", "--amp", "0", "--out", str(out))
    assert proc.returncode == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 1
    assert float(rows[0].split(",")[1]) == 1.0


def test_state_beta_family_vector(tmp_path):
    out = tmp_path / "s.json"
    proc = run_cli(
        "state", "--dim", "4", "--family", "beta", "--amp", "Td/2",
        "--out", str(out), "--format", "json",
    )
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    moduli = np.hypot(payload["amps_re"], payload["amps_im"])
    np.testing.assert_allclose(moduli, [0.18, 0.38, 0.57, 0.70], atol=5e-3)


@pytest.mark.parametrize("sign", ["even", "odd"])
def test_cat_family_state_gives_the_bits_of_cat_state(tmp_path, sign):
    out = tmp_path / "s.json"
    args = ["state", "--family", f"cat-{sign}", "--dim", "5", "--amp", "1.3,0.4"]
    assert cli.main([*args, "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    amps = cat_state("alpha", sign, QcsParams(5, 1.3 + 0.4j)).amps
    assert np.array(payload["amps_re"]).tobytes() == np.ascontiguousarray(amps.real).tobytes()
    assert np.array(payload["amps_im"]).tobytes() == np.ascontiguousarray(amps.imag).tobytes()


def test_real_positive_amplitude_writes_exact_zero_imaginary_parts(tmp_path):
    out = tmp_path / "s.csv"
    proc = run_cli(
        "state", "--family", "alpha", "--dim", "32", "--amp", "3.1", "--out", str(out),
    )
    assert proc.returncode == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 32
    assert all(im == "0" for _, _, im in rows)


def test_complex_amplitude_token(tmp_path):
    out = tmp_path / "s.json"
    proc = run_cli(
        "state", "--dim", "4", "--amp", "0.8,0.6", "--out", str(out), "--format", "json",
    )
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    # a complex amplitude must put weight off the real axis
    assert max(abs(v) for v in payload["amps_im"]) > 1e-3


def test_fidelity_table_golden_rows(tmp_path):
    out = tmp_path / "f.csv"
    proc = run_cli("fidelity-table", "--dims", "2,5", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "d,f_alpha_beta,f_alpha_cat_alpha,f_alpha_cat_beta,f_cat_cat,f_mix"
    assert lines[1] == "2,0.7116,1.0000,1.0000,1.0000,0.7116"
    assert lines[2] == "5,0.5616,0.9957,0.9950,0.9993,0.6183"


def test_fidelity_table_json(tmp_path):
    out = tmp_path / "f.json"
    proc = run_cli("fidelity-table", "--dims", "4", "--out", str(out), "--format", "json")
    assert proc.returncode == 0
    rows = json.loads(out.read_text())
    assert rows[0]["d"] == 4
    assert rows[0]["f_alpha_beta"] == pytest.approx(0.5788, abs=1e-4)
    assert rows[0]["f_mix"] == pytest.approx(0.6369, abs=1e-4)


def test_photon_dist_quartit(tmp_path):
    out = tmp_path / "p.csv"
    proc = run_cli("photon-dist", "--dim", "4", "--amp", "Td/2", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,p_alpha,p_beta"
    rows = {int(r.split(",")[0]): [float(t) for t in r.split(",")[1:]] for r in lines[1:]}
    assert rows[0][0] == pytest.approx(0.0004, abs=5e-5)
    assert rows[2][0] == pytest.approx(0.0048, abs=5e-5)
    assert sum(v[0] for v in rows.values()) == pytest.approx(1.0, abs=1e-10)
    assert sum(v[1] for v in rows.values()) == pytest.approx(1.0, abs=1e-10)


def test_wigner_grid_minimum_sits_at_origin(tmp_path):
    out = tmp_path / "w.csv"
    proc = run_cli(
        "wigner", "--dim", "2", "--amp", "Td/2", "--nq", "41", "--np", "41",
        "--window", "3.0", "--out", str(out),
    )
    assert proc.returncode == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    k = int(np.argmin(data[:, 2]))
    assert data[k, 2] == pytest.approx(-2.0 / math.pi, abs=1e-9)
    assert abs(data[k, 0]) <= 1e-12
    assert abs(data[k, 1]) <= 1e-12


def test_tomogram_of_fock_state_is_angle_independent(tmp_path):
    out = tmp_path / "t.json"
    proc = run_cli(
        "tomogram", "--dim", "2", "--amp", "Td/2", "--nq", "48", "--ntheta", "32",
        "--out", str(out), "--format", "json",
    )
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    vals = np.asarray(payload["values"])
    assert vals.shape == (32, 48)
    assert np.max(np.abs(vals - vals[0])) <= 1e-12


def test_volume_sweep_qubit(tmp_path):
    out = tmp_path / "v.csv"
    proc = run_cli("volume-sweep", "--dim", "2", "--n-points", "9", "--out", str(out))
    assert proc.returncode == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    by_frac = {round(row[0], 6): row for row in data}
    assert by_frac[0.0][1] == pytest.approx(0.0, abs=1e-3)
    assert by_frac[0.0][2] == pytest.approx(0.0, abs=1e-3)
    assert by_frac[0.5][1] == pytest.approx(0.42615, abs=2e-3)


def test_volume_sweep_ordering_across_dims(tmp_path):
    out2 = tmp_path / "v2.csv"
    out3 = tmp_path / "v3.csv"
    assert run_cli("volume-sweep", "--dim", "2", "--n-points", "5", "--out", str(out2)).returncode == 0
    assert run_cli("volume-sweep", "--dim", "3", "--n-points", "5", "--out", str(out3)).returncode == 0
    d2 = np.loadtxt(out2, delimiter=",", skiprows=1)
    d3 = np.loadtxt(out3, delimiter=",", skiprows=1)
    # at half the quasiperiod the qutrit state is at least as nonclassical
    assert d3[1, 1] >= d2[1, 1] - 2e-3


def test_volume_sweep_json_schema(tmp_path):
    out = tmp_path / "v.json"
    proc = run_cli(
        "volume-sweep", "--dim", "2", "--n-points", "2", "--out", str(out),
        "--format", "json",
    )
    assert proc.returncode == 0
    rows = json.loads(out.read_text())
    assert set(rows[0]) == {"amp_over_period", "delta_alpha", "delta_beta"}
    assert len(rows) == 2


@pytest.mark.parametrize("n_points", ["1", "0"])
def test_volume_sweep_of_fewer_than_two_points_exits_3(tmp_path, capsys, n_points):
    out = tmp_path / "v.csv"
    assert cli.main(["volume-sweep", "--dim", "2", "--n-points", n_points, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: sweep needs at least 2 points, got {n_points}\n"
    assert not out.exists()


def test_byte_identical_reruns(tmp_path):
    args = (
        "wigner", "--dim", "3", "--amp", "1.1,0.4", "--nq", "32", "--np", "32",
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert run_cli(*args, "--out", str(out3)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()


def test_parse_errors_exit_2(tmp_path):
    out = str(tmp_path / "x.csv")
    proc = run_cli("state", "--dim", "3", "--amp", "1..2", "--out", out)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    proc = run_cli("fidelity-table", "--dims", "2;3", "--out", out)
    assert proc.returncode == 2
    assert cli.main(["fidelity-table", "--dims", ",", "--out", out]) == 2
    # argparse rejections (missing --out, unknown family) also land on 2
    assert run_cli("state", "--dim", "2").returncode == 2
    assert run_cli("state", "--family", "nope", "--out", out).returncode == 2


def test_non_finite_amplitudes_exit_2(tmp_path):
    out = tmp_path / "x.csv"
    proc = run_cli("state", "--dim", "3", "--amp", "nan", "--out", str(out))
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert not out.exists()
    assert cli.main(["wigner", "--dim", "3", "--amp", "inf", "--out", str(out)]) == 2
    assert cli.main(["photon-dist", "--dim", "4", "--amp", "1,-inf", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "token", ["abc", "1,2,3", "", "1,"], ids=["word", "three_parts", "empty", "empty_im"]
)
def test_malformed_amplitude_exits_2_with_one_error_line(tmp_path, capsys, token):
    out = tmp_path / "x.csv"
    assert cli.main(["state", "--dim", "3", "--amp", token, "--out", str(out)]) == 2
    message = f"error: amplitude {token!r} is not 're', 're,im', 'Td' or 'Td/2'\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("window", ["inf", "1e308"])
def test_non_finite_window_exits_3(tmp_path, window, fmt):
    # an infinite window, or one whose span 2 * window overflows, has NaN axes
    out = tmp_path / f"w.{fmt}"
    args = ["wigner", "--dim", "2", "--nq", "16", "--np", "16", "--window", window]
    assert cli.main([*args, "--format", fmt, "--out", str(out)]) == 3
    assert not out.exists()


def test_tiny_window_exit_codes(tmp_path):
    # node indices of a 1e-20 window pass int64; a subnormal q step is not
    # a uniform axis
    out = tmp_path / "w.csv"
    args = ["wigner", "--dim", "2", "--nq", "16", "--np", "16", "--out", str(out)]
    assert cli.main([*args, "--window", "1e-20"]) == 0
    assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()
    out.unlink()
    assert cli.main([*args, "--window", "1e-320"]) == 3
    assert not out.exists()


def test_huge_window_exit_code(tmp_path):
    # Far wider than the state's reach: only the row and column at the
    # origin are nonzero, and no node stride may overflow.
    out = tmp_path / "w.csv"
    args = ["wigner", "--dim", "4", "--window", "1e20", "--out", str(out)]
    assert cli.main(args) == 0
    values = np.loadtxt(out, delimiter=",", skiprows=1)[:, 2]
    assert np.isfinite(values).all() and values.any()


def test_domain_errors_exit_3(tmp_path):
    out = str(tmp_path / "x.csv")
    # d = 151 is past the largest Hermite root table (special_fn.MAX_DEGREE).
    assert run_cli("volume-sweep", "--dim", "151", "--out", out).returncode == 3
    assert run_cli("wigner", "--dim", "151", "--out", out).returncode == 3
    assert run_cli("tomogram", "--dim", "151", "--out", out).returncode == 3
    proc = run_cli("state", "--dim", "4", "--family", "cat-odd", "--amp", "0", "--out", out)
    assert proc.returncode == 3
    assert "error:" in proc.stderr
    # unwritable output path
    assert run_cli("state", "--dim", "2", "--out", "/no/such/dir/x.csv").returncode == 3


@pytest.mark.parametrize("command", ["state", "photon-dist"])
def test_overflowing_amplitude_exits_3(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    assert cli.main([command, "--dim", "4", "--amp", "1e308", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error: displacement coefficients at d=4, |alpha|=1e+308 are not finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (("state", "--family", "beta", "--amp", "1.5e308,1.5e308"),
         "error: amplitude modulus overflows, got (1.5e+308+1.5e+308j)"),
        (("photon-dist", "--amp", "1.5e308,1.5e308"),
         "error: amplitude modulus overflows, got (1.5e+308+1.5e+308j)"),
        (("state", "--amp", "1e308"),
         "error: displacement coefficients at d=4, |alpha|=1e+308 are not finite: "
         "the root phases x_k |alpha| overflow"),
    ],
    ids=["state_modulus", "photon_dist_modulus", "state_root_phases"],
)
def test_overflowing_amplitude_writes_only_the_error_line(tmp_path, args, message):
    # No traceback and no numpy warning reach stderr, and no file is written.
    out = tmp_path / "x.csv"
    proc = run_cli(*args, "--dim", "4", "--out", str(out))
    assert proc.returncode == 3
    assert proc.stderr == message + "\n"
    assert not out.exists()


def test_large_dimensions_run(tmp_path):
    out = str(tmp_path / "x.csv")
    for args in (
        ("wigner", "--dim", "150", "--nq", "16", "--np", "16"),
        ("tomogram", "--dim", "150", "--nq", "32", "--ntheta", "32"),
        ("volume-sweep", "--dim", "11", "--n-points", "2"),
    ):
        proc = run_cli(*args, "--out", out)
        assert proc.returncode == 0, proc.stderr


def test_nonconvergence_exits_4(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError("refinement budget exhausted")

    monkeypatch.setattr(cli, "nonclassical_volume", explode)
    rc = cli.main(
        ["volume-sweep", "--dim", "2", "--n-points", "2", "--out", str(tmp_path / "v.csv")]
    )
    assert rc == 4


def test_volume_that_loses_mass_exits_4_with_one_error_line(tmp_path, monkeypatch, capsys):
    from quditcs import phase_space

    monkeypatch.setattr(phase_space, "_abs_weyl_sums", lambda amps, xs, w: (0.5, 0.5))
    out = tmp_path / "v.csv"
    rc = cli.main(["volume-sweep", "--dim", "2", "--n-points", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_NONCONVERGENCE == 4
    assert captured.err.splitlines() == ["error: quadrature lost probability mass: integral 0.5"]
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("wigner", "--np", "9223372036854775807"),
        ("wigner", "--nq", "9223372036854775807"),
        ("tomogram", "--nq", "9223372036854775807"),
        ("tomogram", "--ntheta", "9223372036854775807"),
        ("volume-sweep", "--n-points", "9223372036854775807"),
    ],
    ids=["wigner-np", "wigner-nq", "tomogram-nq", "tomogram-ntheta", "volume-sweep-n-points"],
)
def test_axis_count_past_any_array_exits_3_with_one_error_line(tmp_path, capsys, args):
    # np.linspace raises IndexError, not a memory error, for counts near 2**63.
    out = tmp_path / "x.csv"
    assert cli.main([*args, "--dim", "2", "--out", str(out)]) == cli.EXIT_DOMAIN == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: an axis of 9223372036854775807 points exceeds the largest float64 array"
    ]
    assert not out.exists()


def test_failed_allocation_exits_3_with_one_error_line(tmp_path, monkeypatch, capsys):
    # A stand-in for numpy's "Unable to allocate" error: a real huge grid
    # could succeed under memory overcommit.
    def explode(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr(cli, "wigner_grid", explode)
    out = tmp_path / "w.csv"
    rc = cli.main(["wigner", "--dim", "2", "--nq", "100000", "--np", "100000", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_DOMAIN == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: out of memory: Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "fmt, formatter", [("csv", "format_values"), ("json", "format_shortest")], ids=["csv", "json"]
)
def test_failed_grid_block_leaves_no_file(tmp_path, monkeypatch, capsys, fmt, formatter):
    # The second block fails after the first one reached the file.
    out = tmp_path / f"w.{fmt}"
    calls = []
    format_block = getattr(gridcsv, formatter)

    def fail_second(values, words):
        calls.append(values.size)
        if len(calls) == 2:
            assert out.stat().st_size > 0
            raise MemoryError("Unable to allocate 32.0 KiB for an array with shape (4096,)")
        format_block(values, words)

    monkeypatch.setattr(gridcsv, formatter, fail_second)
    argv = ["wigner", "--dim", "2", "--nq", "401", "--np", "401", "--format", fmt]
    rc = cli.main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_DOMAIN == 3
    assert len(calls) == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: out of memory: Unable to allocate 32.0 KiB for an array with shape (4096,)"
    ]
    assert not out.exists()


def test_failed_row_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    class DiskFull:
        def __float__(self):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "photon_distribution", lambda s: [0.5, DiskFull()])
    out = tmp_path / "p.csv"
    out.write_text("an older file\n")
    rc = cli.main(["photon-dist", "--dim", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_DOMAIN
    assert captured.err.splitlines() == ["error: [Errno 28] No space left on device"]
    assert not out.exists()


# Prints which of the modules named in argv[1] a fresh interpreter has loaded
# after `import quditcs` (no further argument) or after cli.main(argv[2:]).
# It imports nothing but sys, so that it loads none of them itself.
_LOADED_SCRIPT = """
import sys
watched, argv = sys.argv[1].split(","), sys.argv[2:]
if argv:
    from quditcs.cli import main
    assert main(argv) == 0, argv
else:
    import quditcs
print(",".join(sorted(set(watched) & set(sys.modules))))
"""
_SUBMODULES = ("cli", "errors", "fock", "gridcsv", "outfile", "phase_space", "qcs",
               "special_fn", "tomography")
_WATCHED = ("numpy", "json", "fractions", "decimal", *(f"quditcs.{m}" for m in _SUBMODULES))


def test_import_leaves_out_fractions_and_decimal(tmp_path):
    # Each module a call loads costs it start-up time, compiling from source
    # where there is no bytecode cache: a call loads only what it runs.
    # fractions and decimal are never loaded; json only for a JSON write.
    never = {"fractions", "decimal"}
    rows = {"quditcs.phase_space", "quditcs.tomography", "quditcs.gridcsv", "json"} | never
    grid = {"quditcs.tomography", "json"} | never
    cases = [
        ((), set(_WATCHED) - {"json"}),  # a bare import loads no numpy and no submodule
        (("state", "--dim", "32"), rows),
        (("photon-dist", "--dim", "8"), rows),
        (("fidelity-table", "--dims", "2,5"), rows),
        (("wigner", "--dim", "2", "--nq", "16", "--np", "16"), grid),
        (("volume-sweep", "--dim", "2", "--n-points", "2"), grid | {"quditcs.gridcsv"}),
        (("tomogram", "--dim", "2", "--nq", "32", "--ntheta", "32"), {"json"} | never),
        # a tomogram needs no Wigner function
        (("tomogram", "--dim", "2", "--nq", "32", "--ntheta", "32", "--format", "json"),
         {"quditcs.phase_space"} | never),
        # the grid text module is for grids alone
        (("state", "--dim", "32", "--format", "json"), rows - {"json"}),
        (("photon-dist", "--dim", "8", "--format", "json"), rows - {"json"}),
        (("fidelity-table", "--dims", "2,5", "--format", "json"), rows - {"json"}),
        (("volume-sweep", "--dim", "2", "--n-points", "2", "--format", "json"),
         {"quditcs.tomography", "quditcs.gridcsv"} | never),
        (("wigner", "--dim", "2", "--nq", "16", "--np", "16", "--format", "json"),
         {"quditcs.tomography"} | never),
    ]
    for k, (args, left_out) in enumerate(cases):
        out = tmp_path / f"out{k}"
        argv = [*args, "--out", str(out)] if args else []
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED_SCRIPT, ",".join(_WATCHED), *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.strip().split(",")) - {""}
        assert not loaded & left_out, (args, sorted(loaded & left_out))
        if args and args[0] in ("wigner", "tomogram") and "json" not in args:
            assert "quditcs.gridcsv" in loaded
    # the JSON write works without json loaded at start-up
    assert json.loads(out.read_text())["nq"] == 16
    assert "json" in loaded
    assert "quditcs.gridcsv" in loaded


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: every command must run with it blocked.
    script = """
import json, sys
sys.modules["scipy"] = None
from quditcs import cli
out = sys.argv[1]
codes = [
    cli.main(["state", "--dim", "3", "--amp", "Td/2", "--out", out + "/s.csv"]),
    cli.main(["wigner", "--dim", "4", "--nq", "16", "--np", "16", "--out", out + "/w.csv"]),
    cli.main(["tomogram", "--dim", "4", "--nq", "32", "--ntheta", "32", "--out", out + "/t.csv"]),
    cli.main(["volume-sweep", "--dim", "2", "--n-points", "3", "--out", out + "/v.csv"]),
]
print(json.dumps(codes))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0, 0, 0, 0]


@pytest.mark.parametrize(
    "command", ["state", "wigner", "tomogram", "fidelity-table", "volume-sweep", "photon-dist"]
)
def test_every_command_takes_the_same_output_options(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert re.search(r"--out OUT\s+output file path\n", text), text
    assert "--format {csv,json}" in text
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([command])
    assert exc.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err


def test_exit_codes_are_distinct():
    codes = {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_DOMAIN, cli.EXIT_NONCONVERGENCE}
    assert len(codes) == 4


def test_benchmark_tracer_targets_exist():
    # The benchmark's traced mode swaps these attributes by name; after a
    # rename its traced runs fail.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        (owner.__name__, attr) for owner, attr in tracer.TARGETS if attr not in owner.__dict__
    ]
    assert not missing
