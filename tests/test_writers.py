"""Grid file writers: full output bytes against plain per-value references."""

import json

import numpy as np
import pytest

import quditcs.cli as cli
from quditcs.phase_space import WignerGrid, wigner_grid
from quditcs.qcs import QcsParams, nonlinear_qcs
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


@pytest.mark.parametrize(
    "k", [0, 1, 2, 3, 4, 5],
    ids=["wigner-hand", "wigner-real", "tomogram-hand", "tomogram-real", "state", "rows"],
)
def test_json_bytes(tmp_path, k):
    payloads = [g.to_json_dict() for g in _wigner_grids() + _tomograms()]
    payloads.append({"meta": TRICKY_META, "dim": 2, "amps_re": SPECIALS, "amps_im": []})
    payloads.append([{"n": n, "p_alpha": v} for n, v in enumerate(SPECIALS)])
    cli._write_json(tmp_path / "got.json", payloads[k])
    reference_json(payloads[k], tmp_path / "want.json")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
