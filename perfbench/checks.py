"""Verdicts on the program's outputs, against oracle.py.

A verdict is a list of failures (label, d, detail), as oracle.py returns
them; empty means the op passed. Outputs are deterministic, so the caller
caches a verdict under the digest of the output bytes (CLI) or of the result
arrays (library) and does not parse an output it has seen before.

known_defect() says whether a failed op shows exactly the signature of a
defect the seed is documented to have. Such ops still count as failed; any
other failure makes the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np

import oracle

# Checks of the displacement family and of everything derived from it.
_ALPHA_LABELS = {"alpha", "cat-even", "cat-odd", "gamma", "p_alpha", "parity",
                 "fidelity", "mixed_fidelity", "photon", "fidelity-table"}
# Checks of states and of the numbers computed from them, against the
# matrix-exponential and series oracles (not grids or point queries).
STATE_ORACLE_LABELS = _ALPHA_LABELS | {"beta", "p_beta"}


def known_defect(failures) -> bool:
    """True when every failure is one of:
    - a displacement-family mismatch at d >= 130 (ROADMAP item 1);
    - a tomogram whose rows lose mass because the q window clips them.
    """
    return bool(failures) and all(
        label == "tomogram-clipped"
        or (label in _ALPHA_LABELS and d is not None and d >= oracle.HERMITE_WEIGHT_DEFECT_DIM)
        for label, d, _ in failures
    )


def _rows(path, fmt):
    """Data rows of a CSV file, or the parsed JSON payload."""
    with open(path) as fh:
        if fmt == "json":
            return json.load(fh)
        return list(csv.DictReader(fh))


def _table(path, fmt):
    """Numeric CSV as a 2-D array (header skipped), or the JSON payload."""
    if fmt == "json":
        with open(path) as fh:
            return json.load(fh)
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_cli_output(op, path):
    """Failures of one CLI output file; op is a workloads.py op dict."""
    cmd, fmt = op["cmd"], op["fmt"]
    if cmd == "state":
        if fmt == "json":
            payload = _table(path, fmt)
            amps = np.asarray(payload["amps_re"]) + 1j * np.asarray(payload["amps_im"])
        else:
            arr = _table(path, fmt)
            amps = arr[:, 1] + 1j * arr[:, 2]
        ref = oracle.family_state(op["family"], op["d"], op["amp"])
        return oracle.check_state(op["family"], ref, amps)
    if cmd == "photon-dist":
        rows = _rows(path, fmt)
        out = []
        for key, family in (("p_alpha", "alpha"), ("p_beta", "beta")):
            got = np.array([float(r[key]) for r in rows])
            out += oracle.check_distribution(key, oracle.family_state(family, op["d"], op["amp"]), got)
        return out
    if cmd == "fidelity-table":
        return oracle.check_fidelity_table(op["dims"], _rows(path, fmt))
    if cmd == "volume-sweep":
        rows = _rows(path, fmt)
        keys = ("amp_over_period", "delta_alpha", "delta_beta")
        return oracle.check_volume([[float(r[k]) for k in keys] for r in rows])
    n = op["n"]
    if cmd == "wigner":
        if fmt == "json":
            g = _table(path, fmt)
            qs = np.linspace(g["q_min"], g["q_max"], g["nq"])
            ps = np.linspace(g["p_min"], g["p_max"], g["np"])
            values = np.asarray(g["values"], dtype=float)
        else:
            arr = _table(path, fmt)
            values = arr[:, 2].reshape(n, -1)
            qs, ps = arr[::values.shape[1], 0], arr[:values.shape[1], 1]
        if values.shape != (n, n):
            return [("wigner", op["d"], f"shape {values.shape}")]
        ref = oracle.family_state(op["family"], op["d"], op["amp"])
        return oracle.check_wigner(ref, qs, ps, values, op["points"])
    if cmd == "tomogram":
        if fmt == "json":
            t = _table(path, fmt)
            qs, values = np.asarray(t["q_grid"]), np.asarray(t["values"], dtype=float)
        else:
            arr = _table(path, fmt)
            qs = arr[:n, 0]
            values = arr[:, 2].reshape(-1, n)
        return oracle.check_tomogram(op["d"], qs, values)
    raise ValueError(f"no check for {cmd!r}")


def check_lib_pass(ops, arrays, mp_ops):
    """Verdicts of one library pass. arrays holds child.FIELDS concatenated
    over ops; the off-origin Wigner points of the ops in mp_ops are checked
    in mpmath, the origin point of every op by the parity formula."""
    offsets = {name: 0 for name in arrays}
    verdicts = []

    def take(name, size):
        start = offsets[name]
        offsets[name] = start + size
        return arrays[name][start:start + size]

    for i, op in enumerate(ops):
        d = op["d"]
        amp = complex(*op["amp"])
        got = {name: take(name, d) for name in
               ("alpha", "beta", "cat_even", "cat_odd", "gamma", "par_even", "par_odd", "photon")}
        wigner = take("wigner", len(op["wigner_points"]))
        tomo = take("tomogram", len(op["tomogram_points"]))
        f_ab, f_mix = take("fidelities", 2)
        refs = oracle.all_families(d, amp)
        a, b = refs["alpha"], refs["beta"]
        fails = []
        for label, key in (("alpha", "alpha"), ("beta", "beta"), ("cat-even", "cat_even"),
                           ("cat-odd", "cat_odd"), ("gamma", "gamma")):
            if label != "gamma" or op["gamma"]:
                fails += oracle.check_state(label, refs[label], got[key])
        # parity_coefficients works at phase 0, where c_n(|amp|) = e^{-in phase} c_n(amp)
        at_phase0 = a * np.exp(-1j * np.arange(d) * np.angle(amp))
        if np.any(got["par_even"][1::2]) or np.any(got["par_odd"][0::2]):
            fails.append(("parity", d, "parts not parity-pure"))
        fails += oracle.check_state("parity", at_phase0, got["par_even"] + got["par_odd"])
        ref_ab = abs(np.vdot(a, b)) ** 2
        ref_mix = 0.5 * (ref_ab + abs(np.vdot(a, oracle.beta_state(d, -amp))) ** 2)
        for label, val, ref in (("fidelity", f_ab, ref_ab), ("mixed_fidelity", f_mix, ref_mix)):
            if not abs(val - ref) <= oracle.SCALAR_TOL:
                fails.append((label, d, f"{val:.12g} vs {ref:.12g}"))
        fails += oracle.check_distribution("photon", a, got["photon"])
        # Point queries are checked on the program's own state, so that they
        # test the evaluators and not the state synthesis again.
        amps = got["alpha"]
        for k, (q, p) in enumerate(op["wigner_points"]):
            if q == 0.0 and p == 0.0:
                ref = oracle.wigner_origin(amps)
            elif i in mp_ops:
                ref = oracle.wigner_point(amps, q, p)
            else:
                continue
            if not abs(wigner[k] - ref) <= oracle.WIGNER_POINT_TOL:
                fails.append(("wigner_values", d, f"W({q:.3f},{p:.3f}) off by {abs(wigner[k] - ref):.2g}"))
        for k, (q, th) in enumerate(op["tomogram_points"]):
            ref = oracle.tomogram_point(amps, q, th)
            if not abs(tomo[k] - ref) <= oracle.SCALAR_TOL:
                fails.append(("tomogram_closed_form", d,
                              f"w({q:.3f},{th:.3f}) off by {abs(tomo[k] - ref):.2g}"))
        verdicts.append(fails)
    return verdicts


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
