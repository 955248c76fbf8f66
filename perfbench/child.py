"""Child processes the benchmark starts, with quditcs importable from src/.

  child.py cli SPANS ARGV...   run quditcs.cli.main(ARGV) with tracing
                               installed; write the spans to SPANS as JSON.
  child.py lib                 serve the library workload: one JSON command
                               per stdin line, one JSON reply per stdout line.

Library commands:
  {"cmd": "pass", "ops": PATH, "out": PATH, "trace": 0|1}
      run every op in the JSON list at ops, time each, save the results as
      arrays to out (.npz) and reply with the times and a digest of the
      results; traced passes also clear the Hermite root cache first and
      reply with the spans.
  {"cmd": "probe", "dir": PATH}
      call each traced layer once at small sizes, traced; reply with spans.
  {"cmd": "quit"}
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import numpy as np

import quditcs.cli
from quditcs import fock, phase_space, qcs, special_fn, tomography

# Result arrays of one library op, in the order they are saved and hashed.
FIELDS = ("alpha", "beta", "cat_even", "cat_odd", "gamma", "par_even", "par_odd",
          "photon", "wigner", "tomogram", "fidelities")


def lib_op(op):
    """One library-workload op: every state family (the complementary state
    where the op asks for it), the parity split, the fidelities and point
    queries of the tomogram (and of W where the op has points) at one
    (d, amplitude)."""
    d = op["d"]
    amp = complex(*op["amp"])
    params = qcs.QcsParams(dim=d, amplitude=amp)
    alpha = qcs.nonlinear_qcs(params)
    beta = qcs.linear_qcs(params)
    cat_even = qcs.cat_state("alpha", "even", params)
    cat_odd = qcs.cat_state("alpha", "odd", params)
    gamma = qcs.complementary_state(params).amps if op["gamma"] else np.zeros(d)
    par_even, par_odd = qcs.parity_coefficients(d, params.modulus)
    beta_minus = qcs.linear_qcs(qcs.QcsParams(dim=d, amplitude=-amp))
    fids = [fock.fidelity(alpha, beta), fock.mixed_fidelity(alpha, beta, beta_minus)]
    photon = fock.photon_distribution(alpha)
    wigner = np.zeros(0)
    if op["wigner_points"]:
        wq = np.asarray(op["wigner_points"], dtype=float)
        wigner = phase_space.wigner_values(alpha, wq[:, 0], wq[:, 1])
    tomo = [tomography.tomogram_closed_form(alpha, q, th) for q, th in op["tomogram_points"]]
    return (alpha.amps, beta.amps, cat_even.amps, cat_odd.amps, gamma,
            par_even, par_odd, photon, wigner, np.asarray(tomo), np.asarray(fids))


def placeholder(op):
    """Zero results of the shape lib_op returns, for an op that raised."""
    d = op["d"]
    return (*(np.zeros(d) for _ in range(8)), np.zeros(len(op["wigner_points"])),
            np.zeros(len(op["tomogram_points"])), np.zeros(2))


def probe(out_dir):
    """Each traced layer once, so that every layer has a span in every
    traced run, whatever the workload."""
    special_fn.he_roots.cache_clear()
    for d in (2, 8, 32):
        params = qcs.QcsParams(dim=d, amplitude=0.37 * qcs.quasiperiod(d).value * (0.8 + 0.6j))
        alpha = qcs.nonlinear_qcs(params)
        beta = qcs.linear_qcs(params)
        qcs.cat_state("alpha", "even", params)
        qcs.cat_state("alpha", "odd", params)
        qcs.complementary_state(params)
        qcs.parity_coefficients(d, params.modulus)
        fock.fidelity(alpha, beta)
        fock.mixed_fidelity(alpha, beta, beta)
        fock.photon_distribution(alpha)
        phase_space.wigner_values(alpha, np.array([0.0, 0.5]), np.array([0.0, -0.3]))
        tomography.tomogram_closed_form(alpha, 0.4, 0.7)
        phase_space.wigner_grid(alpha, nq=41, npts=41).write_csv(f"{out_dir}/probe_w.csv")
        tomography.tomogram_grid(alpha, nq=41, ntheta=41).write_csv(f"{out_dir}/probe_t.csv")
    phase_space.nonclassical_volume(qcs.nonlinear_qcs(qcs.QcsParams(dim=2, amplitude=1.0)))


def serve_lib():
    from tracer import Tracer

    tracer = Tracer()
    reply = sys.stdout
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "quit":
            break
        if cmd["cmd"] == "probe":
            tracer.install()
            try:
                probe(cmd["dir"])
            finally:
                tracer.uninstall()
            reply.write(json.dumps({"spans": tracer.take()}) + "\n")
            reply.flush()
            continue
        with open(cmd["ops"]) as fh:
            ops = json.load(fh)
        traced = bool(cmd["trace"])
        if traced:
            special_fn.he_roots.cache_clear()
            tracer.install()
        results, times, errors = [], [], {}
        start = time.perf_counter()
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            idx = tracer.span("op", {"i": i}) if traced else None
            try:
                results.append(lib_op(op))
            except Exception as exc:  # reported as a failed op, the pass goes on
                errors[i] = repr(exc)
                results.append(placeholder(op))
            finally:
                if traced:
                    tracer.close(idx)
            times.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        tracer.uninstall()
        arrays = {name: np.concatenate([np.ravel(r[k]) for r in results])
                  for k, name in enumerate(FIELDS)}
        digest = hashlib.sha256()
        for name in FIELDS:
            digest.update(np.ascontiguousarray(arrays[name]).tobytes())
        np.savez(cmd["out"], **arrays)
        reply.write(json.dumps({"wall": wall, "op_times": times, "digest": digest.hexdigest(),
                                "errors": errors, "spans": tracer.take()}) + "\n")
        reply.flush()


def run_traced_cli(spans_path, argv):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    rc = 1
    try:
        rc = quditcs.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.take(), fh)
    return rc


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        sys.exit(run_traced_cli(sys.argv[2], sys.argv[3:]))
    serve_lib()
