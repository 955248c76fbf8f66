"""Seeded op lists of the four workloads.

The seed draws amplitudes, check points, the family and format assignment of
cli-short and the format of the dim-8 sweep in cli-volume. The amount of work
in a pass does not depend on the seed: which commands run at which dimension
and grid size is fixed, so seeds can be compared with each other.

Amplitudes are fractions f of the quasiperiod T_d with f in [0.5, 1.5] and a
uniform phase: from the half-period cat point to one and a half periods.
Inputs whose documented outcome is a domain error (a cat with a vanishing
parity part, a complementary state of orthogonal families) are redrawn, or
in lib-sweep left out, with a margin, so that every call made is one that
should succeed.
"""

from __future__ import annotations

import cmath
import math
import random

import oracle

NAMES = ("cli-short", "cli-grids", "cli-volume", "lib-sweep")

SHORT_DIMS = (2, 8, 32, 100, 150)
LIB_DIMS = (32, 100, 150)
LIB_OPS_PER_DIM = 34  # 102 ops per pass
# Ops that also query W at points: the first of each dimension. One such call
# at d=150 costs as much as some thirty ops without it, so W on every op
# would make the pass a benchmark of the point evaluator alone, and passes
# so long that few fit in a run.
LIB_WIGNER_OPS = 1


def _amp(rng, d, family="alpha", lo=0.5, hi=1.5):
    period = oracle.quasiperiod(d)
    while True:
        amp = cmath.rect(rng.uniform(lo, hi) * period, rng.uniform(-math.pi, math.pi))
        if oracle.well_conditioned(family, d, amp):
            return amp


def _state_args(family, d, amp):
    args = ["--dim", str(d), "--amp=" + f"{amp.real!r},{amp.imag!r}"]
    return args + (["--family", family] if family else [])


def cli_short(rng):
    """state for every family, photon-dist and one fidelity table; start-up
    dominates every call."""
    families = rng.sample(oracle.FAMILIES, len(oracle.FAMILIES))
    flip = rng.randrange(2)
    ops = []
    for i, d in enumerate(SHORT_DIMS):
        amp = _amp(rng, d, families[i])
        ops.append({"cmd": "state", "d": d, "family": families[i], "amp": amp,
                    "fmt": ("csv", "json")[(i + flip) % 2],
                    "args": ["state", *_state_args(families[i], d, amp)]})
    for i, d in enumerate(SHORT_DIMS):
        amp = _amp(rng, d)
        ops.append({"cmd": "photon-dist", "d": d, "amp": amp,
                    "fmt": ("csv", "json")[(i + flip + 1) % 2],
                    "args": ["photon-dist", *_state_args(None, d, amp)]})
    dims = oracle.DEFAULT_TABLE_DIMS + (150,)
    ops.append({"cmd": "fidelity-table", "dims": dims, "fmt": rng.choice(("csv", "json")),
                "args": ["fidelity-table", "--dims", ",".join(map(str, dims))]})
    return ops


# (command, d, family, grid points per axis, format); d=32 tomograms of the
# series family are the ones the seed's tomogram window clips.
GRID_OPS = (
    ("wigner", 2, "alpha", 201, "csv"),
    ("wigner", 8, "gamma", 201, "json"),
    ("wigner", 32, "beta", 201, "json"),
    ("wigner", 8, "cat-even", 401, "csv"),
    ("wigner", 32, "alpha", 401, "csv"),
    ("tomogram", 2, "beta", 201, "json"),
    ("tomogram", 8, "alpha", 201, "csv"),
    ("tomogram", 32, "beta", 201, "csv"),
    ("tomogram", 32, "beta", 201, "json"),
)
WIGNER_CHECK_POINTS = 3


def cli_grids(rng):
    """Wigner and tomogram grids of 40k-160k rows, written as CSV or JSON."""
    ops = []
    for cmd, d, family, n, fmt in GRID_OPS:
        amp = _amp(rng, d, family)
        args = [cmd, *_state_args(family, d, amp)]
        op = {"cmd": cmd, "d": d, "family": family, "amp": amp, "fmt": fmt, "n": n}
        if cmd == "wigner":
            args += ["--nq", str(n), "--np", str(n)]
            # checked points lie in the central half of the window
            op["points"] = [(rng.randrange(n // 4, 3 * n // 4), rng.randrange(n // 4, 3 * n // 4))
                            for _ in range(WIGNER_CHECK_POINTS)]
        op["args"] = args
        ops.append(op)
    return ops


def cli_volume(rng):
    """Nonclassical-volume sweeps: Simpson refinement, tiny output. dim 4 in
    both formats and dim 8 once, so that the median op is a dim-4 sweep and
    not a mean of the two sizes."""
    return [{"cmd": "volume-sweep", "d": d, "fmt": fmt,
             "args": ["volume-sweep", "--dim", str(d), "--n-points", "16"]}
            for d, fmt in ((4, "csv"), (4, "json"), (8, rng.choice(("csv", "json"))))]


def lib_sweep(rng):
    """Amplitude sweep in one process: stratified fractions in [0.5, 1.5],
    dimensions interleaved so that any prefix of the pass has the same mix.
    Near one period the two families of large d are orthogonal to rounding,
    where the complementary state is undefined; those ops leave it out, and
    the stratified fractions keep their number nearly the same for every
    seed. The first LIB_WIGNER_OPS ops of each dimension query W at the
    origin and two seeded points; every op queries the tomogram at two."""
    ops = []
    for i in range(LIB_OPS_PER_DIM):
        for d in LIB_DIMS:
            lo = 0.5 + i / LIB_OPS_PER_DIM
            amp = _amp(rng, d, "cat-even", lo, lo + 1.0 / LIB_OPS_PER_DIM)
            reach = oracle.outer_radius(d)
            wpts = []
            if i < LIB_WIGNER_OPS:
                wpts = [(0.0, 0.0)]
                for _ in range(2):
                    r, phi = 0.8 * reach * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi)
                    wpts.append((r * math.cos(phi), r * math.sin(phi)))
            tpts = [(rng.uniform(-1.2, 1.2) * reach, rng.uniform(0.0, 2.0 * math.pi))
                    for _ in range(2)]
            ops.append({"d": d, "amp": [amp.real, amp.imag],
                        "gamma": oracle.well_conditioned("gamma", d, amp),
                        "wigner_points": wpts, "tomogram_points": tpts})
    return ops


def build(name, seed):
    rng = random.Random(f"{name}:{seed}")
    return {"cli-short": cli_short, "cli-grids": cli_grids,
            "cli-volume": cli_volume, "lib-sweep": lib_sweep}[name](rng)
