"""Command-line surface: emit states, Wigner/tomogram grids, fidelity tables,
photon statistics, and nonclassical-volume sweeps as reproducible CSV or JSON
files.

Exit codes: 0 success, 2 argument/amplitude parse error, 3 domain error
(bad dimension, degenerate construction, an allocation that fails, ...),
4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import AmplitudeFormatError, ConvergenceError, QuditError
from .fock import _check_axis_counts, fidelity, mixed_fidelity, photon_distribution
from .outfile import output_file
from .qcs import (
    QcsParams,
    cat_state,
    complementary_state,
    linear_qcs,
    nonlinear_qcs,
    quasiperiod,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NONCONVERGENCE = 4

FAMILIES = ("alpha", "beta", "cat-even", "cat-odd", "gamma")


# phase_space and tomography are imported by the commands that call them, so
# that no other command loads them. These forwarders keep their functions
# attributes of this module, where tests patch them and the benchmark's
# traced mode wraps them.
def wigner_grid(*args, **kwargs):
    from .phase_space import wigner_grid

    return wigner_grid(*args, **kwargs)


def tomogram_grid(*args, **kwargs):
    from .tomography import tomogram_grid

    return tomogram_grid(*args, **kwargs)


def nonclassical_volume(*args, **kwargs):
    from .phase_space import nonclassical_volume

    return nonclassical_volume(*args, **kwargs)


def parse_amplitude(token: str, dim: int) -> complex:
    """Resolve an --amp value: 're', 're,im', or the symbolic 'Td' / 'Td/2'.

    Malformed or non-finite (nan, inf) values raise AmplitudeFormatError.
    """
    text = token.strip()
    lowered = text.lower()
    if lowered in ("td", "td/2"):
        period = quasiperiod(dim).value
        return complex(period if lowered == "td" else 0.5 * period)
    parts = text.split(",")
    if len(parts) > 2 or not text:
        raise AmplitudeFormatError(
            f"amplitude {token!r} is not 're', 're,im', 'Td' or 'Td/2'"
        )
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise AmplitudeFormatError(
            f"amplitude {token!r} is not 're', 're,im', 'Td' or 'Td/2'"
        ) from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise AmplitudeFormatError(f"amplitude {token!r} is not finite")
    return complex(re, im)


def build_state(ns: argparse.Namespace):
    """Construct the requested family member at the resolved amplitude."""
    amp = parse_amplitude(ns.amp, ns.dim)
    params = QcsParams(dim=ns.dim, amplitude=amp)
    if ns.family == "alpha":
        return nonlinear_qcs(params)
    if ns.family == "beta":
        return linear_qcs(params)
    if ns.family == "cat-even":
        return cat_state("alpha", "even", params)
    if ns.family == "cat-odd":
        return cat_state("alpha", "odd", params)
    if ns.family == "gamma":
        return complementary_state(params)
    raise ValueError(f"unknown family {ns.family!r}")


def parse_dims(text: str) -> list[int]:
    """Resolve a --dims value, a comma-separated list of at least one int."""
    try:
        dims = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise AmplitudeFormatError(f"--dims {text!r} is not a comma-separated int list") from None
    if not dims:
        raise AmplitudeFormatError(f"--dims {text!r} lists no dimension")
    return dims


def _meta(ns: argparse.Namespace) -> str:
    return f"family={ns.family};dim={ns.dim};amp={ns.amp}"


def _write_json(path: str, payload) -> None:
    """json.dump(payload, indent=1, sort_keys=True) and a newline: a row
    table or a state file (grid files are written by their write_json)."""
    import json  # loaded by JSON writes alone

    with output_file(path) as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_rows(ns: argparse.Namespace, columns, line: str, rows, payload=None) -> None:
    """Write a row table to ns.out in ns.format.

    The CSV is the comma-joined columns, then line % row for each row. The
    JSON is a list of {column: value} objects, or payload when one is given
    (a state file is one object).
    """
    if ns.format == "csv":
        with output_file(ns.out) as fh:
            fh.write(",".join(columns) + "\n")
            fh.writelines([line % row for row in rows])
    elif payload is None:
        _write_json(ns.out, [dict(zip(columns, row)) for row in rows])
    else:
        _write_json(ns.out, payload)


def _write_grid(ns: argparse.Namespace, grid) -> None:
    """Write a WignerGrid or Tomogram to ns.out in ns.format."""
    if ns.format == "csv":
        grid.write_csv(ns.out)
    else:
        grid.write_json(ns.out)


def cmd_state(ns: argparse.Namespace) -> int:
    s = build_state(ns)
    _write_rows(
        ns,
        ("n", "re", "im"),
        "%d,%.17g,%.17g\n",
        zip(range(s.dim), s.amps.real, s.amps.imag),
        payload={"meta": _meta(ns), **s.to_json_dict()},
    )
    print(f"# {_meta(ns)}")
    print("n |c_n| arg(c_n)")
    for n, c in enumerate(s.amps):
        print(f"{n:3d} {abs(c):.6f} {np.angle(c):+.6f}")
    return EXIT_OK


def cmd_fidelity_table(ns: argparse.Namespace) -> int:
    rows = []
    for d in parse_dims(ns.dims):
        half = 0.5 * quasiperiod(d).value
        params = QcsParams(dim=d, amplitude=half)
        minus = QcsParams(dim=d, amplitude=-half)
        sign = "even" if d % 2 else "odd"
        alpha = nonlinear_qcs(params)
        beta = linear_qcs(params)
        alpha_cat = cat_state("alpha", sign, params)
        beta_cat = cat_state("beta", sign, params)
        fids = (
            fidelity(alpha, beta),
            fidelity(alpha, alpha_cat),
            fidelity(alpha, beta_cat),
            fidelity(alpha_cat, beta_cat),
            mixed_fidelity(alpha, beta, linear_qcs(minus)),
        )
        # round() is correctly rounded, so "%.4f" of the rounded value is
        # "%.4f" of the value itself.
        rows.append((d, *(round(f, 4) for f in fids)))
    columns = ("d", "f_alpha_beta", "f_alpha_cat_alpha", "f_alpha_cat_beta", "f_cat_cat", "f_mix")
    _write_rows(ns, columns, "%d" + ",%.4f" * 5 + "\n", rows)
    return EXIT_OK


def cmd_volume_sweep(ns: argparse.Namespace) -> int:
    if ns.n_points < 2:
        raise ValueError(f"sweep needs at least 2 points, got {ns.n_points}")
    _check_axis_counts(ns.n_points)
    period = quasiperiod(ns.dim).value
    rows = []
    for frac in np.linspace(0.0, 2.0, ns.n_points):
        params = QcsParams(dim=ns.dim, amplitude=frac * period)
        rows.append(
            (
                frac,
                nonclassical_volume(nonlinear_qcs(params)),
                nonclassical_volume(linear_qcs(params)),
            )
        )
    columns = ("amp_over_period", "delta_alpha", "delta_beta")
    _write_rows(ns, columns, "%.17g,%.17g,%.17g\n", rows)
    return EXIT_OK


def cmd_wigner(ns: argparse.Namespace) -> int:
    s = build_state(ns)
    w = ns.window
    window = None if w is None else (-w, w, -w, w)
    _write_grid(ns, wigner_grid(s, window=window, nq=ns.nq, npts=ns.npts, state_meta=_meta(ns)))
    return EXIT_OK


def cmd_tomogram(ns: argparse.Namespace) -> int:
    s = build_state(ns)
    _write_grid(ns, tomogram_grid(s, nq=ns.nq, ntheta=ns.ntheta, state_meta=_meta(ns)))
    return EXIT_OK


def cmd_photon_dist(ns: argparse.Namespace) -> int:
    amp = parse_amplitude(ns.amp, ns.dim)
    params = QcsParams(dim=ns.dim, amplitude=amp)
    p_alpha = photon_distribution(nonlinear_qcs(params))
    p_beta = photon_distribution(linear_qcs(params))
    rows = zip(range(ns.dim), p_alpha, p_beta)
    _write_rows(ns, ("n", "p_alpha", "p_beta"), "%d,%.17g,%.17g\n", rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditcs",
        description="Finite-dimensional coherent states: grids, tables, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, family=True):
        p.add_argument("--dim", type=int, default=2, help="Fock-space dimension d")
        p.add_argument(
            "--amp",
            default="Td/2",
            help="complex amplitude: 're', 're,im', or symbolic 'Td', 'Td/2'",
        )
        if family:
            p.add_argument("--family", choices=FAMILIES, default="alpha")

    p = sub.add_parser("state", help="emit one state vector")
    p.set_defaults(run=cmd_state)
    add_common(p)

    p = sub.add_parser("wigner", help="emit a Wigner-function grid")
    p.set_defaults(run=cmd_wigner)
    add_common(p)
    p.add_argument("--nq", type=int, default=201)
    p.add_argument("--np", type=int, default=201, dest="npts")
    p.add_argument(
        "--window",
        type=float,
        default=None,
        help="half-width of the square sampling window (default: outer radius + 2)",
    )

    p = sub.add_parser("tomogram", help="emit an optical-tomogram grid")
    p.set_defaults(run=cmd_tomogram)
    add_common(p)
    p.add_argument("--nq", type=int, default=201)
    p.add_argument("--ntheta", type=int, default=181)

    p = sub.add_parser("fidelity-table", help="emit the cat-state fidelity table")
    p.set_defaults(run=cmd_fidelity_table)
    p.add_argument(
        "--dims",
        default="2,3,4,5,10,11,20,21,100,101",
        help="comma-separated dimensions",
    )

    p = sub.add_parser("volume-sweep", help="emit nonclassical volume vs amplitude")
    p.set_defaults(run=cmd_volume_sweep)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n-points", type=int, default=64, dest="n_points")

    p = sub.add_parser("photon-dist", help="emit photon statistics for both families")
    p.set_defaults(run=cmd_photon_dist)
    add_common(p, family=False)

    for p in sub.choices.values():
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.run(ns)
    except AmplitudeFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (QuditError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
