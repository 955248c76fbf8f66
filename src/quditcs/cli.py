"""Command-line surface: emit states, Wigner/tomogram grids, fidelity tables,
photon statistics, and nonclassical-volume sweeps as reproducible CSV or JSON
files.

Exit codes: 0 success, 2 argument/amplitude parse error, 3 domain error
(bad dimension, degenerate construction, ...), 4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeFormatError, ConvergenceError, QuditError
from .fock import fidelity, mixed_fidelity, photon_distribution
from .phase_space import nonclassical_volume, wigner_grid
from .qcs import (
    QcsParams,
    cat_state,
    complementary_state,
    linear_qcs,
    nonlinear_qcs,
    quasiperiod,
)
from .tomography import tomogram_grid

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NONCONVERGENCE = 4

_DEFAULT_TABLE_DIMS = (2, 3, 4, 5, 10, 11, 20, 21, 100, 101)
_GRID_DIM_CAP = 32
_SWEEP_DIM_CAP = 8

FAMILIES = ("alpha", "beta", "cat-even", "cat-odd", "gamma")


@dataclass(frozen=True)
class RunConfig:
    """Everything one command invocation needs, resolved from flags."""

    command: str
    dim: int = 2
    amplitude: str = "Td/2"
    family: str = "alpha"
    nq: int = 201
    npts: int = 201
    ntheta: int = 181
    window: float | None = None
    out: str = ""
    format: str = "csv"
    dims: tuple = _DEFAULT_TABLE_DIMS
    n_points: int = 64


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


def build_state(cfg: RunConfig):
    """Construct the requested family member at the resolved amplitude."""
    amp = parse_amplitude(cfg.amplitude, cfg.dim)
    params = QcsParams(dim=cfg.dim, amplitude=amp)
    if cfg.family == "alpha":
        return nonlinear_qcs(params)
    if cfg.family == "beta":
        return linear_qcs(params)
    if cfg.family == "cat-even":
        return cat_state("alpha", "even", params)
    if cfg.family == "cat-odd":
        return cat_state("alpha", "odd", params)
    if cfg.family == "gamma":
        return complementary_state(params)
    raise ValueError(f"unknown family {cfg.family!r}")


def _meta(cfg: RunConfig) -> str:
    return f"family={cfg.family};dim={cfg.dim};amp={cfg.amplitude}"


def _write_json(path: str, payload) -> None:
    """json.dump(payload, indent=1, sort_keys=True) and a newline.

    A grid payload's "values" (equal-length rows of finite floats) skips
    json's per-item encoder: the envelope is encoded with null in its place,
    and each row is written by one template of "%r", the repr json writes for
    a finite float. The bytes are the same.
    """
    with open(path, "w", newline="\n") as fh:
        rows = payload.get("values") if isinstance(payload, dict) else None
        if not (rows and rows[0]):  # json writes an empty matrix or row as []
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
            return
        # Strings escape their newlines, so only the top-level key can start a
        # line with a one-space indent.
        key = '\n "values": '
        head, tail = json.dumps({**payload, "values": None}, indent=1, sort_keys=True).split(
            key + "null"
        )
        template = "  [\n" + ",\n".join(["   %r"] * len(rows[0])) + "\n  ]"
        fh.write(head + key + "[\n")
        fh.write(",\n".join([template % tuple(row) for row in rows]))
        fh.write("\n ]" + tail + "\n")


def cmd_state(cfg: RunConfig) -> int:
    s = build_state(cfg)
    payload = {"meta": _meta(cfg), **s.to_json_dict()}
    if cfg.format == "csv":
        with open(cfg.out, "w", newline="\n") as fh:
            fh.write("n,re,im\n")
            for n, c in enumerate(s.amps):
                fh.write(f"{n},{c.real:.17g},{c.imag:.17g}\n")
    else:
        _write_json(cfg.out, payload)
    print(f"# {_meta(cfg)}")
    print("n |c_n| arg(c_n)")
    for n, c in enumerate(s.amps):
        print(f"{n:3d} {abs(c):.6f} {np.angle(c):+.6f}")
    return EXIT_OK


def cmd_fidelity_table(cfg: RunConfig) -> int:
    rows = []
    for d in cfg.dims:
        if d < 2:
            raise ValueError(f"fidelity table needs dimensions >= 2, got {d}")
        half = 0.5 * quasiperiod(d).value
        params = QcsParams(dim=d, amplitude=half)
        minus = QcsParams(dim=d, amplitude=-half)
        sign = "even" if d % 2 else "odd"
        alpha = nonlinear_qcs(params)
        beta = linear_qcs(params)
        alpha_cat = cat_state("alpha", sign, params)
        beta_cat = cat_state("beta", sign, params)
        rows.append(
            {
                "d": d,
                "f_alpha_beta": fidelity(alpha, beta),
                "f_alpha_cat_alpha": fidelity(alpha, alpha_cat),
                "f_alpha_cat_beta": fidelity(alpha, beta_cat),
                "f_cat_cat": fidelity(alpha_cat, beta_cat),
                "f_mix": mixed_fidelity(alpha, beta, linear_qcs(minus)),
            }
        )
    keys = ("f_alpha_beta", "f_alpha_cat_alpha", "f_alpha_cat_beta", "f_cat_cat", "f_mix")
    if cfg.format == "csv":
        with open(cfg.out, "w", newline="\n") as fh:
            fh.write("d," + ",".join(keys) + "\n")
            for row in rows:
                fh.write(str(row["d"]) + "," + ",".join(f"{row[k]:.4f}" for k in keys) + "\n")
    else:
        _write_json(
            cfg.out,
            [{"d": row["d"], **{k: round(row[k], 4) for k in keys}} for row in rows],
        )
    return EXIT_OK


def cmd_volume_sweep(cfg: RunConfig) -> int:
    if cfg.dim > _SWEEP_DIM_CAP:
        raise ValueError(
            f"volume sweep supports dim <= {_SWEEP_DIM_CAP} (quadrature cost), got {cfg.dim}"
        )
    if cfg.n_points < 2:
        raise ValueError(f"sweep needs at least 2 points, got {cfg.n_points}")
    period = quasiperiod(cfg.dim).value
    fracs = np.linspace(0.0, 2.0, cfg.n_points)
    rows = []
    for frac in fracs:
        params = QcsParams(dim=cfg.dim, amplitude=frac * period)
        rows.append(
            (
                frac,
                nonclassical_volume(nonlinear_qcs(params)),
                nonclassical_volume(linear_qcs(params)),
            )
        )
    if cfg.format == "csv":
        with open(cfg.out, "w", newline="\n") as fh:
            fh.write("amp_over_period,delta_alpha,delta_beta\n")
            for frac, da, db in rows:
                fh.write(f"{frac:.17g},{da:.17g},{db:.17g}\n")
    else:
        _write_json(
            cfg.out,
            [
                {"amp_over_period": frac, "delta_alpha": da, "delta_beta": db}
                for frac, da, db in rows
            ],
        )
    return EXIT_OK


def cmd_wigner(cfg: RunConfig) -> int:
    if cfg.dim > _GRID_DIM_CAP:
        raise ValueError(f"wigner grids support dim <= {_GRID_DIM_CAP}, got {cfg.dim}")
    s = build_state(cfg)
    window = None
    if cfg.window is not None:
        w = float(cfg.window)
        window = (-w, w, -w, w)
    grid = wigner_grid(s, window=window, nq=cfg.nq, npts=cfg.npts, state_meta=_meta(cfg))
    if cfg.format == "csv":
        grid.write_csv(cfg.out)
    else:
        _write_json(cfg.out, grid.to_json_dict())
    return EXIT_OK


def cmd_tomogram(cfg: RunConfig) -> int:
    if cfg.dim > _GRID_DIM_CAP:
        raise ValueError(f"tomogram grids support dim <= {_GRID_DIM_CAP}, got {cfg.dim}")
    s = build_state(cfg)
    tomo = tomogram_grid(s, nq=cfg.nq, ntheta=cfg.ntheta, state_meta=_meta(cfg))
    if cfg.format == "csv":
        tomo.write_csv(cfg.out)
    else:
        _write_json(cfg.out, tomo.to_json_dict())
    return EXIT_OK


def cmd_photon_dist(cfg: RunConfig) -> int:
    amp = parse_amplitude(cfg.amplitude, cfg.dim)
    params = QcsParams(dim=cfg.dim, amplitude=amp)
    p_alpha = photon_distribution(nonlinear_qcs(params))
    p_beta = photon_distribution(linear_qcs(params))
    if cfg.format == "csv":
        with open(cfg.out, "w", newline="\n") as fh:
            fh.write("n,p_alpha,p_beta\n")
            for n in range(cfg.dim):
                fh.write(f"{n},{p_alpha[n]:.17g},{p_beta[n]:.17g}\n")
    else:
        _write_json(
            cfg.out,
            [
                {"n": n, "p_alpha": p_alpha[n], "p_beta": p_beta[n]}
                for n in range(cfg.dim)
            ],
        )
    return EXIT_OK


_DISPATCH = {
    "state": cmd_state,
    "fidelity-table": cmd_fidelity_table,
    "volume-sweep": cmd_volume_sweep,
    "wigner": cmd_wigner,
    "tomogram": cmd_tomogram,
    "photon-dist": cmd_photon_dist,
}


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
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("state", help="emit one state vector")
    add_common(p)

    p = sub.add_parser("wigner", help="emit a Wigner-function grid")
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
    add_common(p)
    p.add_argument("--nq", type=int, default=201)
    p.add_argument("--ntheta", type=int, default=181)

    p = sub.add_parser("fidelity-table", help="emit the cat-state fidelity table")
    p.add_argument(
        "--dims",
        default=",".join(str(d) for d in _DEFAULT_TABLE_DIMS),
        help="comma-separated dimensions",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("volume-sweep", help="emit nonclassical volume vs amplitude")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n-points", type=int, default=64, dest="n_points")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("photon-dist", help="emit photon statistics for both families")
    add_common(p, family=False)
    return parser


def config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    kwargs = {"command": ns.command}
    for name, target in (
        ("dim", "dim"),
        ("amp", "amplitude"),
        ("family", "family"),
        ("nq", "nq"),
        ("npts", "npts"),
        ("ntheta", "ntheta"),
        ("window", "window"),
        ("out", "out"),
        ("format", "format"),
        ("n_points", "n_points"),
    ):
        if hasattr(ns, name) and getattr(ns, name) is not None:
            kwargs[target] = getattr(ns, name)
    if hasattr(ns, "dims"):
        try:
            kwargs["dims"] = tuple(int(tok) for tok in str(ns.dims).split(",") if tok)
        except ValueError:
            raise AmplitudeFormatError(f"--dims {ns.dims!r} is not a comma-separated int list") from None
        if not kwargs["dims"]:
            raise AmplitudeFormatError(f"--dims {ns.dims!r} lists no dimension")
    if "window" in kwargs:
        kwargs["window"] = float(kwargs["window"])
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = config_from_namespace(ns)
        return _DISPATCH[cfg.command](cfg)
    except AmplitudeFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (QuditError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
