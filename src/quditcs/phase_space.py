"""Wigner functions of truncated Fock-space states.

Point queries (wigner_state, wigner_values, wigner_fock, wigner_cross,
wigner_mixture) assemble W from bounded building blocks

    G_k^(m)(z) = sqrt(k!/(k+m)!) (2|z|)^m e^{-2|z|^2} L_k^(m)(4|z|^2),

swept by a three-term recurrence in k. Each block is O(1) for every k, m,
|z| in the supported range, so no per-point rescaling is needed. The
Fock-pair kernel is W_{k,k+m}(z) = (2/pi) (-1)^k G_k^(m) u^m with
u = (q - i p)/|z|: the diagonal (mixture) terms contribute
|c_n|^2 W_{n,n} and the off-diagonal (interference) terms
2 Re[c_k* c_{k+m} W_{k,k+m}]. One sweep (_kernel_sweep) steps k once for
all m at a time, on a block of points, so a block costs O(d) numpy steps
and O(d^2) arithmetic per point. Grids (wigner_grid) and the
nonclassical-volume quadrature (integrated |W| minus one) instead sample the
wavefunction once and take its Weyl transform as a matrix product, whose
cost does not grow with d; the Laguerre sweep stays their reference in the
tests. A grid is one product; the volume takes it in blocks of rows and
keeps only weighted column sums of |W|, and for real amplitudes (W even in
p) over the half-plane p >= 0 alone. What that transform needs besides the
amplitudes (node layout, psi_n table, weights, cos/sin table) depends only
on d and the two axes; it is a plan cached for the last few grids
(_weyl_plan), so the states of one volume sweep, which all refine on the
same ladder of grids, build it once.
Grids are written by gridcsv, which the tomogram shares: as CSV by
write_grid_csv, and the values of a JSON file by write_json_values, which
cli._write_json calls; both open their file through outfile.output_file,
which removes the file if writing it fails.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import _EXPORTS
from .errors import ConvergenceError
from .fock import QuditState, _grid_half_width, outer_radius
from .special_fn import hermite_function_table, log_factorial_array

__all__ = list(_EXPORTS["phase_space"])

TWO_OVER_PI = 2.0 / math.pi
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PhasePoint:
    """A point z = q + ip of the complex phase plane."""

    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise ValueError(f"phase-space point must be finite, got q={self.q}, p={self.p}")

    @property
    def z(self) -> complex:
        return complex(self.q, self.p)


def _simpson_weights(xs: np.ndarray) -> np.ndarray:
    """Composite Simpson weights h/3 [1, 4, 2, ..., 2, 4, 1] of an odd-sized uniform axis."""
    sw = np.full(xs.size, 2.0)
    sw[1::2] = 4.0
    sw[0] = sw[-1] = 1.0
    return sw * ((xs[-1] - xs[0]) / (3.0 * (xs.size - 1)))


def _reach(d: int) -> float:
    """sqrt(2d + 1) + 6, beyond which a d-level wavefunction is negligible in
    x = sqrt(2) q and in sqrt(2) p."""
    return math.sqrt(2.0 * d + 1.0) + 6.0


def _nyquist_step(d: int) -> float:
    """pi / (2 sqrt(2) _reach(d)): along any line, W of a d-level state is a
    Gaussian times a polynomial with spectrum within 2 sqrt(2) _reach(d), so
    samples this fine do not alias, and their trapezoid sum is exact."""
    return math.pi / (2.0 * SQRT2 * _reach(d))


# Points per block of a point query, which keeps the working memory of the
# kernel sweep at O(d * _POINT_BLOCK) whatever the number of points.
_POINT_BLOCK = 512


# Dimensions whose Laguerre step tables (_laguerre_steps) are kept at once.
# A table holds d (d - 1) floats, 0.2 MB at d = 150.
_STEP_TABLE_CACHE = 4


@lru_cache(maxsize=_STEP_TABLE_CACHE)
def _laguerre_steps(d: int) -> tuple:
    """For k = 0..d-2, the read-only columns

        (sqrt(k (k + m)), sqrt((k + 1) (k + 1 + m))),  m = 0..d-2-k,

    of the step from k to k + 1 in _kernel_sweep; they depend on d alone."""
    m = np.arange(d)
    steps = []
    for k in range(d - 1):
        mk = m[: d - k - 1, None]
        pair = (np.sqrt(k * (k + mk)), np.sqrt((k + 1) * (k + 1 + mk)))
        for col in pair:
            col.flags.writeable = False
        steps.append(pair)
    return tuple(steps)


def _kernel_sweep(d: int, r2: np.ndarray):
    """Yield, for k = 0..d-1, the (d - k) x N array of kernel rows

        R_k[m] = (-1)^k G_k^(m),  m = 0..d-1-k,

    at the 1-d array r2 of |z|^2 values; the Fock-pair kernel is
    W_{k,k+m}(z) = (2/pi) R_k[m] u^m (module docstring). G_0^(m) is taken
    through logs so no factor overflows, and R_0[0] = e^{-2|z|^2} exactly.
    Each step in k is the three-term recurrence for every m at once, with
    (-1)^k folded in and its square-root factors read from _laguerre_steps.

    |z|^2 is capped at 1e300: every block has underflowed to 0 long before,
    and past the cap 4|z|^2 (or q^2 + p^2 itself) would overflow and the
    blocks would turn to NaN instead.
    """
    r2 = np.minimum(r2, 1e300)
    m = np.arange(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_g = np.outer(m, np.log(2.0 * np.sqrt(r2))) - 2.0 * r2
    rows = np.exp(log_g - 0.5 * log_factorial_array(d - 1)[:, None])
    rows[0] = np.exp(-2.0 * r2)
    shift = 4.0 * r2 - (m + 1.0)[:, None]  # 4|z|^2 - (2k + 1 + m) at k = 0
    prev = np.zeros_like(rows)
    yield rows
    for k, (root_in, root_out) in enumerate(_laguerre_steps(d)):
        n = d - k - 1
        step = (shift[:n] - 2 * k) * rows[:n] - root_in * prev[:n]
        prev, rows = rows, step / root_out
        yield rows


def _eval_wigner(amps: np.ndarray, q, p) -> np.ndarray:
    """Vectorized W(q, p) for one amplitude vector; q, p broadcast together.

    W = (2/pi) sum_m Re[u^m S_m] with S_m = sum_k (2 - delta_m0) c_k* c_{k+m}
    R_k[m]: u^m does not depend on k, so it is applied once per m after the
    sweep has summed over k.
    """
    q, p = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(p, dtype=float))
    shape = q.shape
    q = q.ravel()
    p = p.ravel()
    d = amps.size
    weights = [2.0 * np.conj(c) * amps[k:] for k, c in enumerate(amps)]
    for w, c in zip(weights, amps):
        w[0] = abs(c) ** 2
    acc = np.empty(q.size)
    for lo in range(0, q.size, _POINT_BLOCK):
        qb, pb = q[lo : lo + _POINT_BLOCK], p[lo : lo + _POINT_BLOCK]
        s = np.zeros((d, qb.size), dtype=complex)
        # Past |z| ~ 1.3e154 |z|^2 overflows to inf, which _kernel_sweep caps.
        with np.errstate(over="ignore"):
            r2 = qb * qb + pb * pb
        for w, rows in zip(weights, _kernel_sweep(d, r2)):
            s[: w.size] += w[:, None] * rows
        # u^m = e^{-i m phi}, so Re[u^m S_m] = cos(m phi) Re S_m + sin(m phi) Im S_m
        mphi = np.outer(np.arange(d), np.arctan2(pb, qb))
        terms = s.real * np.cos(mphi) + s.imag * np.sin(mphi)
        # Each point sums its d terms as one contiguous row, in the order
        # numpy gives a lone point, so a value does not depend on its call.
        acc[lo : lo + qb.size] = np.ascontiguousarray(terms.T).sum(axis=1)
    return (TWO_OVER_PI * acc).reshape(shape)


def wigner_values(s: QuditState, q, p) -> np.ndarray:
    """W sampled at broadcastable arrays of finite quadrature coordinates."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if not (np.isfinite(q).all() and np.isfinite(p).all()):
        raise ValueError("Wigner coordinates must be finite")
    return _eval_wigner(s.amps, q, p)


def wigner_state(s: QuditState, pt: PhasePoint) -> float:
    """W(z) for a pure state: mixture part plus interference part."""
    return float(_eval_wigner(s.amps, pt.q, pt.p)[()])


def _point_sweep(d: int, pt: PhasePoint):
    """Kernel rows R_k[m], as 1-d arrays, of dimension d at the single point pt."""
    return (rows[:, 0] for rows in _kernel_sweep(d, np.array([pt.q * pt.q + pt.p * pt.p])))


def wigner_fock(n: int, pt: PhasePoint) -> float:
    """Wigner function of the Fock state |n>:

    W_n(z) = (2/pi) (-1)^n e^{-2|z|^2} L_n(4|z|^2),

    evaluated through the bounded G-recurrence (no overflow for any
    supported n and |z|).
    """
    if n < 0:
        raise ValueError(f"Fock index must be nonnegative, got {n}")
    return float(TWO_OVER_PI * next(islice(_point_sweep(n + 1, pt), n, None))[0])


def wigner_cross(k: int, l: int, pt: PhasePoint) -> complex:
    """Off-diagonal Wigner kernel element W_kl(z) for l > k:

    (2/pi) (-1)^k sqrt(k!/l!) (2 z*)^{l-k} e^{-2|z|^2} L_k^{(l-k)}(4|z|^2).

    The (l, k) element is its complex conjugate, which is what makes the
    interference sum real.
    """
    if k < 0 or l <= k:
        raise ValueError(f"need l > k >= 0, got k={k}, l={l}")
    g = next(islice(_point_sweep(l + 1, pt), k, None))[l - k]
    return complex(TWO_OVER_PI * g * cmath.exp(-1j * (l - k) * math.atan2(pt.p, pt.q)))


def wigner_mixture(s: QuditState, pt: PhasePoint) -> float:
    """The Fock-diagonal (mixture) part alone: sum_n |c_n|^2 W_n(z).

    Depends on |z| only, hence invariant under phase-space rotations.
    """
    diagonal = np.array([rows[0] for rows in _point_sweep(s.dim, pt)])
    return float(TWO_OVER_PI * (np.abs(s.amps) ** 2 @ diagonal))


# Weyl plans kept at once. A volume sweep evaluates the same two or three
# rungs for every state of one d; a larger bound would only hold more memory
# (the plans of a d = 150 sweep's 2049- and 4097-point rungs take 50 MB).
_WEYL_PLAN_CACHE = 4


@dataclass(frozen=True, eq=False)
class _WeylPlan:
    """Everything of a Weyl grid (_weyl_grid) that depends only on d and the axes.

    psi is sampled on n_nodes nodes, of which those in `inside` lie within
    reach and take their values from `table` (psi_n at those nodes, d rows).
    plus and minus locate psi(x_i + y_k) and psi(x_i - y_k) in that sample
    as (offset, row step, column step), in nodes. weights are the trapezoid
    weights in y with 2/pi folded in, and trig interleaves cos and -sin of
    the phases 2 sqrt(2) p_j y_k, so that trig row 2k + 1 meets the
    imaginary part of kernel column k when the complex kernel is read as
    real pairs. A real plan, for real amplitudes, whose kernel is real and
    whose W is even in p, holds only the cos rows, over the columns with
    p >= 0. Every array is read-only.
    """

    rows: slice
    cols: slice
    n_nodes: int
    inside: np.ndarray
    table: np.ndarray
    plus: tuple[int, int, int]
    minus: tuple[int, int, int]
    weights: np.ndarray
    trig: np.ndarray


@lru_cache(maxsize=_WEYL_PLAN_CACHE)
def _weyl_plan(d: int, q_bytes: bytes, p_bytes: bytes, real: bool) -> _WeylPlan | None:
    """The plan of a d-level grid on the axes whose float64 bytes are given,
    real or complex (_WeylPlan); None when no row or column lies within
    reach, so the grid is all zeros."""
    qs = np.frombuffer(q_bytes)
    ps = np.frombuffer(p_bytes)
    reach = _reach(d)
    rows = np.flatnonzero(SQRT2 * np.abs(qs) <= reach)
    cols = np.flatnonzero(SQRT2 * np.abs(ps) <= reach)
    if rows.size == 0 or cols.size == 0:
        return None
    rows = slice(int(rows[0]), int(rows[-1]) + 1)
    cols = slice(int(cols[0]), int(cols[-1]) + 1)
    n_rows = rows.stop - rows.start
    h_max = math.pi / (reach + SQRT2 * np.max(np.abs(ps[cols])))
    half_dx = (qs[-1] - qs[0]) / ((qs.size - 1) * SQRT2)
    if half_dx <= h_max:
        fine, stride = 1, float(int(h_max / half_dx))
    else:
        fine, stride = math.ceil(half_dx / h_max), 1.0
    step = half_dx / fine
    ks = np.arange(int(reach / (stride * step)) + 1)
    # Node j of the fine sample sits at x0 + j * step. Node indices are
    # floats: a window far narrower than h puts them past int64, and below
    # 2**53 they are exact.
    x0 = SQRT2 * qs[rows.start]
    lo, hi = -stride * ks[-1], 2.0 * fine * (n_rows - 1) + stride * ks[-1]
    if hi - lo + 1 <= 2 * n_rows * ks.size:
        # x_i +- y_k are nodes -lo + 2 fine i +- stride k of one dense sample.
        # A lone row, as on any window far wider than the reach, takes row
        # step 0: 2 fine nodes would overflow int64 strides past about 1e19.
        row_step = 2 * fine if n_rows > 1 else 0
        nodes = np.arange(lo, hi + 1)
        plus = (int(-lo), row_step, int(stride))
        minus = (int(-lo), row_step, -int(stride))
    else:
        # A window much narrower than h: sample psi at the kernel's points.
        centre = 2.0 * fine * np.arange(n_rows)[:, None]
        nodes = np.concatenate([(centre + stride * ks).ravel(), (centre - stride * ks).ravel()])
        plus = (0, ks.size, 1)
        minus = (n_rows * ks.size, ks.size, 1)
    x = x0 + nodes * step
    inside = np.flatnonzero(np.abs(x) <= reach)
    table = hermite_function_table(d - 1, x[inside])
    h = stride * step
    weights = np.full(ks.size, TWO_OVER_PI * (2.0 * h))
    weights[0] = TWO_OVER_PI * h
    if real:
        cols = slice(cols.start + int(np.count_nonzero(ps[cols] < 0.0)), cols.stop)
    phase = (2.0 * SQRT2 * h) * np.outer(ks, ps[cols])
    if real:
        trig = np.cos(phase, out=phase)
    else:
        trig = np.empty((ks.size, 2, phase.shape[1]))
        np.cos(phase, out=trig[:, 0])
        np.sin(phase, out=trig[:, 1])
        trig[:, 1] *= -1.0
        trig = trig.reshape(2 * ks.size, -1)
    for a in (inside, table, weights, trig):
        a.flags.writeable = False
    return _WeylPlan(
        rows=rows,
        cols=cols,
        n_nodes=nodes.size,
        inside=inside,
        table=table,
        plus=plus,
        minus=minus,
        weights=weights,
        trig=trig,
    )


def _weyl_psi(plan: _WeylPlan, amps: np.ndarray, real: bool) -> np.ndarray:
    """psi = sum_n c_n psi_n at the plan's nodes, zero outside reach; real
    (from the real parts of amps) for a real plan."""
    psi = np.zeros(plan.n_nodes, dtype=float if real else complex)
    psi[plan.inside] = (amps.real if real else amps) @ plan.table
    return psi


def _weyl_kernel(plan: _WeylPlan, psi: np.ndarray, lo: int, out: np.ndarray) -> np.ndarray:
    """Rows lo .. lo + len(out) of the weighted kernel psi*(x_i + y_k)
    psi(x_i - y_k) w_k, over the plan's rows, written into out."""
    # Entry (i, k) of a view is psi[offset + row_step (lo + i) + col_step k];
    # the plan's steps keep every such index within [0, n_nodes).
    def view(offset, row_step, col_step):
        return as_strided(
            psi[offset + row_step * lo :],
            out.shape,
            (row_step * psi.itemsize, col_step * psi.itemsize),
            writeable=False,
        )

    np.conjugate(view(*plan.plus), out=out)
    out *= view(*plan.minus)
    out *= plan.weights
    return out


def _weyl_grid(amps: np.ndarray, qs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """values[i, j] = W(qs[i], ps[j]) for a uniform q axis and a monotonic p axis.

    Pure-state Weyl transform (the route of QuTiP's wigner; Johansson, Nation
    & Nori, Comput. Phys. Commun. 183, 1760 (2012)). With x = sqrt(2) q,

        W(q, p) = (2/pi) int psi*(x+y) psi(x-y) e^{2i sqrt(2) p y} dy,

    where psi = sum_n c_n psi_n. The integrand at -y is the conjugate of the
    one at y, so the trapezoid rule runs over y_k = k h, k >= 0, with weights
    h, 2h, 2h, ... . psi is negligible beyond reach = _reach(d) in
    position and in momentum, so rows with |x| > reach vanish, columns with
    sqrt(2)|p| > reach are left at zero, and h <= pi / (reach + sqrt(2)
    max|p|) keeps the rule free of aliasing. h is an integer multiple or an
    integer fraction of half the x-step, so every x_i +- y_k is a node of
    one fine psi sample; when that sample would hold more nodes than the
    kernel has entries (a window much narrower than h), psi is evaluated at
    the kernel's points directly.

    All of this depends on d and the axes only, so it lives in a _WeylPlan,
    cached per (d, qs, ps) by _weyl_plan: the node layout, the psi_n table
    at the nodes, the weights and the cos/sin table. A volume sweep's states
    share the plans of its rungs. Per state, a grid costs one amps @ table
    for psi, the kernel psi*(x+y) psi(x-y) read through strided views of
    psi, and one real (rows x 2k) @ (2k x columns) product that sums over k
    straight into the returned array, which is always a new one.
    """
    values = np.zeros((qs.size, ps.size))
    plan = _weyl_plan(amps.size, qs.tobytes(), ps.tobytes(), False)
    if plan is None:
        return values
    psi = _weyl_psi(plan, amps, False)
    kernel = np.empty((plan.rows.stop - plan.rows.start, plan.weights.size), dtype=complex)
    _weyl_kernel(plan, psi, 0, kernel)
    np.matmul(kernel.view(float), plan.trig, out=values[plan.rows, plan.cols])
    return values


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """W sampled on a uniform rectangle; values[i, j] = W(q_i, p_j)."""

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    nq: int
    np: int
    values: np.ndarray
    state_meta: str

    def q_axis(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.nq)

    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.np)

    def write_csv(self, path) -> None:
        """Rows of q,p,w with q as the outer loop; 17 significant digits."""
        from .gridcsv import write_grid_csv  # compiled only where a grid CSV is written

        write_grid_csv(path, "q,p,w", self.q_axis(), self.p_axis(), self.values, outer_first=True)

    def to_json_dict(self, values_as_list: bool = True) -> dict:
        """The JSON fields; values_as_list=False keeps values as the array,
        for a writer that formats it itself (cli._write_json)."""
        return {
            "q_min": self.q_min,
            "q_max": self.q_max,
            "p_min": self.p_min,
            "p_max": self.p_max,
            "nq": self.nq,
            "np": self.np,
            "state_meta": self.state_meta,
            "values": self.values.tolist() if values_as_list else self.values,
        }


def wigner_grid(
    s: QuditState,
    window=None,
    nq: int = 201,
    npts: int = 201,
    state_meta: str | None = None,
) -> WignerGrid:
    """Sample W on a uniform grid.

    window is (q_min, q_max, p_min, p_max); None means the square of
    half-width _grid_half_width(dim) = outer_radius(dim) + 2 centered at the
    origin. Values come from the Weyl transform of the sampled wavefunction
    (two matrix products, see _weyl_grid) and agree with the pointwise
    Laguerre sweep to rounding.
    """
    if nq < 16 or npts < 16:
        raise ValueError(f"grid needs at least 16 points per axis, got {nq} x {npts}")
    if window is None:
        hw = _grid_half_width(s.dim)
        window = (-hw, hw, -hw, hw)
    q_min, q_max, p_min, p_max = (float(v) for v in window)
    if not (q_min < q_max and p_min < p_max):
        raise ValueError(f"degenerate window {window}")
    # A finite span implies finite bounds; linspace over an infinite span gives NaN axes.
    if not (math.isfinite(q_max - q_min) and math.isfinite(p_max - p_min)):
        raise ValueError(f"window {window} is not finite or its span overflows")
    # _weyl_grid indexes x nodes by q step; steps this small give subnormal,
    # non-uniform axes and node indices beyond the float range.
    if (q_max - q_min) / (nq - 1) < 1e-305:
        raise ValueError(f"window {window} has a q step below 1e-305")
    qs = np.linspace(q_min, q_max, nq)
    ps = np.linspace(p_min, p_max, npts)
    values = _weyl_grid(s.amps, qs, ps)
    if state_meta is None:
        state_meta = f"dim={s.dim}"
    return WignerGrid(
        q_min=q_min,
        q_max=q_max,
        p_min=p_min,
        p_max=p_max,
        nq=nq,
        np=npts,
        values=values,
        state_meta=state_meta,
    )


# Largest integral-of-|W| excess over 1 that rounding alone produces. The
# Weyl grid carries a fixed rounding bias of a few ulp; for the vacuum, whose
# W is nonnegative, the excess measured at most 4e-15 up to d = 150. Smaller
# volumes are not resolved and read as zero.
_VOLUME_ROUNDING_FLOOR = 1e-12


# The volume's tolerance between a grid's estimate and its subgrid's, and
# its top rung, of 128 * 2^_VOLUME_MAX_REFINEMENTS + 1 points.
_VOLUME_TOL = 1e-3
_VOLUME_MAX_REFINEMENTS = 6


# Grid rows per block of a volume rung. A block's kernel and product buffer
# take O(_VOLUME_ROW_BLOCK * (k + columns)) memory whatever the rung: 5 MB
# for a real state at d = 150 on the 4097-point rung, whose whole |W| grid
# would take 134 MB.
_VOLUME_ROW_BLOCK = 256


def _abs_weyl_sums(amps: np.ndarray, xs: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """w[r] |W| w[r] for the two rows r of w, with W on the square grid xs x xs.

    The grid is never held: blocks of _VOLUME_ROW_BLOCK rows of the Weyl
    transform (_weyl_grid) go through one kernel and one product buffer, and
    each block's |W| is folded into the (2, columns) sums w[:, rows] @ |W|.
    Real amplitudes take a real plan: a real kernel, the cos rows alone, and
    the columns with p >= 0 only, since W(q, -p) = W(q, p); the axis is
    symmetric about its centre node, 0 exactly, whose column counts once
    while every other column counts twice.
    """
    real = not amps.imag.any()
    # xs holds 0, which is within reach, so there is a plan.
    plan = _weyl_plan(amps.size, xs.tobytes(), xs.tobytes(), real)
    psi = _weyl_psi(plan, amps, real)
    n_rows = plan.rows.stop - plan.rows.start
    size = min(n_rows, _VOLUME_ROW_BLOCK)
    kernel = np.empty((size, plan.weights.size), dtype=psi.dtype)
    block = np.empty((size, plan.trig.shape[1]))
    wq = w[:, plan.rows]
    sums = np.zeros((2, block.shape[1]))
    for lo in range(0, n_rows, size):
        k = _weyl_kernel(plan, psi, lo, kernel[: n_rows - lo])
        b = block[: k.shape[0]]
        np.matmul(k.view(float), plan.trig, out=b)
        np.abs(b, out=b)
        sums += wq[:, lo : lo + b.shape[0]] @ b
    wp = w[:, plan.cols]
    if real:
        # xs has 2^k + 1 nodes, so linspace puts its centre at 0 exactly,
        # and the real plan's first column is that node.
        wp = 2.0 * wp
        wp[:, 0] *= 0.5
    return tuple(float(a @ b) for a, b in zip(sums, wp))


def nonclassical_volume(s: QuditState) -> float:
    """Nonclassical volume: integral of |W| over the plane, minus 1.

    Zero exactly for states with nonnegative W (the integral is then the
    normalization); positive whenever W dips below zero. Computed by Simpson
    quadrature of Weyl-transform grids (_abs_weyl_sums, in row blocks) on the
    square |q|, |p| <= outer_radius(d) + 3, of 128 * 2^j + 1 points a side,
    j <= _VOLUME_MAX_REFINEMENTS: the first grid whose estimate agrees within
    _VOLUME_TOL with that of its every-other-node subgrid gives the result.
    The first subgrid is the first rung at or below W's Nyquist step, since
    two grids that both under-sample W can agree by chance (at d = 150 the
    129- and 257-point volumes agree, and both are 0.04 off). A budget below
    that rung raises ValueError before any grid is sampled; ConvergenceError
    means the grids did not settle, or lost mass.
    """
    hw = outer_radius(s.dim) + 3.0
    first = 1  # rung of the first grid; its subgrid is one rung below
    while 2.0 * hw / (64 << first) > _nyquist_step(s.dim):
        first += 1
    if _VOLUME_MAX_REFINEMENTS < first:
        raise ValueError(
            f"volume quadrature at d={s.dim} starts on the {(128 << first) + 1}-point "
            f"grid and needs max_refinements >= {first}, got {_VOLUME_MAX_REFINEMENTS}"
        )
    for j in range(first, _VOLUME_MAX_REFINEMENTS + 1):
        xs = np.linspace(-hw, hw, (128 << j) + 1)
        coarse = np.zeros(xs.size)  # the subgrid's weights, zero on odd nodes
        coarse[::2] = _simpson_weights(xs[::2])
        w = np.array([_simpson_weights(xs), coarse])
        integral, check = _abs_weyl_sums(s.amps, xs, w)
        if abs(integral - check) <= _VOLUME_TOL:
            break
    else:
        raise ConvergenceError(
            f"volume quadrature did not settle within tol={_VOLUME_TOL} "
            f"on grids of up to {(128 << _VOLUME_MAX_REFINEMENTS) + 1} points"
        )
    delta = integral - 1.0
    if delta < -2e-4:
        raise ConvergenceError(f"quadrature lost probability mass: integral {integral:.6g}")
    return delta if delta > _VOLUME_ROUNDING_FLOOR else 0.0
