"""Probabilists' Hermite polynomials, their root/weight tables, and
log-factorial tables.

The probabilists' family He_n is the one orthogonal under the standard
normal weight exp(-x^2/2); everything downstream (coefficient expansions,
quadrature weights) is phrased in terms of the orthonormal version
p_n = He_n / sqrt(n!), which stays O(1) where the raw polynomials overflow.

Each table has one builder: he_roots makes the root, Christoffel-weight and
weighted-polynomial arrays of a degree together, and log_factorial_array
makes the ln(n!) table; both are cached per size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _EXPORTS
from .errors import ConvergenceError

__all__ = list(_EXPORTS["special_fn"])

# Largest Hermite degree / Fock dimension the package commits to handling.
MAX_DEGREE = 150


def he_eval(n: int, x):
    """Probabilists' Hermite polynomial He_n(x).

    Uses the three-term recurrence He_{k+1} = x He_k - k He_{k-1}.
    Accepts a scalar or an array; returns the matching shape.
    """
    if n < 0:
        raise ValueError(f"polynomial degree must be nonnegative, got {n}")
    arr = np.asarray(x, dtype=float)
    prev = np.zeros_like(arr)
    cur = np.ones_like(arr)
    for k in range(n):
        prev, cur = cur, arr * cur - k * prev
    return float(cur) if arr.ndim == 0 else cur


@lru_cache(maxsize=256)
def _sqrt_table(n_max: int) -> tuple:
    """(math.sqrt(0), ..., math.sqrt(n_max)) as Python floats, read-only."""
    return tuple(math.sqrt(k) for k in range(n_max + 1))


def _orthonormal_recurrence(n_max: int, x, seed) -> np.ndarray:
    """Rows seed * p_0(x) .. seed * p_{n_max}(x) of the orthonormal recurrence.

    The recurrence is linear in its rows, so the seed scales all of them;
    seeding with a Gaussian keeps the Hermite functions bounded where p_n
    alone would overflow.

    x and seed are arrays of one shape, or one point as two Python floats,
    which counts as the shape (1,). A single point steps on Python floats:
    a numpy step on a one-element array costs about 6 us of call overhead
    against 0.3 us for the float arithmetic. It reads sqrt(k) from
    _sqrt_table instead of calling math.sqrt twice a step. The operations
    and their order are those of the array path, so both give the same bits;
    the result has the same shape, (n_max + 1,) + x.shape, either way.
    """
    if n_max < 0:
        raise ValueError(f"polynomial degree must be nonnegative, got {n_max}")
    point = isinstance(x, float)
    if point or x.size == 1:
        xv, prev, shape = (x, seed, (1,)) if point else (x.item(), seed.item(), x.shape)
        rows = [prev]
        if n_max >= 1:
            cur = xv * prev
            rows.append(cur)
            sqrt_k = _sqrt_table(n_max)
            for k in range(1, n_max):
                prev, cur = cur, (xv * cur - sqrt_k[k] * prev) / sqrt_k[k + 1]
                rows.append(cur)
        return np.array(rows).reshape((n_max + 1,) + shape)
    table = np.empty((n_max + 1,) + x.shape)
    table[0] = seed
    if n_max >= 1:
        table[1] = x * table[0]
    for k in range(1, n_max):
        table[k + 1] = (x * table[k] - math.sqrt(k) * table[k - 1]) / math.sqrt(k + 1)
    return table


def orthonormal_he_table(n_max: int, x) -> np.ndarray:
    """All orthonormal polynomials p_0..p_{n_max} at once.

    Returns an array of shape (n_max + 1,) + shape(x); row n holds p_n(x).
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return _orthonormal_recurrence(n_max, arr, np.ones_like(arr))


# Past |q| ~ 38.6 the Gaussian seed e^{-q^2/2} underflows to 0, and so does
# every row; |q| is capped far beyond that, where q * q and sqrt(2) q stay
# finite: their overflow would warn, and an infinite x times the zero seed
# would give NaN.
_Q_CAP = 1e150


def hermite_function_table(n_max: int, q) -> np.ndarray:
    """Oscillator wavefunctions psi_0..psi_{n_max} at q, row n holding

    psi_n(q) = pi^{-1/4} e^{-q^2/2} p_n(sqrt(2) q),

    the orthonormal (vacuum variance 1/2) Hermite-Gauss functions. The
    Gaussian seeds the recurrence, so values underflow to zero far out
    instead of overflowing, at any finite q (_Q_CAP).

    A float q (Python or np.float64) takes the float route: its clamp,
    sqrt(2) q and -q^2/2 are Python float operations, only the Gaussian
    comes from np.exp, and the recurrence steps on floats. It gives the bits
    and the (n_max + 1, 1) shape of a one-element array q.
    """
    if isinstance(q, float):
        q = min(max(float(q), -_Q_CAP), _Q_CAP)
        gauss = float(np.exp(-0.5 * q * q))
    else:
        q = np.atleast_1d(np.asarray(q, dtype=float))
        q = np.minimum(np.maximum(q, -_Q_CAP), _Q_CAP)
        gauss = np.exp(-0.5 * q * q)
    return _orthonormal_recurrence(n_max, math.sqrt(2.0) * q, math.pi**-0.25 * gauss)


@dataclass(frozen=True, eq=False)
class HermiteRootTable:
    """Roots of He_d, their Christoffel weights, and the weighted polynomial
    matrix, all read-only; d = roots.size.

    christoffel[k] = 1 / sum_{n<d} p_n(roots[k])^2, the Christoffel function
    at the root; by Christoffel-Darboux this equals
    1 / (d * p_{d-1}(roots[k])^2). The weights are positive, sum to 1, and
    double as |<0|x_k>|^2 for the normalized eigenbasis of the truncated
    position operator.

    weighted[n, k] = p_n(roots[k]) * christoffel[k] for n < d, the matrix
    that maps e^{i x_k t} to the displacement coefficients; he_roots' cache
    holds one per degree.
    """

    roots: np.ndarray
    christoffel: np.ndarray
    weighted: np.ndarray


@lru_cache(maxsize=None)
def he_roots(d: int) -> HermiteRootTable:
    """All d roots of He_d with Christoffel weights.

    The roots are the eigenvalues of the dense symmetric Jacobi matrix (zero
    diagonal, off-diagonals sqrt(1), ..., sqrt(d-1)) from numpy.linalg.eigvalsh,
    polished by one Newton step x <- x - p_d(x) / (sqrt(d) p_{d-1}(x)) on
    the same recurrence (p_d' = sqrt(d) p_{d-1}). The eigensolver leaves
    absolute errors up to about 1e-13 at d = 150 that depend on the LAPACK
    build; the step removes them. Roots are then symmetrized exactly about 0
    (averaged against their mirror partner; the central root of odd d is
    snapped to 0.0) because downstream parity splits rely on exact sign
    symmetry. At d = 1 this gives the root 0.0 and the weight 1.0.

    The weights are w_k = 1 / sum_{n<d} p_n(x_k)^2, evaluated at those roots
    by the orthonormal three-term recurrence. Unlike squared eigenvector
    components (Golub-Welsch), which carry only absolute accuracy, this keeps
    relative accuracy in the tiny outer weights (about 3e-121 at d = 150), so
    the discrete Gram matrix stays the identity up to MAX_DEGREE. The
    recurrence flips signs bitwise under x -> -x, so the weights inherit the
    exact mirror symmetry of the roots. The same p_n(x_k) table, scaled by
    the weights, is the weighted matrix.
    """
    if not 1 <= d <= MAX_DEGREE:
        raise ValueError(f"degree must lie in [1, {MAX_DEGREE}], got {d}")
    off = np.sqrt(np.arange(1.0, d))
    try:
        vals = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigen-solve failed for degree {d}") from exc
    p = orthonormal_he_table(d, vals)
    vals = vals - p[d] / (math.sqrt(d) * p[d - 1])
    roots = 0.5 * (vals - vals[::-1])
    if d % 2:
        roots[d // 2] = 0.0
    p = orthonormal_he_table(d - 1, roots)
    weights = 1.0 / np.sum(p * p, axis=0)
    weighted = p * weights
    for table in (roots, weights, weighted):
        table.flags.writeable = False
    return HermiteRootTable(roots=roots, christoffel=weights, weighted=weighted)


@lru_cache(maxsize=256)
def log_factorial_array(n_max: int) -> np.ndarray:
    """Read-only table of ln(n!) for n = 0..n_max, built by one cumulative sum
    and cached per n_max."""
    if n_max < 0:
        raise ValueError(f"table size must be nonnegative, got {n_max}")
    values = np.zeros(n_max + 1)
    np.cumsum(np.log(np.arange(1.0, n_max + 1)), out=values[1:])
    values.flags.writeable = False
    return values
