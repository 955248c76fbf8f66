"""Probabilists' Hermite polynomials, their root/weight tables, associated
Laguerre polynomials, and log-factorial tables.

The probabilists' family He_n is the one orthogonal under the standard
normal weight exp(-x^2/2); everything downstream (coefficient expansions,
quadrature weights) is phrased in terms of the orthonormal version
p_n = He_n / sqrt(n!), which stays O(1) where the raw polynomials overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "MAX_DEGREE",
    "HermiteRootTable",
    "LogFactorialCache",
    "he_asymptotic",
    "he_eval",
    "he_roots",
    "he_zero",
    "hermite_function_table",
    "laguerre_eval",
    "log_factorial",
    "orthonormal_he_eval",
    "orthonormal_he_table",
]

# Largest Hermite degree / Fock dimension the package commits to handling.
MAX_DEGREE = 150


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def he_eval(n: int, x):
    """Probabilists' Hermite polynomial He_n(x).

    Uses the three-term recurrence He_{k+1} = x He_k - k He_{k-1}.
    Accepts a scalar or an array; returns the matching shape.
    """
    if n < 0:
        raise ValueError(f"polynomial degree must be nonnegative, got {n}")
    arr, scalar = _as_float_array(x)
    prev = np.zeros_like(arr)
    cur = np.ones_like(arr)
    for k in range(n):
        prev, cur = cur, arr * cur - k * prev
    return float(cur) if scalar else cur


def orthonormal_he_eval(n: int, x):
    """Orthonormal probabilists' Hermite polynomial p_n(x) = He_n(x)/sqrt(n!).

    Row n of the orthonormal recurrence
    p_{k+1} = (x p_k - sqrt(k) p_{k-1}) / sqrt(k+1),
    which keeps every intermediate O(1) in the oscillatory region.
    """
    arr, scalar = _as_float_array(x)
    row = _orthonormal_recurrence(n, arr, np.ones_like(arr))[n]
    return float(row) if scalar else row


def _orthonormal_recurrence(n_max: int, x: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Rows seed * p_0(x) .. seed * p_{n_max}(x) of the orthonormal recurrence.

    The recurrence is linear in its rows, so the seed scales all of them;
    seeding with a Gaussian keeps the Hermite functions bounded where p_n
    alone would overflow.

    A single point steps on Python floats: a numpy step on a one-element
    array costs about 6 us of call overhead against 0.3 us for the float
    arithmetic. The operations and their order are those of the array path,
    so both give the same bits; the result has the same shape,
    (n_max + 1,) + x.shape, either way.
    """
    if n_max < 0:
        raise ValueError(f"polynomial degree must be nonnegative, got {n_max}")
    if x.size == 1:
        xv = x.item()
        rows = [seed.item()]
        if n_max >= 1:
            rows.append(xv * rows[0])
        for k in range(1, n_max):
            rows.append((xv * rows[k] - math.sqrt(k) * rows[k - 1]) / math.sqrt(k + 1))
        return np.array(rows).reshape((n_max + 1,) + x.shape)
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


def hermite_function_table(n_max: int, q) -> np.ndarray:
    """Oscillator wavefunctions psi_0..psi_{n_max} at q, row n holding

    psi_n(q) = pi^{-1/4} e^{-q^2/2} p_n(sqrt(2) q),

    the orthonormal (vacuum variance 1/2) Hermite-Gauss functions. The
    Gaussian seeds the recurrence, so values underflow to zero far out
    instead of overflowing.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    return _orthonormal_recurrence(
        n_max, math.sqrt(2.0) * q, math.pi**-0.25 * np.exp(-0.5 * q * q)
    )


def he_zero(n: int) -> float:
    """He_n(0): zero for odd n, (-1)^(n/2) (n-1)!! for even n."""
    if n < 0:
        raise ValueError(f"polynomial degree must be nonnegative, got {n}")
    if n % 2:
        return 0.0
    acc = 1.0
    for k in range(1, n, 2):
        acc *= k
    return acc if (n // 2) % 2 == 0 else -acc


def he_asymptotic(n: int, x):
    """Large-n oscillatory approximation of He_n near x = 0.

    Even n:  (-1)^(n/2) (n-1)!! e^(x^2/4) cos(x sqrt(n + 1/2))
    Odd n:  -(-1)^((n+1)/2) (n!!/sqrt(n)) e^(x^2/4) sin(x sqrt(n + 1/2))

    Useful only as a cross-check of root locations; production code always
    evaluates the exact recurrence.
    """
    if n < 0:
        raise ValueError(f"polynomial degree must be nonnegative, got {n}")
    arr, scalar = _as_float_array(x)
    envelope = np.exp(arr * arr / 4.0)
    freq = math.sqrt(n + 0.5)
    df = 1.0  # (n-1)!! for even n, n!! for odd n
    for k in range(1, n + 1, 2):
        df *= k
    if n % 2 == 0:
        sign = 1.0 if (n // 2) % 2 == 0 else -1.0
        out = sign * df * envelope * np.cos(arr * freq)
    else:
        sign = -1.0 if ((n + 1) // 2) % 2 == 0 else 1.0
        out = sign * (df / math.sqrt(n)) * envelope * np.sin(arr * freq)
    return float(out) if scalar else out


@dataclass(frozen=True)
class HermiteRootTable:
    """Roots of He_degree together with their Christoffel weights.

    christoffel[k] = 1 / sum_{n<degree} p_n(roots[k])^2, the Christoffel
    function at the root; by Christoffel-Darboux this equals
    1 / (degree * p_{degree-1}(roots[k])^2). The weights are positive, sum
    to 1, and double as |<0|x_k>|^2 for the normalized eigenbasis of the
    truncated position operator.

    weighted[n, k] = p_n(roots[k]) * christoffel[k] for n < degree, the
    matrix that maps e^{i x_k t} to the displacement coefficients. It is
    built from this table's own roots and weights on first access and kept,
    read-only, with the table (so he_roots' cache holds one per degree).
    """

    degree: int
    roots: np.ndarray
    christoffel: np.ndarray

    @cached_property
    def weighted(self) -> np.ndarray:
        table = orthonormal_he_table(self.degree - 1, self.roots) * self.christoffel
        table.flags.writeable = False
        return table


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
    symmetry.

    The weights are w_k = 1 / sum_{n<d} p_n(x_k)^2, evaluated at those roots
    by the orthonormal three-term recurrence. Unlike squared eigenvector
    components (Golub-Welsch), which carry only absolute accuracy, this keeps
    relative accuracy in the tiny outer weights (about 3e-121 at d = 150), so
    the discrete Gram matrix stays the identity up to MAX_DEGREE. The
    recurrence flips signs bitwise under x -> -x, so the weights inherit the
    exact mirror symmetry of the roots.
    """
    if not 1 <= d <= MAX_DEGREE:
        raise ValueError(f"degree must lie in [1, {MAX_DEGREE}], got {d}")
    if d == 1:
        roots = np.zeros(1)
        weights = np.ones(1)
    else:
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
    roots.flags.writeable = False
    weights.flags.writeable = False
    return HermiteRootTable(degree=d, roots=roots, christoffel=weights)


def laguerre_eval(k: int, m: int, x):
    """Associated Laguerre polynomial L_k^(m)(x) by the stable recurrence

    (k+1) L_{k+1}^(m) = (2k + 1 + m - x) L_k^(m) - (k + m) L_{k-1}^(m).
    """
    if k < 0 or m < 0:
        raise ValueError(f"laguerre indices must be nonnegative, got k={k}, m={m}")
    arr, scalar = _as_float_array(x)
    prev = np.zeros_like(arr)
    cur = np.ones_like(arr)
    for j in range(k):
        prev, cur = cur, ((2 * j + 1 + m - arr) * cur - (j + m) * prev) / (j + 1)
    return float(cur) if scalar else cur


class LogFactorialCache:
    """Immutable table of ln(n!) for n = 0..n_max, built by one cumulative sum."""

    def __init__(self, n_max: int):
        if n_max < 0:
            raise ValueError(f"table size must be nonnegative, got {n_max}")
        values = np.zeros(n_max + 1)
        if n_max:
            np.cumsum(np.log(np.arange(1.0, n_max + 1)), out=values[1:])
        values.flags.writeable = False
        self.n_max = n_max
        self.values = values

    def __getitem__(self, n: int) -> float:
        if n < 0:
            raise ValueError(f"factorial argument must be nonnegative, got {n}")
        return float(self.values[n])


def log_factorial(n: int) -> float:
    """ln(n!) for one nonnegative integer n."""
    if n < 0:
        raise ValueError(f"factorial argument must be nonnegative, got {n}")
    return math.lgamma(n + 1)


def log_factorial_array(n_max: int) -> np.ndarray:
    """Read-only table of ln(n!) for n = 0..n_max."""
    return LogFactorialCache(n_max).values
