"""Finite-dimensional Fock space: normalized states, the displacement
unitary exp(alpha a+ - alpha* a) of the truncated ladder, fidelity measures
between pure states and simple mixtures, and the radius a d-level state
reaches in phase space (outer_radius), with the default grid window built
on it, and the sampling rules of its Wigner function: how far it reaches
(_reach), how finely W must be sampled (_nyquist_step), and how many points
an axis may hold (_check_axis_counts).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import DimensionMismatchError, NullStateError

__all__ = list(_EXPORTS["fock"])

_NORM_TOL = 1e-10
_NULL_TOL = 1e-12


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a 1-D float or complex array, with the bits of
    np.linalg.norm(v) without its Python-level dispatch: the same contiguous
    ravel, the same dot products (of the real and imaginary parts, for
    complex v) added in the same order, and a correctly rounded square root.
    """
    v = v.ravel(order="K")
    if v.dtype.kind == "c":
        real, imag = v.real, v.imag
        return math.sqrt(real.dot(real) + imag.dot(imag))
    return math.sqrt(v.dot(v))


@dataclass(frozen=True, eq=False)
class QuditState:
    """A normalized pure state on a d-dimensional Fock ladder.

    The amplitude vector is validated to be finite and of unit norm (within
    1e-10) and made read-only, so instances are safe to share across threads.
    States compare and hash by identity; compare amps, or use fidelity.
    """

    amps: np.ndarray

    def __post_init__(self):
        amps = np.atleast_1d(np.asarray(self.amps, dtype=complex))
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must form a nonempty vector")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm = _norm(amps)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state vector has norm {norm:.17g}, expected 1")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    @classmethod
    def from_amplitudes(cls, amps) -> "QuditState":
        """Normalize an arbitrary nonzero vector into a state.

        The input is validated once, here: a finite vector divided by its
        own finite, nonzero norm is finite, unaliased and of unit norm to
        rounding, so __post_init__'s checks and copy are skipped. The norm
        is _norm's, which has the bits of np.linalg.norm; it is a Python
        float, so math.isfinite checks it, and a scalar becomes a
        one-entry vector, as np.atleast_1d would make it.
        """
        amps = np.asarray(amps, dtype=complex)
        if amps.ndim == 0:
            amps = amps.reshape(1)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must form a nonempty vector")
        norm = _norm(amps)
        if not math.isfinite(norm):
            raise ValueError("amplitudes must be finite")
        if norm < _NULL_TOL:
            raise NullStateError("cannot normalize a (numerically) zero vector")
        state = object.__new__(cls)
        unit = amps / norm
        unit.flags.writeable = False
        object.__setattr__(state, "amps", unit)
        return state

    @classmethod
    def basis(cls, dim: int, n: int) -> "QuditState":
        """The Fock basis state |n> in dimension dim."""
        if not 0 <= n < dim:
            raise ValueError(f"basis index {n} outside dimension {dim}")
        amps = np.zeros(dim, dtype=complex)
        amps[n] = 1.0
        return cls(amps)

    def overlap(self, other: "QuditState") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimensions differ: {self.dim} vs {other.dim}"
            )
        return complex(np.vdot(self.amps, other.amps))

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "amps_re": self.amps.real.tolist(),
            "amps_im": self.amps.imag.tolist(),
        }


def displacement_oracle(d: int, alpha: complex) -> np.ndarray:
    """The unitary exp(alpha a+ - alpha* a) on the truncated space, as a
    read-only d x d array; a is the truncated lowering operator,
    a|n> = sqrt(n)|n-1>.

    Built by eigendecomposition of the Hermitian generator
    i(alpha a+ - alpha* a); exact unitarity to rounding, with no series
    truncation. This is the reference implementation the fast coefficient
    path is checked against.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    alpha = complex(alpha)
    # The generator's eigenvalues are |alpha| times the roots of He_d, all
    # inside 2 sqrt(d); past that bound they, or the phases, would overflow.
    if not math.isfinite(abs(alpha) * 2.0 * math.sqrt(d)):
        raise ValueError(
            f"displacement amplitude must be finite and fit dimension {d}, got alpha={alpha}"
        )
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    vals, vecs = np.linalg.eigh(1j * (alpha * a.T - alpha.conjugate() * a))
    u = (vecs * np.exp(-1j * vals)) @ vecs.conj().T
    u.flags.writeable = False
    return u


def displaced_vacuum(d: int, alpha: complex) -> QuditState:
    """First column of the displacement unitary, as a normalized state."""
    return QuditState.from_amplitudes(displacement_oracle(d, alpha)[:, 0])


def fidelity(a: QuditState, b: QuditState) -> float:
    """Pure-state fidelity |<a|b>|^2 (symmetric, global-phase invariant)."""
    ov = a.overlap(b)
    return min(float(abs(ov) ** 2), 1.0)


def mixed_fidelity(
    alpha_state: QuditState, beta_plus: QuditState, beta_minus: QuditState
) -> float:
    """Fidelity of a pure state against the even mixture of two others:

    <psi| rho |psi> with rho = (|b+><b+| + |b-><b-|)/2.
    """
    return 0.5 * (fidelity(alpha_state, beta_plus) + fidelity(alpha_state, beta_minus))


def photon_distribution(s: QuditState) -> np.ndarray:
    """Occupation probabilities P_n = |c_n|^2 as a fresh writable array."""
    return np.abs(s.amps) ** 2


def outer_radius(d: int) -> float:
    """Radius of the outer phase-space circle a d-level state can reach:

    sqrt(d - 1) + sqrt(ln(2)/2).
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return math.sqrt(d - 1.0) + math.sqrt(0.5 * math.log(2.0))


def _grid_half_width(d: int) -> float:
    """Half-width of the default grid window of a d-level state in the
    Wigner plane, outer_radius(d) + 2: wigner_grid's square, and the
    tomogram's q window once stretched by sqrt(2) into tomogram units."""
    return outer_radius(d) + 2.0


def _reach(d: int) -> float:
    """sqrt(2d + 1) + 6, beyond which a d-level wavefunction is negligible in
    x = sqrt(2) q and in sqrt(2) p."""
    return math.sqrt(2.0 * d + 1.0) + 6.0


def _nyquist_step(d: int) -> float:
    """pi / (2 sqrt(2) _reach(d)): along any line, W of a d-level state is a
    Gaussian times a polynomial with spectrum within 2 sqrt(2) _reach(d), so
    samples this fine do not alias, and their trapezoid sum is exact."""
    return math.pi / (2.0 * math.sqrt(2.0) * _reach(d))


def _check_axis_counts(*counts: int) -> None:
    """Raise ValueError for a count of axis points whose float64 array cannot
    exist: its byte size would pass sys.maxsize, and np.linspace raises
    IndexError, not ValueError, for counts near 2**63."""
    for n in counts:
        if n > sys.maxsize // 8:
            raise ValueError(f"an axis of {n} points exceeds the largest float64 array")
