"""Qudit coherent states.

Two inequivalent finite-dimensional generalizations of the coherent state
live here: the displacement family (vacuum pushed through the truncated
displacement unitary, evaluated through a Hermite root expansion) and the
Poissonian family (the first d terms of the usual exp-series, renormalized).
On top of them sit parity (cat) projections, the complementary state that
closes the superposition identity between the two families, quasiperiods,
and closed forms for d = 2, 3, 4.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, NullStateError
from .fock import QuditState
from .special_fn import he_roots, log_factorial_array
# Unused here, but the benchmark's traced mode wraps quditcs.qcs.orthonormal_he_table by name.
from .special_fn import orthonormal_he_table

__all__ = [
    "QcsParams",
    "Quasiperiod",
    "cat_state",
    "closed_form_qcs",
    "complementary_state",
    "linear_qcs",
    "nonlinear_qcs",
    "parity_coefficients",
    "quasiperiod",
]


@dataclass(frozen=True)
class QcsParams:
    """Dimension and complex amplitude defining one coherent-family state."""

    dim: int
    amplitude: complex

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        amplitude = complex(self.amplitude)
        if not cmath.isfinite(amplitude):
            raise ValueError(f"amplitude must be finite, got {amplitude}")
        # abs() raises OverflowError where hypot returns inf.
        if math.isinf(math.hypot(amplitude.real, amplitude.imag)):
            raise ValueError(f"amplitude modulus overflows, got {amplitude}")
        object.__setattr__(self, "amplitude", amplitude)

    @property
    def modulus(self) -> float:
        return abs(self.amplitude)

    @property
    def phi0(self) -> float:
        """Phase of the amplitude, in (-pi, pi]; 0 for a zero amplitude."""
        return cmath.phase(self.amplitude) if self.amplitude != 0 else 0.0


@dataclass(frozen=True)
class Quasiperiod:
    dim: int
    value: float


def quasiperiod(d: int) -> Quasiperiod:
    """Amplitude (quasi)period of the displacement family.

    Exact periods pi and 2 pi/sqrt(3) for d = 2, 3; for larger d the revival
    is only approximate and the quasiperiod is sqrt(4d + 2), twice the
    spacing of the central Hermite roots.
    """
    if d < 2:
        raise ValueError(f"quasiperiod needs dimension >= 2, got {d}")
    if d == 2:
        value = math.pi
    elif d == 3:
        value = 2.0 * math.pi / math.sqrt(3.0)
    else:
        value = math.sqrt(4.0 * d + 2.0)
    return Quasiperiod(dim=d, value=value)


# Largest rounding deviation of the raw displacement coefficients' norm
# from 1; the measured worst case over d = 2..150 is below 1e-14.
_RAW_NORM_TOL = 1e-8


def _raw_coefficients(d: int, modulus: float, phi0: float) -> np.ndarray:
    """Displacement coefficients before normalization:

    c_n = e^{i n (phi0 - pi/2)} sum_k w_k p_n(x_k) e^{i x_k |alpha|}

    over all roots x_k of He_d with Christoffel weights w_k: one product of
    the root table's cached matrix weighted[n, k] = w_k p_n(x_k) with the
    vector e^{i x_k |alpha|}. Mathematically the vector is already
    normalized (it is a unitary's column), so its norm deviates from 1 by
    rounding only; a deviation above _RAW_NORM_TOL means the root table is
    wrong and raises ConvergenceError instead of being renormalized away.
    A phase x_k |alpha| that overflows raises ValueError before any array
    is formed; the largest |x_k| is the last root, and a Python float
    product overflows to inf without a warning.
    """
    table = he_roots(d)
    if math.isinf(float(table.roots[-1]) * modulus):
        raise ValueError(
            f"displacement coefficients at d={d}, |alpha|={modulus} are not "
            f"finite: the root phases x_k |alpha| overflow"
        )
    phased = table.weighted @ np.exp(1j * table.roots * modulus)
    n = np.arange(d)
    raw = np.exp(1j * n * (phi0 - 0.5 * math.pi)) * phased
    deviation = abs(np.linalg.norm(raw) - 1.0)
    if not deviation <= _RAW_NORM_TOL:
        raise ConvergenceError(
            f"displacement coefficients at d={d}, |alpha|={modulus} have norm "
            f"off 1 by {deviation:.3g}; the Hermite root table is inaccurate"
        )
    return raw


def nonlinear_qcs(params: QcsParams) -> QuditState:
    """Displacement-family coherent state |alpha>_d = exp(alpha a+ - alpha* a)|0>.

    Evaluated through the Hermite root expansion rather than a matrix
    exponential, which keeps every intermediate O(1) up to the maximum
    supported dimension.
    """
    return QuditState.from_amplitudes(
        _raw_coefficients(params.dim, params.modulus, params.phi0)
    )


def linear_qcs(params: QcsParams) -> QuditState:
    """Poissonian-family coherent state: first d terms of the exp-series,

    c_n proportional to beta^n / sqrt(n!), renormalized on the truncated space.
    Magnitudes are assembled in log scale so large |beta| cannot overflow.
    """
    d = params.dim
    n = np.arange(d)
    if params.modulus == 0.0:
        return QuditState.basis(d, 0)
    logmag = n * math.log(params.modulus) - 0.5 * log_factorial_array(d - 1)
    logmag -= logmag.max()
    amps = np.exp(logmag) * np.exp(1j * n * params.phi0)
    return QuditState.from_amplitudes(amps)


def cat_state(kind: str, sign: str, params: QcsParams) -> QuditState:
    """Even or odd cat state: the normalized projection of a coherent-family
    state onto even-index or odd-index Fock states.

    Equivalently the normalized superposition of the states at +amplitude and
    -amplitude, since flipping the amplitude sign flips the sign of every
    odd-index coefficient.
    """
    if kind == "alpha":
        base = nonlinear_qcs(params)
    elif kind == "beta":
        base = linear_qcs(params)
    else:
        raise ValueError(f"unknown coherent family {kind!r}, expected 'alpha' or 'beta'")
    if sign == "even":
        keep = 0
    elif sign == "odd":
        keep = 1
    else:
        raise ValueError(f"unknown parity {sign!r}, expected 'even' or 'odd'")
    mask = (np.arange(params.dim) % 2) == keep
    return QuditState.from_amplitudes(np.where(mask, base.amps, 0.0))


def complementary_state(params: QcsParams) -> QuditState:
    """The unit vector completing the two-family superposition identity,

    |gamma> = 2 <alpha|beta> |alpha> - |beta>,

    so that |alpha> is proportional to |beta> + |gamma>. The construction is
    exactly normalized whenever the overlap is nonzero; it degenerates when
    the two families are orthogonal at this amplitude.
    """
    a = nonlinear_qcs(params)
    b = linear_qcs(params)
    ov = a.overlap(b)
    if 2.0 * abs(ov) < 1e-12:
        raise NullStateError(
            "the two coherent families are orthogonal at this amplitude; "
            "no complementary state exists"
        )
    return QuditState.from_amplitudes(2.0 * ov * a.amps - b.amps)


def closed_form_qcs(d: int, params: QcsParams) -> QuditState:
    """Hand-derived trigonometric closed forms of the displacement family
    for the three smallest nontrivial dimensions.

    d=2: [cos|a|, e^{i phi0} sin|a|]
    d=3: (1/3)[2 + cos(sqrt(3)|a|)], e^{i phi0} sin(sqrt(3)|a|)/sqrt(3),
         e^{2i phi0} sqrt(2)/3 [1 - cos(sqrt(3)|a|)]
    d=4: a two-root cosine/sine combination over x = sqrt(3 +- sqrt(6))
    """
    if d != params.dim:
        raise DimensionMismatchError(
            f"requested dimension {d} but params carry {params.dim}"
        )
    a = params.modulus
    ph = np.exp(1j * np.arange(d) * params.phi0)
    if d == 2:
        amps = np.array([math.cos(a), math.sin(a)], dtype=complex)
    elif d == 3:
        s3 = math.sqrt(3.0)
        amps = np.array(
            [
                (2.0 + math.cos(s3 * a)) / 3.0,
                math.sin(s3 * a) / s3,
                math.sqrt(2.0) / 3.0 * (1.0 - math.cos(s3 * a)),
            ],
            dtype=complex,
        )
    elif d == 4:
        amps = np.zeros(4, dtype=complex)
        for k, x in ((1, math.sqrt(3.0 + math.sqrt(6.0))), (2, math.sqrt(3.0 - math.sqrt(6.0)))):
            y = x * a
            flip = (-1.0) ** k
            amps[0] += math.cos(y) / x**2
            amps[1] += math.sin(y) / x
            amps[2] += flip * math.cos(y) / math.sqrt(3.0)
            amps[3] += flip * math.sin(y) / x
        amps *= 0.5
    else:
        raise ValueError(f"no closed form for dimension {d}; supported: 2, 3, 4")
    return QuditState(ph * amps)


def parity_coefficients(d: int, alpha_mod: float):
    """Displacement coefficients at phase 0 split by Fock-index parity.

    Returns (even_part, odd_part): the unnormalized coefficient vector of
    _raw_coefficients with its odd-index, respectively even-index, entries
    set to zero, so the two parts sum to it. A negative or non-finite
    modulus raises ValueError, and so does one large enough that the root
    phases x_k * alpha_mod overflow (past about 7.6e306 at d = 150).
    """
    if not 0.0 <= alpha_mod < math.inf:
        raise ValueError(
            f"amplitude modulus must be finite and nonnegative, got {alpha_mod}"
        )
    raw = _raw_coefficients(d, alpha_mod, 0.0)
    even = np.arange(d) % 2 == 0
    return np.where(even, raw, 0.0), np.where(even, 0.0, raw)
