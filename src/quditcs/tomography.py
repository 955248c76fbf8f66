"""Optical tomograms: probability densities of the rotated quadrature.

The tomogram of a state with Fock amplitudes c_n is computed through the
squared rotated wavefunction

    w(q, theta) = | sum_n c_n e^{-i n theta} psi_n(q) |^2,

where psi_n are the Hermite-Gauss functions. This form is manifestly
nonnegative and overflow-free at any supported dimension. An independent
route integrates the Wigner function along the rotated direction; the two
agree, which is the main internal consistency check between modules.

Units: tomogram quadratures carry vacuum variance 1/2 (vacuum tomogram
e^{-q^2}/sqrt(pi)), while the Wigner plane is scaled so the vacuum is
(2/pi) e^{-2|z|^2}; the marginal route therefore substitutes q/sqrt(2) and
divides the line integral by sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import QuditState
from .phase_space import QuadratureSpec, _refine_simpson, _write_grid_csv
from .phase_space import outer_radius, wigner_values
from .special_fn import hermite_function_table

__all__ = [
    "Tomogram",
    "tomogram_closed_form",
    "tomogram_from_wigner",
    "tomogram_grid",
]

# Tighter default than the Wigner-volume quadrature: the integrand here is a
# smooth one-dimensional Gaussian-tailed slice, so refinement is cheap and the
# cross-module agreement contract (1e-5) needs headroom.
_MARGINAL_QUAD = QuadratureSpec(tol=1e-8, max_refinements=9)


def _q_half_width(d: int) -> float:
    """Half-width of the tomogram q window: the Wigner-plane radius
    outer_radius(d) + 2 in tomogram units, which stretch it by sqrt(2)."""
    return math.sqrt(2.0) * (outer_radius(d) + 2.0)


def _tomogram_rows(amps: np.ndarray, q: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """values[i, j] = w(q_j, theta_i) for one amplitude vector."""
    psi = hermite_function_table(amps.size - 1, q)
    rotated = (amps * np.exp(-1j * np.outer(thetas, np.arange(amps.size)))) @ psi
    return rotated.real**2 + rotated.imag**2


def tomogram_closed_form(s: QuditState, q: float, theta: float) -> float:
    """w(q, theta) through the squared rotated wavefunction."""
    return float(_tomogram_rows(s.amps, np.atleast_1d(float(q)), np.atleast_1d(float(theta)))[0, 0])


def tomogram_from_wigner(
    s: QuditState,
    q: float,
    theta: float,
    quad_spec: QuadratureSpec = _MARGINAL_QUAD,
) -> float:
    """w(q, theta) by integrating the Wigner function along the rotated line.

    With z-plane coordinates scaled as in the module docstring, the marginal
    reads

      w(q, theta) = (1/sqrt(2)) Int W(q' cos t - p sin t, q' sin t + p cos t) dp

    with q' = q/sqrt(2). Simpson quadrature with refinement doubling
    (_refine_simpson); raises if no grid agrees with its subgrid within
    quad_spec.tol.
    """
    qz = float(q) / math.sqrt(2.0)
    cos_t, sin_t = math.cos(theta), math.sin(theta)

    def line(ps):
        return wigner_values(s, qz * cos_t - ps * sin_t, qz * sin_t + ps * cos_t) / math.sqrt(2.0)

    return _refine_simpson(s.dim, quad_spec, line, "marginal")


@dataclass(frozen=True)
class Tomogram:
    """w sampled on uniform grids; values[i, j] = w(q_grid[j], theta_grid[i])."""

    q_grid: np.ndarray
    theta_grid: np.ndarray
    values: np.ndarray
    state_meta: str

    def write_csv(self, path) -> None:
        """Rows of q,theta,w with theta as the outer loop; 17 significant digits."""
        _write_grid_csv(
            path, "q,theta,w", self.theta_grid, self.q_grid, self.values, "{inner},{outer}"
        )

    def to_json_dict(self) -> dict:
        return {
            "q_grid": self.q_grid.tolist(),
            "theta_grid": self.theta_grid.tolist(),
            "state_meta": self.state_meta,
            "values": self.values.tolist(),
        }


def tomogram_grid(
    s: QuditState,
    nq: int = 201,
    ntheta: int = 181,
    state_meta: str | None = None,
) -> Tomogram:
    """Sample the tomogram on q in [-_q_half_width(dim), _q_half_width(dim)]
    and theta in [0, 2 pi] (both ends included).

    All rows come from one (ntheta x d) @ (d x nq) product.
    """
    if nq < 32 or ntheta < 32:
        raise ValueError(f"grid needs at least 32 points per axis, got {nq} x {ntheta}")
    hw = _q_half_width(s.dim)
    qs = np.linspace(-hw, hw, nq)
    thetas = np.linspace(0.0, 2.0 * math.pi, ntheta)
    values = _tomogram_rows(s.amps, qs, thetas)
    if state_meta is None:
        state_meta = f"dim={s.dim}"
    qs.flags.writeable = False
    thetas.flags.writeable = False
    values.flags.writeable = False
    return Tomogram(q_grid=qs, theta_grid=thetas, values=values, state_meta=state_meta)
