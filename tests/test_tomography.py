"""Optical tomograms: closed form, Wigner marginal, and sampled grids."""

import json
import math

import numpy as np
import pytest

from quditcs.fock import QuditState
from quditcs.phase_space import (
    PhasePoint,
    wigner_cross,
    wigner_fock,
    wigner_mixture,
    wigner_state,
    wigner_values,
)
from quditcs.qcs import QcsParams, linear_qcs, nonlinear_qcs, quasiperiod
from quditcs.special_fn import hermite_function_table
from quditcs.tomography import (
    Tomogram,
    tomogram_closed_form,
    tomogram_from_wigner,
    tomogram_grid,
)

SQRT_PI = math.sqrt(math.pi)


def _literal_double_sum(amps: np.ndarray, q: float, theta: float) -> float:
    """Modulus/phase expansion with explicit physicists' Hermite polynomials."""
    d = len(amps)
    mod = np.abs(amps)
    ph = np.angle(amps)
    h = [float(np.polynomial.hermite.hermval(q, [0.0] * n + [1.0])) for n in range(d)]
    total = sum(
        mod[n] ** 2 * h[n] ** 2 / (2.0**n * math.factorial(n)) for n in range(d)
    )
    for n in range(d):
        for k in range(n + 1, d):
            total += (
                mod[n]
                * mod[k]
                * math.cos((n - k) * theta - ph[n] + ph[k])
                * h[n]
                * h[k]
                / (math.sqrt(2.0**n * math.factorial(n)) * math.sqrt(2.0 ** (k - 2) * math.factorial(k)))
            )
    return math.exp(-q * q) / SQRT_PI * total


def test_vacuum_tomogram_is_a_fixed_gaussian():
    vac = QuditState.basis(3, 0)
    for theta in (0.0, 0.9, math.pi, 5.1):
        for q in (-2.0, -0.3, 0.0, 1.7):
            expected = math.exp(-q * q) / SQRT_PI
            assert tomogram_closed_form(vac, q, theta) == pytest.approx(expected, rel=1e-12)


def test_single_photon_tomogram():
    one = QuditState.basis(2, 1)
    for q in (-1.5, 0.0, 0.4, 2.0):
        expected = 2.0 * q * q * math.exp(-q * q) / SQRT_PI
        assert tomogram_closed_form(one, q, 1.3) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("n", range(11))
def test_fock_tomograms_ignore_the_angle(n):
    s = QuditState.basis(11, n)
    base = tomogram_closed_form(s, 0.8, 0.0)
    for theta in np.linspace(0.0, 2.0 * math.pi, 7):
        assert abs(tomogram_closed_form(s, 0.8, theta) - base) <= 1e-12


def test_matches_literal_double_sum():
    rng = np.random.default_rng(43)
    states = []
    for d in (2, 5, 8):
        amp = quasiperiod(d).value / 2.0
        states.append(nonlinear_qcs(QcsParams(d, amp)))
        states.append(linear_qcs(QcsParams(d, amp)))
    states.append(QuditState.from_amplitudes(rng.normal(size=6) + 1j * rng.normal(size=6)))
    for s in states:
        for _ in range(25):
            q = rng.uniform(-3.5, 3.5)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            assert tomogram_closed_form(s, q, theta) == pytest.approx(
                _literal_double_sum(s.amps, q, theta), abs=1e-10
            )


def test_theta_shift_covariance():
    # multiplying c_n by e^{i n phi} shifts the tomogram angle by phi
    rng = np.random.default_rng(47)
    d, phi = 5, 0.77
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    s = QuditState.from_amplitudes(amps)
    shifted = QuditState.from_amplitudes(amps * np.exp(1j * np.arange(d) * phi))
    for q in (-1.2, 0.3, 2.0):
        for theta in (0.0, 1.0, 4.4):
            assert tomogram_closed_form(shifted, q, theta + phi) == pytest.approx(
                tomogram_closed_form(s, q, theta), abs=1e-10
            )


def test_halfturn_reflection_identity_is_exact():
    # w(-q, theta) = w(q, theta + pi) for every state
    rng = np.random.default_rng(53)
    s = QuditState.from_amplitudes(rng.normal(size=7) + 1j * rng.normal(size=7))
    for q in (-2.0, 0.4, 1.1):
        for theta in (0.0, 0.9, 3.3):
            assert tomogram_closed_form(s, -q, theta) == pytest.approx(
                tomogram_closed_form(s, q, theta + math.pi), abs=1e-13
            )


def test_parity_eigenstates_have_mirror_symmetric_tomograms():
    rng = np.random.default_rng(59)
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    amps[1::2] = 0.0
    even = QuditState.from_amplitudes(amps)
    for q in (0.3, 1.4, 2.6):
        for theta in (0.2, 2.0, 5.5):
            assert tomogram_closed_form(even, -q, theta) == pytest.approx(
                tomogram_closed_form(even, q, theta), abs=1e-10
            )


def test_marginal_route_reproduces_vacuum():
    vac = QuditState.basis(2, 0)
    for q in (0.0, 0.8, -1.6):
        expected = math.exp(-q * q) / SQRT_PI
        assert tomogram_from_wigner(vac, q, 0.7) == pytest.approx(expected, abs=1e-6)


def test_marginal_route_cross_validation_spots():
    # a complex amplitude pins the angular orientation of both routes
    s3 = nonlinear_qcs(QcsParams(3, 1.1 * np.exp(0.8j)))
    s6 = nonlinear_qcs(QcsParams(6, quasiperiod(6).value / 2.0))
    for s in (s3, s6):
        for q, theta in [(0.0, 0.5), (1.2, 2.9), (-0.7, 4.0)]:
            assert tomogram_from_wigner(s, q, theta) == pytest.approx(
                tomogram_closed_form(s, q, theta), abs=1e-6
            )


@pytest.mark.parametrize(
    "make, points",
    [
        (lambda: QuditState.basis(1, 0), [(0.0, 0.0), (0.8, 0.0)]),
        (lambda: nonlinear_qcs(QcsParams(32, 1.3 * np.exp(0.7j))), None),
        (lambda: linear_qcs(QcsParams(32, 1.3 * np.exp(0.7j))), None),
        (lambda: nonlinear_qcs(QcsParams(150, 2.1 * np.exp(-2.2j))), None),
        (lambda: linear_qcs(QcsParams(150, 2.1 * np.exp(-2.2j))), None),
        # Past MAX_DEGREE = 150, where no Hermite root table exists.
        (lambda: linear_qcs(QcsParams(200, 1.3 * np.exp(0.7j))), None),
    ],
    ids=["vacuum_d1", "alpha_d32", "beta_d32", "alpha_d150", "beta_d150", "beta_d200"],
)
def test_marginal_route_is_exact(make, points):
    # One trapezoid sum at W's Nyquist step integrates the line exactly, up
    # to rounding, so the two routes agree far below any quadrature tolerance.
    s = make()
    for q, theta in points or [(0.0, 0.3), (1.1, 2.0), (-2.5, 4.4)]:
        assert tomogram_from_wigner(s, q, theta) == pytest.approx(
            tomogram_closed_form(s, q, theta), abs=1e-13
        )


def test_series_family_tomogram_symmetries():
    # mirror symmetry about the theta = pi axis holds to machine precision,
    # but the q -> -q reflection is visibly broken
    for d in (3, 5):
        s = linear_qcs(QcsParams(d, quasiperiod(d).value / 2.0))
        qs = np.linspace(-3.0, 3.0, 21)
        axis_resid = 0.0
        for q in qs:
            for dt in (0.3, 1.1, 2.4):
                axis_resid = max(
                    axis_resid,
                    abs(
                        tomogram_closed_form(s, q, math.pi + dt)
                        - tomogram_closed_form(s, q, math.pi - dt)
                    ),
                )
        assert axis_resid <= 1e-9
        thetas = np.linspace(0.0, 2.0 * math.pi, 13)
        w = np.array([[tomogram_closed_form(s, q, t) for q in qs] for t in thetas])
        reflect_defect = np.max(np.abs(w - w[:, ::-1])) / np.max(w)
        assert reflect_defect > 0.5


@pytest.mark.parametrize("d", [2, 3])
def test_displacement_family_tomogram_symmetries_lowest_dims(d):
    # for d = 2, 3 the half-period state is an exact parity eigenstate, so
    # both mirror axes are exact
    s = nonlinear_qcs(QcsParams(d, quasiperiod(d).value / 2.0))
    peak = 0.0
    q_resid = 0.0
    axis_resid = 0.0
    for q in np.linspace(-3.0, 3.0, 21):
        for dt in (0.3, 1.1, 2.4):
            w = tomogram_closed_form(s, q, dt)
            peak = max(peak, w)
            q_resid = max(q_resid, abs(w - tomogram_closed_form(s, -q, dt)))
            axis_resid = max(
                axis_resid,
                abs(
                    tomogram_closed_form(s, q, math.pi + dt)
                    - tomogram_closed_form(s, q, math.pi - dt)
                ),
            )
    assert q_resid <= 1e-9 * peak
    assert axis_resid <= 1e-9 * peak


def test_displacement_family_reflection_defect_stays_moderate_d4():
    # above d = 3 the cat is only approximate; the defect is real but small
    s = nonlinear_qcs(QcsParams(4, quasiperiod(4).value / 2.0))
    qs = np.linspace(-4.0, 4.0, 41)
    thetas = np.linspace(0.0, 2.0 * math.pi, 25)
    w = np.array([[tomogram_closed_form(s, q, t) for q in qs] for t in thetas])
    ratio = np.max(np.abs(w - w[:, ::-1])) / np.max(w)
    assert 0.0 < ratio < 0.35


def test_tomogram_grid_shapes_and_ranges():
    s = QuditState.basis(3, 0)
    tomo = tomogram_grid(s, nq=41, ntheta=33)
    assert tomo.values.shape == (33, 41)
    assert tomo.theta_grid[0] == 0.0
    assert tomo.theta_grid[-1] == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert tomo.q_grid[0] == -tomo.q_grid[-1]
    assert np.all(tomo.values >= 0.0)
    assert not tomo.values.flags.writeable


@pytest.mark.parametrize("d", [2, 5, 8])
def test_tomogram_grid_angle_resolved_normalization(d):
    p = QcsParams(d, quasiperiod(d).value / 2.0)
    for s in (nonlinear_qcs(p), linear_qcs(p)):
        tomo = tomogram_grid(s, nq=201, ntheta=33)
        norms = np.trapezoid(tomo.values, tomo.q_grid, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-4


@pytest.mark.parametrize(
    "d, nq",
    [(2, 801), (8, 801), (32, 801), (64, 801), (150, 801), (150, 261)],
    ids=["2", "8", "32", "64", "150", "150-nq261"],
)
def test_tomogram_grid_rows_carry_unit_mass(d, nq):
    # Tomogram quadratures have vacuum variance 1/2, so the q window must
    # reach sqrt(2) times the Wigner-plane radius or the rows lose mass.
    # At d = 150 the default 201 points leave a mass error of 0.087; 261
    # points resolve the rows.
    for frac in (0.25, 0.5, 1.0, 2.0):
        p = QcsParams(d, frac * quasiperiod(d).value * complex(math.cos(0.3), math.sin(0.3)))
        for s in (nonlinear_qcs(p), linear_qcs(p)):
            tomo = tomogram_grid(s, nq=nq, ntheta=91)
            mass = np.trapezoid(tomo.values, tomo.q_grid, axis=1)
            assert np.max(np.abs(mass - 1.0)) <= 1e-8


def test_tomogram_grid_is_periodic():
    s = nonlinear_qcs(QcsParams(6, 1.4))
    tomo = tomogram_grid(s, nq=64, ntheta=32)
    assert np.max(np.abs(tomo.values[0] - tomo.values[-1])) <= 1e-10


def test_tomogram_grid_validation():
    s = QuditState.basis(2, 0)
    with pytest.raises(ValueError):
        tomogram_grid(s, nq=31)
    with pytest.raises(ValueError):
        tomogram_grid(s, ntheta=8)


def test_tomogram_grid_matches_per_angle_loop():
    s = nonlinear_qcs(QcsParams(7, 1.1 - 0.6j))
    tomo = tomogram_grid(s, nq=40, ntheta=33)
    psi = hermite_function_table(s.dim - 1, tomo.q_grid)
    for i, theta in enumerate(tomo.theta_grid):
        rotated = (s.amps * np.exp(-1j * np.arange(s.dim) * theta)) @ psi
        np.testing.assert_allclose(tomo.values[i], np.abs(rotated) ** 2, rtol=0.0, atol=1e-14)


def test_tomogram_grid_thread_determinism():
    s = nonlinear_qcs(QcsParams(4, 0.9 + 0.3j))
    base = tomogram_grid(s, nq=48, ntheta=32)
    again = tomogram_grid(s, nq=48, ntheta=32)
    assert np.array_equal(base.values, again.values)


def test_tomogram_csv_and_json(tmp_path):
    s = QuditState.basis(2, 1)
    tomo = tomogram_grid(s, nq=32, ntheta=32, state_meta="one-photon")
    path = tmp_path / "t.csv"
    tomo.write_csv(path)
    lines = path.read_bytes().decode().strip().split("\n")
    assert lines[0] == "q,theta,w"
    assert len(lines) == 1 + 32 * 32
    q0, t0, w0 = (float(tok) for tok in lines[1].split(","))
    assert q0 == tomo.q_grid[0]
    assert t0 == 0.0
    assert w0 == pytest.approx(tomo.values[0, 0], rel=1e-16)

    payload = json.loads(json.dumps(tomo.to_json_dict()))
    assert set(payload) == {"q_grid", "theta_grid", "state_meta", "values"}
    assert payload["state_meta"] == "one-photon"
    assert len(payload["values"]) == 32
    assert isinstance(tomo, Tomogram)


@pytest.mark.parametrize(
    "query",
    [
        lambda s: tomogram_closed_form(s, math.nan, 0.3),
        lambda s: tomogram_closed_form(s, 0.3, math.inf),
        lambda s: tomogram_from_wigner(s, math.nan, 0.3),
        lambda s: tomogram_from_wigner(s, 0.3, -math.inf),
        lambda s: wigner_state(s, PhasePoint(math.inf, 0.0)),
        lambda s: wigner_values(s, [math.nan], [0.0]),
        lambda s: wigner_values(s, [0.0, 1.0], [0.0, -math.inf]),
        lambda s: wigner_fock(3, PhasePoint(math.nan, 0.0)),
    ],
    ids=["closed_q", "closed_theta", "marginal_q", "marginal_theta",
         "state", "values_q", "values_p", "fock"],
)
def test_non_finite_point_raises(query):
    with pytest.raises(ValueError, match="finite"):
        query(nonlinear_qcs(QcsParams(4, 1.1)))


@pytest.mark.parametrize("r", [1e154, 1e155, 1e300])
@pytest.mark.parametrize("d", [8, 150])
def test_far_out_finite_point_gives_zero(d, r):
    # Out here 4|z|^2, and from 1.3e154 on q^2 + p^2 itself, overflow; W is 0.
    s = nonlinear_qcs(QcsParams(d, 1.1))
    values = wigner_values(s, [r, 0.0, 0.5 * r], [0.0, -r, r])
    assert values.tolist() == [0.0, 0.0, 0.0]
    assert wigner_state(s, PhasePoint(r, 0.0)) == 0.0
    assert wigner_fock(d - 1, PhasePoint(0.0, r)) == 0.0
    assert wigner_cross(0, d - 1, PhasePoint(r, r)) == 0.0
    assert wigner_mixture(s, PhasePoint(-r, 0.0)) == 0.0
    assert tomogram_from_wigner(s, r, 0.3) == 0.0
