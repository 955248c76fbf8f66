"""Coherent-state families: truncated-displacement, truncated-series, cats."""

import cmath
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from quditcs import qcs
from quditcs.errors import ConvergenceError, DimensionMismatchError, NullStateError
from quditcs.fock import QuditState, displaced_vacuum, fidelity
from quditcs.qcs import (
    QcsParams,
    cat_state,
    closed_form_qcs,
    complementary_state,
    linear_qcs,
    nonlinear_qcs,
    parity_coefficients,
    quasiperiod,
    _raw_coefficients,
)
from quditcs.special_fn import HermiteRootTable, he_eval, he_roots, orthonormal_he_table


def test_quasiperiod_values():
    assert quasiperiod(2).value == pytest.approx(math.pi, rel=1e-15)
    assert quasiperiod(3).value == pytest.approx(2.0 * math.pi / math.sqrt(3.0), rel=1e-15)
    assert quasiperiod(4).value == pytest.approx(math.sqrt(18.0), rel=1e-15)
    assert quasiperiod(10).value == pytest.approx(math.sqrt(42.0), rel=1e-15)
    assert quasiperiod(5).dim == 5
    with pytest.raises(ValueError):
        quasiperiod(1)


def test_params_polar_decomposition():
    p = QcsParams(3, -1.0 - 1.0j)
    assert p.modulus == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert p.phi0 == pytest.approx(cmath.phase(-1.0 - 1.0j), rel=1e-15)
    assert QcsParams(2, 0.0).phi0 == 0.0
    with pytest.raises(ValueError):
        QcsParams(0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, complex(1.0, math.nan)])
def test_params_reject_non_finite_amplitudes(bad):
    with pytest.raises(ValueError):
        QcsParams(3, bad)


def test_params_reject_an_overflowing_modulus():
    # Both parts are finite, but |amplitude| is not; abs() would raise OverflowError.
    with pytest.raises(ValueError, match=r"modulus overflows, got \(1\.5e\+308\+1\.5e\+308j\)"):
        QcsParams(4, complex(1.5e308, 1.5e308))


def test_nonlinear_qubit_is_a_rotation():
    for a in (0.0, 0.4, 1.3, math.pi / 2.0):
        s = nonlinear_qcs(QcsParams(2, a))
        np.testing.assert_allclose(s.amps, [math.cos(a), math.sin(a)], atol=1e-12)
    phased = nonlinear_qcs(QcsParams(2, 0.7 * np.exp(0.5j)))
    np.testing.assert_allclose(
        phased.amps, [math.cos(0.7), np.exp(0.5j) * math.sin(0.7)], atol=1e-12
    )


def test_nonlinear_qutrit_half_period():
    s = nonlinear_qcs(QcsParams(3, quasiperiod(3).value / 2.0))
    np.testing.assert_allclose(
        s.amps.real, [1.0 / 3.0, 0.0, 2.0 * math.sqrt(2.0) / 3.0], atol=1e-10
    )
    np.testing.assert_allclose(s.amps.imag, 0.0, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 11, 20])
@pytest.mark.parametrize("amp", [0.35, 1.0, 2.2 - 0.9j, 4j])
def test_nonlinear_matches_matrix_exponential(d, amp):
    fast = nonlinear_qcs(QcsParams(d, amp))
    oracle = displaced_vacuum(d, amp)
    assert fidelity(fast, oracle) >= 1.0 - 1e-10


@pytest.mark.parametrize("d", [3, 8, 17])
def test_raw_coefficients_come_out_normalized(d):
    for amp in (0.5, quasiperiod(d).value / 2.0, 3.7):
        raw = _raw_coefficients(d, amp, 0.4)
        assert abs(np.vdot(raw, raw).real - 1.0) <= 1e-10


@pytest.mark.parametrize("d", [50, 100, 120, 150])
@pytest.mark.parametrize("where", ["half_period", "complex"])
def test_nonlinear_matches_matrix_exponential_up_to_max_degree(d, where):
    # The tiny outer Christoffel weights decide these dimensions.
    if where == "half_period":
        amp = quasiperiod(d).value / 2.0
    else:
        amp = 1.7 * cmath.exp(1j * math.pi / 3)
    fast = nonlinear_qcs(QcsParams(d, amp))
    oracle = displaced_vacuum(d, amp)
    assert fidelity(fast, oracle) >= 1.0 - 1e-10


def test_raw_coefficients_reject_a_corrupted_root_table(monkeypatch):
    # Inaccurate weights must raise, not be renormalized away.
    good = he_roots(12)
    bad = HermiteRootTable(
        roots=good.roots, christoffel=1.01 * good.christoffel, weighted=1.01 * good.weighted
    )
    monkeypatch.setattr(qcs, "he_roots", lambda d: bad)
    with pytest.raises(ConvergenceError):
        nonlinear_qcs(QcsParams(12, 1.3))


@pytest.mark.parametrize("d", [1, 2, 3, 12, 75, 150])
def test_cached_weighted_table_gives_the_per_call_bits(d):
    # Reference: the weighted table rebuilt on every call, as before it was cached.
    table = he_roots(d)
    weighted = orthonormal_he_table(d - 1, table.roots) * table.christoffel
    n = np.arange(d)
    for amp in (0.37, 1.7 * cmath.exp(0.6j), 5.2 - 2.1j):
        params = QcsParams(d, amp)
        phased = weighted @ np.exp(1j * table.roots * params.modulus)
        raw = np.exp(1j * n * (params.phi0 - 0.5 * math.pi)) * phased
        expected = QuditState.from_amplitudes(raw).amps
        assert nonlinear_qcs(params).amps.tobytes() == expected.tobytes()
        raw0 = np.exp(1j * n * (-0.5 * math.pi)) * (weighted @ np.exp(1j * table.roots * abs(amp)))
        even, odd = parity_coefficients(d, abs(amp))
        assert even.tobytes() == np.where(n % 2 == 0, raw0, 0.0).tobytes()
        assert odd.tobytes() == np.where(n % 2 == 0, 0.0, raw0).tobytes()
    assert table.weighted is he_roots(d).weighted
    assert not table.weighted.flags.writeable
    with pytest.raises(ValueError):
        table.weighted[0, 0] = 1.0


@pytest.mark.parametrize("d", [2, 4, 7, 12])
def test_matches_literal_spectral_sum(d):
    # Direct evaluation of the spectral synthesis with explicit factorials:
    # c_n = e^{in(phi0 - pi/2)} sum_k e^{i x_k |a|} He_n(x_k) (d-1)!
    #       / (sqrt(n!) d He_{d-1}'s square at x_k)
    table = he_roots(d)
    modulus, phi0 = 1.3, 0.6
    literal = np.zeros(d, dtype=complex)
    for n in range(d):
        acc = 0.0j
        for x in table.roots:
            w = math.factorial(d - 1) / (d * he_eval(d - 1, x) ** 2)
            acc += cmath.exp(1j * x * modulus) * he_eval(n, x) * w
        literal[n] = cmath.exp(1j * n * (phi0 - math.pi / 2.0)) * acc / math.sqrt(math.factorial(n))
    prod = nonlinear_qcs(QcsParams(d, modulus * cmath.exp(1j * phi0)))
    np.testing.assert_allclose(prod.amps, literal, atol=1e-8)


@pytest.mark.parametrize("d", [2, 3])
def test_exact_periodicity_for_lowest_dims(d):
    rng = np.random.default_rng(21)
    period = quasiperiod(d).value
    for _ in range(20):
        modulus = rng.uniform(0.0, 3.0)
        phi = rng.uniform(-math.pi, math.pi)
        base = nonlinear_qcs(QcsParams(d, modulus * np.exp(1j * phi)))
        shifted = nonlinear_qcs(QcsParams(d, (modulus + period) * np.exp(1j * phi)))
        assert fidelity(base, shifted) >= 1.0 - 1e-10


def test_revival_is_only_approximate_above_dim_three():
    s = nonlinear_qcs(QcsParams(4, quasiperiod(4).value))
    f = fidelity(s, QuditState.basis(4, 0))
    assert f == pytest.approx(0.97939, abs=2e-4)
    assert f < 1.0 - 1e-3


def test_linear_qubit_form():
    b = 0.9
    s = linear_qcs(QcsParams(2, b))
    np.testing.assert_allclose(
        s.amps.real, np.array([1.0, b]) / math.sqrt(1.0 + b * b), atol=1e-14
    )
    vac = linear_qcs(QcsParams(5, 0.0))
    np.testing.assert_array_equal(vac.amps, QuditState.basis(5, 0).amps)


def test_linear_qutrit_half_period_moduli():
    s = linear_qcs(QcsParams(3, quasiperiod(3).value / 2.0))
    np.testing.assert_allclose(np.abs(s.amps), [0.32, 0.58, 0.75], atol=5e-3)


def test_linear_phases_and_ratios():
    d, modulus, phi0 = 8, 1.7, -0.8
    s = linear_qcs(QcsParams(d, modulus * np.exp(1j * phi0)))
    n = np.arange(d)
    np.testing.assert_allclose(np.angle(s.amps * np.exp(-1j * n * phi0))[1:], 0.0, atol=1e-12)
    # successive amplitude ratio is beta / sqrt(n+1)
    for k in range(d - 1):
        ratio = abs(s.amps[k + 1]) / abs(s.amps[k])
        assert ratio == pytest.approx(modulus / math.sqrt(k + 1.0), rel=1e-12)


def test_linear_survives_extreme_amplitude():
    s = linear_qcs(QcsParams(150, 50.0))
    assert np.all(np.isfinite(s.amps))
    assert abs(np.vdot(s.amps, s.amps).real - 1.0) <= 1e-10


def test_cat_states_have_pure_parity_support():
    p = QcsParams(7, 1.9)
    even = cat_state("alpha", "even", p)
    odd = cat_state("alpha", "odd", p)
    n = np.arange(7)
    assert np.all(even.amps[n % 2 == 1] == 0.0)
    assert np.all(odd.amps[n % 2 == 0] == 0.0)
    # the two projections recombine into the original ray
    full = nonlinear_qcs(p).amps
    even_w = np.linalg.norm(full[n % 2 == 0])
    odd_w = np.linalg.norm(full[n % 2 == 1])
    recombined = QuditState.from_amplitudes(even_w * even.amps + odd_w * odd.amps)
    assert fidelity(recombined, nonlinear_qcs(p)) >= 1.0 - 1e-12


def test_qutrit_alpha_even_cat_is_the_half_period_state():
    p = QcsParams(3, quasiperiod(3).value / 2.0)
    cat = cat_state("alpha", "even", p)
    assert fidelity(cat, nonlinear_qcs(p)) >= 1.0 - 1e-10


def test_beta_even_cat_matches_series():
    b = 1.3
    cat = cat_state("beta", "even", QcsParams(6, b))
    n = np.arange(6)
    series = np.where(
        n % 2 == 0, b**n / np.sqrt([math.factorial(int(k)) for k in n]), 0.0
    )
    series = series / np.linalg.norm(series)
    np.testing.assert_allclose(cat.amps, series, atol=1e-12)


def test_quartit_beta_odd_cat_vector():
    cat = cat_state("beta", "odd", QcsParams(4, quasiperiod(4).value / 2.0))
    np.testing.assert_allclose(np.abs(cat.amps), [0.0, 0.48, 0.0, 0.88], atol=5e-3)


def test_cat_state_argument_validation():
    p = QcsParams(4, 1.0)
    with pytest.raises(ValueError):
        cat_state("delta", "even", p)
    with pytest.raises(ValueError):
        cat_state("alpha", "sideways", p)
    with pytest.raises(NullStateError):
        cat_state("beta", "odd", QcsParams(4, 0.0))


def test_complementary_qubit_closed_form():
    a = 0.8
    g = complementary_state(QcsParams(2, a))
    den = math.sqrt(1.0 + a * a)
    expected = np.array(
        [math.cos(2 * a) + a * math.sin(2 * a), math.sin(2 * a) - a * math.cos(2 * a)]
    ) / den
    np.testing.assert_allclose(g.amps.real, expected, atol=1e-12)
    np.testing.assert_allclose(g.amps.imag, 0.0, atol=1e-14)


def test_complementary_qubit_half_period():
    # at a = T/2 the partner is the series state at amplitude -T/2
    a = quasiperiod(2).value / 2.0
    g = complementary_state(QcsParams(2, a))
    mirror = linear_qcs(QcsParams(2, -a))
    assert fidelity(g, mirror) >= 1.0 - 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 7, 10])
def test_complementary_superposition_identity(d):
    # 2 <a|b> |a> = |b> + |g>, so |a> lies on the (b, g) plane's bisector ray
    p = QcsParams(d, quasiperiod(d).value / 2.0)
    alpha = nonlinear_qcs(p)
    beta = linear_qcs(p)
    gamma = complementary_state(p)
    assert abs(np.vdot(gamma.amps, gamma.amps).real - 1.0) <= 1e-12
    recombined = QuditState.from_amplitudes(beta.amps + gamma.amps)
    assert fidelity(alpha, recombined) >= 1.0 - 1e-9


def test_complementary_moduli_for_dims_three_and_four():
    g3 = complementary_state(QcsParams(3, quasiperiod(3).value / 2.0))
    np.testing.assert_allclose(np.abs(g3.amps), [0.22, 0.58, 0.78], atol=5e-3)
    g4 = complementary_state(QcsParams(4, quasiperiod(4).value / 2.0))
    np.testing.assert_allclose(np.abs(g4.amps), [0.15, 0.33, 0.68, 0.64], atol=5e-3)


def test_complementary_degenerate_overlap_raises():
    # the qubit overlap (cos a + a sin a)/sqrt(1+a^2) has a zero near 2.8
    root = brentq(lambda a: math.cos(a) + a * math.sin(a), 2.0, 3.0, xtol=1e-15)
    with pytest.raises(NullStateError):
        complementary_state(QcsParams(2, root))


def test_reflection_flips_odd_coefficients():
    d, amp = 9, 1.7
    plus = nonlinear_qcs(QcsParams(d, amp)).amps
    minus = nonlinear_qcs(QcsParams(d, -amp)).amps
    signs = (-1.0) ** np.arange(d)
    np.testing.assert_allclose(minus, signs * plus, atol=1e-12)


@pytest.mark.parametrize("d", [3, 4, 8, 13])
def test_parity_split_recombines(d):
    amp = 0.6 * quasiperiod(d).value
    even, odd = parity_coefficients(d, amp)
    n = np.arange(d)
    assert np.all(even[n % 2 == 1] == 0.0)
    assert np.all(odd[n % 2 == 0] == 0.0)
    np.testing.assert_allclose(even + odd, _raw_coefficients(d, amp, 0.0), atol=1e-10)


def test_parity_split_at_zero_amplitude_is_vacuum():
    even, odd = parity_coefficients(5, 0.0)
    np.testing.assert_allclose(even, np.eye(5)[0], atol=1e-13)
    np.testing.assert_allclose(odd, 0.0, atol=1e-13)


def test_qutrit_half_period_has_no_odd_weight():
    even, odd = parity_coefficients(3, quasiperiod(3).value / 2.0)
    assert np.max(np.abs(odd)) <= 1e-12
    assert abs(np.linalg.norm(even) - 1.0) <= 1e-10


def test_parity_split_rejects_negative_modulus():
    with pytest.raises(ValueError):
        parity_coefficients(4, -0.5)


@pytest.mark.parametrize("modulus", [math.nan, math.inf])
def test_parity_split_rejects_non_finite_modulus(modulus):
    with pytest.raises(ValueError, match="finite"):
        parity_coefficients(4, modulus)


def test_overflowing_root_phases_raise_value_error():
    # x_k * |alpha| overflows for the outer roots of He_4 (|x_k| = 2.33).
    with pytest.raises(ValueError, match=r"d=4, \|alpha\|=1e\+308 are not finite"):
        nonlinear_qcs(QcsParams(4, 1e308))
    with pytest.raises(ValueError, match="d=4"):
        parity_coefficients(4, 1e308)


@pytest.mark.parametrize("d", range(4, 22))
def test_half_period_suppresses_wrong_parity(d):
    # even d leaves residual weight on even indices, odd d on odd indices
    even, odd = parity_coefficients(d, quasiperiod(d).value / 2.0)
    wrong = even if d % 2 == 0 else odd
    assert float(np.vdot(wrong, wrong).real) <= 0.006
    assert np.max(np.abs(wrong)) <= 0.08


@pytest.mark.parametrize("d", [2, 3, 4])
def test_closed_forms_track_production_path(d):
    for amp in (0.3, 1.1 + 0.7j, quasiperiod(d).value / 2.0, -2.4j):
        p = QcsParams(d, amp)
        np.testing.assert_allclose(
            closed_form_qcs(d, p).amps, nonlinear_qcs(p).amps, atol=1e-10
        )


def test_closed_form_domain_checks():
    with pytest.raises(ValueError):
        closed_form_qcs(5, QcsParams(5, 1.0))
    with pytest.raises(DimensionMismatchError):
        closed_form_qcs(3, QcsParams(4, 1.0))
