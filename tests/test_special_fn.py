"""Tests for the probabilists'-Hermite / Laguerre / factorial toolbox."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from quditcs.special_fn import (
    MAX_DEGREE,
    LogFactorialCache,
    he_asymptotic,
    he_eval,
    he_roots,
    he_zero,
    hermite_function_table,
    laguerre_eval,
    log_factorial,
    log_factorial_array,
    orthonormal_he_eval,
    orthonormal_he_table,
)


def test_he_eval_low_orders():
    assert he_eval(0, 1.7) == 1.0
    assert he_eval(1, -0.3) == -0.3
    assert he_eval(2, 0.0) == -1.0
    # He_3(x) = x^3 - 3x
    assert he_eval(3, 2.0) == pytest.approx(2.0, abs=1e-14)
    vals = he_eval(2, np.array([0.0, 1.0, 2.0]))
    assert vals.shape == (3,)
    np.testing.assert_allclose(vals, [-1.0, 0.0, 3.0], atol=1e-14)


def test_he_eval_recurrence_consistency():
    rng = np.random.default_rng(11)
    x = rng.uniform(-10.0, 10.0, size=100)
    for n in range(1, 40):
        lhs = he_eval(n + 1, x)
        rhs = x * he_eval(n, x) - n * he_eval(n - 1, x)
        scale = np.abs(x * he_eval(n, x)) + n * np.abs(he_eval(n - 1, x)) + 1.0
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-9


def test_he_reflection_is_exact():
    # (-1)^n parity must hold bitwise: the recurrence only flips signs.
    x = np.linspace(0.1, 7.0, 23)
    for n in list(range(13)) + [25]:
        sign = -1.0 if n % 2 else 1.0
        assert np.all(he_eval(n, -x) == sign * he_eval(n, x))


def test_he_matches_physicists_scaling():
    # He_n(x) = 2^(-n/2) H_n(x / sqrt(2))
    x = np.linspace(-4.0, 4.0, 17)
    for n in range(21):
        h = np.polynomial.hermite.hermval(x / math.sqrt(2.0), [0.0] * n + [1.0])
        expected = h * 2.0 ** (-n / 2.0)
        scale = np.abs(expected) + 1.0
        assert np.max(np.abs(he_eval(n, x) - expected) / scale) <= 1e-9


def test_orthonormal_he_consistency():
    x = np.linspace(-3.0, 3.0, 11)
    for n in range(21):
        scaled = orthonormal_he_eval(n, x) * math.sqrt(math.factorial(n))
        scale = np.abs(scaled) + 1.0
        assert np.max(np.abs(scaled - he_eval(n, x)) / scale) <= 1e-12
    assert orthonormal_he_eval(0, 2.5) == 1.0
    assert orthonormal_he_eval(3, 1.0) == pytest.approx(-2.0 / math.sqrt(6.0), rel=1e-13)


def test_orthonormal_table_matches_scalar_path():
    x = np.linspace(-5.0, 5.0, 9)
    table = orthonormal_he_table(12, x)
    assert table.shape == (13, 9)
    for n in range(13):
        np.testing.assert_allclose(table[n], orthonormal_he_eval(n, x), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n_max", [0, 1, 2, 149])
def test_one_point_recurrence_gives_the_bits_of_its_column(n_max):
    # A single point steps on floats; it must match the array path bit for bit,
    # also where the Gaussian seed underflows (x = 40).
    xs = np.array([0.0, -0.7, 3.3, 40.0])
    for build in (orthonormal_he_table, hermite_function_table):
        table = build(n_max, xs)
        for j, x in enumerate(xs):
            for arg in (x, [x], np.array([[x]])):
                one = build(n_max, arg)
                assert one.shape == (n_max + 1,) + np.shape(np.atleast_1d(arg))
                assert one.reshape(n_max + 1).tobytes() == table[:, j].tobytes()
    top = orthonormal_he_table(n_max, xs)[n_max]
    for j, x in enumerate(xs):
        value = orthonormal_he_eval(n_max, float(x))
        assert type(value) is float
        assert np.float64(value).tobytes() == top[j].tobytes()
        assert orthonormal_he_eval(n_max, [x]).shape == (1,)


def test_orthonormal_high_degree_against_mpmath():
    # p_100(1/2) from 60-digit arithmetic; the recurrence must hold 1e-9.
    with mpmath.workdps(60):
        h = mpmath.hermite(100, mpmath.mpf("0.5") / mpmath.sqrt(2))
        exact = float(h / 2**50 / mpmath.sqrt(mpmath.factorial(100)))
    assert orthonormal_he_eval(100, 0.5) == pytest.approx(exact, rel=1e-9)


def test_he_zero():
    assert he_zero(0) == 1.0
    assert he_zero(1) == 0.0
    assert he_zero(2) == -1.0
    assert he_zero(4) == 3.0
    assert he_zero(6) == -15.0
    for n in range(31):
        assert he_zero(n) == he_eval(n, 0.0)


def test_he_asymptotic_probes():
    assert he_asymptotic(2, 0.0) == -1.0
    approx = he_asymptotic(10, 0.1)
    exact = he_eval(10, 0.1)
    assert abs(approx - exact) / abs(exact) < 0.01


@pytest.mark.parametrize("n", [11, 21, 41])
def test_he_asymptotic_odd_degree_scale(n):
    # The odd-n amplitude is n!!/sqrt(n); (n-1)!! in its place reads 62% to 80% low.
    assert he_asymptotic(n, 0.1) == pytest.approx(he_eval(n, 0.1), rel=0.03)


def test_he_asymptotic_sign_changes_near_estimated_roots():
    # Interior roots of He_21 sit close to l*pi/sqrt(86) for small even l.
    d = 21
    spacing = math.pi / math.sqrt(4 * d + 2)
    for l in range(-8, 9, 2):
        r = l * spacing
        assert he_asymptotic(d, r - 0.08) * he_asymptotic(d, r + 0.08) < 0.0


def test_he_roots_small_dimensions():
    table2 = he_roots(2)
    np.testing.assert_allclose(table2.roots, [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(table2.christoffel, [0.5, 0.5], atol=1e-12)

    table4 = he_roots(4)
    inner = math.sqrt(3.0 - math.sqrt(6.0))
    outer = math.sqrt(3.0 + math.sqrt(6.0))
    np.testing.assert_allclose(table4.roots, [-outer, -inner, inner, outer], atol=1e-10)

    table1 = he_roots(1)
    assert table1.roots.tolist() == [0.0]
    assert table1.christoffel.tolist() == [1.0]


@pytest.mark.parametrize("d", [3, 5, 6, 17, 40])
def test_he_roots_structure(d):
    table = he_roots(d)
    roots, weights = table.roots, table.christoffel
    assert np.all(np.diff(roots) > 0)
    np.testing.assert_allclose(roots, -roots[::-1], atol=0.0)
    if d % 2:
        assert roots[d // 2] == 0.0
    assert np.all(weights > 0)
    np.testing.assert_allclose(weights, weights[::-1], atol=0.0)
    assert abs(weights.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("d", [5, 21, 40, 150])
def test_he_roots_are_polynomial_zeros(d):
    table = he_roots(d)
    resid = he_eval(d, table.roots)
    deriv = d * he_eval(d - 1, table.roots)  # He_d' = d He_{d-1}
    assert np.max(np.abs(resid / deriv)) <= 1e-10


def test_he_roots_central_spacing_estimate_d21():
    d = 21
    roots = he_roots(d).roots
    for k in range(6, 15):
        estimate = (2 * k - (d - 1)) * math.pi / math.sqrt(4 * d + 2)
        if k == (d - 1) // 2:
            assert roots[k] == 0.0
        else:
            assert abs(roots[k] - estimate) / abs(roots[k]) <= 0.02


@pytest.mark.parametrize("d", [2, 3, 5, 8, 13, 21, 34, 40])
def test_discrete_orthogonality(d):
    table = he_roots(d)
    p = orthonormal_he_table(d - 1, table.roots)
    gram = (p * table.christoffel) @ p.T
    assert np.max(np.abs(gram - np.eye(d))) <= 1e-9


def test_discrete_orthogonality_to_rounding_up_to_max_degree():
    worst = {}
    for d in range(2, MAX_DEGREE + 1):
        table = he_roots(d)
        p = orthonormal_he_table(d - 1, table.roots)
        worst[d] = np.max(np.abs((p * table.christoffel) @ p.T - np.eye(d)))
    d_max = max(worst, key=worst.get)
    assert worst[d_max] <= 1e-14, f"Gram error {worst[d_max]:.3g} at d={d_max}"


def test_hermite_function_table_against_mpmath():
    q = np.array([-3.1, 0.0, 0.7, 9.5])
    table = hermite_function_table(150, q)
    assert table.shape == (151, 4)
    with mpmath.workdps(60):
        for n in (0, 1, 7, 60, 150):
            for j, qv in enumerate(q):
                x = mpmath.mpf(float(qv))
                exact = (
                    mpmath.hermite(n, x)
                    * mpmath.exp(-x * x / 2)
                    / mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
                )
                assert table[n, j] == pytest.approx(float(exact), rel=1e-9, abs=1e-300)


def test_hermite_function_table_far_out_underflows_to_zero():
    # p_150(sqrt(2) q) alone overflows past q ~ 600; the Gaussian seed keeps
    # every row finite.
    table = hermite_function_table(150, np.array([40.0, 1e3, -1e6]))
    assert np.all(np.isfinite(table))
    assert np.all(table[:, 1:] == 0.0)


def test_outermost_weight_at_max_degree_against_mpmath():
    # christoffel[0] at d=150 is ~3e-121; it must carry relative digits, so
    # approx gets abs=0.0 (its default 1e-12 floor would accept any value).
    d = 150
    table = he_roots(d)
    with mpmath.workdps(60):
        x = mpmath.mpf(float(table.roots[0]))
        he = mpmath.hermite(d - 1, x / mpmath.sqrt(2)) / mpmath.sqrt(2) ** (d - 1)
        p = he / mpmath.sqrt(mpmath.factorial(d - 1))
        exact = float(1 / (d * p**2))
    assert table.christoffel[0] == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_he_roots_cached_and_frozen():
    assert he_roots(7) is he_roots(7)
    with pytest.raises(ValueError):
        he_roots(7).roots[0] = 0.0
    with pytest.raises(ValueError):
        he_roots(0)
    with pytest.raises(ValueError):
        he_roots(151)


def test_laguerre_eval():
    assert laguerre_eval(0, 5, 3.3) == 1.0
    assert laguerre_eval(1, 0, 4.0) == -3.0
    # L_3^(2)(x) as an explicit series
    x = 1.5
    series = sum(
        (-1.0) ** i * math.comb(5, 3 - i) * x**i / math.factorial(i) for i in range(4)
    )
    assert laguerre_eval(3, 2, x) == pytest.approx(series, rel=1e-12)


def test_laguerre_matches_series_and_scipy():
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.0, 12.0, size=6)
    for k in range(11):
        for m in range(11):
            for x in xs:
                series = sum(
                    (-1.0) ** i * math.comb(k + m, k - i) * x**i / math.factorial(i)
                    for i in range(k + 1)
                )
                got = laguerre_eval(k, m, x)
                assert abs(got - series) <= 1e-8 * (abs(series) + 1.0)
    assert laguerre_eval(5, 3, 2.7) == pytest.approx(eval_genlaguerre(5, 3, 2.7), rel=1e-12)


def test_log_factorial_cache():
    cache = LogFactorialCache(200)
    assert cache.values[0] == 0.0
    assert cache.values[1] == 0.0
    for n in range(2, 201):
        diff = cache.values[n] - cache.values[n - 1]
        assert abs(diff - math.log(n)) <= 1e-13 * math.log(n)
    with pytest.raises(ValueError):
        cache[-1]


def test_log_factorial_helpers():
    assert log_factorial(5) == pytest.approx(math.log(120.0), rel=1e-14)
    # growing the shared cache must keep earlier entries intact
    big = log_factorial(400)
    assert big == pytest.approx(math.lgamma(401.0), rel=1e-12)
    assert log_factorial(3) == pytest.approx(math.log(6.0), rel=1e-14)
    arr = log_factorial_array(10)
    assert arr.shape == (11,)
    assert not arr.flags.writeable
    assert arr[10] == pytest.approx(math.lgamma(11.0), rel=1e-13)
