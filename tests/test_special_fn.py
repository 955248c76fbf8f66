"""Tests for the probabilists'-Hermite / factorial toolbox."""

import contextlib
import math

import mpmath
import numpy as np
import pytest

from quditcs import special_fn
from quditcs.special_fn import (
    MAX_DEGREE,
    he_eval,
    he_roots,
    hermite_function_table,
    log_factorial_array,
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
    table = orthonormal_he_table(20, x)
    assert table.shape == (21, 11)
    for n in range(21):
        scaled = table[n] * math.sqrt(math.factorial(n))
        scale = np.abs(scaled) + 1.0
        assert np.max(np.abs(scaled - he_eval(n, x)) / scale) <= 1e-12
    assert orthonormal_he_table(0, 2.5)[0, 0] == 1.0
    assert orthonormal_he_table(3, 1.0)[3, 0] == pytest.approx(-2.0 / math.sqrt(6.0), rel=1e-13)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bytes, except that a NaN compares equal to any NaN."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.parametrize("n_max", [0, 1, 2, 149, 399])
def test_one_point_recurrence_gives_the_bits_of_its_column(n_max):
    # A single point steps on floats, and a float q of hermite_function_table
    # takes its clamp and seed argument on floats too; both must match the
    # array path bit for bit: at signed zeros, where the Gaussian seed
    # underflows (x = 40), at and past the q cap, and at infinities (where
    # the uncapped orthonormal rows overflow, and turn NaN).
    cap = special_fn._Q_CAP
    xs = np.array([0.0, -0.0, -0.7, 3.3, 40.0, cap, -cap, 2.0 * cap, -1e300, np.inf, -np.inf])
    for build in (orthonormal_he_table, hermite_function_table):
        # hermite_function_table runs under the suite's RuntimeWarning filter.
        quiet = build is orthonormal_he_table
        with np.errstate(over="ignore", invalid="ignore") if quiet else contextlib.nullcontext():
            table = build(n_max, xs)
            for j, x in enumerate(xs):
                for arg in (float(x), np.float64(x), [x], np.array([[x]])):
                    one = build(n_max, arg)
                    assert one.shape == (n_max + 1,) + np.shape(np.atleast_1d(arg))
                    assert _same_bits(one.reshape(n_max + 1), table[:, j])


def test_orthonormal_high_degree_against_mpmath():
    # p_100(1/2) from 60-digit arithmetic; the recurrence must hold 1e-9.
    with mpmath.workdps(60):
        h = mpmath.hermite(100, mpmath.mpf("0.5") / mpmath.sqrt(2))
        exact = float(h / 2**50 / mpmath.sqrt(mpmath.factorial(100)))
    assert orthonormal_he_table(100, 0.5)[100, 0] == pytest.approx(exact, rel=1e-9)


def test_he_zero():
    # He_n(0) is 0 for odd n and (-1)^(n/2) (n-1)!! for even n, exactly.
    for n in range(31):
        double_factorial = math.prod(range(n - 1, 0, -2))
        expected = 0.0 if n % 2 else (-1.0) ** (n // 2) * double_factorial
        assert he_eval(n, 0.0) == expected


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


@pytest.mark.parametrize("d", [1, 2, 7, 150])
def test_he_roots_builds_its_polynomial_table_once(d, monkeypatch):
    # he_roots makes the weighted table from the p_n(roots) table of its
    # weights, so it costs no second recurrence.
    calls = []
    recurrence = special_fn.orthonormal_he_table

    def counting(n_max, x):
        calls.append(n_max)
        return recurrence(n_max, x)

    monkeypatch.setattr(special_fn, "orthonormal_he_table", counting)
    table = he_roots.__wrapped__(d)
    built = len(calls)
    weighted = table.weighted
    assert len(calls) == built
    assert not weighted.flags.writeable


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


@pytest.mark.parametrize("q", [1e154, -1e200, 1e300, -1.7e308])
def test_hermite_function_table_is_zero_at_any_far_out_finite_q(q):
    # q * q, and past 1.27e308 sqrt(2) q, would overflow; the rows are 0.
    assert hermite_function_table(5, q).tolist() == [[0.0]] * 6
    table = hermite_function_table(150, np.array([q, 0.5, -q]))
    assert np.all(table[:, [0, 2]] == 0.0)
    assert table[:, 1].tobytes() == hermite_function_table(150, 0.5)[:, 0].tobytes()


def test_log_factorial_table_is_cached_per_size():
    table = log_factorial_array(150)
    assert table is log_factorial_array(150)
    fresh = np.zeros(151)
    np.cumsum(np.log(np.arange(1.0, 151.0)), out=fresh[1:])
    assert table.tobytes() == fresh.tobytes()


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
    for d in (1, 2, 7, 150):
        table = he_roots(d)
        assert table is he_roots(d)
        for array in (table.roots, table.christoffel, table.weighted):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0.0
    with pytest.raises(ValueError):
        he_roots(0)
    with pytest.raises(ValueError):
        he_roots(151)


def test_log_factorial_cache():
    values = log_factorial_array(200)
    assert values[0] == 0.0
    assert values[1] == 0.0
    for n in range(2, 201):
        diff = values[n] - values[n - 1]
        assert abs(diff - math.log(n)) <= 1e-13 * math.log(n)
    with pytest.raises(ValueError):
        log_factorial_array(-1)


def test_log_factorial_helpers():
    arr = log_factorial_array(10)
    assert arr.shape == (11,)
    assert not arr.flags.writeable
    assert arr[10] == pytest.approx(math.lgamma(11.0), rel=1e-13)
