"""Wigner evaluation, grids and the phase-space negativity volume."""

import cmath
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.special import eval_genlaguerre

from quditcs import phase_space
from quditcs.errors import ConvergenceError
from quditcs.fock import QuditState
from quditcs.phase_space import (
    PhasePoint,
    WignerGrid,
    nonclassical_volume,
    outer_radius,
    wigner_cross,
    wigner_fock,
    wigner_grid,
    wigner_mixture,
    wigner_state,
    wigner_values,
    _eval_wigner,
    _weyl_grid,
)
from quditcs.qcs import QcsParams, linear_qcs, nonlinear_qcs, quasiperiod
from quditcs.special_fn import log_factorial_array

TWO_OVER_PI = 2.0 / math.pi


def _brute_force_wigner(amps: np.ndarray, z: complex) -> float:
    """Independent textbook assembly from generalized Laguerre polynomials."""
    d = len(amps)
    r2 = abs(z) ** 2
    total = 0.0j
    for k in range(d):
        for l in range(k, d):
            m = l - k
            pref = (
                TWO_OVER_PI
                * (-1.0) ** k
                * math.sqrt(math.factorial(k) / math.factorial(l))
                * (2.0 * z.conjugate()) ** m
                * math.exp(-2.0 * r2)
                * eval_genlaguerre(k, m, 4.0 * r2)
            )
            if l == k:
                total += abs(amps[k]) ** 2 * pref
            else:
                total += 2.0 * (np.conj(amps[k]) * amps[l] * pref).real
    return float(total.real)


def test_outer_radius():
    assert outer_radius(1) == pytest.approx(math.sqrt(math.log(2.0) / 2.0), rel=1e-14)
    assert outer_radius(4) == pytest.approx(
        math.sqrt(3.0) + math.sqrt(math.log(2.0) / 2.0), rel=1e-14
    )


def test_phase_point():
    pt = PhasePoint(0.3, -0.4)
    assert pt.z == 0.3 - 0.4j


def test_wigner_fock_at_origin():
    assert wigner_fock(0, PhasePoint(0.0, 0.0)) == pytest.approx(TWO_OVER_PI, rel=1e-14)
    assert wigner_fock(1, PhasePoint(0.0, 0.0)) == pytest.approx(-TWO_OVER_PI, rel=1e-14)


def test_wigner_fock_integrates_to_one():
    total, _ = quad(
        lambda r: wigner_fock(3, PhasePoint(r, 0.0)) * 2.0 * math.pi * r, 0.0, 12.0,
        limit=200,
    )
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("n", [0, 3, 17])
def test_wigner_fock_matches_laguerre_formula(n):
    for q, p in [(0.1, 0.2), (1.5, -0.7), (0.0, 2.2), (3.0, 3.0)]:
        r2 = q * q + p * p
        expected = TWO_OVER_PI * (-1.0) ** n * math.exp(-2.0 * r2) * eval_genlaguerre(n, 0, 4.0 * r2)
        assert wigner_fock(n, PhasePoint(q, p)) == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_wigner_fock_extreme_arguments_stay_finite():
    deep = wigner_fock(150, PhasePoint(20.0, 0.0))
    assert math.isfinite(deep)
    assert abs(deep) <= 1e-200
    osc = wigner_fock(150, PhasePoint(6.0, 0.0))
    assert math.isfinite(osc)
    assert abs(osc) <= TWO_OVER_PI + 1e-12


def test_wigner_cross_basics():
    assert wigner_cross(0, 1, PhasePoint(0.0, 0.0)) == 0.0j
    val = wigner_cross(0, 1, PhasePoint(0.5, 0.0))
    assert val.real == pytest.approx(TWO_OVER_PI * math.exp(-0.5), rel=1e-12)
    assert val.imag == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        wigner_cross(2, 2, PhasePoint(0.0, 0.0))
    with pytest.raises(ValueError):
        wigner_cross(3, 1, PhasePoint(0.0, 0.0))


def test_wigner_state_matches_brute_force():
    rng = np.random.default_rng(29)
    for d in (2, 5, 8):
        s = QuditState.from_amplitudes(rng.normal(size=d) + 1j * rng.normal(size=d))
        for _ in range(20):
            q, p = rng.uniform(-3.0, 3.0, size=2)
            expected = _brute_force_wigner(s.amps, complex(q, p))
            assert wigner_state(s, PhasePoint(q, p)) == pytest.approx(expected, abs=1e-13)


def test_wigner_state_examples():
    vac = QuditState.basis(4, 0)
    assert wigner_state(vac, PhasePoint(0.0, 0.0)) == pytest.approx(TWO_OVER_PI, rel=1e-14)
    assert wigner_state(vac, PhasePoint(1.0, 0.0)) == pytest.approx(
        TWO_OVER_PI * math.exp(-2.0), rel=1e-12
    )
    # the half-period qubit state is the antipodal Fock state at the origin
    cat2 = nonlinear_qcs(QcsParams(2, quasiperiod(2).value / 2.0))
    assert wigner_state(cat2, PhasePoint(0.0, 0.0)) == pytest.approx(-TWO_OVER_PI, rel=1e-12)


def test_wigner_values_broadcasts():
    s = QuditState.from_amplitudes(np.array([1.0, 0.5, 0.25j]))
    q = np.linspace(-1.0, 1.0, 5)
    p = np.zeros(5)
    vals = wigner_values(s, q, p)
    assert vals.shape == (5,)
    for i in range(5):
        assert vals[i] == pytest.approx(wigner_state(s, PhasePoint(q[i], 0.0)), abs=1e-15)


def test_wigner_mixture_is_isotropic():
    rng = np.random.default_rng(31)
    s = QuditState.from_amplitudes(rng.normal(size=6) + 1j * rng.normal(size=6))
    r = 1.3
    ref = wigner_mixture(s, PhasePoint(r, 0.0))
    for theta in np.linspace(0.0, 2.0 * math.pi, 9):
        pt = PhasePoint(r * math.cos(theta), r * math.sin(theta))
        assert wigner_mixture(s, pt) == pytest.approx(ref, abs=1e-12)


def test_interference_assembly_is_real_and_complete():
    # diagonal mixture plus ordered off-diagonal pairs must rebuild the pure W
    rng = np.random.default_rng(37)
    d = 6
    s = QuditState.from_amplitudes(rng.normal(size=d) + 1j * rng.normal(size=d))
    for q, p in [(0.2, 0.1), (-1.4, 0.8), (2.0, -2.0)]:
        pt = PhasePoint(q, p)
        acc = complex(wigner_mixture(s, pt))
        for k in range(d):
            for l in range(k + 1, d):
                term = np.conj(s.amps[k]) * s.amps[l] * wigner_cross(k, l, pt)
                acc += term + np.conj(term)
        assert abs(acc.imag) <= 1e-12
        assert acc.real == pytest.approx(wigner_state(s, pt), abs=1e-13)


def test_wigner_grid_geometry_and_meta():
    s = QuditState.basis(3, 0)
    grid = wigner_grid(s, nq=33, npts=17)
    half = outer_radius(3) + 2.0
    assert grid.q_min == pytest.approx(-half)
    assert grid.q_max == pytest.approx(half)
    assert grid.values.shape == (33, 17)
    assert grid.state_meta == "dim=3"
    custom = wigner_grid(s, window=(-1.0, 2.0, -3.0, 4.0), nq=16, npts=16, state_meta="x")
    assert (custom.q_min, custom.q_max, custom.p_min, custom.p_max) == (-1.0, 2.0, -3.0, 4.0)
    assert custom.state_meta == "x"


@pytest.mark.parametrize("d", [3, 13, 32])
def test_wigner_grid_normalization(d):
    s = nonlinear_qcs(QcsParams(d, quasiperiod(d).value / 2.0))
    grid = wigner_grid(s)
    total = np.trapezoid(np.trapezoid(grid.values, grid.p_axis(), axis=1), grid.q_axis())
    assert abs(total - 1.0) <= 1e-4


def test_wigner_grid_bound():
    rng = np.random.default_rng(41)
    s = QuditState.from_amplitudes(rng.normal(size=12) + 1j * rng.normal(size=12))
    grid = wigner_grid(s, nq=101, npts=101)
    assert np.max(np.abs(grid.values)) <= TWO_OVER_PI + 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_exact_axis_symmetry_in_lowest_dims(d):
    s = nonlinear_qcs(QcsParams(d, quasiperiod(d).value / 2.0))
    grid = wigner_grid(s, nq=101, npts=101)
    assert np.max(np.abs(grid.values - grid.values[::-1, :])) <= 1e-9


def test_near_cat_axis_symmetry_bound():
    """Half-period states for d = 4..10 keep the q -> -q mirror defect
    below five percent of the Wigner peak."""
    ratios = {}
    for d in range(4, 11):
        s = nonlinear_qcs(QcsParams(d, quasiperiod(d).value / 2.0))
        grid = wigner_grid(s)
        defect = np.max(np.abs(grid.values - grid.values[::-1, :]))
        ratios[d] = float(defect / np.max(np.abs(grid.values)))
    worst = max(ratios.values())
    assert worst <= 0.05, (
        "mirror defect exceeds 0.05 * max|W|: "
        + ", ".join(f"d={d}: {r:.4f}" for d, r in ratios.items())
    )


def test_wigner_grid_validation():
    s = QuditState.basis(2, 0)
    with pytest.raises(ValueError):
        wigner_grid(s, nq=8)
    with pytest.raises(ValueError):
        wigner_grid(s, npts=15)
    with pytest.raises(ValueError):
        wigner_grid(s, window=(1.0, 1.0, -2.0, 2.0), nq=16, npts=16)


def test_wigner_grid_thread_determinism():
    s = nonlinear_qcs(QcsParams(5, 1.2 + 0.4j))
    base = wigner_grid(s, nq=41, npts=37)
    again = wigner_grid(s, nq=41, npts=37)
    assert np.array_equal(base.values, again.values)


def test_wigner_grid_csv_roundtrip(tmp_path):
    s = QuditState.basis(2, 1)
    grid = wigner_grid(s, window=(-2.0, 2.0, -2.0, 2.0), nq=17, npts=16)
    path = tmp_path / "w.csv"
    grid.write_csv(path)
    raw = path.read_bytes().decode()
    assert "\r" not in raw
    lines = raw.strip().split("\n")
    assert lines[0] == "q,p,w"
    assert len(lines) == 1 + 17 * 16
    q, p, w = (float(tok) for tok in lines[1].split(","))
    assert (q, p) == (-2.0, -2.0)
    assert w == pytest.approx(grid.values[0, 0], rel=1e-16)


def test_wigner_grid_json_schema(tmp_path):
    grid = wigner_grid(QuditState.basis(2, 0), nq=16, npts=16)
    payload = json.loads(json.dumps(grid.to_json_dict()))
    assert set(payload) == {
        "q_min", "q_max", "p_min", "p_max", "nq", "np", "state_meta", "values",
    }
    assert payload["nq"] == 16
    assert len(payload["values"]) == 16
    assert len(payload["values"][0]) == 16


def test_nonclassical_volume_vacuum_is_zero():
    assert nonclassical_volume(QuditState.basis(3, 0)) == 0.0


def test_nonclassical_volume_single_photon():
    # closed form for |1>: 4 e^{-1/2} - 2
    exact = 4.0 * math.exp(-0.5) - 2.0
    val = nonclassical_volume(QuditState.basis(2, 1))
    assert val == pytest.approx(exact, abs=1e-3)


def test_nonclassical_volume_validation(monkeypatch):
    s = QuditState.basis(4, 1)
    monkeypatch.setattr(phase_space, "_VOLUME_MAX_REFINEMENTS", 0)
    with pytest.raises(ValueError, match="max_refinements >= 1"):
        nonclassical_volume(s)
    # One grid, the first rung, that cannot meet the tolerance.
    monkeypatch.setattr(phase_space, "_VOLUME_TOL", 1e-300)
    monkeypatch.setattr(phase_space, "_VOLUME_MAX_REFINEMENTS", 1)
    with pytest.raises(ConvergenceError):
        nonclassical_volume(s)


@pytest.mark.parametrize("d, max_refinements, first", [(150, 3, 4), (2, 0, 1), (40, 0, 3)])
def test_refinement_budget_below_the_first_rung_is_a_value_error(
    d, max_refinements, first, monkeypatch
):
    # The budget is checked against the state's first rung before any grid
    # is sampled, and the message names that rung.
    def no_grid(amps, qs, ps):
        raise AssertionError("a grid was sampled")

    monkeypatch.setattr(phase_space, "_weyl_grid", no_grid)
    monkeypatch.setattr(phase_space, "_abs_weyl_sums", no_grid)
    monkeypatch.setattr(phase_space, "_VOLUME_MAX_REFINEMENTS", max_refinements)
    s = QuditState.basis(d, 1)
    with pytest.raises(ValueError, match=f"{(128 << first) + 1}-point grid.*>= {first}, got"):
        nonclassical_volume(s)


@pytest.mark.parametrize("n", [17, 129, 257, 1025, 4097])
@pytest.mark.parametrize("lo, hi", [(-7.3, 7.3), (0.2, 3.1), (-40.0, -1e-3)])
def test_simpson_weights_match_scipy(n, lo, hi):
    xs = np.linspace(lo, hi, n)
    sw = phase_space._simpson_weights(xs)
    for f in (np.exp(-xs * xs), np.cos(3.0 * xs) + 2.0, xs**3 + 3.0 * xs * xs + 1.0):
        assert sw @ f == pytest.approx(simpson(f, x=xs), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("d", [2, 3])
def test_volume_orders_the_two_families(d):
    # the displacement-built state is at least as negative as the series state
    for frac in (0.3, 0.5):
        amp = frac * quasiperiod(d).value
        da = nonclassical_volume(nonlinear_qcs(QcsParams(d, amp)))
        db = nonclassical_volume(linear_qcs(QcsParams(d, amp)))
        assert da >= db - 2e-3


def test_volume_at_max_dimension_is_resolved():
    # Reference: Simpson on a 4097 x 4097 grid of the same state. 129- and
    # 257-point grids both under-sample W here and agree on 8.4760.
    s = linear_qcs(QcsParams(150, quasiperiod(150).value))
    assert nonclassical_volume(s) == pytest.approx(8.43293, abs=5e-3)


def _random_state(d: int, seed: int) -> QuditState:
    rng = np.random.default_rng(seed)
    return QuditState.from_amplitudes(rng.normal(size=d) + 1j * rng.normal(size=d))


def _half_step_over_h_max(d: int, grid: WignerGrid) -> float:
    """Half the x-step over the largest alias-free y-step (see _weyl_grid):
    above 1 the evaluator refines the psi sample, below 1 it strides it."""
    reach = phase_space._reach(d)
    ps = grid.p_axis()
    p_max = np.max(np.abs(ps[math.sqrt(2.0) * np.abs(ps) <= reach]))
    half_dx = (grid.q_max - grid.q_min) / ((grid.nq - 1) * math.sqrt(2.0))
    return half_dx * (reach + math.sqrt(2.0) * p_max) / math.pi


@pytest.mark.parametrize("d", [2, 8, 32, 100, 150])
def test_wigner_grid_matches_laguerre_sweep(d):
    s = _random_state(d, 300 + d)
    hw = outer_radius(d) + 2.0
    grid = wigner_grid(s, window=(-0.8 * hw, hw, -hw, 0.6 * hw), nq=73, npts=58)
    reference = _eval_wigner(s.amps, grid.q_axis()[:, None], grid.p_axis()[None, :])
    assert np.max(np.abs(grid.values - reference)) <= 1e-12


@pytest.mark.parametrize(
    "d, half_width, nq, npts, regime",
    [
        (8, 12.0, 16, 21, "fine"),  # x-step far above the y-step
        (32, 9.0, 23, 17, "fine"),
        (8, None, 201, 201, "stride"),  # default grid: y-step spans x-steps
        (150, None, 401, 101, "stride"),
        (32, 1e-3, 40, 30, "stride"),  # narrower than one y-step: direct psi
        (2, 1e-20, 16, 16, "stride"),  # node indices past int64
        (150, 1e-300, 16, 16, "stride"),
    ],
)
def test_wigner_grid_sampling_regimes_match_laguerre_sweep(d, half_width, nq, npts, regime):
    s = _random_state(d, 500 + d)
    hw = outer_radius(d) + 2.0 if half_width is None else half_width
    grid = wigner_grid(s, window=(-hw, 0.9 * hw, -0.7 * hw, hw), nq=nq, npts=npts)
    assert (_half_step_over_h_max(d, grid) > 1.0) == (regime == "fine")
    reference = _eval_wigner(s.amps, grid.q_axis()[:, None], grid.p_axis()[None, :])
    assert np.max(np.abs(grid.values - reference)) <= 1e-12


def test_wigner_grid_on_a_huge_window_matches_laguerre_sweep():
    # Only the origin lies inside the state's support; the rest must come
    # out as zeros without sampling psi on a 1e5-wide axis. Past about 1e19
    # the lone row's step of 2 fine nodes would overflow int64 strides.
    s = _random_state(6, 61)
    for w in (1e4, 1e20, 1e300):
        grid = wigner_grid(s, window=(-w, w, -10.0 * w, 10.0 * w), nq=21, npts=21)
        reference = _eval_wigner(s.amps, grid.q_axis()[:, None], grid.p_axis()[None, :])
        assert abs(reference[10, 10]) > 1e-3
        assert np.max(np.abs(grid.values - reference)) <= 1e-12


@pytest.mark.parametrize("d", [2, 4, 8])
def test_nonclassical_volume_matches_laguerre_route(d, monkeypatch):
    # Complex amplitudes: the volume's complex row-block path against
    # Simpson sums of a Laguerre-sweep grid.
    phase = cmath.exp(0.7j)
    for s in (
        nonlinear_qcs(QcsParams(d, 0.37 * quasiperiod(d).value * phase)),
        linear_qcs(QcsParams(d, 1.2 * quasiperiod(d).value * phase)),
    ):
        assert s.amps.imag.any()
        fast = nonclassical_volume(s)
        with monkeypatch.context() as m:
            m.setattr(phase_space, "_abs_weyl_sums", _laguerre_sums)
            assert fast > 0.0
            assert abs(fast - nonclassical_volume(s)) <= 1e-10


def _laguerre_sums(amps, xs, w):
    """_abs_weyl_sums from a Laguerre-sweep grid."""
    values = np.abs(_eval_wigner(amps, xs[:, None], xs[None, :]))
    return tuple(float(a @ values @ a) for a in w)


def _whole_grid_sums(amps, xs, w):
    """_abs_weyl_sums from one whole complex Weyl grid, read by one (2, n) @
    grid pass: the volume's rung before it went by row blocks."""
    values = np.abs(_weyl_grid(amps, xs, xs))
    return tuple(float(a @ b) for a, b in zip(w @ values, w))


@pytest.mark.parametrize("d", [2, 4, 8])
def test_real_volume_matches_a_laguerre_grid(d, monkeypatch):
    for s in (
        nonlinear_qcs(QcsParams(d, 0.37 * quasiperiod(d).value)),
        linear_qcs(QcsParams(d, 1.2 * quasiperiod(d).value)),
    ):
        assert not s.amps.imag.any()  # the real half-plane path
        fast = nonclassical_volume(s)
        with monkeypatch.context() as m:
            m.setattr(phase_space, "_abs_weyl_sums", _laguerre_sums)
            assert fast > 0.0
            assert abs(fast - nonclassical_volume(s)) <= 1e-10


@pytest.mark.parametrize("d", [2, 4, 8, 32])
def test_real_volume_matches_the_whole_complex_grid(d, monkeypatch):
    period = quasiperiod(d).value
    states = [
        family(QcsParams(d, frac * period))
        for family in (nonlinear_qcs, linear_qcs)
        for frac in (0.5, 1.0, 1.5)
    ]
    fast = []
    for s in states:
        assert not s.amps.imag.any()
        fast.append(nonclassical_volume(s))
    monkeypatch.setattr(phase_space, "_abs_weyl_sums", _whole_grid_sums)
    for s, volume in zip(states, fast):
        assert abs(volume - nonclassical_volume(s)) <= 1e-12


def test_complex_volume_matches_the_whole_complex_grid(monkeypatch):
    states = [
        nonlinear_qcs(QcsParams(3, 0.5 * quasiperiod(3).value * complex(math.cos(0.7), 0.6))),
        linear_qcs(QcsParams(8, -1.1 * quasiperiod(8).value * 1j)),
        _random_state(6, 66),
    ]
    fast = []
    for s in states:
        assert s.amps.imag.any()  # the complex path
        fast.append(nonclassical_volume(s))
    monkeypatch.setattr(phase_space, "_abs_weyl_sums", _whole_grid_sums)
    for s, volume in zip(states, fast):
        assert volume > 0.0
        assert abs(volume - nonclassical_volume(s)) <= 1e-12


def test_large_volume_never_holds_its_grid():
    # Two rungs, 2049 and 4097 points a side: one 4097^2 grid alone is 134 MB.
    s = linear_qcs(QcsParams(150, quasiperiod(150).value))
    tracemalloc.start()
    try:
        volume = nonclassical_volume(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert volume == pytest.approx(8.43293, abs=5e-3)
    assert peak <= 64e6


def test_weyl_plan_cache_bound_is_a_small_constant():
    assert phase_space._WEYL_PLAN_CACHE == 4
    assert phase_space._weyl_plan.cache_info().maxsize == phase_space._WEYL_PLAN_CACHE


def test_weyl_plan_cache_key_separates_dimensions_and_windows():
    # Interleaved: one window at two dimensions, and one nq with two windows.
    # Each warm grid must carry the bits of the same grid built cold.
    s3, s9 = _random_state(3, 703), _random_state(9, 709)
    w1, w2 = (-4.0, 4.0, -3.5, 4.5), (-2.0, 5.0, -5.0, 1.0)
    calls = [(s3, w1), (s9, w1), (s3, w2), (s9, w1), (s3, w1), (s3, w2), (s9, w2)]
    phase_space._weyl_plan.cache_clear()
    warm = [wigner_grid(s, window=w, nq=37, npts=29).values for s, w in calls]
    assert phase_space._weyl_plan.cache_info().hits == 3
    for (s, w), values in zip(calls, warm):
        phase_space._weyl_plan.cache_clear()
        assert wigner_grid(s, window=w, nq=37, npts=29).values.tobytes() == values.tobytes()


def test_volume_with_a_warm_plan_cache_equals_a_cold_one():
    s = nonlinear_qcs(QcsParams(5, 0.41 * quasiperiod(5).value))
    other = linear_qcs(QcsParams(3, 0.7 * quasiperiod(3).value))
    phase_space._weyl_plan.cache_clear()
    cold = nonclassical_volume(s)
    nonclassical_volume(other)
    hits = phase_space._weyl_plan.cache_info().hits
    warm = nonclassical_volume(s)
    assert phase_space._weyl_plan.cache_info().hits > hits
    assert warm > 0.0
    assert warm.hex() == cold.hex()


def test_grids_share_no_memory_with_the_plan_cache(monkeypatch):
    s = _random_state(5, 57)
    first = wigner_grid(s, nq=33, npts=31).values
    second = wigner_grid(s, nq=33, npts=31).values
    expected = second.copy()
    first[...] = 7.0
    assert not np.shares_memory(first, second)
    assert second.tobytes() == expected.tobytes()
    assert wigner_grid(s, nq=33, npts=31).values.tobytes() == expected.tobytes()

    # nonclassical_volume takes |W| in place; no cached plan array may see it.
    plans = []
    cached = phase_space._weyl_plan

    def recording(*key):
        plans.append(cached(*key))
        return plans[-1]

    monkeypatch.setattr(phase_space, "_weyl_plan", recording)
    v = nonlinear_qcs(QcsParams(4, 0.5 * quasiperiod(4).value))
    volume = nonclassical_volume(v)
    arrays = [a for plan in plans for a in vars(plan).values() if isinstance(a, np.ndarray)]
    snapshot = [a.copy() for a in arrays]
    assert nonclassical_volume(v) == volume
    assert arrays and not any(a.flags.writeable for a in arrays)
    for a, b in zip(arrays, snapshot):
        assert a.tobytes() == b.tobytes()


def _mp_wigner(amps: np.ndarray, q: float, p: float, diagonal_only: bool = False) -> float:
    """W(q, p), or its mixture part alone, as a 40-digit mpmath sum over the
    Fock-pair kernel (2/pi) (-1)^k sqrt(k!/l!) (2 z*)^m e^{-2|z|^2} L_k^(m)(4|z|^2),
    with each L_k^(m) from the three-term recurrence in k."""
    d = len(amps)
    with mpmath.workdps(40):
        z = mpmath.mpc(q, p)
        x = 4 * abs(z) ** 2
        pref = 2 / mpmath.pi * mpmath.exp(-x / 2)
        log_fact = [mpmath.log(mpmath.factorial(n)) for n in range(d)]
        coeffs = [mpmath.mpc(complex(c)) for c in amps]
        total = mpmath.mpf(0)
        for m in range(1 if diagonal_only else d):
            lag_prev, lag = mpmath.mpf(0), mpmath.mpf(1)
            for k in range(d - m):
                l = k + m
                kernel = (
                    pref * (-1) ** k * mpmath.exp((log_fact[k] - log_fact[l]) / 2)
                    * (2 * mpmath.conj(z)) ** m * lag
                )
                term = mpmath.re(mpmath.conj(coeffs[k]) * coeffs[l] * kernel)
                total += term if m == 0 else 2 * term
                lag_prev, lag = lag, ((2 * k + 1 + m - x) * lag - (k + m) * lag_prev) / (k + 1)
        return float(total)


def _mp_kernel(k: int, l: int, q: float, p: float) -> complex:
    """W_kl(z) from mpmath's own generalized Laguerre polynomial, at a
    precision that covers the cancellation in its power series."""
    with mpmath.workdps(250):
        z = mpmath.mpc(q, p)
        x = 4 * abs(z) ** 2
        value = (
            2 / mpmath.pi * (-1) ** k
            * mpmath.sqrt(mpmath.factorial(k) / mpmath.factorial(l))
            * (2 * mpmath.conj(z)) ** (l - k) * mpmath.exp(-x / 2)
            * mpmath.laguerre(k, l - k, x)
        )
        return complex(value)


@pytest.mark.parametrize("d", [100, 150])
def test_high_dimension_point_query_against_mpmath(d):
    phase = complex(math.cos(0.7), math.sin(0.7))
    # near a cat at half a quasiperiod, where W(0) is far from zero
    cat_like = nonlinear_qcs(QcsParams(d, 0.5 * quasiperiod(d).value * phase))
    parity = TWO_OVER_PI * math.fsum((-1) ** n * abs(c) ** 2 for n, c in enumerate(cat_like.amps))
    assert abs(wigner_values(cat_like, 0.0, 0.0) - parity) <= 1e-10
    # beside the peak of a coherent-like state, at 0.8 of the outer radius
    s = nonlinear_qcs(QcsParams(d, 0.4 * quasiperiod(d).value * phase))
    q, p = 0.8 * outer_radius(d) * phase.real, 0.8 * outer_radius(d) * phase.imag
    assert abs(wigner_values(s, q, p) - _mp_wigner(s.amps, q, p)) <= 1e-10


def test_high_index_kernels_against_mpmath():
    q, p = 3.1, -4.2
    assert abs(wigner_fock(150, PhasePoint(q, p)) - _mp_kernel(150, 150, q, p).real) <= 1e-10
    for k, l in [(74, 75), (74, 149)]:
        assert abs(wigner_cross(k, l, PhasePoint(q, p)) - _mp_kernel(k, l, q, p)) <= 1e-10
    # on the ring of a series state with about 54 photons
    s = linear_qcs(QcsParams(150, 0.3 * quasiperiod(150).value))
    mixture = _mp_wigner(s.amps, -6.7, 3.1, diagonal_only=True)
    assert abs(wigner_mixture(s, PhasePoint(-6.7, 3.1)) - mixture) <= 1e-10


def _untabled_wigner(amps: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """W(q, p) by the Laguerre sweep with its square-root factors computed on
    every step and separate real and imaginary accumulators, block by block,
    each point's d terms summed as one contiguous row: the evaluation the
    point queries must keep the bits of."""
    d = amps.size
    weights = [2.0 * np.conj(c) * amps[k:] for k, c in enumerate(amps)]
    for w, c in zip(weights, amps):
        w[0] = abs(c) ** 2
    m = np.arange(d)
    acc = np.empty(q.size)
    block = phase_space._POINT_BLOCK
    for lo in range(0, q.size, block):
        qb, pb = q[lo : lo + block], p[lo : lo + block]
        r2 = np.minimum(qb * qb + pb * pb, 1e300)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_g = np.outer(m, np.log(2.0 * np.sqrt(r2))) - 2.0 * r2
        rows = np.exp(log_g - 0.5 * log_factorial_array(d - 1)[:, None])
        rows[0] = np.exp(-2.0 * r2)
        shift = 4.0 * r2 - (m + 1.0)[:, None]
        prev = np.zeros_like(rows)
        s_re = np.zeros((d, qb.size))
        s_im = np.zeros((d, qb.size))
        for k, w in enumerate(weights):
            s_re[: w.size] += w.real[:, None] * rows
            s_im[: w.size] += w.imag[:, None] * rows
            n = d - k - 1
            mk = m[:n, None]
            step = (shift[:n] - 2 * k) * rows[:n] - np.sqrt(k * (k + mk)) * prev[:n]
            prev, rows = rows, step / np.sqrt((k + 1) * (k + 1 + mk))
        mphi = np.outer(m, np.arctan2(pb, qb))
        terms = s_re * np.cos(mphi) + s_im * np.sin(mphi)
        acc[lo : lo + qb.size] = np.ascontiguousarray(terms.T).sum(axis=1)
    return TWO_OVER_PI * acc


@pytest.mark.parametrize("d", [1, 2, 32, 150])
def test_point_queries_give_the_bits_of_the_untabled_sweep(d):
    rng = np.random.default_rng(400 + d)
    # the origin, then enough points to cross a block boundary
    n_points = phase_space._POINT_BLOCK + 200
    q = np.concatenate([[0.0], rng.normal(scale=outer_radius(d), size=n_points)])
    p = np.concatenate([[0.0], rng.normal(scale=outer_radius(d), size=n_points)])
    amp = 0.9 * math.sqrt(d) * complex(math.cos(0.7), math.sin(0.7))
    states = (
        nonlinear_qcs(QcsParams(d, amp)),
        linear_qcs(QcsParams(d, -amp)),
        QuditState.from_amplitudes(rng.normal(size=d) + 1j * rng.normal(size=d)),
    )
    for s in states:
        for n in (1, 3, q.size):
            expected = _untabled_wigner(s.amps, q[:n], p[:n])
            assert wigner_values(s, q[:n], p[:n]).tobytes() == expected.tobytes()
        single = _untabled_wigner(s.amps, q[1:2], p[1:2])[0]
        assert wigner_state(s, PhasePoint(q[1], p[1])) == single


@pytest.mark.parametrize("d", [1, 2, 32, 150])
def test_point_value_does_not_depend_on_its_batch(d):
    s = _random_state(d, 800 + d)
    rng = np.random.default_rng(900 + d)
    q, p = rng.normal(scale=outer_radius(d), size=(2, 713))
    alone = np.array([wigner_state(s, PhasePoint(a, b)) for a, b in zip(q, p)])
    for n in (2, 512, 513, 713):
        assert wigner_values(s, q[:n], p[:n]).tobytes() == alone[:n].tobytes()


def test_laguerre_step_tables_are_cached_read_only_and_bounded():
    for d in (1, 2, 32, 150, 3, 4, 5):
        steps = phase_space._laguerre_steps(d)
        assert len(steps) == d - 1
        assert steps is phase_space._laguerre_steps(d)
    for k, (root_in, root_out) in enumerate(steps):
        assert root_in.shape == root_out.shape == (4 - k, 1)
        assert not root_in.flags.writeable and not root_out.flags.writeable
    assert phase_space._laguerre_steps.cache_info().currsize <= phase_space._STEP_TABLE_CACHE == 4
