"""Displacement unitaries, states and fidelities."""

import math

import numpy as np
import pytest

from quditcs.errors import DimensionMismatchError, NullStateError
from quditcs.fock import (
    QuditState,
    _norm,
    displaced_vacuum,
    displacement_oracle,
    fidelity,
    mixed_fidelity,
    photon_distribution,
)


def test_displacement_unitary_is_read_only():
    u = displacement_oracle(4, 0.5 - 0.2j)
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0.0
    with pytest.raises(ValueError, match="dimension must be positive"):
        displacement_oracle(0, 0.5)


@pytest.mark.parametrize(
    "alpha",
    [math.nan, math.inf, complex(1.0, math.nan), -math.inf * 1j, 1e308 + 1e308j],
    ids=["nan", "inf", "nan-imag", "-inf-imag", "overflowing-modulus"],
)
@pytest.mark.parametrize("build", [displacement_oracle, displaced_vacuum])
def test_displacement_rejects_non_finite_alpha(build, alpha):
    with pytest.raises(ValueError, match="alpha="):
        build(4, alpha)


def test_displacement_zero_is_identity():
    u = displacement_oracle(6, 0.0)
    np.testing.assert_allclose(u, np.eye(6), atol=1e-14)


@pytest.mark.parametrize("d", [2, 5, 26, 101])
@pytest.mark.parametrize("alpha", [0.3, 2.0 - 1.5j, -4j, 10.0])
def test_displacement_unitarity(d, alpha):
    u = displacement_oracle(d, alpha)
    assert np.max(np.abs(u @ u.conj().T - np.eye(d))) <= 1e-10


def test_qubit_displacement_quarter_turn():
    # exp(a(sigma+ - sigma-)) rotates |0> onto |1> at a = pi/2
    state = displaced_vacuum(2, math.pi / 2.0)
    np.testing.assert_allclose(np.abs(state.amps), [0.0, 1.0], atol=1e-12)


def test_qutrit_displacement_half_period_vector():
    state = displaced_vacuum(3, math.pi / math.sqrt(3.0))
    np.testing.assert_allclose(
        state.amps.real, [1.0 / 3.0, 0.0, 2.0 * math.sqrt(2.0) / 3.0], atol=1e-10
    )
    np.testing.assert_allclose(state.amps.imag, 0.0, atol=1e-10)


def test_displacement_phase_covariance():
    # c_n(alpha e^{i phi}) = e^{i n phi} c_n(alpha)
    d, modulus, phi = 7, 1.1, 0.9
    base = displaced_vacuum(d, modulus).amps
    rotated = displaced_vacuum(d, modulus * np.exp(1j * phi)).amps
    n = np.arange(d)
    np.testing.assert_allclose(rotated, np.exp(1j * n * phi) * base, atol=1e-10)


def test_composition_holds_for_collinear_displacements():
    d = 5
    u = displacement_oracle(d, 1.2) @ displacement_oracle(d, 0.6)
    v = displacement_oracle(d, 1.8)
    left = QuditState(u[:, 0])
    right = QuditState(v[:, 0])
    assert fidelity(left, right) >= 1.0 - 1e-12


def test_composition_fails_for_noncollinear_displacements():
    # The truncated generators do not commute to a phase, so stacking a real
    # and an imaginary displacement is not one diagonal displacement.
    d = 3
    u = displacement_oracle(d, 1.0) @ displacement_oracle(d, 1.0j)
    composed = QuditState(u[:, 0])
    direct = QuditState(displacement_oracle(d, 1.0 + 1.0j)[:, 0])
    f = fidelity(composed, direct)
    assert f < 1.0 - 1e-6
    assert f == pytest.approx(1.0 - 0.353, abs=2e-3)


def test_fidelity_properties():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=6) + 1j * rng.normal(size=6)
    s = QuditState.from_amplitudes(amps)
    t = QuditState.from_amplitudes(rng.normal(size=6) + 1j * rng.normal(size=6))
    assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(s, t) == pytest.approx(fidelity(t, s), abs=1e-14)
    shifted = QuditState(s.amps * np.exp(0.7j))
    assert fidelity(s, shifted) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        fidelity(s, QuditState.basis(5, 0))


def test_mixed_fidelity():
    s = QuditState.basis(4, 1)
    assert mixed_fidelity(s, s, s) == 1.0
    a = QuditState.from_amplitudes(np.array([1.0, 2.0, 0.5, 0.1]))
    b = QuditState.from_amplitudes(np.array([1.0, -1.0, 0.5, 0.2]))
    expected = 0.5 * (fidelity(s, a) + fidelity(s, b))
    assert mixed_fidelity(s, a, b) == pytest.approx(expected, abs=1e-15)


def test_photon_distribution():
    vac = QuditState.basis(5, 0)
    np.testing.assert_array_equal(photon_distribution(vac), [1.0, 0.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(8)
    s = QuditState.from_amplitudes(rng.normal(size=9) + 1j * rng.normal(size=9))
    p = photon_distribution(s)
    assert np.all(p >= 0.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_state_norm_validation():
    with pytest.raises(ValueError):
        QuditState(np.array([1.0, 1.0]))
    s = QuditState.from_amplitudes(np.array([3.0, 4.0]))
    np.testing.assert_allclose(s.amps.real, [0.6, 0.8], atol=1e-15)
    with pytest.raises(NullStateError):
        QuditState.from_amplitudes(np.zeros(3))
    with pytest.raises(ValueError):
        QuditState.from_amplitudes(np.array([]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError):
        QuditState(np.array([bad, 0.0]))
    with pytest.raises(ValueError):
        QuditState.from_amplitudes(np.array([bad, 1.0]))


@pytest.mark.parametrize(
    "bad",
    [np.ones((2, 2)), np.array([]), [math.nan, 1.0], [1.0, math.inf], [-math.inf, 0.5]],
    ids=["2d", "empty", "nan", "inf", "-inf"],
)
def test_from_amplitudes_rejects_what_the_constructor_rejects(bad):
    with pytest.raises(ValueError) as direct:
        QuditState(np.asarray(bad, dtype=complex))
    with pytest.raises(ValueError) as normalized:
        QuditState.from_amplitudes(bad)
    assert type(normalized.value) is type(direct.value)
    assert str(normalized.value) == str(direct.value)


def test_from_amplitudes_returns_an_unaliased_read_only_unit_vector():
    rng = np.random.default_rng(29)
    for d in (1, 2, 17, 150, 400):
        for scale in (1e-6, 1.0, 1e100):
            amps = scale * (rng.normal(size=d) + 1j * rng.normal(size=d))
            s = QuditState.from_amplitudes(amps)
            assert abs(np.linalg.norm(s.amps) - 1.0) <= 1e-15
            assert not s.amps.flags.writeable
            kept = s.amps.copy()
            amps[:] = 7.0
            assert s.amps.tobytes() == kept.tobytes()


def test_from_amplitudes_has_the_bytes_of_numpy_normalization():
    # from_amplitudes normalizes without numpy's scalar layers, but must
    # give the shape and bytes of the plain numpy normalization for any
    # input that np.asarray accepts, and keep no alias to it.
    read_only = np.array([0.3 - 1.1j, 2.0, -0.7j])
    read_only.flags.writeable = False
    strided = (np.arange(12.0) - 4.5 + 1j * np.arange(12.0)[::-1])[1::3]
    for x in (2.5 - 0.5j, [1.0, -2.0, 0.5j], np.array([3, -1, 4], dtype=int), read_only, strided):
        a = np.atleast_1d(np.asarray(x, complex))
        expected = a / np.linalg.norm(a)
        s = QuditState.from_amplitudes(x)
        assert s.amps.shape == expected.shape
        assert s.amps.tobytes() == expected.tobytes()
        assert not np.shares_memory(s.amps, a)
        if isinstance(x, list):
            x[0] = 9.0
        elif isinstance(x, np.ndarray) and x.flags.writeable:
            x[...] = 9
        assert s.amps.tobytes() == expected.tobytes()


def test_norm_has_the_bytes_of_numpy_norm():
    # _norm skips np.linalg.norm's Python layers but must keep its bits, also
    # where the sum of squares overflows to inf or an entry is NaN.
    rng = np.random.default_rng(31)
    for d in range(1, 151):
        real = rng.normal(size=d)
        vectors = [real, real + 1j * rng.normal(size=d), 1e200 * real, 1e200j * real]
        nan = real + 1j * rng.normal(size=d)
        nan[d // 2] = complex(math.nan, 1.0)
        vectors += [nan, np.where(np.arange(d) == 0, math.nan, nan.imag)]
        # A matrix column, as displaced_vacuum passes it: strided, not contiguous.
        vectors.append(np.outer(vectors[1], [1.0, 2.0])[:, 0])
        if d == 1:
            # Each part's square is finite and their sum overflows.
            vectors.append(np.array([1.2e154 + 1.2e154j]))
        for v in vectors:
            with np.errstate(over="ignore"):
                assert np.float64(_norm(v)).tobytes() == np.linalg.norm(v).tobytes()
    # Overflow signals alike on both routes: in the dot, or in the float64 add.
    for v in (1e200 * real, np.array([1.2e154 + 1.2e154j])):
        for norm in (_norm, np.linalg.norm):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                norm(v)
    assert math.isnan(_norm(nan))


def test_state_basis_and_dim():
    s = QuditState.basis(4, 2)
    assert s.dim == 4
    assert s.amps[2] == 1.0
    with pytest.raises(ValueError):
        QuditState.basis(4, 4)
    with pytest.raises(ValueError):
        QuditState.basis(0, 0)
    one = QuditState.basis(1, 0)
    assert one.dim == 1


def test_state_is_immutable():
    s = QuditState.basis(3, 0)
    with pytest.raises(ValueError):
        s.amps[0] = 0.0


def test_state_json_roundtrip_is_bit_faithful():
    rng = np.random.default_rng(17)
    amps = rng.normal(size=7) + 1j * rng.normal(size=7)
    amps[3] = 0.1 + 0.2j  # not exactly representable, must survive untouched
    s = QuditState.from_amplitudes(amps)
    payload = s.to_json_dict()
    assert payload["dim"] == 7
    assert len(payload["amps_re"]) == 7
    back = np.asarray(payload["amps_re"]) + 1j * np.asarray(payload["amps_im"])
    assert back.tobytes() == s.amps.tobytes()
