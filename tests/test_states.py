import math

import numpy as np
import pytest

from cutchoose.errors import ContractViolationError, OutOfDomainError
from cutchoose.linalg import is_unitary
from cutchoose.reference import numerical_range_min_overlap, random_density, segment_modulus_sq
from cutchoose.states import (
    AbortExtendedState,
    PovmElement,
    attack_operator,
    bell_pair,
    computational_basis_state,
    phase_gate,
    plus_state,
)


class TestPhaseGate:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(phase_gate(0.0), np.eye(2))

    def test_pi_is_z(self):
        np.testing.assert_allclose(phase_gate(math.pi), np.diag([1.0, -1.0]), atol=1e-15)

    def test_quarter_turn(self):
        np.testing.assert_allclose(phase_gate(math.pi / 2), np.diag([1.0, 1.0j]), atol=1e-15)

    def test_composition(self):
        a, b = 0.7, 1.9
        np.testing.assert_allclose(
            phase_gate(a) @ phase_gate(b), phase_gate(a + b), atol=1e-12
        )


class TestAttackOperator:
    def test_single_qubit(self):
        np.testing.assert_allclose(attack_operator(0.3, 1), phase_gate(0.3))

    def test_two_qubits_pi(self):
        np.testing.assert_allclose(
            attack_operator(math.pi, 2), np.diag([1, -1, 1, -1]), atol=1e-15
        )

    def test_three_qubits_trivial(self):
        np.testing.assert_allclose(attack_operator(0.0, 3), np.eye(8))

    def test_unitary_grid(self):
        for alpha in np.linspace(0, 2 * math.pi, 17):
            for k in (1, 2, 3):
                a = attack_operator(alpha, k)
                assert np.max(np.abs(a.conj().T @ a - np.eye(2**k))) <= 1e-12


@pytest.mark.parametrize("k", [0, -1, 13])
def test_register_size_check_is_shared(k):
    messages = []
    builders = (lambda: plus_state(k), lambda: attack_operator(0.5, k), lambda: computational_basis_state(k))
    for build in builders:
        with pytest.raises(OutOfDomainError) as err:
            build()
        messages.append(str(err.value))
    expected = f"k must be positive, got {k}" if k < 1 else f"2**{k} exceeds the dimension cap 4096"
    assert messages == [expected] * 3


class TestPlusState:
    def test_one_qubit(self):
        np.testing.assert_allclose(plus_state(1).amplitudes, np.full(2, 2**-0.5))

    def test_two_qubits(self):
        np.testing.assert_allclose(plus_state(2).amplitudes, np.full(4, 0.5))

    def test_attacked_plus(self):
        alpha = 1.1
        out = attack_operator(alpha, 1) @ plus_state(1).amplitudes
        np.testing.assert_allclose(
            out, np.array([1.0, np.exp(1j * alpha)]) / math.sqrt(2.0), atol=1e-12
        )

    def test_overlap_grid(self):
        # |<plus|rotated plus>|^2 = cos^2(alpha/2) on a fine grid
        plus = plus_state(1)
        for alpha in np.linspace(0.0, 2 * math.pi, 100, endpoint=False):
            rotated = attack_operator(alpha, 1) @ plus.amplitudes
            overlap = abs(np.vdot(plus.amplitudes, rotated)) ** 2
            assert abs(overlap - math.cos(alpha / 2) ** 2) <= 1e-12


class TestAbortExtension:
    def test_full_weight(self):
        rho = plus_state(1).density()
        ext = AbortExtendedState(1.0, rho)
        assert ext.accept_weight == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(ext.payload().matrix, rho.matrix, atol=1e-14)

    def test_pure_abort(self):
        ext = AbortExtendedState(0.0, plus_state(1).density())
        assert ext.accept_weight == pytest.approx(0.0, abs=1e-14)
        assert ext.payload() is None
        assert ext.matrix[-1, -1] == pytest.approx(1.0)

    def test_quarter_weight(self):
        ext = AbortExtendedState(0.25, plus_state(1).density())
        assert np.trace(ext.matrix[:-1, :-1]).real == pytest.approx(0.25, abs=1e-14)
        assert ext.matrix[-1, -1].real == pytest.approx(0.75, abs=1e-14)

    def test_rejects_bad_probability(self):
        with pytest.raises(OutOfDomainError):
            AbortExtendedState(1.5, plus_state(1).density())

    def test_matrix_is_block_diagonal(self):
        rng = np.random.default_rng(3)
        payload = random_density(4, rng)
        p = 0.37
        m = AbortExtendedState(p, payload).matrix
        assert m.shape == (5, 5)
        assert np.all(m[:-1, -1] == 0) and np.all(m[-1, :-1] == 0)
        np.testing.assert_array_equal(m[:-1, :-1], p * payload.matrix)
        assert m[-1, -1] == 1.0 - p

    def test_pair_runs_no_eigendecomposition(self, monkeypatch):
        payload = plus_state(2).density()

        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for p in (0.0, 0.6, 1.0):
            ext = AbortExtendedState(p, payload)
            assert ext.accept_weight == p
            assert ext.payload() is (payload if p > 0 else None)


class TestPovmElement:
    def test_accepts_projector(self):
        PovmElement(plus_state(2).projector())

    def test_rejects_eigenvalue_above_one(self):
        with pytest.raises(ContractViolationError):
            PovmElement(np.diag([1.5, 0.0]))

    def test_rejects_negative(self):
        with pytest.raises(ContractViolationError):
            PovmElement(np.diag([-0.1, 0.5]))

    def test_rejects_non_hermitian(self):
        message = r"^measurement element is not Hermitian \(max deviation 5\.000e-01 > 1e-10\)$"
        with pytest.raises(ContractViolationError, match=message):
            PovmElement(np.array([[0.5, 0.5], [0.0, 0.5]]))


class TestNumericalRange:
    def test_segment_convexity_identity(self):
        for alpha in np.linspace(0.0, 2 * math.pi, 30):
            for lam in np.linspace(0.0, 1.0, 11):
                direct = abs(lam + (1 - lam) * np.exp(1j * alpha)) ** 2
                assert abs(direct - segment_modulus_sq(lam, alpha)) <= 1e-12

    def test_segment_minimum_at_half(self):
        for alpha in np.linspace(0.0, 2 * math.pi, 50, endpoint=False):
            lams = np.linspace(0.0, 1.0, 100001)
            grid_min = float(segment_modulus_sq(lams, alpha).min())
            assert abs(grid_min - math.cos(alpha / 2) ** 2) <= 1e-9
            at_half = float(segment_modulus_sq(0.5, alpha))
            assert at_half <= grid_min + 1e-12

    def test_trivial_angle(self):
        assert numerical_range_min_overlap(0.0, trials=8, seed=0) == pytest.approx(1.0, abs=1e-9)

    def test_half_turn(self):
        assert numerical_range_min_overlap(math.pi, trials=32, seed=1) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_quarter_turn(self):
        found = numerical_range_min_overlap(math.pi / 2, trials=32, seed=2)
        assert found == pytest.approx(0.5, abs=1e-4)

    def test_floor_and_accuracy(self):
        for i, alpha in enumerate(np.linspace(0.1, 2 * math.pi - 0.1, 25)):
            found = numerical_range_min_overlap(alpha, trials=16, seed=i)
            target = math.cos(alpha / 2) ** 2
            assert found >= target - 1e-6
            assert abs(found - target) <= 1e-4

    def test_rejects_zero_trials(self):
        with pytest.raises(OutOfDomainError):
            numerical_range_min_overlap(1.0, trials=0, seed=0)

    def test_stacked_call_equals_the_scalar_calls(self):
        alphas = np.random.default_rng(4).uniform(0.0, 2 * math.pi, size=40)
        seeds = np.arange(40) * 7
        stacked = numerical_range_min_overlap(alphas, trials=16, seed=seeds)
        assert stacked.shape == (40,)
        for alpha, seed, found in zip(alphas, seeds, stacked):
            assert found == numerical_range_min_overlap(float(alpha), trials=16, seed=int(seed))

    def test_alpha_and_seed_broadcast(self):
        grid = numerical_range_min_overlap(np.array([[0.5], [2.0]]), trials=8, seed=np.arange(3))
        assert grid.shape == (2, 3)
        assert grid[1, 2] == numerical_range_min_overlap(2.0, trials=8, seed=2)
        one_seed = numerical_range_min_overlap(np.array([0.5, 2.0]), trials=8, seed=5)
        assert one_seed[1] == numerical_range_min_overlap(2.0, trials=8, seed=5)

    @pytest.mark.parametrize("trials", [2.5, True, "16"])
    def test_rejects_non_integer_trials(self, trials):
        # 2.5 and True used to raise a raw TypeError
        with pytest.raises(OutOfDomainError, match=r"^trials must be an integer"):
            numerical_range_min_overlap(1.0, trials=trials, seed=0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, [0.5, math.nan]])
    def test_rejects_non_finite_alpha(self, alpha):
        # nan used to come back as nan with a RuntimeWarning, inf as a math domain error
        with pytest.raises(OutOfDomainError, match=r"^alpha must be finite"):
            numerical_range_min_overlap(alpha, trials=8, seed=0)


def test_bell_pair_normalized():
    assert bell_pair().dim == 4
    assert is_unitary(np.eye(4))
    assert abs(np.linalg.norm(bell_pair().amplitudes) - 1.0) <= 1e-15


def test_computational_basis_state():
    np.testing.assert_allclose(
        computational_basis_state(2).amplitudes, [1.0, 0.0, 0.0, 0.0]
    )
    with pytest.raises(OutOfDomainError):
        computational_basis_state(1, index=5)
