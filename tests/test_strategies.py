import math

import numpy as np
import pytest

from cutchoose.errors import ContractViolationError, OutOfDomainError, UnsupportedStrategyError
from cutchoose.combs import random_unitary
from cutchoose.reference import random_pure_state
from cutchoose.states import attack_operator, phase_gate
from cutchoose.strategies import (
    HONEST,
    PhaseAttack,
    Placement,
    ProtocolVariant,
    SecurityModel,
    attack_sine,
    optimal_alpha,
    require_supported,
    transform_round,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


class TestTransformRound:
    def test_honest_unchanged(self):
        np.testing.assert_allclose(transform_round(HONEST, HADAMARD, 1), HADAMARD)

    def test_post_on_identity(self):
        out = transform_round(PhaseAttack(math.pi, Placement.POST), np.eye(2), 1)
        np.testing.assert_allclose(out, phase_gate(math.pi), atol=1e-15)

    def test_pre_and_post_differ_on_hadamard(self):
        alpha = math.pi / 2
        pre = transform_round(PhaseAttack(alpha, Placement.PRE), HADAMARD, 1)
        post = transform_round(PhaseAttack(alpha, Placement.POST), HADAMARD, 1)
        np.testing.assert_allclose(pre, HADAMARD @ phase_gate(alpha), atol=1e-12)
        np.testing.assert_allclose(post, phase_gate(alpha) @ HADAMARD, atol=1e-12)
        assert np.max(np.abs(pre - post)) > 0.1

    def test_pre_equals_post_on_identity(self):
        alpha = 1.2345
        pre = transform_round(PhaseAttack(alpha, Placement.PRE), np.eye(2), 1)
        post = transform_round(PhaseAttack(alpha, Placement.POST), np.eye(2), 1)
        np.testing.assert_allclose(pre, post)

    def test_preserves_unitarity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            k = int(rng.integers(1, 3))
            t = random_unitary(2**k, rng)
            alpha = float(rng.uniform(0, 2 * math.pi))
            placement = Placement.PRE if rng.integers(2) else Placement.POST
            out = transform_round(PhaseAttack(alpha, placement), t, k)
            assert np.abs(out.conj().T @ out - np.eye(2**k)).max() <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ContractViolationError):
            transform_round(HONEST, np.array([[1.0, 0.0], [0.0, 2.0]]), 1)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(UnsupportedStrategyError):
            require_supported("adaptive")

    def test_alpha_canonicalized(self):
        assert PhaseAttack(2 * math.pi + 0.5).alpha == pytest.approx(0.5)
        assert PhaseAttack(-0.5).alpha == pytest.approx(2 * math.pi - 0.5)

    @pytest.mark.parametrize("placement", ["post", "pre"])
    def test_rejects_a_placement_name(self, placement):
        # the engines compare a placement by identity, the per-round one
        # against PRE and the network one against POST, so a name would be
        # POST to the first and PRE to the second
        with pytest.raises(OutOfDomainError, match=f"'{placement}'"):
            PhaseAttack(1.3, placement)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_angle(self, alpha):
        with pytest.raises(OutOfDomainError, match=f"got {alpha!r}"):
            PhaseAttack(alpha)


class TestOverlapFloor:
    def test_overlap_never_below_generic_rate(self):
        # |<chi| T† T^alpha |chi>|^2 >= cos^2(alpha/2) for both placements
        rng = np.random.default_rng(31)
        for _ in range(100):
            k = int(rng.integers(1, 3))
            t = random_unitary(2**k, rng)
            chi = random_pure_state(2**k, rng).amplitudes
            alpha = float(rng.uniform(0, 2 * math.pi))
            for placement in (Placement.PRE, Placement.POST):
                ta = transform_round(PhaseAttack(alpha, placement), t, k)
                overlap = abs(np.vdot(t @ chi, ta @ chi)) ** 2
                assert overlap >= math.cos(alpha / 2) ** 2 - 1e-10


class TestOptimalAlpha:
    def test_stand_alone_main(self):
        got = optimal_alpha(SecurityModel.STAND_ALONE, ProtocolVariant.PER_ROUND, 1.0)
        assert got == pytest.approx(2 * math.asin(2.0 / 3.0), abs=1e-12)
        assert got == pytest.approx(1.4595, abs=1e-4)

    def test_composable_main(self):
        got = optimal_alpha(SecurityModel.COMPOSABLE, ProtocolVariant.PER_ROUND, 1.0)
        assert got == pytest.approx(math.pi / 3, abs=1e-12)

    def test_composable_general(self):
        got = optimal_alpha(SecurityModel.COMPOSABLE, ProtocolVariant.GENERAL_TESTS, 2.0)
        assert got == pytest.approx(2 * math.asin(0.25), abs=1e-12)
        assert got == pytest.approx(0.5054, abs=1e-4)

    def test_stand_alone_general_sine(self):
        assert attack_sine(
            SecurityModel.STAND_ALONE, ProtocolVariant.GENERAL_TESTS, 3.0
        ) == pytest.approx(2.0 / 9.0)

    def test_domain_errors(self):
        with pytest.raises(OutOfDomainError):
            optimal_alpha(SecurityModel.STAND_ALONE, ProtocolVariant.GENERAL_TESTS, 0.1)
        with pytest.raises(OutOfDomainError):
            optimal_alpha(SecurityModel.STAND_ALONE, ProtocolVariant.PER_ROUND, 0.0)
        with pytest.raises(OutOfDomainError):
            optimal_alpha(SecurityModel.COMPOSABLE, ProtocolVariant.PER_ROUND, -2.0)

    def test_attack_operator_consistency(self):
        # the angle actually produces the prescribed rotation strength
        alpha = optimal_alpha(SecurityModel.COMPOSABLE, ProtocolVariant.PER_ROUND, 4.0)
        a = attack_operator(alpha, 1)
        assert abs(a[1, 1] - np.exp(1j * alpha)) <= 1e-12
        assert math.sin(alpha / 2) == pytest.approx(0.25, abs=1e-12)
