"""The round bank against a literal per-round walk, and its sharing and limits.

The bank receives each round of ``(spec, n)`` once and keeps the input, the
honest output, the effect and the pulled-back effect. The reference here
calls the spec's ``trap`` afresh for every round and plays it with the dense
``transform_round``. Honest factors and POST factors (the attack's diagonal
applied to the honest output) are bit-identical; PRE factors, and POST
through the full dense product, agree within 1e-15. A trap is checked on its
action: a matrix that is not unitary only where no figure reads it is
accepted, and anything else fails at its named round.
"""

import math
import tracemalloc

import numpy as np
import pytest

from cutchoose import protocol
from cutchoose.bounds import run_tradeoff_check
from cutchoose.errors import ContractViolationError
from cutchoose.families import (
    ComputationalTraps,
    PlusTraps,
    RandomTraps,
    computational_acceptance,
    matched_acceptance,
    plus_acceptance,
)
from cutchoose.linalg import is_unitary
from cutchoose.protocol import (
    GlobalAcceptance,
    PerRoundAcceptance,
    ProtocolSpec,
    RoundDistribution,
    TrapGenerator,
    monte_carlo_run,
    round_outcome_table,
)
from cutchoose.states import PovmElement, RankOneEffect, plus_state
from cutchoose.strategies import (
    HONEST,
    Honest,
    PhaseAttack,
    Placement,
    SecurityModel,
    transform_round,
)

TRAPS = {
    "plus": lambda: PlusTraps(),
    "computational": lambda: ComputationalTraps(),
    "random": lambda: RandomTraps(seed=21),
}
RULES = {
    "plus": lambda traps: plus_acceptance(),
    "computational": lambda traps: computational_acceptance(),
    "matched": matched_acceptance,
}
N = 3


def literal_factors(spec, strategy, n):
    """(factors through the dense product, factors with the dense attack's
    diagonal on the honest output), calling ``trap`` afresh for every round;
    each is snapped to [0, 1] as the engine snaps its factors."""
    k = spec.k
    rule = spec.acceptance
    if isinstance(rule, GlobalAcceptance):
        rule = rule.per_round
    eye = np.eye(2**k)
    attack_diagonal = np.diag(transform_round(strategy, eye, k))
    dense, diagonal = [], []
    for i in range(1, n + 2):
        u, chi = spec.traps.trap(k, n, i)
        u, chi = (eye if u is None else u), chi.amplitudes
        honest = transform_round(HONEST, u, k) @ chi
        if rule.traps is spec.traps:
            effect = honest
        else:
            effect = rule.element(k, n, i).vector.amplitudes

        def read(out):
            value = float(abs(np.vdot(effect, out)) ** 2)
            return protocol.snap_probability(value, "literal factor")

        dense.append(read(transform_round(strategy, u, k) @ chi))
        diagonal.append(read(attack_diagonal * honest))
    return np.array(dense), np.array(diagonal)


def check_against_literal(spec):
    for placement in Placement:
        for strategy in (HONEST, PhaseAttack(0.4, placement), PhaseAttack(math.pi, placement)):
            got = protocol._round_factors(spec, strategy, N)
            dense, diagonal = literal_factors(spec, strategy, N)
            if isinstance(strategy, Honest):
                np.testing.assert_array_equal(got, dense)
            elif placement is Placement.POST:
                np.testing.assert_array_equal(got, diagonal)
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-15)


@pytest.mark.parametrize("trap_name", sorted(TRAPS))
@pytest.mark.parametrize("rule_name", ("plus", "computational", "matched"))
@pytest.mark.parametrize("mode", ("per-round", "global"))
@pytest.mark.parametrize("k", (1, 3, 6))
def test_bank_matches_literal_walk(trap_name, rule_name, mode, k):
    traps = TRAPS[trap_name]()
    rule = RULES[rule_name](traps)
    spec = ProtocolSpec(
        omega=RoundDistribution.point_mass(N), k=k, traps=traps,
        acceptance=GlobalAcceptance(rule) if mode == "global" else rule,
    )
    check_against_literal(spec)


class CountingRandomTraps(RandomTraps):
    def __init__(self, seed):
        super().__init__(seed)
        object.__setattr__(self, "calls", [])

    def trap(self, k, n, i):
        self.calls.append((n, i))
        return super().trap(k, n, i)


class CountingPlusTraps(PlusTraps):
    def __init__(self):
        object.__setattr__(self, "calls", [])

    def trap(self, k, n, i):
        self.calls.append((n, i))
        return super().trap(k, n, i)


@pytest.mark.parametrize("mode", ("per-round", "global"))
def test_one_trap_call_per_round_per_spec(mode):
    traps = CountingRandomTraps(seed=9)
    rule = matched_acceptance(traps)
    omega = RoundDistribution.from_pairs([(0, 0.2), (2, 0.3), (5, 0.5)])
    spec = ProtocolSpec(omega, 1, traps, GlobalAcceptance(rule) if mode == "global" else rule)
    for model in SecurityModel:
        for placement in Placement:
            run_tradeoff_check(spec, model, placement=placement)
    monte_carlo_run(spec, (HONEST,), 200, 1)
    monte_carlo_run(spec, (PhaseAttack(1.2, Placement.PRE),), 200, 2)
    assert sorted(traps.calls) == [(n, i) for n in (2, 5) for i in range(1, n + 2)]


def test_round_independent_family_receives_one_round():
    traps = CountingPlusTraps()
    omega = RoundDistribution.from_pairs([(3, 0.5), (40, 0.5)])
    for rule in (plus_acceptance(), computational_acceptance(), matched_acceptance(traps)):
        traps.calls.clear()
        spec = ProtocolSpec(omega, 2, traps, rule)
        for model in SecurityModel:
            run_tradeoff_check(spec, model)
        monte_carlo_run(spec, (PhaseAttack(0.9),), 100, 0)
        assert traps.calls == [(3, 1), (40, 1)]
        assert [len(protocol._bank(spec, n)) for n in (3, 40)] == [1, 1]


class NonUnitaryAt(TrapGenerator):
    """Random traps except in round ``bad``, which gives twice the identity."""

    def __init__(self, bad):
        self.bad = bad

    def trap(self, k, n, i):
        if i == self.bad:
            return 2.0 * np.eye(2**k), plus_state(k)
        return RandomTraps(seed=1).trap(k, n, i)


def test_failed_round_leaves_no_bank():
    spec = ProtocolSpec(
        omega=RoundDistribution.point_mass(4), k=2,
        traps=NonUnitaryAt(3), acceptance=plus_acceptance(),
    )
    for _ in range(2):
        with pytest.raises(ContractViolationError, match=r"round \(n=4, i=3\) is not unitary"):
            round_outcome_table(spec, PhaseAttack(0.5))
    assert 4 not in spec._bank


class ScaledOffInput(TrapGenerator):
    """Random traps, but round ``bad``'s matrix also doubles the part of its
    input space orthogonal to ``chi``: unitary on ``chi``, not on ``chi⊥``."""

    def __init__(self, bad):
        self.bad = bad

    def trap(self, k, n, i):
        u, chi = RandomTraps(seed=5).trap(k, n, i)
        if i != self.bad:
            return u, chi
        off = np.eye(2**k) - chi.projector()
        return u @ (np.eye(2**k) + off), chi


@pytest.mark.parametrize("k", (1, 3))
def test_trap_checked_on_its_action(k):
    # matched: the engine reads h = U chi and g = chi only, so the off-input
    # scaling changes no figure and the trap is accepted
    scaled, plain = ScaledOffInput(2), RandomTraps(seed=5)
    assert not is_unitary(scaled.trap(k, N, 2)[0])
    specs = [ProtocolSpec(RoundDistribution.point_mass(N), k, t, matched_acceptance(t))
             for t in (scaled, plain)]
    for placement in Placement:
        for strategy in (HONEST, PhaseAttack(0.4, placement), PhaseAttack(2.5, placement)):
            got, want = (protocol._round_factors(spec, strategy, N) for spec in specs)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert all(v.ndim == 1 for row in protocol._bank(specs[0], N) for v in row)
    # plus: g = U^dagger e picks up the doubled part, so |g| != |e|
    spec = ProtocolSpec(RoundDistribution.point_mass(N), k, scaled, plus_acceptance())
    message = r"^trap unitary for round \(n=3, i=2\) is not unitary on its action within 1e-10$"
    for _ in range(2):
        with pytest.raises(ContractViolationError, match=message):
            round_outcome_table(spec, PhaseAttack(0.5))
    assert N not in spec._bank


@pytest.mark.parametrize("bad", ["povm", "wrong-dim"])
def test_per_round_effect_must_be_rank_one(bad):
    def element(k, n, i):
        if i != 2:
            return RankOneEffect(plus_state(k))
        if bad == "povm":
            return PovmElement(0.95 * plus_state(k).projector())
        return RankOneEffect(plus_state(k + 1))

    spec = ProtocolSpec(
        omega=RoundDistribution.point_mass(N), k=2,
        traps=RandomTraps(seed=2), acceptance=PerRoundAcceptance(element),
    )
    message = r"^acceptance element for round \(n=3, i=2\) is not a RankOneEffect of dim 4$"
    for _ in range(2):
        with pytest.raises(ContractViolationError, match=message):
            round_outcome_table(spec, HONEST)
    assert N not in spec._bank


def test_matched_effect_reads_its_trap_through_the_check():
    # the rule's traps differ from the spec's, so each effect comes from
    # element(), whose broken trap must still fail at its named round
    spec = ProtocolSpec(
        omega=RoundDistribution.point_mass(4), k=2,
        traps=RandomTraps(seed=1), acceptance=matched_acceptance(NonUnitaryAt(3)),
    )
    with pytest.raises(ContractViolationError, match=r"round \(n=4, i=3\) is not unitary"):
        round_outcome_table(spec, PhaseAttack(0.5))
    assert 4 not in spec._bank


def test_constant_point_mass_stays_small():
    # k = 12: one (n + 1) x 2**k complex array alone would be 2001 * 4096 * 16 bytes
    # = 131 MB; n = 10**5: the row of n + 1 floats is 0.8 MB, while one Python tuple
    # per (n, ell) entry peaks near 20 MB
    for n, k, cap_mb in ((2000, 12, 16), (10**5, 1, 8)):
        spec = ProtocolSpec(
            omega=RoundDistribution.point_mass(n), k=k,
            traps=PlusTraps(), acceptance=plus_acceptance(),
        )
        tracemalloc.start()
        try:
            for placement in Placement:
                table = round_outcome_table(spec, PhaseAttack(0.3, placement))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [row.size for row in table.rows] == [n + 1]
        assert peak < cap_mb * 2**20, (n, k, peak)
