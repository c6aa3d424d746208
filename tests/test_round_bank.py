"""The round bank against a literal per-round walk, and its sharing and limits.

The bank receives each round of ``(spec, n)`` once and keeps the input, the
honest output and the pulled-back effect. The reference here receives every
round afresh with ``receive_trap`` and plays it with the dense
``transform_round``. Honest factors and POST factors (the attack's diagonal
applied to the honest output) are bit-identical; PRE factors, and POST
through the full dense product, agree within 1e-15.
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
from cutchoose.protocol import (
    GlobalAcceptance,
    PerRoundAcceptance,
    ProtocolSpec,
    RoundDistribution,
    TrapGenerator,
    monte_carlo_run,
    receive_trap,
    round_outcome_table,
)
from cutchoose.states import PovmElement, plus_state
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
    # a general element that is not a projector
    "povm": lambda traps: PerRoundAcceptance(
        lambda k, n, i: PovmElement(0.95 * plus_state(k).projector())
    ),
}
N = 3


def literal_factors(spec, strategy, n):
    """(factors through the dense product, factors with the dense attack's
    diagonal on the honest output), receiving every round afresh; each is
    snapped to [0, 1] as the engine snaps its factors."""
    k = spec.k
    rule = spec.acceptance
    if isinstance(rule, GlobalAcceptance):
        rule = rule.per_round
    eye = np.eye(2**k)
    attack_diagonal = np.diag(transform_round(strategy, eye, k))
    dense, diagonal = [], []
    for i in range(1, n + 2):
        u, chi = receive_trap(spec.traps, k, n, i)
        u = eye if u is None else u
        honest = transform_round(HONEST, u, k) @ chi
        if rule.traps is spec.traps:
            effect = honest
        else:
            effect = rule.element(k, n, i)
            effect = effect if isinstance(effect, PovmElement) else effect.vector.amplitudes

        def read(out):
            if isinstance(effect, PovmElement):
                value = effect.value(out)
            else:
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


@pytest.mark.parametrize("trap_name", ("plus", "random"))
def test_general_element_keeps_its_unitary(trap_name):
    traps = TRAPS[trap_name]()
    spec = ProtocolSpec(
        omega=RoundDistribution.point_mass(N), k=3, traps=traps, acceptance=RULES["povm"](traps),
    )
    check_against_literal(spec)
    rows = protocol._bank(spec, N)
    assert len(rows) == N + 1  # the rule is not marked round-independent
    # PRE reads a general element through the round's unitary, which only it keeps
    assert all((r.u is not None) == (trap_name == "random") for r in rows)


def test_rank_one_banks_drop_the_unitary():
    traps = RandomTraps(seed=4)
    for rule in (plus_acceptance(), matched_acceptance(traps)):
        spec = ProtocolSpec(RoundDistribution.point_mass(2), 2, traps, rule)
        assert all(r.u is None for r in protocol._bank(spec, 2))


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
