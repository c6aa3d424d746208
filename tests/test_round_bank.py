"""The round bank against a literal per-round walk, and its sharing and limits.

The bank receives the rounds of ``(spec, n)`` once and keeps, as ``(r, 2**k)``
arrays, the inputs, the honest outputs, the effects and the pulled-back
effects. The reference here fetches every round afresh and plays it with the
dense ``transform_round``: the matrix two reflections build from the round's
action under the spec's rule (``dense_rounds.played``). For identity traps
that matrix is the identity, and honest factors and POST factors (the
attack's diagonal applied to the honest output) are bit-identical, while
PRE factors, and POST through the full dense product, agree within 1e-15;
for ``random`` traps they agree within 1e-14. A trap is checked on its
action: an action that is unitary only where a figure reads it is accepted,
and anything else fails at its named round.
"""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from cutchoose import parse_config, protocol, run_scenario
from cutchoose import report as report_module
from cutchoose.bounds import SecurityModel, run_tradeoff_check
from cutchoose.reference import round_outcome_table_via_combs
from cutchoose.errors import ContractViolationError
from cutchoose.families import (
    PlusTraps,
    RandomTraps,
    computational_acceptance,
    matched_acceptance,
    plus_acceptance,
)
from cutchoose.protocol import (
    PerRoundAcceptance,
    ProtocolSpec,
    RoundDistribution,
    TrapGenerator,
    monte_carlo_run,
    round_outcome_table,
)
from cutchoose.states import attack_phases, plus_state
from cutchoose.strategies import (
    HONEST,
    PhaseAttack,
    Placement,
    transform_round,
)
from dense_rounds import effect_row, played, squared_overlap

TRAP_DOCS = {
    "plus": {"family": "plus"},
    "computational": {"family": "computational"},
    "random": {"family": "random", "seed": 21},
}
N = 3


def config_spec(trap_name, rule_name, mode, k):
    """The spec a report row builds from a config naming these trap and
    acceptance families and acceptance mode, at a point mass of ``N``."""
    config = parse_config(json.dumps({
        "protocol": {"omega": {"point_mass": N}, "k": k, "traps": TRAP_DOCS[trap_name],
                     "acceptance": {"family": rule_name, "mode": mode}},
        "strategy": {"kind": "honest"},
        "models": ["composable"],
        "variant": {"kind": "per-round"},
    }))
    return report_module._row_source(config.canonical(), [(N, 1.0)])


def literal_factors(spec, strategy, n):
    """(factors through the dense product, factors with the dense attack's
    diagonal on the honest output), fetching every round afresh; each is
    snapped to [0, 1] as the engine snaps its factors."""
    k = spec.k
    rule = spec.acceptance
    eye = np.eye(2**k)
    attack_diagonal = np.diag(transform_round(strategy, eye, k))
    dense, diagonal = [], []
    for i in range(1, n + 2):
        u, chi = played(spec, n, i)
        honest = transform_round(HONEST, u, k) @ chi
        if rule.traps is spec.traps:
            effect = honest
        else:
            effect = effect_row(rule, k, n, i)

        def read(out):
            return protocol.snap_probability(float(squared_overlap(effect, out)), "literal factor")

        dense.append(read(transform_round(strategy, u, k) @ chi))
        diagonal.append(read(attack_diagonal * honest))
    return np.array(dense), np.array(diagonal)


def check_against_literal(spec):
    own = not isinstance(spec.traps, RandomTraps)  # the identity, played exactly
    for placement in Placement:
        for strategy in (HONEST, PhaseAttack(0.4, placement), PhaseAttack(math.pi, placement)):
            got = protocol._round_factors(spec, strategy, N)
            dense, diagonal = literal_factors(spec, strategy, N)
            if own and strategy == HONEST:
                np.testing.assert_array_equal(got, dense)
            elif own and placement is Placement.POST:
                np.testing.assert_array_equal(got, diagonal)
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-15 if own else 1e-14)


@pytest.mark.parametrize("trap_name", sorted(TRAP_DOCS))
@pytest.mark.parametrize("rule_name", ("plus", "computational", "matched"))
@pytest.mark.parametrize("mode", ("per-round", "global"))
@pytest.mark.parametrize("k", (1, 3, 6))
def test_bank_matches_literal_walk(trap_name, rule_name, mode, k):
    # the rule a config builds under either mode name is read round by round
    check_against_literal(config_spec(trap_name, rule_name, mode, k))


class CountingRandomTraps(RandomTraps):
    def __init__(self, seed):
        super().__init__(seed)
        object.__setattr__(self, "calls", [])

    def action(self, k, n, e=None):
        self.calls.append((self.seed, n))
        return super().action(k, n, e)


class CountingPlusTraps(PlusTraps):
    """Plus traps that record each block they give as (n, rows)."""

    def __init__(self):
        object.__setattr__(self, "calls", [])

    def action(self, k, n, e=None):
        block = super().action(k, n, e)
        self.calls.append((n, len(block[0])))
        return block


def test_one_block_per_n_per_spec():
    # each (k, n) block is drawn once per spec, for every table, model,
    # strategy and sampler call; a matched rule over other traps draws one
    # block of theirs per n, not one per round
    traps, other = CountingRandomTraps(seed=9), CountingRandomTraps(seed=10)
    omega = RoundDistribution.from_pairs([(0, 0.2), (2, 0.3), (5, 0.5)])
    for rule in (matched_acceptance(traps), matched_acceptance(other), plus_acceptance()):
        traps.calls.clear()
        other.calls.clear()
        spec = ProtocolSpec(omega, 1, traps, rule)
        for model in SecurityModel:
            for placement in Placement:
                run_tradeoff_check(spec, model, placement=placement)
        monte_carlo_run(spec, (HONEST,), 200, 1)
        monte_carlo_run(spec, (PhaseAttack(1.2, Placement.PRE),), 200, 2)
        assert traps.calls == [(9, 2), (9, 5)]
        assert other.calls == ([(10, 2), (10, 5)] if rule.traps is other else [])
        assert [protocol._bank(spec, n)[0].shape for n in (2, 5)] == [(3, 2), (6, 2)]


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
        assert [protocol._bank(spec, n)[0].shape for n in (3, 40)] == [(1, 4), (1, 4)]


class NonUnitaryAt(TrapGenerator):
    """Random traps except in round ``bad``, which acts as twice the
    identity on the plus state."""

    def __init__(self, bad):
        self.bad = bad

    def action(self, k, n, e=None):
        chi, h, g = RandomTraps(seed=1).action(k, n, e)  # matched: g is chi
        i = self.bad - 1
        chi[i] = plus_state(k).amplitudes
        h[i] = 2.0 * chi[i]
        if e is not None:
            g[i] = 2.0 * e[i]
        return chi, h, g


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
    """Random traps, but round ``bad``'s trap also doubles the part of its
    input space orthogonal to ``chi``: unitary on ``chi``, not on ``chi⊥``.
    So ``h = U chi`` is unchanged, and ``g = U^dagger e`` gains the part of
    itself orthogonal to ``chi`` once more."""

    def __init__(self, bad):
        self.bad = bad

    def action(self, k, n, e=None):
        chi, h, g = RandomTraps(seed=5).action(k, n, e)
        if e is not None:
            i = self.bad - 1
            g[i] = 2.0 * g[i] - np.vdot(chi[i], g[i]) * chi[i]
        return chi, h, g


@pytest.mark.parametrize("k", (1, 3))
def test_trap_checked_on_its_action(k):
    # matched: the engine reads h = U chi and g = chi only, so the off-input
    # scaling changes no figure and the trap is accepted
    scaled, plain = ScaledOffInput(2), RandomTraps(seed=5)
    specs = [ProtocolSpec(RoundDistribution.point_mass(N), k, t, matched_acceptance(t))
             for t in (scaled, plain)]
    for placement in Placement:
        for strategy in (HONEST, PhaseAttack(0.4, placement), PhaseAttack(2.5, placement)):
            got, want = (protocol._round_factors(spec, strategy, N) for spec in specs)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # the bank keeps the rounds' vectors, (N + 1) x 2**k, and no matrix
    assert [a.shape for a in protocol._bank(specs[0], N)] == [(N + 1, 2**k)] * 4
    # plus: g = U^dagger e picks up the doubled part, so |g| != |e|
    spec = ProtocolSpec(RoundDistribution.point_mass(N), k, scaled, plus_acceptance())
    message = r"^trap unitary for round \(n=3, i=2\) is not unitary on its action within 1e-10$"
    for _ in range(2):
        with pytest.raises(ContractViolationError, match=message):
            round_outcome_table(spec, PhaseAttack(0.5))
    assert N not in spec._bank


@pytest.mark.parametrize("bad, message", [
    ("povm", r"^acceptance effect for round \(n=3, i=2\) has norm 0\.9746794344808963, "
             r"not 1 within 1e-12$"),
    ("nan", r"^acceptance effect for round \(n=3, i=2\) has norm nan, not 1 within 1e-12$"),
    ("wrong-dim", r"^acceptance effects for n=3 have shape \(4, 8\), expected \(1, 4\) or \(4, 4\)$"),
    ("rows", r"^acceptance effects for n=3 have shape \(3, 4\), expected \(1, 4\) or \(4, 4\)$"),
], ids=["povm", "nan", "wrong-dim", "rows"])
def test_per_round_effect_must_be_rank_one(bad, message):
    # a block of unit rows, one per round or one for all; the traps are
    # random, so a NaN effect must not reach their Gram check
    def element(k, n):
        rows = np.tile(plus_state(k + (bad == "wrong-dim")).amplitudes, (n + (bad != "rows"), 1))
        if bad == "povm":
            rows[1] *= math.sqrt(0.95)
        elif bad == "nan":
            rows[1, 0] = np.nan
        return rows

    spec = ProtocolSpec(
        omega=RoundDistribution.point_mass(N), k=2,
        traps=RandomTraps(seed=2), acceptance=PerRoundAcceptance(element),
    )
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


class OffNorm(TrapGenerator):
    """Random traps scaled by 1 + 1e-11: unitary on their action within
    1e-10, but the honest output's norm is off 1 by more than a state allows."""

    def action(self, k, n, e=None):
        chi, h, g = RandomTraps(seed=5).action(k, n, e)
        return chi, (1.0 + 1e-11) * h, (g if e is None else (1.0 + 1e-11) * g)


def test_off_norm_trap_fails_alike_in_both_engines():
    # the bank and the network reference read matched effects as states, so
    # both refuse the trap at its named round, whether it is the spec's own
    # or only the rule's; the printed norm's digits depend on the drawn trap
    message = (r"^trap unitary for round \(n=3, i=1\) maps its input to norm "
               r"(\S+), not 1 within 1e-12$")
    scaled = OffNorm()
    for traps in (scaled, RandomTraps(seed=1)):
        spec = ProtocolSpec(RoundDistribution.point_mass(N), 1, traps, matched_acceptance(scaled))
        for engine in (round_outcome_table, round_outcome_table_via_combs):
            with pytest.raises(ContractViolationError, match=message) as err:
                engine(spec, PhaseAttack(0.5))
            norm = float(re.match(message, str(err.value)).group(1))
            assert abs(norm - 1.0) > 1e-12, norm
        assert N not in spec._bank


def test_k12_random_row_stays_on_vectors():
    # one 4096 x 4096 complex matrix alone is 268 MB; the row's bank is
    # 4 x 51 x 4096 complex numbers, 13 MB
    config = parse_config(json.dumps({
        "protocol": {"omega": {"point_mass": 50}, "k": 12,
                     "traps": {"family": "random", "seed": 2},
                     "acceptance": {"family": "plus"}},
        "strategy": {"kind": "phase-attack", "alpha": 0.8, "placement": "pre"},
        "models": ["stand-alone", "composable"],
        "variant": {"kind": "per-round"},
    }))
    tracemalloc.start()
    try:
        bundle = run_scenario(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(bundle.runs) == 2
    for record in bundle.runs:
        report = record.report
        assert 0.0 <= report.p_d <= 1.0 and 0.0 <= report.p_h <= 1.0
        assert math.isfinite(report.eps_h) and math.isfinite(report.eps_d)
    assert peak < 64 * 2**20, peak


def test_engine_squares_overlaps_as_the_literal_reference():
    # 10**5 random overlaps, honest <e|h> and PRE <g|phi chi>: the engine's
    # |z|^2 equals m * m of the scalar m = abs(np.vdot(...)) bit for bit
    n, alpha = 10**5 - 1, 1.3
    spec = ProtocolSpec(RoundDistribution.point_mass(n), 1, RandomTraps(seed=17), plus_acceptance())
    chi, h, e, g = protocol._bank(spec, n)
    pre = (PhaseAttack(alpha, Placement.PRE), g, attack_phases(alpha, 1) * chi)
    for strategy, left, right in ((HONEST, e, h), pre):
        want = [squared_overlap(a, b) for a, b in zip(left, right)]
        np.testing.assert_array_equal(protocol._round_factors(spec, strategy, n), want)
