import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from cutchoose import acceptance, protocol
from cutchoose.combs import GeneralSetup, bell_test_setup
from cutchoose.errors import (
    ContractViolationError,
    DimensionCapError,
    OutOfDomainError,
    UnsupportedStrategyError,
)
from cutchoose.families import (
    ComputationalTraps,
    PlusTraps,
    RandomTraps,
    computational_acceptance,
    matched_acceptance,
    plus_acceptance,
)
from cutchoose.linalg import dagger
from cutchoose.protocol import (
    PerRoundAcceptance,
    ProtocolSpec,
    RoundDistribution,
    TrapGenerator,
    client_output_state,
    monte_carlo_run,
    outcome_table,
    output_round_weights,
    overall_acceptance,
    round_outcome_table,
)
from cutchoose.states import attack_operator, computational_basis_state, plus_state
from cutchoose.strategies import HONEST, PhaseAttack, Placement, transform_round
from dense_rounds import effect_row, played, squared_overlap
from law import chi2_critical, chi2_statistic, within_sigmas


def plus_spec(omega, k=1):
    return ProtocolSpec(omega=omega, k=k, traps=PlusTraps(), acceptance=plus_acceptance())


def cell(spec, strategy, n, ell):
    """p(n, ell): the cell of the spec's outcome table for n and output round ell."""
    rows = dict(zip((m for m, _ in spec.omega.support), round_outcome_table(spec, strategy).rows))
    return float(rows[n][ell - 1])


class TestRoundDistribution:
    def test_point_mass(self):
        om = RoundDistribution.point_mass(3)
        assert om.mean == 3.0
        assert dict(om.support) == {3: 1.0}

    def test_mean(self):
        om = RoundDistribution.from_pairs([(1, 0.5), (3, 0.5)])
        assert om.mean == pytest.approx(2.0)

    def test_rejects_bad_sum(self):
        with pytest.raises(ContractViolationError):
            RoundDistribution(((0, 0.5), (1, 0.48)))

    def test_rejects_negative(self):
        with pytest.raises(ContractViolationError):
            RoundDistribution(((0, -0.5), (1, 1.5)))

    def test_rejects_unsorted(self):
        with pytest.raises(ContractViolationError):
            RoundDistribution(((2, 0.5), (1, 0.5)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ContractViolationError):
            RoundDistribution(((1, bad),))
        with pytest.raises(ContractViolationError):
            RoundDistribution(((0, 0.5), (1, bad)))

    def test_from_pairs_sorts(self):
        om = RoundDistribution.from_pairs([(2, 0.5), (1, 0.5)])
        assert om.support == ((1, 0.5), (2, 0.5))

    def test_rejects_empty_support(self):
        with pytest.raises(ContractViolationError, match="^round distribution has empty support$"):
            RoundDistribution(())


NOT_K, NOT_N = "k must be a positive integer, got ", "round counts must be non-negative integers"


@pytest.mark.parametrize("build, message", [
    (lambda: plus_spec(RoundDistribution.point_mass(1), k=True), NOT_K + "True"),
    (lambda: plus_spec(RoundDistribution.point_mass(1), k=1.5), NOT_K + r"1\.5"),
    (lambda: plus_spec(RoundDistribution.point_mass(1), k=2.0), NOT_K + r"2\.0"),
    (lambda: RoundDistribution(((True, 1.0),)), NOT_N),
    (lambda: RoundDistribution(((2.0, 1.0),)), NOT_N),
], ids=["k-bool", "k-fraction", "k-float", "n-bool", "n-float"])
def test_rejects_non_integer_counts(build, message):
    # the type is checked with the value: True is not k = 1, 2.0 is not k = 2
    with pytest.raises(ContractViolationError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("build, error, message", [
    (lambda: plus_spec(RoundDistribution.point_mass(1), k=13), DimensionCapError,
     r"^2\*\*13 exceeds the dimension cap 4096$"),
    (lambda: ProtocolSpec(RoundDistribution.point_mass(1), 1, PlusTraps(), plus_acceptance(),
                          "first"), ContractViolationError,
     r"^output_round must be 'uniform' or a per-n mapping, got 'first'$"),
    (lambda: ProtocolSpec(RoundDistribution.point_mass(1), 1, PlusTraps(), plus_acceptance(),
                          None), ContractViolationError,
     r"^output_round must be 'uniform' or a per-n mapping, got None$"),
    # the general engine's setup shares the spec's check, at construction
    (lambda: dataclasses.replace(bell_test_setup(2), output_round="bogus"), ContractViolationError,
     r"^output_round must be 'uniform' or a per-n mapping, got 'bogus'$"),
], ids=["k-beyond-the-cap", "output-round-name", "output-round-none", "setup-output-round-name"])
def test_spec_rejects_fields_out_of_range(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_random_traps_deterministic():
    traps = RandomTraps(seed=4)
    spec = ProtocolSpec(RoundDistribution.point_mass(3), 1, traps, matched_acceptance(traps))
    t1, chi1 = played(spec, 3, 2)
    t2, chi2 = played(spec, 3, 2)
    assert np.array_equal(t1, t2)
    assert np.array_equal(chi1, chi2)
    t3, _ = played(spec, 3, 1)
    assert not np.allclose(t1, t3)


class TestAcceptanceProbability:
    def test_perfect_traps_honest(self):
        spec = plus_spec(RoundDistribution.point_mass(2))
        for ell in (1, 2, 3):
            assert cell(spec, HONEST, 2, ell) == 1.0

    def test_quarter_rate_under_attack(self):
        spec = plus_spec(RoundDistribution.point_mass(2))
        attack = PhaseAttack(math.pi / 2, Placement.POST)
        for ell in (1, 2, 3):
            assert cell(spec, attack, 2, ell) == pytest.approx(
                0.25, abs=1e-12
            )

    def test_quarter_rate_vs_joint_measurement(self):
        # brute-force oracle: joint projector on the full two-round tensor space
        spec = plus_spec(RoundDistribution.point_mass(2))
        attack = PhaseAttack(math.pi / 2)
        out = attack_operator(math.pi / 2, 1) @ plus_state(1).amplitudes
        two_outputs = np.kron(out, out)
        projector = np.kron(plus_state(1).projector(), plus_state(1).projector())
        oracle = float(np.vdot(two_outputs, projector @ two_outputs).real)
        for ell in (1, 2, 3):
            assert cell(spec, attack, 2, ell) == pytest.approx(
                oracle, abs=1e-12
            )

    def test_computational_traps_blind_to_attack(self):
        spec = ProtocolSpec(
            omega=RoundDistribution.point_mass(3), k=1,
            traps=ComputationalTraps(), acceptance=computational_acceptance(),
        )
        for alpha in (0.3, 1.7, math.pi):
            assert cell(spec, PhaseAttack(alpha), 3, 1) == 1.0

    def test_no_tests_accepts(self):
        spec = plus_spec(RoundDistribution.point_mass(0))
        assert cell(spec, PhaseAttack(2.0), 0, 1) == 1.0


class TestOverallAcceptance:
    def test_honest_any_distribution(self):
        om = RoundDistribution.from_pairs([(1, 0.5), (3, 0.5)])
        assert overall_acceptance(plus_spec(om), HONEST) == 1.0

    def test_point_mass_attack(self):
        spec = plus_spec(RoundDistribution.point_mass(2))
        assert overall_acceptance(spec, PhaseAttack(math.pi / 2)) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_no_test_rounds(self):
        spec = plus_spec(RoundDistribution.point_mass(0))
        assert overall_acceptance(spec, PhaseAttack(3.0)) == 1.0

    def test_convex_combination_of_table(self):
        rng = np.random.default_rng(17)
        traps = RandomTraps(seed=5)
        matched = matched_acceptance(traps)
        cases = [
            # (omega pairs, acceptance, output_round)
            ([(0, 0.2), (2, 0.3), (3, 0.5)], matched, "uniform"),
            ([(1, 0.0), (2, 0.4), (3, 0.6)], matched, "uniform"),  # zero-weight n
            ([(0, 0.2), (2, 0.8)], matched, {0: (1.0,), 2: (0.6, 0.3, 0.1)}),
            ([(1, 0.5), (2, 0.5)], matched, "uniform"),
            ([(1, 0.5), (2, 0.5)], matched, {1: (0.25, 0.75), 2: (0.2, 0.3, 0.5)}),
        ]
        for pairs, acceptance, output_round in cases:
            spec = ProtocolSpec(
                omega=RoundDistribution.from_pairs(pairs), k=1, traps=traps,
                acceptance=acceptance, output_round=output_round,
            )
            strategy = PhaseAttack(float(rng.uniform(0, 2 * math.pi)))
            rounds = round_outcome_table(spec, strategy)
            assert rounds.omega is spec.omega and rounds.output_round is output_round
            table = {
                (n, ell): p
                for (n, _), row in zip(rounds.omega.support, rounds.rows)
                for ell, p in enumerate(row.tolist(), start=1)
            }
            expected = sum(
                wn * sum(
                    w * table[(n, ell)]
                    for ell, w in enumerate(output_round_weights(output_round, n), start=1)
                )
                for n, wn in spec.omega.support
            )
            got = overall_acceptance(spec, strategy)
            assert got == pytest.approx(expected, abs=1e-12)
            # one engine: overall acceptance is exactly the table's own average
            assert got == rounds.acceptance
            assert all(0.0 <= p <= 1.0 for p in table.values())
            assert sorted(table) == [
                (n, ell) for n, _ in spec.omega.support for ell in range(1, n + 2)
            ]

    def test_explicit_output_round_weights(self):
        traps = RandomTraps(seed=2)
        weights = {2: (0.7, 0.2, 0.1)}
        spec = ProtocolSpec(
            omega=RoundDistribution.point_mass(2), k=1,
            traps=traps, acceptance=matched_acceptance(traps),
            output_round=weights,
        )
        strategy = PhaseAttack(1.0)
        expected = sum(
            w * cell(spec, strategy, 2, ell)
            for ell, w in zip((1, 2, 3), weights[2])
        )
        assert overall_acceptance(spec, strategy) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_output_round_weights(self):
        spec = plus_spec(RoundDistribution.point_mass(2))
        bad = ProtocolSpec(
            omega=spec.omega, k=1, traps=spec.traps,
            acceptance=spec.acceptance, output_round={2: (0.5, 0.5)},
        )
        with pytest.raises(ContractViolationError):
            overall_acceptance(bad, HONEST)

    @pytest.mark.parametrize(
        "output_round, message",
        [({1: (0.5, 0.5)}, "n=2"), ({1: (math.nan, 1.0), 2: (0.2, 0.3, 0.5)}, "n=1")],
        ids=["missing-n", "nan-entry"],
    )
    def test_rejects_missing_or_nan_output_round(self, output_round, message):
        omega = RoundDistribution.from_pairs([(1, 0.5), (2, 0.5)])
        spec = ProtocolSpec(
            omega=omega, k=1, traps=PlusTraps(), acceptance=plus_acceptance(),
            output_round=output_round,
        )
        one, two = bell_test_setup(1), bell_test_setup(2)
        setup = GeneralSetup(
            omega=omega, tests={1: one.tests[1], 2: two.tests[2]},
            combs={**one.combs, **two.combs}, output_round=output_round,
        )
        evaluations = (
            lambda: overall_acceptance(spec, HONEST),
            lambda: monte_carlo_run(spec, (HONEST,), trials=100, seed=0)[0],
            lambda: setup.outcome_table(HONEST).acceptance,
        )
        for evaluate in evaluations:
            with pytest.raises(ContractViolationError, match=message):
                evaluate()

    def test_rejects_an_unknown_output_round_name(self):
        # the one reader of the rule rejects a name it does not know, whatever
        # built the table or the spec (ProtocolSpec rejects it at construction)
        table = outcome_table(RoundDistribution.point_mass(2), "bogus", lambda n: [0.5] * 3)
        spec = plus_spec(RoundDistribution.point_mass(2))
        object.__setattr__(spec, "output_round", "bogus")
        evaluations = (
            lambda: table.acceptance,
            lambda: outcome_table(RoundDistribution.point_mass(0), "bogus", None).acceptance,
            lambda: monte_carlo_run(spec, (HONEST,), trials=100, seed=0),
        )
        for evaluate in evaluations:
            with pytest.raises(ContractViolationError, match="output_round must be 'uniform'"):
                evaluate()


class TestOutcomeTable:
    def test_snaps_rounding_noise_to_the_ends(self):
        omega = RoundDistribution.from_pairs([(0, 0.5), (2, 0.5)])
        table = outcome_table(omega, "uniform", lambda n: (-0.0, -1e-13, 1.0 + 1e-13))
        assert [row.tolist() for row in table.rows] == [[1.0], [0.0, 0.0, 1.0]]
        assert not np.signbit(table.rows[1]).any()
        assert table.acceptance == 0.5 + 0.5 * (1.0 / 3.0)

    def test_rejects_values_beyond_rounding(self):
        omega = RoundDistribution.point_mass(1)
        cases = [
            ((0.5, 1.0 + 1e-11), r"p\(n=1, ell=2\) = 1.00000000001 outside \[0, 1\]"),
            ((math.nan, 0.5), r"p\(n=1, ell=1\) = nan outside \[0, 1\]"),
            ((0.5, -1e-11), r"p\(n=1, ell=2\) = -1e-11 outside \[0, 1\]"),
        ]
        for values, message in cases:
            with pytest.raises(ContractViolationError, match=message):
                outcome_table(omega, "uniform", lambda n: values)

    @pytest.mark.parametrize("row, shape", [([1.0] * 2, (2,)), ([[1.0] * 4], (1, 4)), (1.0, ())],
                             ids=["short", "2-d", "scalar"])
    def test_rejects_a_row_of_the_wrong_shape(self, row, shape):
        message = re.escape(f"p(n=3, ell) row has shape {shape}, expected (4,)")
        with pytest.raises(ContractViolationError, match=f"^{message}$"):
            outcome_table(RoundDistribution.point_mass(3), "uniform", lambda n: row)

    def test_rows_are_read_only(self):
        table = outcome_table(RoundDistribution.point_mass(2), "uniform", lambda n: (0.1,) * 3)
        with pytest.raises(ValueError, match="read-only"):
            table.rows[0][1] = 0.5


class TestHolevoHelstromStep:
    def test_per_round_gap_bounded(self):
        # |p_H - p_D| at fixed (n, ell) never beats the trace-distance bound
        rng = np.random.default_rng(41)
        for trial in range(60):
            k = int(rng.integers(1, 3))
            traps = RandomTraps(seed=trial)
            spec = ProtocolSpec(
                omega=RoundDistribution.point_mass(3), k=k,
                traps=traps, acceptance=matched_acceptance(traps),
            )
            alpha = float(rng.uniform(0, 2 * math.pi))
            placement = Placement.PRE if rng.integers(2) else Placement.POST
            attack = PhaseAttack(alpha, placement)
            n = 3
            ell = int(rng.integers(1, n + 2))
            p_h = cell(spec, HONEST, n, ell)
            p_d = cell(spec, attack, n, ell)
            prod = 1.0
            for i in range(1, n + 2):
                if i == ell:
                    continue
                t, chi = played(spec, n, i)
                ta = transform_round(attack, t, k)
                prod *= squared_overlap(t @ chi, ta @ chi)
            assert abs(p_h - p_d) <= math.sqrt(1.0 - prod) + 1e-10

    def test_aggregate_gap_bounded(self):
        rng = np.random.default_rng(43)
        for trial in range(40):
            traps = RandomTraps(seed=100 + trial)
            spec = ProtocolSpec(
                omega=RoundDistribution.from_pairs([(1, 0.4), (2, 0.4), (4, 0.2)]),
                k=1, traps=traps, acceptance=matched_acceptance(traps),
            )
            alpha = float(rng.uniform(0, 2 * math.pi))
            attack = PhaseAttack(alpha)
            gap = abs(overall_acceptance(spec, HONEST) - overall_acceptance(spec, attack))
            n_mean = spec.omega.mean
            bound = math.sqrt(max(0.0, 1.0 - math.cos(alpha / 2) ** (2 * n_mean)))
            assert gap <= bound + 1e-10


class TestClientOutput:
    def test_honest_identity(self):
        spec = plus_spec(RoundDistribution.point_mass(2), k=2)
        psi = plus_state(2).density()
        out = client_output_state(spec, HONEST, psi, np.eye(4))
        assert out.accept_weight == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out.payload().matrix, psi.matrix, atol=1e-12)

    def test_attacked_payload(self):
        alpha = 0.9
        spec = plus_spec(RoundDistribution.point_mass(3), k=2)
        psi = plus_state(2).density()
        out = client_output_state(spec, PhaseAttack(alpha), psi, np.eye(4))
        a = attack_operator(alpha, 2)
        expected = a @ psi.matrix @ dagger(a)
        np.testing.assert_allclose(out.payload().matrix, expected, atol=1e-12)
        assert out.accept_weight == pytest.approx(
            math.cos(alpha / 2) ** 6, abs=1e-12
        )

    def test_pre_equals_post_for_identity_computation(self):
        spec = plus_spec(RoundDistribution.point_mass(1))
        psi = plus_state(1).density()
        pre = client_output_state(spec, PhaseAttack(1.3, Placement.PRE), psi, np.eye(2))
        post = client_output_state(spec, PhaseAttack(1.3, Placement.POST), psi, np.eye(2))
        np.testing.assert_allclose(pre.matrix, post.matrix, atol=1e-14)

    def test_dim_mismatch(self):
        spec = plus_spec(RoundDistribution.point_mass(1), k=2)
        with pytest.raises(ContractViolationError):
            client_output_state(spec, HONEST, plus_state(1).density(), np.eye(4))


def _partial_trace_keep(rho, dims, keep):
    t = rho.reshape(tuple(dims) * 2)
    traced = 0
    for ax in range(len(dims) - 1, -1, -1):
        if ax == keep:
            continue
        t = np.trace(t, axis1=ax, axis2=ax + len(dims) - traced)
        traced += 1
    return t


def _literal_sequential_run(spec, strategy, n, ell, input_state, target_unitary):
    """Protocol executed literally on the full (n+1)-round tensor space:
    rounds in order, output round at position ell, joint measurement on the
    test slots, post-measurement payload extracted by partial trace."""
    k = spec.k
    d = 2**k
    applied = transform_round(strategy, target_unitary, k)
    rho_out = applied @ input_state.matrix @ dagger(applied)
    total = np.eye(1, dtype=complex)
    effect = np.eye(1, dtype=complex)
    for i in range(1, n + 2):
        if i == ell:
            total = np.kron(total, rho_out)
            effect = np.kron(effect, np.eye(d))
        else:
            t, chi = played(spec, n, i)
            out = transform_round(strategy, t, k) @ chi
            total = np.kron(total, np.outer(out, out.conj()))
            e = effect_row(spec.acceptance, k, n, i)
            effect = np.kron(effect, np.outer(e, e.conj()))
    p = float(np.trace(effect @ total).real)
    root = np.zeros_like(effect)
    w, v = np.linalg.eigh((effect + dagger(effect)) / 2)
    root = (v * np.sqrt(np.clip(w, 0, None))) @ dagger(v)
    conditional = root @ total @ root
    payload = _partial_trace_keep(conditional, [d] * (n + 1), ell - 1)
    return p, payload / p if p > 1e-12 else payload


class TestAgainstLiteralSimulator:
    def test_probabilities_and_payload(self):
        # position of the output round is immaterial for identical independent
        # per-round strategies; check against the literal run for n <= 3
        rng = np.random.default_rng(55)
        for trial in range(12):
            traps = RandomTraps(seed=trial)
            n = int(rng.integers(1, 4))
            spec = ProtocolSpec(
                omega=RoundDistribution.point_mass(n), k=1,
                traps=traps, acceptance=matched_acceptance(traps),
            )
            strategy = (
                HONEST if trial % 3 == 0
                else PhaseAttack(
                    float(rng.uniform(0, 2 * math.pi)),
                    Placement.PRE if rng.integers(2) else Placement.POST,
                )
            )
            psi = plus_state(1).density()
            u = np.eye(2, dtype=complex)
            engine_payload = client_output_state(spec, strategy, psi, u)
            for ell in range(1, n + 2):
                p_engine = cell(spec, strategy, n, ell)
                p_literal, payload_literal = _literal_sequential_run(
                    spec, strategy, n, ell, psi, u
                )
                assert abs(p_engine - p_literal) <= 1e-10
                if p_literal > 1e-9:
                    np.testing.assert_allclose(
                        engine_payload.payload().matrix, payload_literal, atol=1e-10
                    )


_MIXED = RoundDistribution.from_pairs([(0, 0.2), (2, 0.3), (5, 0.5)])


def _random_matched_spec():
    traps = RandomTraps(seed=3)
    return ProtocolSpec(_MIXED, 1, traps, matched_acceptance(traps))


_THREE = (HONEST, PhaseAttack(0.7), PhaseAttack(2.1, Placement.PRE))
_MATCHED = (HONEST, PhaseAttack(1.1, Placement.POST), PhaseAttack(1.1, Placement.PRE))
# name -> (spec, strategies sampled together)
_SHARED_DRAW_SPECS = {
    "per-round": (plus_spec(_MIXED), _THREE),
    "output-round-mapping": (
        ProtocolSpec(RoundDistribution.from_pairs([(0, 0.3), (2, 0.7)]), 1, PlusTraps(),
                     plus_acceptance(), output_round={2: (0.2, 0.3, 0.5)}),
        _THREE,
    ),
    "random-matched-per-round": (_random_matched_spec(), _MATCHED),
    # every test round fails about 4 % of runs: all are sparse, drawn as marks
    "all-sparse": (plus_spec(RoundDistribution.from_pairs([(1, 0.3), (4, 0.7)])),
                   (HONEST, PhaseAttack(0.4), PhaseAttack(0.3, Placement.PRE))),
}
_WIDE_TRAPS = RandomTraps(seed=3)
# the sampler's benchmark shape: about one failing test round in 10**3 at these angles
_WIDE_SPEC = ProtocolSpec(RoundDistribution.from_pairs([(0, 0.1), (50, 0.4), (400, 0.5)]), 1,
                          _WIDE_TRAPS, matched_acceptance(_WIDE_TRAPS))
_WIDE_ATTACKS = (PhaseAttack(0.05), PhaseAttack(0.07, Placement.PRE))


class FailingRounds(TrapGenerator):
    """Identity traps on one fixed input per round, ``cos t_i |0> + sin t_i |1>``
    for k = 1, so that a phase attack of pi fails round i with chance
    ``sin(2 t_i)^2 = fails[i]``: no stream draws the rounds."""

    def __init__(self, fails):
        self.t = np.arcsin(np.sqrt(fails)) / 2.0

    def action(self, k, n, e=None):
        assert (k, n) == (1, self.t.size - 1)
        chi = np.stack([np.cos(self.t), np.sin(self.t)], axis=1).astype(np.complex128)
        return chi, chi, (chi if e is None else e)


_MIXED_N_TRAPS = FailingRounds([0.39, 0.41, 0.32, 0.05, 0.48, 0.03])
# n = 5's six rounds under the attack: four fail more than 1/8 of runs and
# are dense, two fail less and are sparse
_MIXED_N_SPEC = ProtocolSpec(RoundDistribution.from_pairs([(0, 0.1), (5, 0.9)]), 1,
                             _MIXED_N_TRAPS, matched_acceptance(_MIXED_N_TRAPS))
# name -> (spec, strategies) whose sampled rates must follow the exact law
_LAW_SPECS = {
    "per-round": _SHARED_DRAW_SPECS["per-round"],
    "random-matched-per-round": _SHARED_DRAW_SPECS["random-matched-per-round"],
    "random-matched-wide": (_WIDE_SPEC, (HONEST, *_WIDE_ATTACKS)),
    "all-sparse": _SHARED_DRAW_SPECS["all-sparse"],
    "mixed-n": (_MIXED_N_SPEC, (HONEST, PhaseAttack(math.pi))),
}
# a multi-n support, n = 0 included, with an output-round rule far from uniform over
# rounds whose factors differ (random traps under plus effects), so p(n, ell)
# varies with ell and a wrong count per n or per output round moves the rate
_SKEWED_RULE = {1: (0.9, 0.1), 2: (0.05, 0.15, 0.8), 3: (0.6, 0.1, 0.1, 0.2)}
_SKEWED_OMEGA = RoundDistribution.from_pairs([(0, 0.1), (1, 0.3), (2, 0.4), (3, 0.2)])
# name -> (spec, strategies) whose accept counts must be binomial at 25 trials
_BINOMIAL_SPECS = {
    "per-round": (ProtocolSpec(_SKEWED_OMEGA, 1, RandomTraps(seed=5), plus_acceptance(),
                               output_round=_SKEWED_RULE),
                  (HONEST, PhaseAttack(0.9), PhaseAttack(1.7, Placement.PRE))),
}
# at most 25 runs per round count: 2 % failure rates make every round sparse, drawn
# as a few marks or none, and mixed-n has four dense rounds and two sparse (an
# honest run under these rules always accepts, so its count has no law to fit)
_BINOMIAL_SPECS["sparse"] = (plus_spec(RoundDistribution.point_mass(3)),
                             (PhaseAttack(0.3), PhaseAttack(0.25, Placement.PRE)))
_BINOMIAL_SPECS["mixed-n"] = (_MIXED_N_SPEC, (PhaseAttack(math.pi),))


def spy_on_draw_paths(monkeypatch, record):
    """Calls ``record(name)`` whenever the sampler draws some sparse rounds as
    marks (``_mark_rounds``) or some dense rounds as uniforms (``_uniform_rounds``)."""
    for name in ("_mark_rounds", "_uniform_rounds"):
        def spy(rng, bounds, factors, rounds, dead, real=getattr(protocol, name), name=name):
            if rounds.size:
                record(name)
            return real(rng, bounds, factors, rounds, dead)

        monkeypatch.setattr(protocol, name, spy)


class TestMonteCarlo:
    def test_perfect_traps_exact_one(self):
        spec = plus_spec(RoundDistribution.point_mass(3))
        assert monte_carlo_run(spec, (HONEST,), 10_000, seed=0) == (1.0,)

    def test_rates_are_python_floats_for_numpy_trials(self):
        spec = plus_spec(RoundDistribution.point_mass(2))
        for rate in monte_carlo_run(spec, (HONEST, PhaseAttack(1.0)), np.int64(10), seed=0):
            assert type(rate) is float

    def test_attack_rate_within_three_sigma(self):
        spec = plus_spec(RoundDistribution.point_mass(2))
        rate = monte_carlo_run(spec, (PhaseAttack(math.pi / 2),), 100_000, seed=42)[0]
        assert abs(rate - 0.25) <= 0.005

    def test_mixed_distribution_honest(self):
        spec = plus_spec(RoundDistribution.from_pairs([(1, 0.5), (3, 0.5)]))
        assert monte_carlo_run(spec, (HONEST,), 10_000, seed=3) == (1.0,)

    def test_skips_a_support_point_never_drawn(self):
        # n = 2 has weight 0, so no run draws it and its effects are never read
        def element(k, n):
            if n == 2:
                raise AssertionError("the effects of an undrawn n were read")
            return plus_state(k).amplitudes[None]

        omega = RoundDistribution(((1, 1.0), (2, 0.0)))
        spec = ProtocolSpec(omega, 1, PlusTraps(), PerRoundAcceptance(element))
        assert monte_carlo_run(spec, (HONEST, PhaseAttack(math.pi)), 1000, seed=0) == (1.0, 0.0)
        assert list(spec._bank) == [1]

    def test_deterministic_per_seed(self):
        spec = plus_spec(RoundDistribution.from_pairs([(0, 0.25), (2, 0.75)]))
        a = monte_carlo_run(spec, (PhaseAttack(1.1),), 50_000, seed=9)[0]
        b = monte_carlo_run(spec, (PhaseAttack(1.1),), 50_000, seed=9)[0]
        assert a == b

    def test_matches_exact_within_four_sigma(self):
        trials = 100_000
        for seed, alpha in enumerate((0.4, 1.0, 2.5)):
            spec = plus_spec(RoundDistribution.from_pairs([(1, 0.3), (2, 0.4), (5, 0.3)]))
            strategy = PhaseAttack(alpha)
            exact = overall_acceptance(spec, strategy)
            rate = monte_carlo_run(spec, (strategy,), trials, seed=seed)[0]
            bound = 4.0 * math.sqrt(exact * (1.0 - exact) / trials) + 1e-9
            assert abs(rate - exact) <= bound

    def test_no_test_rounds_need_no_output_round_rule(self):
        # the rule covers n = 2 only: with no tests the output round is round 1
        spec = ProtocolSpec(
            omega=RoundDistribution.from_pairs([(0, 0.5), (2, 0.5)]), k=1, traps=PlusTraps(),
            acceptance=plus_acceptance(), output_round={2: (0.2, 0.3, 0.5)},
        )
        assert output_round_weights(spec.output_round, 0).tolist() == [1.0]
        trials, strategy = 100_000, PhaseAttack(1.0)
        exact = overall_acceptance(spec, strategy)
        rate = monte_carlo_run(spec, (strategy,), trials, seed=5)[0]
        assert abs(rate - exact) <= 4.0 * math.sqrt(exact * (1 - exact) / trials)

    def test_memory_does_not_grow_with_trials_times_rounds(self):
        # a draw of one uniform per run and round would be 10**5 * 401 * 8 bytes
        # here; the failing rounds, about one in 10**3, are what is drawn
        monte_carlo_run(_WIDE_SPEC, (HONEST,), 10, seed=0)  # receive the rounds first
        tracemalloc.start()
        try:
            monte_carlo_run(_WIDE_SPEC, (HONEST, *_WIDE_ATTACKS), 100_000, seed=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    @pytest.mark.parametrize("name", sorted(_SHARED_DRAW_SPECS))
    # runs per call: each round count's runs form one block, of about 4,000 * omega(n)
    # runs, or of at most 8, where round counts with no runs and sparse rounds with
    # no mark are common
    @pytest.mark.parametrize("trials", (4_000, 8), ids=("one-block", "blocks-of-8"))
    def test_strategies_share_draws_bit_identically(self, name, trials):
        spec, strategies = _SHARED_DRAW_SPECS[name]
        together = monte_carlo_run(spec, strategies, trials, seed=13)
        # the draws depend on the set's smallest factor per round, so the
        # results hold under every change that keeps it: reordering, duplicating,
        # and adding a strategy whose factors are nowhere below it (HONEST)
        honest, *attacks = strategies
        assert honest is HONEST
        for n, _ in spec.omega.support:
            lowest = np.min([protocol._round_factors(spec, s, n) for s in attacks], axis=0)
            assert np.all(protocol._round_factors(spec, HONEST, n) >= lowest)
        order = (2, 0, 1)
        reordered = monte_carlo_run(spec, [strategies[i] for i in order], trials, seed=13)
        assert repr(reordered) == repr(tuple(together[i] for i in order))
        doubled = monte_carlo_run(spec, (*strategies, attacks[0]), trials, seed=13)
        assert repr(doubled) == repr((*together, together[1]))
        without_honest = monte_carlo_run(spec, attacks, trials, seed=13)
        assert repr(without_honest) == repr(together[1:])

    @pytest.mark.parametrize("name", sorted(_LAW_SPECS))
    def test_sampled_rates_follow_the_exact_law(self, monkeypatch, name):
        spec, strategies = _LAW_SPECS[name]
        # the factors repeat for every seed: compute each (strategy, n) once
        factors, compute = {}, protocol._round_factors

        def memo(spec, strategy, n):
            if (strategy, n) not in factors:
                factors[strategy, n] = compute(spec, strategy, n)
            return factors[strategy, n]

        monkeypatch.setattr(protocol, "_round_factors", memo)
        trials, seeds = 500, range(300)
        exact = np.array([overall_acceptance(spec, s) for s in strategies])
        together = np.array([monte_carlo_run(spec, strategies, trials, seed) for seed in seeds])
        alone = np.array([
            [monte_carlo_run(spec, (s,), trials, seed)[0] for s in strategies]
            for seed in seeds
        ])
        for rates in (together, alone):
            for s, p, column in zip(strategies, exact, rates.T):
                if s is HONEST:  # factors of 1, up to rounding in random-trap rounds
                    assert p > 1.0 - 1e-12
                    assert np.all(column == 1.0)
                    continue
                z = (column - p) / math.sqrt(p * (1.0 - p) / trials)
                assert abs(z.mean()) <= 0.2, (s, z.mean())
                assert 0.8 <= z.std() <= 1.2, (s, z.std())

    @pytest.mark.parametrize("name", sorted(_BINOMIAL_SPECS))
    def test_accept_counts_follow_the_binomial_law(self, name):
        # a run accepts with the exact probability p, independently of the other
        # runs, so a call's accept count is Binomial(trials, p): counted over many
        # seeds at a few trials, each strategy's counts fit it at law.LEVEL
        spec, strategies = _BINOMIAL_SPECS[name]
        trials, seeds = 25, range(1500)
        counts = np.array([
            [round(rate * trials) for rate in monte_carlo_run(spec, strategies, trials, seed)]
            for seed in seeds
        ])
        for s, column in zip(strategies, counts.T):
            p = overall_acceptance(spec, s)
            binomial = np.array([math.comb(trials, a) * p**a * (1.0 - p) ** (trials - a)
                                 for a in range(trials + 1)])
            observed = np.bincount(column, minlength=trials + 1)
            stat, df = chi2_statistic(observed, len(seeds) * binomial)
            assert stat <= chi2_critical(df), (s, stat, df)

    @pytest.mark.parametrize("name, paths", [
        ("all-sparse", ["_mark_rounds"]), ("mixed-n", ["_mark_rounds", "_uniform_rounds"]),
    ], ids=("all-sparse", "mixed-n"))
    def test_law_specs_draw_on_the_paths_they_are_named_for(self, monkeypatch, name, paths):
        # the path follows each round's smallest factor alone, so every seed, with
        # or without the honest run, takes the same paths at the law test's trials
        spec, strategies = _LAW_SPECS[name]
        used = set()
        spy_on_draw_paths(monkeypatch, used.add)
        for seed in range(10):
            for subset in (strategies, strategies[1:]):
                used.clear()
                monte_carlo_run(spec, subset, 500, seed)
                assert sorted(used) == paths, (seed, subset)

    def test_trials_up_to_the_cap_are_drawn(self):
        # with no tests the runs are only counted, so the cap itself is cheap
        spec = plus_spec(RoundDistribution.point_mass(0))
        assert monte_carlo_run(spec, (HONEST,), protocol.MAX_TRIALS, seed=0) == (1.0,)

    def test_unsupported_strategy_rejected_before_any_draw(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("the sampler drew before checking its strategies")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        spec = plus_spec(RoundDistribution.point_mass(2))
        with pytest.raises(UnsupportedStrategyError):
            monte_carlo_run(spec, (HONEST, PhaseAttack(0.5), "adaptive"), 100, seed=0)

    def test_rejects_empty_strategies(self):
        spec = plus_spec(RoundDistribution.point_mass(1))
        with pytest.raises(OutOfDomainError):
            monte_carlo_run(spec, (), 100, seed=0)

    def test_rejects_one_strategy_not_in_a_sequence(self):
        spec = plus_spec(RoundDistribution.point_mass(1))
        with pytest.raises(OutOfDomainError, match=r"^monte_carlo_run takes a non-empty sequence "
                                                   r"of strategies, got PhaseAttack\(alpha=0\.0, "
                                                   r"placement=<Placement\.POST: 'post'>\)$"):
            monte_carlo_run(spec, HONEST, 10, seed=0)

    def test_rejects_zero_trials(self):
        spec = plus_spec(RoundDistribution.point_mass(1))
        with pytest.raises(OutOfDomainError):
            monte_carlo_run(spec, (HONEST,), 0, seed=0)

    @pytest.mark.parametrize("named, value", [
        ("trials", 0), ("trials", True), ("trials", 2.5), ("trials", 1e3), ("trials", "10"),
        ("seed", None), ("seed", -1), ("seed", 1.5), ("seed", False),
        ("trials", protocol.MAX_TRIALS + 1),
    ], ids=lambda v: v if v in ("trials", "seed") else repr(v))
    def test_rejects_bad_trials_and_seed_before_any_draw(self, monkeypatch, named, value):
        def no_draws(*args, **kwargs):
            raise AssertionError("the sampler drew before checking its arguments")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        spec = plus_spec(RoundDistribution.point_mass(1))
        args = {"trials": 10, "seed": 0, named: value}
        with pytest.raises(OutOfDomainError, match=f"^{named} must be an integer"):
            monte_carlo_run(spec, (HONEST,), **args)


class ExtremeDraws:
    """A generator stub for ``_rejected_runs``: ``marks`` marks per sparse
    round, on columns 1, 2, ... in turn, each with the label U = 0, the mark
    that fails the most; and every dense uniform just below 1, the largest."""

    def __init__(self, marks):
        self.marks = marks

    def poisson(self, lam):
        return np.full(len(lam), self.marks)

    def integers(self, low, high, size):
        return low + np.arange(size) % (high - low)

    def random(self, size):
        return np.zeros(size) if np.ndim(size) == 0 else np.full(size, np.nextafter(1.0, 0.0))


def test_a_uniform_of_one_fails_only_rounds_below_one(monkeypatch):
    # runs 0-1 hide the output in round 0, runs 2-4 in round 1 and runs 5-7 in
    # round 2. Rounds 0 and 2 are sparse, round 1 dense, and strategy i fails
    # round i only: every run but that round's own output runs, first and last
    # included, fails it; a factor of 1 passes whatever is drawn, on either path
    paths = []
    spy_on_draw_paths(monkeypatch, paths.append)
    factors = np.array([[0.9, 1.0, 1.0], [1.0, 0.5, 1.0], [1.0, 1.0, 0.95], [1.0, 1.0, 1.0]])
    dead = protocol._rejected_runs(ExtremeDraws(8), np.array([0, 2, 5, 8]), factors)
    assert [np.flatnonzero(row).tolist() for row in dead] == [
        [2, 3, 4, 5, 6, 7], [0, 1, 5, 6, 7], [0, 1, 2, 3, 4], []]
    assert paths == ["_mark_rounds", "_uniform_rounds"]


class RecordedDraws:
    """A seeded generator that records the size of every draw of the sampler's
    failing runs, by method."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), {}

    def __getattr__(self, name):
        def draw(*args):
            size = np.shape(args[0]) if name == "poisson" else args[-1]
            self.sizes.setdefault(name, []).append(size)
            return getattr(self.rng, name)(*args)

        return draw


class TestFailingRuns:
    """Each round's failing runs, sparse rounds as Poisson marks and dense
    ones as one uniform per run: each run fails with the round's chance,
    independently of the other runs."""

    # (m, failure chance per round, block bound): every round sparse; sparse and
    # dense mixed; marks and dense rows over several blocks at a patched bound;
    # and at the real bound, more marks than a block and more runs than a row
    CASES = {
        "all-sparse": (64, [0.1, 0.0, 0.05, 0.02, 0.125, 0.08], None),
        "mixed": (64, [0.1, 0.6, 0.05, 1.0, 0.0, 0.15, 0.02], None),
        "batches": (64, [0.1, 0.3, 0.05, 0.12, 0.5, 0.02], 12),
        "real-bound": (2**16, [0.1, 0.05, 0.12, 0.3, 0.02], None),
    }

    @staticmethod
    def failing(rng, m, fails):
        """Each round's failing runs as a row: strategy i fails round i alone,
        and every run hides the output in a round that all pass."""
        r = len(fails)
        factors = np.ones((r, r + 1))
        factors[np.arange(r), np.arange(1, r + 1)] = 1.0 - np.array(fails)
        return protocol._rejected_runs(rng, np.array([0] + [m] * (r + 1)), factors)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_draws_come_in_blocks_of_exact_sizes(self, monkeypatch, name):
        m, fails, bound = self.CASES[name]
        if bound:
            monkeypatch.setattr(protocol, "_BLOCK", bound)
        bound = protocol._BLOCK
        sparse = [p for p in fails if 0.0 < p * protocol._SPARSE_SHARE <= 1.0]
        dense = [p for p in fails if p * protocol._SPARSE_SHARE > 1.0]
        for seed in range(5):
            rng = RecordedDraws(seed)
            dead = self.failing(rng, m, fails)
            assert rng.sizes.pop("poisson") == [(len(sparse),)]
            marks, labels = rng.sizes.pop("integers", []), rng.sizes.pop("random")
            cells = [math.prod(size) for size in labels if np.ndim(size)]
            assert labels[:len(marks)] == marks and len(labels) == len(marks) + len(cells)
            assert not rng.sizes and all(0 < size <= bound for size in marks + cells)
            assert sum(cells) == len(dense) * m
            if name == "real-bound":
                assert len(marks) > 1 and len(cells) == len(dense) * (m // bound)
            for row, p in zip(dead, fails):
                if p in (0.0, 1.0):  # a round that never fails draws nothing
                    assert np.all(row == (p == 1.0))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_run_is_equally_likely(self, monkeypatch, name):
        m, fails, bound = self.CASES[name]
        if bound:
            monkeypatch.setattr(protocol, "_BLOCK", bound)
        seeds = range(1500 if m <= 64 else 40)
        bins = min(m, 64)  # equal bins of runs
        hits = sum(self.failing(np.random.default_rng(seed), m, fails).reshape(len(fails), bins, -1)
                   .sum(axis=2) for seed in seeds)
        for i, p in enumerate(fails):
            if 0.0 < p < 1.0:
                # a bin's count is binomial, of variance (1 - p) times its exact
                # mean, so every bin is a degree of freedom of the scaled statistic
                stat, df = chi2_statistic(hits[i], np.full(bins, len(seeds) * p * m / bins))
                assert stat / (1.0 - p) <= chi2_critical(df + 1), (name, i, stat, df)

    def test_every_subset_is_equally_likely(self):
        # four runs, a sparse and a dense round: each run fails independently,
        # so a subset of the runs is a round's failing set with chance
        # p**size (1 - p)**(4 - size); bins in order of size, so rare ones pool
        fails = (0.125, 0.4)
        subsets = sorted(range(16), key=lambda s: (s.bit_count(), s))
        seen = np.zeros((2, 16))
        seeds = range(4000)
        for seed in seeds:
            dead = self.failing(np.random.default_rng(seed), 4, fails)
            seen[[0, 1], dead @ (1 << np.arange(4))] += 1
        for row, p in zip(seen, fails):
            law = [p ** s.bit_count() * (1.0 - p) ** (4 - s.bit_count()) for s in subsets]
            stat, df = chi2_statistic(row[subsets], len(seeds) * np.array(law))
            assert stat <= chi2_critical(df), (p, stat, df)

    def test_a_dense_call_holds_its_dead_flags_and_one_block(self):
        # 2 * 10**6 runs of n = 3 whose rounds all fail about 90 %: the flags are
        # 2 MB, where one uniform per run and round at once would be 64 MB
        spec = plus_spec(RoundDistribution.point_mass(3))
        monte_carlo_run(spec, (PhaseAttack(2.5),), 10, seed=0)  # receive the rounds first
        tracemalloc.start()
        try:
            rate, = monte_carlo_run(spec, (PhaseAttack(2.5),), 2 * 10**6, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, peak
        assert within_sigmas(rate, overall_acceptance(spec, PhaseAttack(2.5)), 2 * 10**6)


class TestOneWalkPerN:
    def test_constant_effects_built_once(self):
        # a constant rule is one row for every n: its state, bit for bit
        for rule, state in ((plus_acceptance(), plus_state),
                            (computational_acceptance(), computational_basis_state)):
            for k, n in ((1, 0), (2, 3), (2, 5), (4, 40)):
                block = rule.element(k, n)
                assert block.shape == (1, 2**k)
                assert block.tobytes() == state(k).amplitudes.tobytes()


class TestJensen:
    # the concavity step's two sums, as the gate's jensen-step criterion forms them
    def test_point_mass_tight(self):
        lhs, rhs = acceptance._concavity_sums(RoundDistribution.point_mass(4), 0.8)
        assert lhs == pytest.approx(rhs, abs=1e-15)
        assert lhs <= rhs + acceptance._JENSEN_TOL

    def test_c_one_degenerate(self):
        two_point = RoundDistribution.from_pairs([(1, 0.5), (3, 0.5)])
        lhs, rhs = acceptance._concavity_sums(two_point, 1.0)
        assert lhs == 0.0
        assert rhs == 0.0
        assert lhs <= rhs + acceptance._JENSEN_TOL

    def test_two_point_example(self):
        two_point = RoundDistribution.from_pairs([(1, 0.5), (3, 0.5)])
        lhs, rhs = acceptance._concavity_sums(two_point, 0.9)
        expected_lhs = 0.5 * (math.sqrt(1 - 0.81) + math.sqrt(1 - 0.9**6))
        assert lhs == pytest.approx(expected_lhs, abs=1e-12)
        assert rhs == pytest.approx(math.sqrt(1 - 0.9**4), abs=1e-12)
        assert lhs < rhs
        assert lhs <= rhs + acceptance._JENSEN_TOL
