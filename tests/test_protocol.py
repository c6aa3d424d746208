import math

import numpy as np
import pytest

from cutchoose import protocol
from cutchoose.combs import GeneralSetup, bell_test_setup
from cutchoose.errors import ContractViolationError, OutOfDomainError
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
    GlobalAcceptance,
    ProtocolSpec,
    RoundDistribution,
    acceptance_probability,
    client_output_state,
    jensen_gap_check,
    monte_carlo_run,
    outcome_table,
    output_round_weights,
    overall_acceptance,
    round_outcome_table,
)
from cutchoose.states import attack_operator, plus_state
from cutchoose.strategies import HONEST, PhaseAttack, Placement, transform_round


def plus_spec(omega, k=1):
    return ProtocolSpec(omega=omega, k=k, traps=PlusTraps(), acceptance=plus_acceptance())


class TestRoundDistribution:
    def test_point_mass(self):
        om = RoundDistribution.point_mass(3)
        assert om.mean == 3.0
        assert om.prob(3) == 1.0
        assert om.prob(1) == 0.0

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


def test_random_traps_deterministic():
    traps = RandomTraps(seed=4)
    t1, chi1 = traps.trap(1, 3, 2)
    t2, chi2 = traps.trap(1, 3, 2)
    assert np.array_equal(t1, t2)
    assert np.array_equal(chi1.amplitudes, chi2.amplitudes)
    t3, _ = traps.trap(1, 3, 1)
    assert not np.allclose(t1, t3)


class TestAcceptanceProbability:
    def test_perfect_traps_honest(self):
        spec = plus_spec(RoundDistribution.point_mass(2))
        for ell in (1, 2, 3):
            assert acceptance_probability(spec, HONEST, 2, ell) == 1.0

    def test_quarter_rate_under_attack(self):
        spec = plus_spec(RoundDistribution.point_mass(2))
        attack = PhaseAttack(math.pi / 2, Placement.POST)
        for ell in (1, 2, 3):
            assert acceptance_probability(spec, attack, 2, ell) == pytest.approx(
                0.25, abs=1e-12
            )

    def test_quarter_rate_vs_joint_measurement(self):
        # brute-force oracle: joint projector on the full two-round tensor space
        spec = plus_spec(RoundDistribution.point_mass(2))
        joint = ProtocolSpec(
            omega=spec.omega, k=1, traps=PlusTraps(),
            acceptance=GlobalAcceptance(plus_acceptance()),
        )
        attack = PhaseAttack(math.pi / 2)
        out = attack_operator(math.pi / 2, 1) @ plus_state(1).amplitudes
        two_outputs = np.kron(out, out)
        projector = np.kron(plus_state(1).projector(), plus_state(1).projector())
        oracle = float(np.vdot(two_outputs, projector @ two_outputs).real)
        for ell in (1, 2, 3):
            assert acceptance_probability(joint, attack, 2, ell) == pytest.approx(
                oracle, abs=1e-12
            )
            assert acceptance_probability(spec, attack, 2, ell) == pytest.approx(
                oracle, abs=1e-12
            )

    def test_computational_traps_blind_to_attack(self):
        spec = ProtocolSpec(
            omega=RoundDistribution.point_mass(3), k=1,
            traps=ComputationalTraps(), acceptance=computational_acceptance(),
        )
        for alpha in (0.3, 1.7, math.pi):
            assert acceptance_probability(spec, PhaseAttack(alpha), 3, 1) == 1.0

    def test_no_tests_accepts(self):
        spec = plus_spec(RoundDistribution.point_mass(0))
        assert acceptance_probability(spec, PhaseAttack(2.0), 0, 1) == 1.0

    def test_invalid_output_round(self):
        spec = plus_spec(RoundDistribution.point_mass(2))
        with pytest.raises(OutOfDomainError):
            acceptance_probability(spec, HONEST, 2, 4)
        with pytest.raises(OutOfDomainError):
            acceptance_probability(spec, HONEST, 2, 0)


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
            ([(1, 0.5), (2, 0.5)], GlobalAcceptance(matched), "uniform"),
            ([(1, 0.5), (2, 0.5)], GlobalAcceptance(matched),
             {1: (0.25, 0.75), 2: (0.2, 0.3, 0.5)}),
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
            w * acceptance_probability(spec, strategy, 2, ell)
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
            omega=omega, k=1, tests={1: one.tests[1], 2: two.tests[2]},
            combs={**one.combs, **two.combs}, output_round=output_round,
        )
        evaluations = (
            lambda: overall_acceptance(spec, HONEST),
            lambda: monte_carlo_run(spec, HONEST, trials=100, seed=0),
            lambda: setup.overall(HONEST),
        )
        for evaluate in evaluations:
            with pytest.raises(ContractViolationError, match=message):
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
            p_h = acceptance_probability(spec, HONEST, n, ell)
            p_d = acceptance_probability(spec, attack, n, ell)
            prod = 1.0
            for i in range(1, n + 2):
                if i == ell:
                    continue
                t, chi = traps.trap(k, n, i)
                ta = transform_round(attack, t, k)
                prod *= abs(np.vdot(t @ chi.amplitudes, ta @ chi.amplitudes)) ** 2
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
            t, chi = spec.traps.trap(k, n, i)
            u = transform_round(strategy, t, k)
            out = u @ chi.amplitudes
            total = np.kron(total, np.outer(out, out.conj()))
            effect = np.kron(effect, spec.acceptance.element(k, n, i).matrix)
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
                p_engine = acceptance_probability(spec, strategy, n, ell)
                p_literal, payload_literal = _literal_sequential_run(
                    spec, strategy, n, ell, psi, u
                )
                assert abs(p_engine - p_literal) <= 1e-10
                if p_literal > 1e-9:
                    np.testing.assert_allclose(
                        engine_payload.payload().matrix, payload_literal, atol=1e-10
                    )


class TestMonteCarlo:
    def test_perfect_traps_exact_one(self):
        spec = plus_spec(RoundDistribution.point_mass(3))
        res = monte_carlo_run(spec, HONEST, 10_000, seed=0)
        assert res.accept_rate == 1.0
        assert res.abort_rate == 0.0

    def test_attack_rate_within_three_sigma(self):
        spec = plus_spec(RoundDistribution.point_mass(2))
        res = monte_carlo_run(spec, PhaseAttack(math.pi / 2), 100_000, seed=42)
        assert abs(res.accept_rate - 0.25) <= 0.005

    def test_mixed_distribution_honest(self):
        spec = plus_spec(RoundDistribution.from_pairs([(1, 0.5), (3, 0.5)]))
        res = monte_carlo_run(spec, HONEST, 10_000, seed=3)
        assert res.accept_rate == 1.0

    def test_deterministic_per_seed(self):
        spec = plus_spec(RoundDistribution.from_pairs([(0, 0.25), (2, 0.75)]))
        a = monte_carlo_run(spec, PhaseAttack(1.1), 50_000, seed=9)
        b = monte_carlo_run(spec, PhaseAttack(1.1), 50_000, seed=9)
        assert a == b

    def test_matches_exact_within_four_sigma(self):
        trials = 100_000
        for seed, alpha in enumerate((0.4, 1.0, 2.5)):
            spec = plus_spec(RoundDistribution.from_pairs([(1, 0.3), (2, 0.4), (5, 0.3)]))
            strategy = PhaseAttack(alpha)
            exact = overall_acceptance(spec, strategy)
            res = monte_carlo_run(spec, strategy, trials, seed=seed)
            bound = 4.0 * math.sqrt(exact * (1.0 - exact) / trials) + 1e-9
            assert abs(res.accept_rate - exact) <= bound

    def test_no_test_rounds_need_no_output_round_rule(self):
        # the rule covers n = 2 only: with no tests the output round is round 1
        spec = ProtocolSpec(
            omega=RoundDistribution.from_pairs([(0, 0.5), (2, 0.5)]), k=1, traps=PlusTraps(),
            acceptance=plus_acceptance(), output_round={2: (0.2, 0.3, 0.5)},
        )
        assert output_round_weights(spec.output_round, 0).tolist() == [1.0]
        trials, strategy = 100_000, PhaseAttack(1.0)
        exact = overall_acceptance(spec, strategy)
        res = monte_carlo_run(spec, strategy, trials, seed=5)
        assert abs(res.accept_rate - exact) <= 4.0 * math.sqrt(exact * (1 - exact) / trials)

    def test_global_acceptance_mode(self):
        spec = ProtocolSpec(
            omega=RoundDistribution.point_mass(2), k=1, traps=PlusTraps(),
            acceptance=GlobalAcceptance(plus_acceptance()),
        )
        exact = overall_acceptance(spec, PhaseAttack(math.pi / 2))
        res = monte_carlo_run(spec, PhaseAttack(math.pi / 2), 50_000, seed=4)
        assert abs(res.accept_rate - exact) <= 4.0 * math.sqrt(exact * (1 - exact) / 50_000)

    def test_blocked_draws_match_one_draw(self, monkeypatch):
        spec = plus_spec(RoundDistribution.from_pairs([(0, 0.1), (3, 0.4), (7, 0.5)]))
        args = (spec, PhaseAttack(1.2), 5_000)
        whole = monte_carlo_run(*args, seed=6)
        # blocks of one or two rows: the sample spans thousands of blocks
        monkeypatch.setattr(protocol, "_MC_BLOCK_UNIFORMS", 8)
        assert repr(monte_carlo_run(*args, seed=6)) == repr(whole)

    def test_rejects_zero_trials(self):
        spec = plus_spec(RoundDistribution.point_mass(1))
        with pytest.raises(OutOfDomainError):
            monte_carlo_run(spec, HONEST, 0, seed=0)


class TestPerRoundVsGlobal:
    def test_consistency_small_instances(self):
        rng = np.random.default_rng(77)
        per_round = plus_acceptance()
        joint = GlobalAcceptance(per_round)
        for n in (1, 2, 3):
            spec_pr = plus_spec(RoundDistribution.point_mass(n))
            spec_gl = ProtocolSpec(
                omega=RoundDistribution.point_mass(n), k=1,
                traps=PlusTraps(), acceptance=joint,
            )
            alpha = float(rng.uniform(0, 2 * math.pi))
            for strategy in (HONEST, PhaseAttack(alpha)):
                for ell in range(1, n + 2):
                    assert acceptance_probability(
                        spec_pr, strategy, n, ell
                    ) == pytest.approx(
                        acceptance_probability(spec_gl, strategy, n, ell), abs=1e-10
                    )


class TestOneWalkPerN:
    def test_constant_effects_built_once(self):
        for rule in (plus_acceptance(), computational_acceptance()):
            first = rule.element(2, 3, 1)
            assert all(rule.element(2, n, i) is first for n in (3, 5) for i in range(1, n + 2))


class TestJensen:
    def test_point_mass_tight(self):
        check = jensen_gap_check(RoundDistribution.point_mass(4), 0.8)
        assert check.lhs == pytest.approx(check.rhs, abs=1e-15)
        assert check.holds

    def test_c_one_degenerate(self):
        check = jensen_gap_check(RoundDistribution.from_pairs([(1, 0.5), (3, 0.5)]), 1.0)
        assert check.lhs == 0.0
        assert check.rhs == 0.0
        assert check.holds

    def test_two_point_example(self):
        check = jensen_gap_check(RoundDistribution.from_pairs([(1, 0.5), (3, 0.5)]), 0.9)
        expected_lhs = 0.5 * (math.sqrt(1 - 0.81) + math.sqrt(1 - 0.9**6))
        assert check.lhs == pytest.approx(expected_lhs, abs=1e-12)
        assert check.rhs == pytest.approx(math.sqrt(1 - 0.9**4), abs=1e-12)
        assert check.lhs < check.rhs
        assert check.holds

    def test_rejects_bad_c(self):
        with pytest.raises(OutOfDomainError):
            jensen_gap_check(RoundDistribution.point_mass(1), 1.5)
