import itertools
import math

import numpy as np
import pytest

from cutchoose.bounds import (
    PROOF_STEP_NAMES,
    epsilon_d_composable,
    epsilon_d_standalone,
    epsilon_h,
    run_tradeoff_check,
    theorem_bound,
)
from cutchoose.combs import bell_test_setup, general_tradeoff_check
from cutchoose.errors import ContractViolationError, OutOfDomainError
from cutchoose.families import (
    ComputationalTraps,
    PlusTraps,
    RandomTraps,
    computational_acceptance,
    plus_acceptance,
)
from cutchoose.linalg import DensityOperator
from cutchoose.protocol import (
    ProtocolSpec,
    RoundDistribution,
    client_output_state,
)
from cutchoose import reference
from cutchoose.reference import (
    epsilon_d_composable_grid,
    epsilon_d_standalone_grid,
    random_density,
    random_pure_state,
    refine,
    scan_unit_interval,
)
from cutchoose.states import (
    AbortExtendedState,
    attack_operator,
    computational_basis_state,
    plus_state,
)
from cutchoose.strategies import (
    HONEST,
    PhaseAttack,
    Placement,
    ProtocolVariant,
    SecurityModel,
    attack_sine,
)
from dense_rounds import played, squared_overlap


def attacked_output(alpha, p_accept, k=1):
    psi = plus_state(k)
    a = attack_operator(alpha, k)
    payload = DensityOperator(np.outer(a @ psi.amplitudes, (a @ psi.amplitudes).conj()))
    return AbortExtendedState(p_accept, payload)


def plus_spec(n, k=1):
    return ProtocolSpec(
        omega=RoundDistribution.point_mass(n), k=k,
        traps=PlusTraps(), acceptance=plus_acceptance(),
    )


class TestEpsilonH:
    def test_perfect_run_both_models(self):
        target = plus_state(1).density()
        rho = AbortExtendedState(1.0, target)
        for model in SecurityModel:
            assert epsilon_h(rho, target, model) == pytest.approx(0.0, abs=1e-12)

    def test_partial_acceptance(self):
        target = plus_state(1).density()
        rho = AbortExtendedState(0.9, target)
        for model in SecurityModel:
            assert epsilon_h(rho, target, model) == pytest.approx(0.1, abs=1e-10)

    def test_orthogonal_payload(self):
        target = computational_basis_state(1).density()
        rho = AbortExtendedState(1.0, computational_basis_state(1, index=1).density())
        for model in SecurityModel:
            assert epsilon_h(rho, target, model) == pytest.approx(1.0, abs=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(ContractViolationError):
            epsilon_h(AbortExtendedState(1.0, plus_state(2).density()),
                      plus_state(1).density(), SecurityModel.STAND_ALONE)


class TestEpsilonDStandAlone:
    def test_attacked_output_closed_form(self):
        for alpha in (0.3, 1.1, 2.7):
            for p in (0.2, 0.7, 1.0):
                rho = attacked_output(alpha, p)
                assert epsilon_d_standalone(rho, plus_state(1).density()) == pytest.approx(
                    p * math.sin(alpha / 2) ** 2, abs=1e-10
                )

    def test_zero_for_exact_mixture(self):
        target = plus_state(1).density()
        for p in (0.0, 0.3, 1.0):
            rho = AbortExtendedState(p, target)
            assert epsilon_d_standalone(rho, target) == pytest.approx(0.0, abs=1e-12)

    def test_always_abort(self):
        rho = AbortExtendedState(0.0, plus_state(1).density())
        assert epsilon_d_standalone(rho, computational_basis_state(1).density()) == 0.0

    def test_grid_agreement(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            k = int(rng.integers(1, 3))
            payload = random_density(2**k, rng)
            target = random_density(2**k, rng)
            rho = AbortExtendedState(float(rng.uniform(0, 1)), payload)
            closed = epsilon_d_standalone(rho, target)
            grid = epsilon_d_standalone_grid(rho, target)
            assert abs(closed - grid) <= 1e-6


class TestEpsilonDComposable:
    def test_attacked_output_closed_form(self):
        for alpha in (0.4, 1.3, 3.0):
            for p in (0.25, 0.8, 1.0):
                rho = attacked_output(alpha, p)
                assert epsilon_d_composable(rho, plus_state(1).density()) == pytest.approx(
                    p * abs(math.sin(alpha / 2)), abs=1e-10
                )

    def test_zero_for_exact_mixture(self):
        target = plus_state(1).density()
        rho = AbortExtendedState(0.3, target)
        assert epsilon_d_composable(rho, target) == pytest.approx(0.0, abs=1e-10)

    def test_trivial_attack(self):
        for p in (0.1, 0.6, 1.0):
            rho = attacked_output(0.0, p)
            assert epsilon_d_composable(rho, plus_state(1).density()) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_mixed_payload_closed_form(self):
        rng = np.random.default_rng(19)
        payload = random_density(2, rng, rank=2)
        m = payload.matrix
        assert np.trace(m @ m).real < 1.0 - 1e-9  # mixed
        target = plus_state(1).density()
        rho = AbortExtendedState(0.65, payload)
        got = epsilon_d_composable(rho, target)
        # block split of the trace distance, minimized at p = accept weight
        from cutchoose.linalg import trace_norm

        expected = 0.65 * 0.5 * trace_norm(payload.matrix - target.matrix)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_grid_agreement_pure(self):
        rng = np.random.default_rng(23)
        cases = [
            (random_pure_state(2, rng).density(), random_pure_state(2, rng).density())
            for _ in range(8)
        ]
        # the closed form holds for mixed payloads and targets as well
        cases += [
            (random_density(d, rng), random_density(d, rng)) for d in (2, 4) for _ in range(10)
        ]
        for payload, target in cases:
            rho = AbortExtendedState(float(rng.uniform(0, 1)), payload)
            assert abs(
                epsilon_d_composable(rho, target) - epsilon_d_composable_grid(rho, target)
            ) <= 1e-6


class TestMaxIdentity:
    def test_grid_max_matches_closed_form(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            a, b = rng.uniform(0, 1, size=2)
            _, best = scan_unit_interval(
                lambda ps: (np.sqrt(ps) * a + np.sqrt(1 - ps) * b) ** 2, minimize=False
            )
            assert abs(best - (a * a + b * b)) <= 1e-6


class TestLockstepOptimizer:
    @staticmethod
    def _objective(centers):
        # a different unimodal function per bracket (one row of probes each),
        # flat to the right of its centre
        c = np.reshape(centers, (-1, 1))
        return lambda x: np.abs(x - c) ** 1.5 + np.where(x > c, 0.0, 0.25 * (c - x))

    @pytest.mark.parametrize("minimize", [True, False])
    def test_each_bracket_follows_its_one_bracket_call(self, minimize):
        rng = np.random.default_rng(31)
        # widths from 1e-11 to 1: the brackets take 1 to 10 rounds
        lo = rng.uniform(-1.0, 1.0, size=24)
        hi = lo + np.logspace(-11, 0, 24)
        centers = rng.uniform(lo, hi)
        sign = 1.0 if minimize else -1.0
        f = self._objective(centers)
        xs, vs = refine(lambda x: sign * f(x), lo, hi, minimize=minimize)
        for j in range(24):
            one = self._objective(centers[j])
            x, v = refine(lambda t: sign * one(t), lo[j], hi[j], minimize=minimize)
            assert (xs[j], vs[j]) == (x, v)
            assert abs(x - centers[j]) <= 1e-12

    def test_scalar_bracket_returns_floats(self):
        x, v = refine(lambda t: (t - 0.3) ** 2, 0.0, 1.0)
        assert type(x) is float and type(v) is float
        assert abs(x - 0.3) <= 1e-12

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, math.nan), (-math.inf, 1.0), ([0.0, 0.6], [1.0, 0.5])])
    def test_rejects_reversed_or_non_finite_brackets(self, a, b):
        with pytest.raises(OutOfDomainError, match="refine brackets must be finite with lo <= hi"):
            refine(lambda t: (t - 0.3) ** 2, a, b)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
    def test_rejects_a_tol_that_is_not_finite_and_positive(self, tol):
        with pytest.raises(OutOfDomainError, match="refine tol must be finite and > 0"):
            refine(lambda t: (t - 0.3) ** 2, 0.0, 1.0, tol=tol)

    def test_a_bracket_whose_float_spacing_exceeds_tol_ends(self):
        # floats near 1e6 are 1.2e-10 apart, above tol = 1e-12: the bracket
        # stops narrowing but ends after its counted rounds. The other bracket
        # still follows its one-bracket call.
        centers = np.array([[1e6 + 0.3], [0.3]])
        xs, vs = refine(lambda t: (t - centers) ** 2, [1e6, 0.0], [1e6 + 1.0, 1.0])
        assert abs(xs[0] - centers[0, 0]) <= 1e-9
        assert (xs[1], vs[1]) == refine(lambda t: (t - 0.3) ** 2, 0.0, 1.0)
        x, _ = refine(lambda t: (t - centers[0, 0]) ** 2, 1e6, 1e6 + 1.0)
        assert x == xs[0]

    def test_rejects_a_non_finite_value_inside_a_bracket(self):
        # the third of the 33 probes of [0, 1] is 1/16
        with pytest.raises(OutOfDomainError, match=r"^objective is not finite at grid point 0\.0625$"):
            refine(lambda t: np.where(t == 0.0625, np.nan, (t - 0.3) ** 2), 0.0, 1.0)
        # a later round: the zoom on 0.3 probes 0.30078125 in its second round
        with pytest.raises(OutOfDomainError, match=r"at grid point 0\.30078125$"):
            refine(lambda t: np.where(t == 0.30078125, np.inf, (t - 0.3) ** 2), [0.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize("first, rest", [(3, 1), (1, 3)])
    def test_scan_rejects_objectives_whose_count_changes(self, first, rest):
        # the first grid point fixes B: 3 then 1 rows used to give the first
        # objective's optimum for all three, 1 then 3 numpy's broadcast error
        def f(ps):
            return np.abs(ps - np.linspace(0.2, 0.8, first if ps.size == 1 else rest)[:, None])

        message = rf"^objective gave shape \({rest}, 10000\), expected \({first}, 10000\)$"
        with pytest.raises(ContractViolationError, match=message):
            scan_unit_interval(f)

    def test_scan_rejects_a_non_finite_grid_value(self):
        # used to return (0.0, nan)
        with pytest.raises(OutOfDomainError, match=r"^objective is not finite at grid point 0\.0$"):
            scan_unit_interval(lambda ps: np.full(np.shape(ps), np.nan), minimize=False)
        with pytest.raises(OutOfDomainError, match=r"at grid point 0\.5$"):
            scan_unit_interval(lambda ps: np.where(ps == 0.5, np.inf, ps), minimize=True)

    def test_batched_scan_equals_the_one_objective_scans(self):
        rng = np.random.default_rng(37)
        centers = rng.uniform(0.0, 1.0, size=12)
        centers[:2] = 0.0, 1.0  # optima at both ends of the grid
        # one objective per row: (1, r) grid probes and (12, 33) refinement probes
        xs, vs = scan_unit_interval(lambda ps: np.abs(ps - centers[:, None]) ** 1.5)
        assert xs.shape == vs.shape == (12,)
        for j, c in enumerate(centers):
            (x,), (v,) = scan_unit_interval(lambda ps: np.abs(ps - c) ** 1.5)
            assert abs(xs[j] - x) <= 1e-12 and abs(vs[j] - v) <= 1e-12
            assert abs(x - c) <= 1e-6


    @pytest.mark.parametrize("minimize", [True, False])
    def test_blocks_do_not_change_the_scan(self, monkeypatch, minimize):
        rng = np.random.default_rng(43)
        centers = np.append(rng.uniform(0.0, 1.0, size=6), 0.5)[:, None]
        sign = 1.0 if minimize else -1.0
        # the last objective is flat at its optimum 0.05 on the 1,001 grid points
        # of [0.45, 0.55], across many small blocks: the first of them wins
        f = lambda ps: sign * np.maximum(np.abs(ps - centers), np.where(centers == 0.5, 0.05, 0.0))
        whole = scan_unit_interval(f, minimize=minimize)
        monkeypatch.setattr(reference, "_BLOCK_VALUES", 20)  # blocks of 2 or 3 grid points
        blocked = scan_unit_interval(f, minimize=minimize)
        assert np.array_equal(whole[0], blocked[0]) and np.array_equal(whole[1], blocked[1])
        assert 0.4499 <= blocked[0][-1] <= 0.4501 and blocked[1][-1] == sign * 0.05


class TestTheoremBound:
    def test_values(self):
        assert theorem_bound(SecurityModel.STAND_ALONE, ProtocolVariant.PER_ROUND, 10) == pytest.approx(1 / 70)
        assert theorem_bound(SecurityModel.COMPOSABLE, ProtocolVariant.PER_ROUND, 16) == pytest.approx(1 / 16)
        assert theorem_bound(SecurityModel.STAND_ALONE, ProtocolVariant.GENERAL_TESTS, 2) == pytest.approx(1 / 28)
        assert theorem_bound(SecurityModel.COMPOSABLE, ProtocolVariant.GENERAL_TESTS, 2) == pytest.approx(1 / 8)

    def test_domain(self):
        with pytest.raises(OutOfDomainError):
            theorem_bound(SecurityModel.STAND_ALONE, ProtocolVariant.PER_ROUND, 0.0)

    @pytest.mark.parametrize("n", [0, -2.5])
    def test_domain_check_is_shared_with_the_angle_choice(self, n):
        for f in (theorem_bound, attack_sine):
            with pytest.raises(OutOfDomainError) as err:
                f(SecurityModel.STAND_ALONE, ProtocolVariant.GENERAL_TESTS, n)
            assert str(err.value) == f"expected test-round count must be positive, got {n}"


class TestElementaryInequality:
    def test_bernoulli_power_floor(self):
        # (1 - x/n)^n >= 1 - x on a grid with |x| <= n
        for n in (1, 2, 5, 10, 50):
            for x in np.linspace(-n, n, 101):
                assert (1 - x / n) ** n >= 1 - x - 1e-12


class TestRunTradeoffCheck:
    def test_proof_steps_follow_the_named_order(self):
        for model in SecurityModel:
            for report in (run_tradeoff_check(plus_spec(3), model),
                           general_tradeoff_check(model, bell_test_setup(2))):
                assert [s.name for s in report.proof_steps] == list(PROOF_STEP_NAMES)

    def test_stand_alone_point_mass_ten(self):
        report = run_tradeoff_check(plus_spec(10), SecurityModel.STAND_ALONE)
        s2 = 4.0 / 90.0
        assert report.eps_h == pytest.approx(0.0, abs=1e-12)
        assert report.eps_d == pytest.approx((1 - s2) ** 10 * s2, abs=1e-9)
        assert report.bound == pytest.approx(1 / 70)
        assert report.satisfied
        assert all(s.holds for s in report.proof_steps)

    def test_blind_trap_family_still_satisfied(self):
        spec = ProtocolSpec(
            omega=RoundDistribution.point_mass(5), k=1,
            traps=ComputationalTraps(), acceptance=computational_acceptance(),
        )
        report = run_tradeoff_check(spec, SecurityModel.STAND_ALONE)
        assert report.p_d == pytest.approx(1.0, abs=1e-12)
        assert report.eps_d == pytest.approx(math.sin(report.alpha / 2) ** 2, abs=1e-10)
        assert report.satisfied

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_rejects_a_non_finite_override(self, alpha):
        with pytest.raises(OutOfDomainError, match=f"got {alpha!r}"):
            run_tradeoff_check(plus_spec(3), SecurityModel.COMPOSABLE, alpha_override=alpha)

    def test_trivial_attack_flagged(self):
        report = run_tradeoff_check(plus_spec(3), SecurityModel.STAND_ALONE, alpha_override=0.0)
        assert report.trivial_attack
        assert report.eps_d == pytest.approx(0.0, abs=1e-12)
        final = [s for s in report.proof_steps if s.name == "theorem_bound"][0]
        assert final.holds is None
        assert not report.satisfied  # sum of errors is 0, below the bound

    @pytest.mark.parametrize("alpha, trivial, holds", [(2e-12, False, False), (1e-20, True, None)])
    def test_trivial_attack_threshold(self, alpha, trivial, holds):
        # |sin(alpha/2)| = 1e-12 is a real attack, below 1e-15 it is trivial:
        # the theorem step then does not apply
        report = run_tradeoff_check(plus_spec(3), SecurityModel.COMPOSABLE, alpha_override=alpha)
        assert report.trivial_attack is trivial
        final = [s for s in report.proof_steps if s.name == "theorem_bound"][0]
        assert final.holds is holds

    def test_satisfied_matches_definition(self):
        for n in (1, 4, 20):
            for model in SecurityModel:
                report = run_tradeoff_check(plus_spec(n), model)
                assert report.satisfied == (
                    report.eps_h + report.eps_d >= report.bound - 1e-12
                )

    def test_end_to_end_sweeps(self):
        for n in (1, 2, 5, 10, 50, 200):
            sa = run_tradeoff_check(plus_spec(n), SecurityModel.STAND_ALONE)
            assert sa.eps_h + sa.eps_d >= 1.0 / (7.0 * n) - 1e-12
            co = run_tradeoff_check(plus_spec(n), SecurityModel.COMPOSABLE)
            assert co.eps_h + co.eps_d >= 1.0 / (4.0 * math.sqrt(n)) - 1e-12

    def test_security_error_decreases_with_more_tests(self):
        values = [
            run_tradeoff_check(plus_spec(n), SecurityModel.STAND_ALONE).eps_d
            for n in (1, 2, 5, 10, 50, 200)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_attacked_payload_is_client_output(self):
        # the report's overlap-based eps_d equals the dense error measure on the
        # attacked client output, for both placements and both models; a pi
        # phase on the single plus trap accepts with p_D about 5.6e-33, no payload
        dense = {
            SecurityModel.STAND_ALONE: epsilon_d_standalone,
            SecurityModel.COMPOSABLE: epsilon_d_composable,
        }
        for spec, alpha in ((plus_spec(3, k=2), None), (plus_spec(1), math.pi)):
            psi = plus_state(spec.k).density()
            for placement, (model, measure) in itertools.product(Placement, dense.items()):
                report = run_tradeoff_check(spec, model, alpha_override=alpha,
                                            placement=placement)
                out = client_output_state(
                    spec, PhaseAttack(report.alpha, placement), psi, np.eye(2**spec.k)
                )
                assert out.accept_weight == report.p_d
                assert report.eps_d == pytest.approx(measure(out, psi), abs=1e-12)
                if alpha is not None:
                    assert report.p_d < 1e-30
                    assert report.eps_d == 0.0 == measure(out, psi)

    def test_lossy_traps_honest_gap(self):
        # plus acceptance on random traps: an honest round passes only with
        # probability |<+|U chi>|^2 < 1, so the honest run has a gap
        traps = RandomTraps(seed=3)
        spec = ProtocolSpec(
            omega=RoundDistribution.point_mass(1), k=1,
            traps=traps, acceptance=plus_acceptance(),
        )
        p_h = run_tradeoff_check(spec, SecurityModel.COMPOSABLE).p_h
        # n = 1: each output round leaves the other round as the one test
        plus = plus_state(1).amplitudes
        factors = [squared_overlap(plus, u @ chi) for u, chi in (played(spec, 1, i) for i in (1, 2))]
        assert p_h == pytest.approx(sum(factors) / 2, abs=1e-12)
        psi = plus_state(1).density()
        rho_h = client_output_state(spec, HONEST, psi, np.eye(2))
        eps_h = epsilon_h(rho_h, psi, SecurityModel.COMPOSABLE)
        assert eps_h > 0.01
        assert eps_h == pytest.approx(1.0 - p_h, abs=1e-10)
