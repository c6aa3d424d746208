"""Relations every per-round figure satisfies, on drawn specs.

No oracle computes the expected numbers: each relation ties figures of the
engine to one another, so it still vouches for the engine when a random
stream changes. Specs are drawn with ``hypothesis`` (derandomized, bounded
examples) over the three trap families, every acceptance family, k <= 3,
and round distributions of at most 4 support points with n <= 6:

- mixture linearity: a distribution's acceptance is the weighted sum of its
  point masses' acceptances;
- periodicity: ``alpha`` and ``alpha + 2 pi`` give the same acceptance;
- reflection: ``alpha`` and ``-alpha`` give the same acceptance, except for
  ``random`` traps read by a fixed effect, where the relation needs
  conjugated traps;
- blindness: computational traps under computational acceptance accept every
  strategy, an honest run under matched acceptance accepts with 1, and for
  identity traps PRE equals POST;
- the linear gap bound ``|p_H - p_D| <= N |sin(alpha/2)|``, N the mean;
- the per-round gap bound ``|p_H - p_D| <= sqrt(1 - cos(alpha/2)^(2N))``;
- broadcast: a constant rule written as ``n + 1`` equal rows gives the tables
  and sampled rates of its one-row form, bit for bit;
- two engines: the per-round table equals the comb view's
  (``round_outcome_table_via_combs``) in every cell, on specs with k·n <= 6
  and a uniform or drawn per-n output rule;
- the sampler: the honest run's and an attack's sampled rates, drawn together,
  each lie within 5 binomial sigma of the exact acceptance, under a uniform or
  drawn per-n output rule;
- the theorem: at the prescribed angle, under both models and a drawn
  placement, the report is ``satisfied`` and every proof step holds; a mean
  below the regime's floor (4/9 stand-alone, 1/4 composable) raises
  ``OutOfDomainError``; at a drawn angle, every step of the derivation but
  the last (``theorem_bound``, which needs the prescribed angle) holds.

The network engine is drawn from ``random_comb_draw`` seeds and from
``custom`` setups (k = 1, width <= 3, at most 3 holes):

- mixture linearity: a ``GeneralSetup``'s acceptance is the weighted sum of
  its point masses' acceptances;
- a permutation tooth followed by its inverse, the hole between them
  following its register, leaves acceptance unchanged;
- a channel tooth at strength 0 leaves acceptance unchanged (and sends a
  pure test through the density path);
- relabelling every register consistently (hole registers, permutation
  teeth, channel qubits, and the test state and effect) leaves acceptance
  unchanged;
- the theorem: at the prescribed angle, under both models, the report is
  ``satisfied`` and every proof step holds; a mean below the regime's floor
  raises ``OutOfDomainError``; at a drawn angle, every step but
  ``theorem_bound`` holds. Bell setups with N <= 4 are checked too.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cutchoose import parse_config
from cutchoose.bounds import ProtocolVariant, SecurityModel, acceptance_gap_bound, run_tradeoff_check
from cutchoose.combs import (
    NOISE_CHANNELS,
    Comb,
    GeneralSetup,
    GeneralTest,
    Tooth,
    bell_test_setup,
    custom_test_setup,
    general_test_acceptance,
    general_tradeoff_check,
    register_permutation_unitary,
)
from cutchoose.errors import OutOfDomainError
from cutchoose.families import ACCEPTANCE_FAMILIES, TRAP_FAMILIES
from cutchoose.linalg import DensityOperator, PureState, dagger
from cutchoose.protocol import (
    PerRoundAcceptance,
    ProtocolSpec,
    RoundDistribution,
    monte_carlo_run,
    overall_acceptance,
    round_outcome_table,
)
from cutchoose.reference import random_comb_draw, round_outcome_table_via_combs
from cutchoose.states import PovmElement, RankOneEffect
from cutchoose.strategies import HONEST, PhaseAttack, Placement
from law import within_sigmas

TOL = 1e-12
RELATIONS = settings(derandomize=True, deadline=None, max_examples=100)


def weights_of(draw, size):
    """``size`` drawn weights in [0.05, 1], normalised."""
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
    total = math.fsum(weights)
    return [w / total for w in weights]


@st.composite
def specs(draw, joint_cap=None):
    """``(trap family, acceptance family, spec)``. With ``joint_cap``, k is
    drawn so that k·n <= ``joint_cap`` on the support, and the output rule is
    ``"uniform"`` or a drawn distribution per n."""
    family = draw(st.sampled_from(sorted(TRAP_FAMILIES)))
    params = {"seed": draw(st.integers(0, 2**16))} if family == "random" else {}
    traps = TRAP_FAMILIES[family](**params)
    rule_name = draw(st.sampled_from(sorted(ACCEPTANCE_FAMILIES)))
    ns = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True))
    omega = RoundDistribution.from_pairs(zip(ns, weights_of(draw, len(ns))))
    rule = ACCEPTANCE_FAMILIES[rule_name](traps)
    if joint_cap is None:
        return family, rule_name, ProtocolSpec(omega, draw(st.integers(1, 3)), traps, rule)
    k = draw(st.integers(1, min(3, joint_cap // max(max(ns), 1))))
    output_round = "uniform"
    if draw(st.booleans()):
        output_round = {n: tuple(weights_of(draw, n + 1)) for n in ns if n}
    return family, rule_name, ProtocolSpec(omega, k, traps, rule, output_round)


angles = st.floats(-2.0 * math.pi, 2.0 * math.pi, allow_nan=False)
nontrivial_angles = angles.filter(lambda a: abs(math.sin(a / 2.0)) > 1e-9)
placements = st.sampled_from(list(Placement))


def point_mass(spec, n):
    return ProtocolSpec(RoundDistribution.point_mass(n), spec.k, spec.traps, spec.acceptance)


@RELATIONS
@given(specs(), angles, placements)
def test_mixture_is_linear(drawn, alpha, placement):
    _, _, spec = drawn
    for strategy in (HONEST, PhaseAttack(alpha, placement)):
        mixed = sum(w * overall_acceptance(point_mass(spec, n), strategy)
                    for n, w in spec.omega.support)
        assert abs(overall_acceptance(spec, strategy) - mixed) <= TOL


@RELATIONS
@given(specs(), angles, placements)
def test_attack_angle_is_periodic(drawn, alpha, placement):
    _, _, spec = drawn
    assert abs(overall_acceptance(spec, PhaseAttack(alpha, placement))
               - overall_acceptance(spec, PhaseAttack(alpha + 2.0 * math.pi, placement))) <= TOL


@RELATIONS
@given(specs(), angles, placements)
def test_attack_angle_reflects(drawn, alpha, placement):
    family, rule_name, spec = drawn
    if family == "random" and rule_name != "matched":
        return  # a fixed effect on random traps: -alpha needs conjugated traps
    assert abs(overall_acceptance(spec, PhaseAttack(alpha, placement))
               - overall_acceptance(spec, PhaseAttack(-alpha, placement))) <= TOL


@RELATIONS
@given(specs(), angles)
def test_blind_spots(drawn, alpha):
    family, rule_name, spec = drawn
    post, pre = (overall_acceptance(spec, PhaseAttack(alpha, p)) for p in Placement)
    if family == "computational" and rule_name == "computational":
        assert abs(post - 1.0) <= TOL and abs(pre - 1.0) <= TOL
    if rule_name == "matched":
        assert abs(overall_acceptance(spec, HONEST) - 1.0) <= TOL
    if family != "random":  # identity traps: the input is the honest output
        assert abs(pre - post) <= TOL


@RELATIONS
@given(specs(), angles, placements)
def test_linear_gap_bound(drawn, alpha, placement):
    _, _, spec = drawn
    gap = abs(overall_acceptance(spec, HONEST)
              - overall_acceptance(spec, PhaseAttack(alpha, placement)))
    assert gap <= spec.omega.mean * abs(math.sin(alpha / 2.0)) + TOL


@RELATIONS
@given(specs(), angles, placements)
def test_per_round_gap_bound(drawn, alpha, placement):
    _, _, spec = drawn
    gap = abs(overall_acceptance(spec, HONEST)
              - overall_acceptance(spec, PhaseAttack(alpha, placement)))
    assert gap <= acceptance_gap_bound(ProtocolVariant.PER_ROUND, alpha, spec.omega.mean) + TOL


@RELATIONS
@given(specs(), angles, placements, st.integers(0, 2**16))
def test_constant_rule_broadcasts(drawn, alpha, placement, seed):
    # one row broadcast to n + 1 rounds (random traps) or kept as one round
    # (identity traps), against the same row written n + 1 times
    _, rule_name, spec = drawn
    if rule_name == "matched":
        return  # not a constant rule
    one_row = ACCEPTANCE_FAMILIES[rule_name](spec.traps)
    rows = PerRoundAcceptance(lambda k, n: np.repeat(one_row.element(k, n), n + 1, axis=0))
    pair = [ProtocolSpec(spec.omega, spec.k, spec.traps, rule) for rule in (one_row, rows)]
    strategies = (HONEST, PhaseAttack(alpha, placement))
    for strategy in strategies:
        got, want = (round_outcome_table(s, strategy).rows for s in pair)
        assert [row.tobytes() for row in got] == [row.tobytes() for row in want]
    assert monte_carlo_run(pair[0], strategies, 200, seed) == monte_carlo_run(pair[1], strategies, 200, seed)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(specs(joint_cap=6), angles, placements)
def test_engines_agree_in_every_cell(drawn, alpha, placement):
    # k·n <= 6: the comb view's joint test has at most 64 dims
    _, _, spec = drawn
    for strategy in (HONEST, PhaseAttack(alpha, placement)):
        direct = round_outcome_table(spec, strategy)
        via = round_outcome_table_via_combs(spec, strategy)
        for row, via_row in zip(direct.rows, via.rows, strict=True):
            assert row.shape == via_row.shape and np.abs(row - via_row).max() <= TOL


@RELATIONS
@given(specs(joint_cap=18), angles, placements, st.integers(0, 2**16))
def test_sampled_rates_lie_near_exact(drawn, alpha, placement, seed):
    # k <= 3 for every n <= 6, so the output rule is "uniform" or drawn per n
    _, _, spec = drawn
    strategies = (HONEST, PhaseAttack(alpha, placement))
    for strategy, sampled in zip(strategies, monte_carlo_run(spec, strategies, 2000, seed)):
        exact = overall_acceptance(spec, strategy)
        assert within_sigmas(sampled, exact, 2000), (strategy, sampled, exact)


def check_theorem(check, mean, floors):
    """Both models' reports at the prescribed angle, ``check(model)``, are
    ``satisfied`` with every proof step holding; below a model's mean floor
    the check raises ``OutOfDomainError`` and no other error."""
    for model, floor in floors.items():
        if mean < floor:
            with pytest.raises(OutOfDomainError):
                check(model)
            continue
        report = check(model)
        assert report.satisfied and not report.trivial_attack, report
        assert all(step.holds for step in report.proof_steps), report.proof_steps


# the smallest mean for which the prescribed sine, sqrt(4/(9N)) stand-alone or
# 1/(2 sqrt N) composable, is at most 1
PER_ROUND_FLOORS = {SecurityModel.STAND_ALONE: 4.0 / 9.0, SecurityModel.COMPOSABLE: 0.25}


def plus_traps_at_mean(mean):
    """``specs()``'s draw for plus traps and effects, k = 1, with mean ``mean`` < 1."""
    omega = RoundDistribution.from_pairs([(0, 1.0 - mean), (1, mean)])
    return "plus", "plus", ProtocolSpec(omega, 1, TRAP_FAMILIES["plus"](),
                                        ACCEPTANCE_FAMILIES["plus"](None))


@RELATIONS
@given(specs(), placements)
# means between the two floors and below both, which the drawn examples miss
@example(plus_traps_at_mean(0.3), Placement.PRE)
@example(plus_traps_at_mean(0.2), Placement.POST)
def test_theorem_on_drawn_protocols(drawn, placement):
    _, _, spec = drawn
    check_theorem(lambda model: run_tradeoff_check(spec, model, placement=placement),
                  spec.omega.mean, PER_ROUND_FLOORS)


def check_derivation(check):
    """Both models' reports at a drawn angle, ``check(model)``: not the
    trivial attack, and every proof step holds but ``theorem_bound``, the
    only one that needs the prescribed angle."""
    for model in SecurityModel:
        report = check(model)
        assert not report.trivial_attack, report
        steps = [step for step in report.proof_steps if step.name != "theorem_bound"]
        assert all(step.holds for step in steps), (model, steps)


# Angles that nontrivial_angles' draws miss. There 1 - |<psi|A psi>|^2 cancels
# if taken by subtraction: a plus point mass of 3 at 1e-6 gave the composable
# eps_d 4.998e-7 against p_d |sin(alpha/2)| = 5e-7, and random_comb_draw(0) at
# 1e-8, PRE, gave 0.0 against 2.26e-9.
SMALL_ANGLES = (1e-6, 1e-8, 1e-12)
PLUS_POINT_MASS_3 = ("plus", "plus", point_mass(plus_traps_at_mean(0.5)[2], 3))


@RELATIONS
@given(specs(), nontrivial_angles, placements)
@example(PLUS_POINT_MASS_3, SMALL_ANGLES[0], Placement.POST)
@example(PLUS_POINT_MASS_3, SMALL_ANGLES[0], Placement.PRE)
@example(PLUS_POINT_MASS_3, SMALL_ANGLES[1], Placement.POST)
@example(PLUS_POINT_MASS_3, SMALL_ANGLES[1], Placement.PRE)
@example(PLUS_POINT_MASS_3, SMALL_ANGLES[2], Placement.POST)
@example(PLUS_POINT_MASS_3, SMALL_ANGLES[2], Placement.PRE)
def test_derivation_holds_at_any_angle(drawn, alpha, placement):
    _, _, spec = drawn

    def check(model):
        return run_tradeoff_check(spec, model, alpha_override=alpha, placement=placement)

    if spec.omega.mean > 0.0:
        check_derivation(check)
        return
    for model in SecurityModel:  # the bound needs N > 0
        with pytest.raises(OutOfDomainError):
            check(model)


NETWORKS = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def custom_setups(draw):
    """A ``custom`` setup with random unitaries, parsed from its config."""
    width = draw(st.integers(1, 3))
    y_qubits = draw(st.integers(0, 1))
    n = draw(st.integers(1, 3))

    def tooth():
        doc = {}
        if width > 1 and draw(st.booleans()):
            doc["permute"] = [p + 1 for p in draw(st.permutations(range(width)))]
        if draw(st.booleans()):
            doc.update(channel=draw(st.sampled_from(sorted(NOISE_CHANNELS))),
                       register=draw(st.integers(1, width)), strength=draw(st.floats(0.0, 1.0)))
        return doc or None

    states = ["plus", "zero"] + (["bell-pairs"] if y_qubits == width else [])
    cfg = parse_config(json.dumps({
        "protocol": {"omega": {"point_mass": n}, "k": 1,
                     "traps": {"family": "plus"}, "acceptance": {"family": "plus"}},
        "strategy": {"kind": "phase-attack", "alpha": "theorem-optimal"},
        "models": ["composable"],
        "variant": {"kind": "general-tests", "setup": {
            "family": "custom", "width": width, "y_qubits": y_qubits,
            "hole_registers": draw(st.lists(st.integers(1, width), min_size=n, max_size=n)),
            "teeth": [tooth() for _ in range(n + 1)],
            "state": draw(st.sampled_from(states)),
            "unitaries": "random", "unitary_seed": draw(st.integers(0, 2**16)),
        }},
    }))
    return custom_test_setup(cfg.canonical()["variant"]["setup"])


def network_cases(setup, strategy):
    """``(test, comb, acceptance)`` for every (n, output round) of ``setup``."""
    for (n, _), comb in setup.combs.items():
        test = setup.tests[n]
        yield test, comb, general_test_acceptance(test, comb, strategy)


def with_teeth(comb, teeth, hole_registers=None):
    return Comb(comb.n_holes, comb.k, comb.width, comb.y_dim,
                comb.hole_registers if hole_registers is None else hole_registers, teeth)


PLAIN = Tooth(None, None, None, None)


def around_hole(comb, hole, sigma):
    """``comb`` with the permutation tooth ``sigma`` after the tooth before
    hole ``hole`` (0-based) and its inverse before the tooth after it; the
    hole follows its register to slot ``inverse[r]``. A tooth permutes, then
    applies its channel, so ``sigma`` is folded into the first tooth's
    permutation and its channel follows its qubit."""
    k, sigma, inverse = comb.k, tuple(sigma), tuple(int(j) for j in np.argsort(sigma))
    before, after = (comb.teeth[gap] or PLAIN for gap in (hole, hole + 1))
    teeth = list(comb.teeth)
    teeth[hole] = before._replace(
        permutation=sigma if before.permutation is None else tuple(before.permutation[j] for j in sigma),
        qubit=None if before.qubit is None else inverse[before.qubit // k] * k + before.qubit % k)
    teeth[hole + 1] = after._replace(
        permutation=inverse if after.permutation is None else tuple(inverse[j] for j in after.permutation))
    registers = list(comb.hole_registers)
    registers[hole] = inverse[registers[hole]]
    return with_teeth(comb, tuple(teeth), tuple(registers))


def silent_channel(comb, gap, name, qubit):
    """``comb`` with a ``name`` channel of strength 0 on ``qubit`` in gap
    ``gap``, or None if that tooth already has a channel."""
    tooth = comb.teeth[gap] or PLAIN
    if tooth.channel is not None:
        return None
    teeth = list(comb.teeth)
    teeth[gap] = tooth._replace(channel=name, qubit=qubit, strength=0.0)
    return with_teeth(comb, tuple(teeth))


def relabelled(test, comb, pi):
    """``test`` and ``comb`` with register ``r`` renamed ``pi[r]`` throughout:
    the hole registers, each permutation tooth ``p -> pi∘p∘pi⁻¹``, each channel
    qubit, and the test state and effect, conjugated by the register
    permutation ⊗ 1 on the kept space."""
    k, pi, inverse = comb.k, tuple(pi), tuple(int(j) for j in np.argsort(pi))

    def tooth(t):
        if t is None:
            return None
        return t._replace(
            permutation=None if t.permutation is None
            else tuple(pi[t.permutation[inverse[j]]] for j in range(comb.width)),
            qubit=None if t.qubit is None else pi[t.qubit // k] * k + t.qubit % k)

    moved = Comb(comb.n_holes, k, comb.width, comb.y_dim,
                 tuple(pi[r] for r in comb.hole_registers), tuple(map(tooth, comb.teeth)))
    # slot pi[r] of the output holds input register r
    u = np.kron(register_permutation_unitary(inverse, comb.width, k), np.eye(comb.y_dim))
    chi = test.chi
    chi = (PureState(u @ chi.amplitudes) if isinstance(chi, PureState)
           else DensityOperator(u @ chi.matrix @ dagger(u)))
    m = test.measurement
    m = (RankOneEffect(PureState(u @ m.vector.amplitudes)) if isinstance(m, RankOneEffect)
         else PovmElement(u @ m.matrix @ dagger(u)))
    return GeneralTest(chi, test.unitaries, m), moved


networks = st.one_of(st.integers(0, 2**16).map(lambda seed: random_comb_draw(seed).setup),
                     custom_setups())


@NETWORKS
@given(st.integers(0, 2**16))
def test_general_mixture_is_linear(seed):
    draw = random_comb_draw(seed)
    setup = draw.setup
    for strategy in (HONEST, PhaseAttack(draw.alpha, draw.placement)):
        mixed = 0.0
        for n, w in setup.omega.support:
            keep = [(n, ell) for ell in range(1, n + 2)] if n else []
            part = GeneralSetup(RoundDistribution.point_mass(n),
                                {n: setup.tests[n]} if n else {},
                                {key: setup.combs[key] for key in keep},
                                {n: setup.output_round[n]} if n else "uniform")
            mixed += w * part.outcome_table(strategy).acceptance
        assert abs(setup.outcome_table(strategy).acceptance - mixed) <= TOL


@NETWORKS
@given(networks, st.data(), angles, placements)
def test_permutation_then_inverse_is_invisible(setup, data, alpha, placement):
    for strategy in (HONEST, PhaseAttack(alpha, placement)):
        for test, comb, value in network_cases(setup, strategy):
            hole = data.draw(st.integers(0, comb.n_holes - 1))
            sigma = data.draw(st.permutations(range(comb.width)))
            moved = around_hole(comb, hole, sigma)
            assert abs(general_test_acceptance(test, moved, strategy) - value) <= TOL


@NETWORKS
@given(networks, st.data(), angles, placements)
def test_channel_at_strength_zero_is_invisible(setup, data, alpha, placement):
    for strategy in (HONEST, PhaseAttack(alpha, placement)):
        for test, comb, value in network_cases(setup, strategy):
            quiet = silent_channel(comb, data.draw(st.integers(0, comb.n_holes)),
                                   data.draw(st.sampled_from(sorted(NOISE_CHANNELS))),
                                   data.draw(st.integers(0, comb.width * comb.k - 1)))
            if quiet is not None:
                assert abs(general_test_acceptance(test, quiet, strategy) - value) <= TOL


@NETWORKS
@given(networks, st.data(), angles, placements)
def test_relabelling_the_registers_is_invisible(setup, data, alpha, placement):
    for strategy in (HONEST, PhaseAttack(alpha, placement)):
        for test, comb, value in network_cases(setup, strategy):
            moved = relabelled(test, comb, data.draw(st.permutations(range(comb.width))))
            assert abs(general_test_acceptance(*moved, strategy) - value) <= TOL


# the smallest mean for which the prescribed sine, 2/(3N) stand-alone or
# 1/(2N) composable, is at most 1
GENERAL_FLOORS = {SecurityModel.STAND_ALONE: 2.0 / 3.0, SecurityModel.COMPOSABLE: 0.5}


def check_general_theorem(setup, placement):
    """:func:`check_theorem` on a network setup's general-test reports."""
    check_theorem(lambda model: general_tradeoff_check(model, setup, placement=placement),
                  setup.omega.mean, GENERAL_FLOORS)


def test_theorem_on_random_networks():
    means = []
    for seed in range(40):
        draw = random_comb_draw(seed)
        means.append(draw.setup.omega.mean)
        check_general_theorem(draw.setup, draw.placement)
    # the seeds reach below both floors as well as above them
    assert min(means) < GENERAL_FLOORS[SecurityModel.COMPOSABLE] and max(means) > 1.0


@NETWORKS
@given(custom_setups(), placements)
def test_theorem_on_custom_networks(setup, placement):
    check_general_theorem(setup, placement)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_theorem_on_bell_setups(n):
    for placement in Placement:
        check_general_theorem(bell_test_setup(n), placement)


def check_general_derivation(setup, alpha, placement):
    """:func:`check_derivation` on a network setup's general-test reports."""
    check_derivation(lambda model: general_tradeoff_check(
        model, setup, alpha_override=alpha, placement=placement))


@settings(derandomize=True, deadline=None, max_examples=1)
@given(st.data())
def test_derivation_on_random_networks_at_any_angle(data):
    for seed in range(40):
        check_general_derivation(random_comb_draw(seed).setup, data.draw(nontrivial_angles),
                                 data.draw(placements))


@pytest.mark.parametrize("placement", list(Placement))
@pytest.mark.parametrize("alpha", SMALL_ANGLES)
def test_derivation_on_a_random_network_at_small_angles(alpha, placement):
    check_general_derivation(random_comb_draw(0).setup, alpha, placement)


@NETWORKS
@given(custom_setups(), nontrivial_angles, placements)
def test_derivation_on_custom_networks_at_any_angle(setup, alpha, placement):
    check_general_derivation(setup, alpha, placement)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
@settings(derandomize=True, deadline=None, max_examples=2)
@given(nontrivial_angles)
def test_derivation_on_bell_setups_at_any_angle(n, alpha):
    for placement in Placement:
        check_general_derivation(bell_test_setup(n), alpha, placement)
