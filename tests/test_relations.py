"""Relations every per-round figure satisfies, on drawn specs.

No oracle computes the expected numbers: each relation ties figures of the
engine to one another, so it still vouches for the engine when a random
stream changes. Specs are drawn with ``hypothesis`` (derandomized, bounded
examples) over the three trap families, every acceptance family and mode,
k <= 3, and round distributions of at most 4 support points with n <= 6:

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
- the per-round gap bound ``|p_H - p_D| <= sqrt(1 - cos(alpha/2)^(2N))``.
"""

import math

from hypothesis import given, settings, strategies as st

from cutchoose.bounds import acceptance_gap_bound
from cutchoose.families import ACCEPTANCE_FAMILIES, ACCEPTANCE_MODES, TRAP_FAMILIES
from cutchoose.protocol import ProtocolSpec, RoundDistribution, overall_acceptance
from cutchoose.strategies import HONEST, PhaseAttack, Placement, ProtocolVariant

TOL = 1e-12
RELATIONS = settings(derandomize=True, deadline=None, max_examples=100)


@st.composite
def specs(draw):
    """``(trap family, acceptance family, spec)``."""
    family = draw(st.sampled_from(sorted(TRAP_FAMILIES)))
    params = {"seed": draw(st.integers(0, 2**16))} if family == "random" else {}
    traps = TRAP_FAMILIES[family](**params)
    rule_name = draw(st.sampled_from(sorted(ACCEPTANCE_FAMILIES)))
    mode = draw(st.sampled_from(sorted(ACCEPTANCE_MODES)))
    ns = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(ns), max_size=len(ns)))
    total = math.fsum(weights)
    omega = RoundDistribution.from_pairs((n, w / total) for n, w in zip(ns, weights))
    rule = ACCEPTANCE_MODES[mode](ACCEPTANCE_FAMILIES[rule_name](traps))
    return family, rule_name, ProtocolSpec(omega, draw(st.integers(1, 3)), traps, rule)


angles = st.floats(-2.0 * math.pi, 2.0 * math.pi, allow_nan=False)
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
