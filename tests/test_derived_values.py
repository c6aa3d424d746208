"""Inputs that pass every boundary check give a figure, not a rejection.

A boundary check validates a value handed to the engine (a state, an effect,
a unitary, a trap action, a distribution) at its named tolerance. A value the
engine derives from such inputs (a round factor, a network's acceptance, a
table's average) is clamped into [0, 1] within ``DERIVED_TOL``, the most its
checked inputs can put it outside; only ``snap_probability`` applies it. Each
input below sits just inside its boundary tolerance, on the side that pushes
an acceptance above 1.
"""

import numpy as np
import pytest

from cutchoose.combs import GeneralTest, general_test_acceptance, trivial_parallel_comb
from cutchoose.errors import ContractViolationError
from cutchoose.families import PlusTraps, matched_acceptance, plus_acceptance
from cutchoose.linalg import DERIVED_TOL, PROB_TOL
from cutchoose.protocol import (
    PerRoundAcceptance,
    ProtocolSpec,
    RoundDistribution,
    TrapGenerator,
    outcome_table,
    overall_acceptance,
    round_outcome_table,
    snap_probability,
)
from cutchoose.states import PovmElement, computational_basis_state, plus_state
from cutchoose.strategies import HONEST, PhaseAttack, Placement

I2 = np.eye(2, dtype=complex)


def test_effect_row_within_its_norm_tolerance_accepts_exactly():
    # |e| = 1 + 0.9e-12 passes NORM_TOL, so the honest factor |<e|h>|^2 is 1 + 1.8e-12
    row = plus_state(1).amplitudes[None] * (1 + 0.9e-12)
    spec = ProtocolSpec(RoundDistribution.point_mass(2), 1, PlusTraps(),
                        PerRoundAcceptance(lambda k, n: row))
    assert round_outcome_table(spec, HONEST).rows[0].tolist() == [1.0, 1.0, 1.0]
    assert overall_acceptance(spec, HONEST) == 1.0


class LongInput(TrapGenerator):
    """The identity on the plus state with inputs of norm 1 + 4e-11: unitary on
    its action within VALIDATION_TOL (``|chi|^2 - |h|^2 = 8e-11``), and so no
    Gram condition fails, but the input is not a state."""

    def action(self, k, n, e=None):
        h = np.tile(plus_state(k).amplitudes, (n + 1, 1))
        chi = (1 + 4e-11) * h
        return chi, h, chi


@pytest.mark.parametrize("strategy", [
    HONEST, PhaseAttack(0.0, Placement.POST), PhaseAttack(0.0, Placement.PRE),
], ids=["honest", "post", "pre"])
def test_trap_input_off_its_norm_is_a_boundary_error(strategy):
    # the PRE factor |<chi|chi>|^2 would read 1 + 1.6e-10; the input's norm is
    # checked where the action is received, alike for every strategy
    traps = LongInput()
    spec = ProtocolSpec(RoundDistribution.point_mass(2), 1, traps, matched_acceptance(traps))
    message = (r"^trap unitary for round \(n=2, i=1\) takes an input of norm "
               r"1\.00000000004\d*, not 1 within 1e-12$")
    with pytest.raises(ContractViolationError, match=message) as info:
        overall_acceptance(spec, strategy)
    assert info.traceback[-1].name == "receive_action"
    assert 2 not in spec._bank


@pytest.mark.parametrize("unitary, effect", [
    (I2, np.diag([1 + 0.9e-10, 0.0])),  # top eigenvalue within VALIDATION_TOL of 1
    ((1 + 4e-11) * I2, I2),  # unitary within VALIDATION_TOL; output trace 1 + 8e-11
], ids=["effect-eigenvalue", "hole-unitary"])
def test_network_inputs_within_their_checks_accept_exactly(unitary, effect):
    test = GeneralTest(computational_basis_state(1), (unitary,), PovmElement(effect))
    assert general_test_acceptance(test, trivial_parallel_comb(1), HONEST) == 1.0


def test_distributions_within_their_sum_tolerance_accept_exactly():
    # each sums to 1 + 0.9e-12, so the weighted average of all-one rows is 1 + 1.8e-12
    omega = RoundDistribution(((1, 0.5), (2, 0.5 + 0.9e-12)))
    output_round = {1: (0.5, 0.5 + 0.9e-12), 2: (0.25, 0.25, 0.5 + 0.9e-12)}
    assert outcome_table(omega, output_round, lambda n: np.ones(n + 1)).acceptance == 1.0
    spec = ProtocolSpec(omega, 1, PlusTraps(), plus_acceptance(), output_round)
    assert overall_acceptance(spec, HONEST) == 1.0


class TestSnapProbability:
    def test_clamps_within_each_allowance(self):
        assert snap_probability(1.0 + DERIVED_TOL, "p") == 1.0
        assert snap_probability(-DERIVED_TOL, "p") == 0.0
        got = snap_probability(np.array([-0.0, -PROB_TOL, 0.5, 1.0 + PROB_TOL]), "p", given=True)
        assert got.tolist() == [0.0, 0.0, 0.5, 1.0]
        assert not np.signbit(got).any()

    @pytest.mark.parametrize("p, what, given, message", [
        (1.0 + 2 * DERIVED_TOL, "p", False, r"^p = 1\.000000002\d* outside \[0, 1\]$"),
        (np.array([0.5, 1.0 + 2 * PROB_TOL]), "p(ell={})", True,
         r"^p\(ell=2\) = 1\.000000000002\d* outside \[0, 1\]$"),
        (np.array([0.5, np.nan, 2.0]), "p(ell={})", False, r"^p\(ell=2\) = nan outside \[0, 1\]$"),
        (np.array([0.5, -2 * DERIVED_TOL]), "p(ell={})", False,
         r"^p\(ell=2\) = -2\.\d*e-09 outside \[0, 1\]$"),
    ], ids=["derived-above", "given-above", "nan", "derived-below"])
    def test_names_the_first_entry_beyond_its_allowance(self, p, what, given, message):
        with pytest.raises(ContractViolationError, match=message):
            snap_probability(p, what, given=given)
