"""The per-round engine on 2**k vectors against the dense reference path.

The engine reads round factors as overlaps of played trap outputs, applies
the attack as a phase vector, multiplies the per-round values of a table
row, and takes the trade-off errors from acceptance probabilities and one
overlap. Each is compared here with the dense computation it replaces:
``transform_round`` matrices, effect matrices as quadratic forms, the
joint element (the tensor product of the per-round effects) on the joint
output, and ``epsilon_h``/``epsilon_d_*`` on ``client_output_state``.
"""

import math
import tracemalloc

import numpy as np
import pytest

from cutchoose import protocol
from cutchoose.bounds import (
    SecurityModel,
    epsilon_d_composable,
    epsilon_d_standalone,
    epsilon_h,
    run_tradeoff_check,
)
from cutchoose.reference import round_outcome_table_via_combs
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
    ProtocolSpec,
    RoundDistribution,
    TrapGenerator,
    client_output_state,
    round_outcome_table,
)
from cutchoose.states import PovmElement, plus_state
from cutchoose.strategies import HONEST, PhaseAttack, Placement, transform_round
from dense_rounds import effect_row, played

TOL = 1e-12
ANGLES = (0.4, 1.9, math.pi)
TRAPS = {
    "plus": lambda: PlusTraps(),
    "computational": lambda: ComputationalTraps(),
    "random": lambda: RandomTraps(seed=21),
}
EFFECTS = {
    "plus": lambda traps: plus_acceptance(),
    "computational": lambda traps: computational_acceptance(),
    "matched": matched_acceptance,
}
DENSE_EPS_D = {
    SecurityModel.STAND_ALONE: epsilon_d_standalone,
    SecurityModel.COMPOSABLE: epsilon_d_composable,
}


def strategies(placement):
    return [HONEST] + [PhaseAttack(a, placement) for a in ANGLES]


def dense_factors(spec, strategy, n):
    """<out|E|out> with out = transform_round(strategy, T_i, k) @ chi_i."""
    k = spec.k
    values = []
    for i in range(1, n + 2):
        u, chi = played(spec, n, i)
        out = transform_round(strategy, u, k) @ chi
        e = effect_row(spec.acceptance, k, n, i)
        values.append(float(np.vdot(out, np.outer(e, e.conj()) @ out).real))
    return values


@pytest.mark.parametrize("trap_name", sorted(TRAPS))
@pytest.mark.parametrize("effect_name", sorted(EFFECTS))
@pytest.mark.parametrize("k", (1, 3, 6))
def test_round_factors_tables_and_errors_match_dense(trap_name, effect_name, k):
    traps = TRAPS[trap_name]()
    spec = ProtocolSpec(
        omega=RoundDistribution.from_pairs([(0, 0.2), (2, 0.3), (3, 0.5)]), k=k,
        traps=traps, acceptance=EFFECTS[effect_name](traps),
    )
    psi = plus_state(k).density()
    eye = np.eye(2**k)
    for placement in Placement:
        for strategy in strategies(placement):
            rows = round_outcome_table(spec, strategy).rows
            table = {(n, ell): p for (n, _), row in zip(spec.omega.support, rows)
                     for ell, p in enumerate(row, start=1)}
            for n in (2, 3):
                ref = dense_factors(spec, strategy, n)
                np.testing.assert_allclose(
                    protocol._round_factors(spec, strategy, n), ref, rtol=0, atol=TOL
                )
                for ell in range(1, n + 2):
                    expected = math.prod(f for i, f in enumerate(ref, start=1) if i != ell)
                    assert table[(n, ell)] == pytest.approx(expected, abs=TOL)
        for alpha in ANGLES:
            attack = PhaseAttack(alpha, placement)
            for model, dense_eps_d in DENSE_EPS_D.items():
                report = run_tradeoff_check(spec, model, alpha_override=alpha, placement=placement)
                rho_h = client_output_state(spec, HONEST, psi, eye)
                rho_d = client_output_state(spec, attack, psi, eye)
                assert report.eps_h == pytest.approx(epsilon_h(rho_h, psi, model), abs=TOL)
                assert report.eps_d == pytest.approx(dense_eps_d(rho_d, psi), abs=TOL)
                assert type(report.eps_h) is float and type(report.eps_d) is float


@pytest.mark.parametrize("trap_name", ("plus", "random"))
@pytest.mark.parametrize("effect_name", ("plus", "matched"))
def test_global_power_matches_dense_joint_element(trap_name, effect_name):
    for k in range(1, 9):
        for n in range(1, 8 // k + 1):
            traps = TRAPS[trap_name]()
            rule = EFFECTS[effect_name](traps)
            spec = ProtocolSpec(RoundDistribution.point_mass(n), k, traps, rule)
            for placement in Placement:
                attack = PhaseAttack(1.1, placement)
                outs, effects = [], []
                for i in range(1, n + 2):
                    u, chi = played(spec, n, i)
                    outs.append(transform_round(attack, u, k) @ chi)
                    e = effect_row(rule, k, n, i)
                    effects.append(np.outer(e, e.conj()))
                ref = []
                for ell in range(1, n + 2):
                    joint_out, joint_effect = np.ones(1), np.eye(1)
                    for i in range(n + 1):
                        if i != ell - 1:
                            joint_out = np.kron(joint_out, outs[i])
                            joint_effect = np.kron(joint_effect, effects[i])
                    ref.append(float(np.vdot(joint_out, joint_effect @ joint_out).real))
                got = round_outcome_table(spec, attack).rows
                assert [row.size for row in got] == [n + 1]
                np.testing.assert_allclose(got[0], ref, rtol=0, atol=TOL)


class BrokenTraps(TrapGenerator):
    """Identity traps on the plus state, except that round ``bad`` acts as
    the non-unitary matrix twice the identity ("matrix"), or every round's
    vectors have the dimension of ``k + 1`` qubits ("shape")."""

    def __init__(self, bad, kind):
        self.bad, self.kind = bad, kind

    def action(self, k, n, e=None):
        chi = np.tile(plus_state(k + (self.kind == "shape")).amplitudes, (n + 1, 1))
        h, g = chi.copy(), (chi if e is None else e.copy())
        if self.kind == "matrix":
            h[self.bad - 1] *= 2.0
            if e is not None:
                g[self.bad - 1] *= 2.0
        return chi, h, g


@pytest.mark.parametrize("kind, message", [
    ("matrix", r"trap unitary for round \(n=3, i=2\) is not unitary"),
    pytest.param("shape", r"trap action for n=3 has shapes \(4, 8\), \(4, 8\), \(4, 4\), "
                 r"expected \(4, 4\)", id="shape"),
])
def test_trap_errors_name_the_round(kind, message):
    spec = ProtocolSpec(
        omega=RoundDistribution.point_mass(3), k=2,
        traps=BrokenTraps(2, kind), acceptance=plus_acceptance(),
    )
    with pytest.raises(ContractViolationError, match=message):
        round_outcome_table(spec, PhaseAttack(0.5))
    with pytest.raises(ContractViolationError, match=message):
        round_outcome_table_via_combs(spec, PhaseAttack(0.5))


def test_north_star_size_stays_on_vectors(monkeypatch):
    # k = 12: one 4096 x 4096 complex matrix alone is 256 MB
    original_eye = np.eye

    def eye(n, *args, **kwargs):
        if n > 2**10:
            raise AssertionError(f"np.eye({n}) at the north-star size")
        return original_eye(n, *args, **kwargs)

    original_post_init = PovmElement.__post_init__

    def post_init(self):
        if np.shape(self.matrix)[0] > 2**10:
            raise AssertionError("PovmElement validated at the north-star size")
        original_post_init(self)

    monkeypatch.setattr(np, "eye", eye)
    monkeypatch.setattr(PovmElement, "__post_init__", post_init)
    spec = ProtocolSpec(
        omega=RoundDistribution.point_mass(200), k=12,
        traps=PlusTraps(), acceptance=plus_acceptance(),
    )
    tracemalloc.start()
    try:
        for model in SecurityModel:
            for placement in Placement:
                report = run_tradeoff_check(spec, model, placement=placement)
                assert report.satisfied
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
