"""Security errors under both definitions and trade-off bound certification.

Two figures of merit are computed for protocol outputs on the
abort-extended space:

* correctness error: distance of the honest output from the ideal output
  (one minus fidelity, or half trace distance, by model);
* security error: residual distance of a dishonest output from the best
  mixture of ideal output and rejection.

Both security errors are computed in closed form from the block structure
(plus the ``max_p (sqrt(p) a + sqrt(1-p) b)^2 = a^2 + b^2`` identity for
fidelity and the triangle inequality for trace distance). An independent
grid search over the mixing weight (``reference``'s ``epsilon_d_*_grid``) is
the reference; tests require agreement to 1e-6. Trade-off checks run the
honest and attacked protocol, evaluate every intermediate inequality of the
bound derivation, and report pass/fail per step.

In a trade-off check every payload is pure, so :func:`certify_tradeoff`
reads the errors off the acceptance probabilities and one overlap of
``2**k`` vectors. The dense functions on :class:`AbortExtendedState`
(:func:`epsilon_h`, :func:`epsilon_d_standalone`, :func:`epsilon_d_composable`
and ``reference``'s grids) are the reference the tests compare it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .linalg import DensityOperator, fidelity, fidelity_psd, trace_norm
from .protocol import (
    ProtocolSpec,
    RoundOutcomeTable,
    round_outcome_table,
)
from .states import ACCEPT_FLOOR, AbortExtendedState, attack_phases, plus_state
from .strategies import (
    HONEST,
    PhaseAttack,
    Placement,
    ProtocolVariant,
    SecurityModel,
    expected_round_count,
    optimal_alpha,
)

STEP_TOL = 1e-10  # a proof step's rounding allowance
_BOUND_TOL = 1e-12
_TRIVIAL_SINE = 1e-15  # |sin(alpha/2)| below this: the identity attack, no bound applies


def _check_dims(rho: AbortExtendedState, target: DensityOperator):
    if rho.payload_state.dim != target.dim:
        raise ContractViolationError(
            f"payload dim {rho.payload_state.dim} does not match target dim {target.dim}"
        )


def epsilon_h(rho_h: AbortExtendedState, target: DensityOperator, model: SecurityModel) -> float:
    """Correctness error of an honest-run output against the ideal output."""
    _check_dims(rho_h, target)
    ideal = AbortExtendedState(1.0, target)
    if model is SecurityModel.STAND_ALONE:
        return max(0.0, 1.0 - fidelity_psd(rho_h.matrix, ideal.matrix))
    return 0.5 * trace_norm(rho_h.matrix - ideal.matrix)


def epsilon_d_standalone(rho_d: AbortExtendedState, target: DensityOperator) -> float:
    """Security error 1 - max_p F(rho_d, p*target ⊕ (1-p)*reject), closed form.

    The two operators are block diagonal with matching blocks, so the
    fidelity splits over blocks and the maximum over p collapses to
    ``p_accept * (1 - F(payload, target))``.
    """
    _check_dims(rho_d, target)
    p_acc = rho_d.accept_weight
    payload = rho_d.payload()
    if payload is None:
        return 0.0  # choose p = 0: the all-reject mixture matches exactly
    return max(0.0, p_acc * (1.0 - fidelity(payload, target)))


def epsilon_d_composable(rho_d: AbortExtendedState, target: DensityOperator) -> float:
    """Security error min_p (1/2)||rho_d - (p*target ⊕ (1-p)*reject)||_1, closed form.

    With accept weight w and payload rho the blocks split the trace norm into
    ``||w*rho - p*target||_1 + |p - w|``, which the triangle inequality bounds
    below by ``w*||rho - target||_1`` with equality at p = w. So the minimum
    is w times the payload/target trace distance, for mixed states too.
    """
    _check_dims(rho_d, target)
    p_acc = rho_d.accept_weight
    payload = rho_d.payload()
    if payload is None:
        return 0.0
    return p_acc * 0.5 * trace_norm(payload.matrix - target.matrix)


def theorem_bound(model: SecurityModel, variant: ProtocolVariant, n_expected: float) -> float:
    """Lower bound on (correctness + security error) for the given regime."""
    n = expected_round_count(n_expected)
    if variant is ProtocolVariant.PER_ROUND:
        if model is SecurityModel.STAND_ALONE:
            return 1.0 / (7.0 * n)
        return 1.0 / (4.0 * math.sqrt(n))
    if model is SecurityModel.STAND_ALONE:
        return 1.0 / (7.0 * n * n)
    return 1.0 / (4.0 * n)


# the steps of the bound derivation, in the order certify_tradeoff emits them
PROOF_STEP_NAMES = (
    "correctness_floor",
    "security_floor",
    "sum_vs_disturbance",
    "acceptance_gap",
    "theorem_bound",
)


@dataclass(frozen=True)
class ProofStep:
    """One inequality of the bound derivation, stated as lhs >= rhs.

    ``holds`` is None when the step does not apply (trivial attack).
    """

    name: str
    lhs: float
    rhs: float
    holds: bool | None


@dataclass(frozen=True)
class TradeoffReport:
    model: SecurityModel
    variant: ProtocolVariant
    n_expected: float
    alpha: float
    p_h: float
    p_d: float
    eps_h: float
    eps_d: float
    bound: float
    satisfied: bool
    proof_steps: tuple[ProofStep, ...]
    trivial_attack: bool  # the attack is the identity: the bound says nothing
    honest_rounds: RoundOutcomeTable
    attacked_rounds: RoundOutcomeTable


def acceptance_gap_bound(variant: ProtocolVariant, alpha: float, n_expected: float) -> float:
    """Upper bound on |p_H - p_D| available to the derivation."""
    s = math.sin(alpha / 2.0)
    if variant is ProtocolVariant.PER_ROUND:
        return math.sqrt(max(0.0, 1.0 - (1.0 - s * s) ** n_expected))
    return n_expected * abs(s)


def certify_tradeoff(
    model: SecurityModel,
    variant: ProtocolVariant,
    alpha_override: float | None,
    placement: Placement,
    k: int,
    table,
) -> TradeoffReport:
    """Honest-vs-attacked certification shared by both protocol variants.

    ``table(strategy)`` builds that strategy's outcome table on ``k``-qubit
    rounds, once per strategy, honest first; ``N`` is the mean of the honest
    table's ``omega``. The attacked run uses the bound-optimal angle for
    ``(model, variant)`` unless ``alpha_override`` is given. The input is the
    uniform superposition and the target computation the identity.

    The honest payload is the target, so ``eps_h = 1 - p_h`` under both
    models. The attacked payload is the pure state ``A psi``; with
    ``c = |<psi|A psi>|^2``, ``eps_d`` is ``p_d (1 - c)`` stand-alone and
    ``p_d sqrt(1 - c)`` composable, and 0 when no payload is accepted.
    """
    honest_rounds = table(HONEST)
    n_expected = honest_rounds.omega.mean
    if alpha_override is None:
        alpha_override = optimal_alpha(model, variant, n_expected)
    attack = PhaseAttack(alpha_override, placement)  # checks and reduces the angle
    alpha = attack.alpha
    attacked_rounds = table(attack)
    p_h, p_d = honest_rounds.acceptance, attacked_rounds.acceptance

    eps_h = 1.0 - p_h
    psi = plus_state(k).amplitudes
    c = min(1.0, float(abs(np.vdot(psi, attack_phases(alpha, k) * psi))) ** 2)
    if p_d <= ACCEPT_FLOOR:
        eps_d = 0.0
    elif model is SecurityModel.STAND_ALONE:
        eps_d = p_d * (1.0 - c)
    else:
        eps_d = p_d * math.sqrt(1.0 - c)

    s = math.sin(alpha / 2.0)
    disturbance = s * s if model is SecurityModel.STAND_ALONE else abs(s)
    gap = abs(p_h - p_d)
    gap_bound = acceptance_gap_bound(variant, alpha, n_expected)
    bound = theorem_bound(model, variant, n_expected)
    trivial = abs(s) < _TRIVIAL_SINE
    total = eps_h + eps_d

    def step(name, lhs, rhs, applicable=True):
        return ProofStep(name, lhs, rhs, (lhs >= rhs - STEP_TOL) if applicable else None)

    steps = (
        step("correctness_floor", eps_h, 1.0 - p_h),
        step("security_floor", eps_d, p_d * disturbance),
        step("sum_vs_disturbance", total, disturbance * (1.0 - gap)),
        step("acceptance_gap", gap_bound, gap),
        step("theorem_bound", total, bound, applicable=not trivial),
    )
    return TradeoffReport(
        model=model,
        variant=variant,
        n_expected=n_expected,
        alpha=alpha,
        p_h=p_h,
        p_d=p_d,
        eps_h=eps_h,
        eps_d=eps_d,
        bound=bound,
        satisfied=total >= bound - _BOUND_TOL,
        proof_steps=steps,
        trivial_attack=trivial,
        honest_rounds=honest_rounds,
        attacked_rounds=attacked_rounds,
    )


def run_tradeoff_check(
    spec: ProtocolSpec,
    model: SecurityModel,
    alpha_override: float | None = None,
    placement: Placement = Placement.POST,
) -> TradeoffReport:
    """Full honest-vs-attacked evaluation of a per-round protocol instance."""
    return certify_tradeoff(
        model, ProtocolVariant.PER_ROUND, alpha_override, placement,
        spec.k, lambda strategy: round_outcome_table(spec, strategy),
    )
