"""The paper's four regimes, their security errors and the trade-off certification.

A regime is a security model crossed with a protocol variant; :data:`REGIMES`
holds each one's bound-optimal attack and its floor on ``eps_h + eps_d``.

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
reads the errors off the honest and attacked outcome tables and the attack
angle. The dense functions on :class:`AbortExtendedState` (:func:`epsilon_h`,
:func:`epsilon_d_standalone`, :func:`epsilon_d_composable` and
``reference``'s grids) are the reference the tests compare it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ContractViolationError, OutOfDomainError
from .linalg import DensityOperator, fidelity, fidelity_psd, trace_norm
from .protocol import (
    ProtocolSpec,
    RoundOutcomeTable,
    round_outcome_table,
)
from .states import ACCEPT_FLOOR, AbortExtendedState
from .strategies import HONEST, PhaseAttack, Placement


class SecurityModel(Enum):
    STAND_ALONE = "stand-alone"
    COMPOSABLE = "composable"


class ProtocolVariant(Enum):
    PER_ROUND = "per-round"
    GENERAL_TESTS = "general-tests"


# per regime, as functions of the expected test-round count N: sin(alpha/2) of
# the bound-optimal attack, and the floor on eps_h + eps_d
REGIMES = {
    (SecurityModel.STAND_ALONE, ProtocolVariant.PER_ROUND):
        (lambda n: math.sqrt(4.0 / (9.0 * n)), lambda n: 1.0 / (7.0 * n)),
    (SecurityModel.COMPOSABLE, ProtocolVariant.PER_ROUND):
        (lambda n: 1.0 / (2.0 * math.sqrt(n)), lambda n: 1.0 / (4.0 * math.sqrt(n))),
    (SecurityModel.STAND_ALONE, ProtocolVariant.GENERAL_TESTS):
        (lambda n: 2.0 / (3.0 * n), lambda n: 1.0 / (7.0 * n * n)),
    (SecurityModel.COMPOSABLE, ProtocolVariant.GENERAL_TESTS):
        (lambda n: 1.0 / (2.0 * n), lambda n: 1.0 / (4.0 * n)),
}


def expected_round_count(n_expected) -> float:
    """``N`` as a float; the prescribed angles and the bounds need a finite ``N > 0``."""
    if not (math.isfinite(n_expected) and n_expected > 0):
        raise OutOfDomainError(
            f"expected test-round count must be finite and positive, got {n_expected}")
    return float(n_expected)


def attack_sine(model: SecurityModel, variant: ProtocolVariant, n_expected: float) -> float:
    """sin(alpha/2) for the bound-optimal attack in the given regime."""
    sine, _ = REGIMES[(model, variant)]
    s = sine(expected_round_count(n_expected))
    if s > 1.0:
        raise OutOfDomainError(
            f"N={n_expected} too small for the {model.value}/{variant.value} choice "
            f"(sin(alpha/2)={s:.6g} > 1)"
        )
    return s


def optimal_alpha(model: SecurityModel, variant: ProtocolVariant, n_expected: float) -> float:
    """Bound-optimal attack angle, 2*arcsin of the prescribed sine."""
    return 2.0 * math.asin(attack_sine(model, variant, n_expected))


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
    _, floor = REGIMES[(model, variant)]
    return floor(expected_round_count(n_expected))


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

    ``holds`` is None when the step does not apply (trivial attack); the
    ``theorem_bound`` step holds iff the report is ``satisfied``.
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
        # no subtraction, which cancels at small angles; log1p(-1) is undefined
        return 1.0 if s * s >= 1.0 else math.sqrt(-math.expm1(n_expected * math.log1p(-s * s)))
    return n_expected * abs(s)


def certify_tradeoff(
    model: SecurityModel,
    variant: ProtocolVariant,
    alpha_override: float | None,
    placement: Placement,
    table,
) -> TradeoffReport:
    """The honest-vs-attacked certification shared by both protocol variants.

    ``table(strategy)`` builds that strategy's outcome table, once per
    strategy, honest first; ``N`` is the mean of the honest
    table's ``omega``. The attacked run uses the bound-optimal angle for
    ``(model, variant)`` unless ``alpha_override`` is given. The input is the
    uniform superposition and the target computation the identity.

    The honest payload is the target, so ``eps_h = 1 - p_h`` under both
    models. The attacked payload is the pure state ``A psi``; with
    ``c = |<psi|A psi>|^2``, ``eps_d`` is ``p_d (1 - c)`` stand-alone and
    ``p_d sqrt(1 - c)`` composable, and 0 when no payload is accepted.
    ``A`` multiplies half of the uniform ``psi``'s weight by ``e^{i alpha}``,
    so ``1 - c = sin^2(alpha/2)``, with no subtraction to cancel at small
    angles.
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
    s = math.sin(alpha / 2.0)
    one_minus_c = s * s
    if p_d <= ACCEPT_FLOOR:
        eps_d = 0.0
    elif model is SecurityModel.STAND_ALONE:
        eps_d = p_d * one_minus_c
    else:
        eps_d = p_d * math.sqrt(one_minus_c)

    disturbance = s * s if model is SecurityModel.STAND_ALONE else abs(s)
    gap = abs(p_h - p_d)
    gap_bound = acceptance_gap_bound(variant, alpha, n_expected)
    bound = theorem_bound(model, variant, n_expected)
    trivial = abs(s) < _TRIVIAL_SINE
    total = eps_h + eps_d
    satisfied = total >= bound - _BOUND_TOL

    def step(name, lhs, rhs):
        return ProofStep(name, lhs, rhs, lhs >= rhs - STEP_TOL)

    steps = (
        step("correctness_floor", eps_h, 1.0 - p_h),
        step("security_floor", eps_d, p_d * disturbance),
        step("sum_vs_disturbance", total, disturbance * (1.0 - gap)),
        step("acceptance_gap", gap_bound, gap),
        ProofStep("theorem_bound", total, bound, None if trivial else satisfied),
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
        satisfied=satisfied,
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
        lambda strategy: round_outcome_table(spec, strategy),
    )
