"""Executable model of the interleaved test/output delegation protocol.

The client samples a test-round count ``n``, hides one output round among
the ``n + 1`` delegated rounds, runs known trap computations in the test
rounds, and accepts iff the trap outputs pass a measurement. For the
supported server strategies (identical and independent across rounds) the
position of the output round does not affect any probability, so tests and
output are evaluated independently; the test suite checks this against a
literal sequential simulator on small instances.

Acceptance probabilities are computed exactly and, as a stochastic
cross-check, by a seeded round-by-round Monte-Carlo sampler. Every exact
figure goes through one engine: ``outcome_table`` builds the per-(n, output
round) acceptance table over the finite support of the round distribution,
and ``weighted_acceptance`` averages it over n and the output round. The
general-test engine in ``combs`` uses the same two functions.

The per-round engine works on ``2**k`` vectors only. A trap is a unitary (or
None for the identity) and an input vector, checked once where the engine
receives it; the attack is diagonal, so it is a phase vector; and a round
factor is the overlap ``|<e|out>|^2`` for a rank-1 effect, or the quadratic
form ``<out|M|out>`` for a general one. A global rule is the tensor product
of its per-round effects, which on the product of the test outputs is the
product of the round factors: its exact figures are those of per-round
mode, and only the Monte-Carlo sampler, with one joint draw per run, tells
the two apart. The dense path (``transform_round``, ``PovmElement``
matrices, ``client_output_state`` and ``combs.overall_acceptance_via_combs``)
is the reference the tests compare against.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    DimensionCapError,
    OutOfDomainError,
)
from .linalg import (
    DIM_CAP,
    DensityOperator,
    PureState,
    as_square_matrix,
    dagger,
    is_unitary,
)
from .states import AbortExtendedState, Effect, attack_phases, mix_with_abort
from .strategies import (
    Honest,
    Placement,
    ServerStrategy,
    require_supported,
    transform_round,
)

_PROB_SNAP = 1e-12
# uniforms per block of the Monte-Carlo sampler's per-round draws
_MC_BLOCK_UNIFORMS = 2**20


def snap_probability(p: float, what: str) -> float:
    """Clamp rounding noise at the ends of [0, 1]; reject anything worse."""
    if -_PROB_SNAP <= p <= 1.0 + _PROB_SNAP:
        return min(1.0, max(0.0, p))
    raise ContractViolationError(f"{what} = {p!r} outside [0, 1]")


@dataclass(frozen=True)
class RoundDistribution:
    """Finite-support distribution of the test-round count.

    Infinite-tail distributions must be truncated and renormalized by the
    caller; summation here is exact over the support.
    """

    support: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.support:
            raise ContractViolationError("round distribution has empty support")
        ns = [n for n, _ in self.support]
        ps = [p for _, p in self.support]
        if any(not isinstance(n, int) or n < 0 for n in ns):
            raise ContractViolationError("round counts must be non-negative integers")
        if ns != sorted(ns) or len(set(ns)) != len(ns):
            raise ContractViolationError("support must be sorted by n with unique entries")
        if any(not (math.isfinite(p) and p >= 0.0) for p in ps):
            raise ContractViolationError("probabilities must be finite and non-negative")
        total = math.fsum(ps)
        if abs(total - 1.0) > 1e-12:
            raise ContractViolationError(
                f"probabilities sum to {total!r}, not 1 within 1e-12"
            )

    @classmethod
    def point_mass(cls, n: int) -> "RoundDistribution":
        return cls(((int(n), 1.0),))

    @classmethod
    def from_pairs(cls, pairs) -> "RoundDistribution":
        return cls(tuple(sorted((int(n), float(p)) for n, p in pairs)))

    @property
    def mean(self) -> float:
        """Expected number of test rounds."""
        return math.fsum(n * p for n, p in self.support)

    @property
    def max_n(self) -> int:
        return self.support[-1][0]

    def prob(self, n: int) -> float:
        for m, p in self.support:
            if m == n:
                return p
        return 0.0


class TrapGenerator(abc.ABC):
    """Produces the trap computation and input for a given round.

    Must be deterministic for fixed ``(k, n, i)``.
    """

    @abc.abstractmethod
    def trap(self, k: int, n: int, i: int) -> tuple[np.ndarray | None, PureState]:
        """Return (unitary on 2**k, or None for the identity; input state of
        dim 2**k) for round i."""


@dataclass(frozen=True)
class PerRoundAcceptance:
    """One measurement element per test round; accept iff every round accepts.

    ``traps``, when set, says each round's effect is the projector onto that
    round's honest trap output under those traps; if they are the spec's
    traps the engine reads that output from its own trap call instead of
    calling ``element``.
    """

    element: Callable[[int, int, int], Effect]  # (k, n, i) -> effect on 2**k
    traps: TrapGenerator | None = None


@dataclass(frozen=True)
class GlobalAcceptance:
    """One joint measurement on all test outputs: the tensor product of the
    ``per_round`` rule's effects, so the client accepts iff every test passes.

    The engine never builds the ``2**(k*n)``-dim element; it multiplies the
    per-round values on the test outputs.
    """

    per_round: PerRoundAcceptance


AcceptanceRule = PerRoundAcceptance | GlobalAcceptance

# "uniform" over the n + 1 rounds, or an explicit distribution per n
OutputRound = str | Mapping[int, Sequence[float]]


@dataclass(frozen=True)
class ProtocolSpec:
    """A full cut-and-choose instance.

    ``output_round`` is either ``"uniform"`` (each of the ``n + 1`` rounds is
    the output round with probability ``1/(n+1)``) or a mapping from ``n`` to
    an explicit distribution over ``{1, ..., n+1}``.
    """

    omega: RoundDistribution
    k: int
    traps: TrapGenerator
    acceptance: AcceptanceRule
    output_round: OutputRound = "uniform"

    def __post_init__(self):
        if self.k < 1:
            raise ContractViolationError(f"k must be positive, got {self.k}")
        if 2**self.k > DIM_CAP:
            raise DimensionCapError(f"2**{self.k} exceeds the dimension cap {DIM_CAP}")
        if isinstance(self.output_round, str) and self.output_round != "uniform":
            raise ContractViolationError(
                f"output_round must be 'uniform' or a per-n mapping, got {self.output_round!r}"
            )


@dataclass(frozen=True)
class RoundOutcomeTable:
    """Per-(n, output round) acceptance probabilities."""

    entries: tuple[tuple[int, int, float], ...]  # (n, ell, p)


def receive_trap(
    traps: TrapGenerator, k: int, n: int, i: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """Round i's trap as (unitary or None for the identity, input vector).

    The one check of a trap: its state has dim 2**k, and a given matrix is a
    2**k unitary. Errors name the round.
    """
    u, chi = traps.trap(k, n, i)
    d = 2**k
    if chi.dim != d:
        raise ContractViolationError(
            f"trap state for round (n={n}, i={i}) has dim {chi.dim}, expected {d}"
        )
    if u is not None:
        u = as_square_matrix(u)
        if u.shape[0] != d:
            raise ContractViolationError(
                f"trap unitary for round (n={n}, i={i}) has dim {u.shape[0]}, expected {d}"
            )
        if not is_unitary(u):
            raise ContractViolationError(
                f"trap unitary for round (n={n}, i={i}) is not unitary within 1e-10"
            )
    return u, chi.amplitudes


def _round_outputs(spec: ProtocolSpec, strategy: ServerStrategy, n: int):
    """Yield (honest output ``U chi``, played output) for rounds i = 1..n+1.

    The attack is the diagonal ``1 ⊗ diag(1, e^{ia})``, applied as a phase
    vector: after the trap unitary (POST) or before it (PRE).
    """
    k = spec.k
    phases = None if isinstance(strategy, Honest) else attack_phases(strategy.alpha, k)
    for i in range(1, n + 2):
        u, chi = receive_trap(spec.traps, k, n, i)
        honest = chi if u is None else u @ chi
        if phases is None:
            out = honest
        elif u is None or strategy.placement is Placement.POST:
            out = phases * honest
        else:
            out = u @ (phases * chi)
        yield honest, out


def _round_factors(spec: ProtocolSpec, strategy: ServerStrategy, n: int) -> np.ndarray:
    """Per-round acceptance factors <e_i, (transformed T_i)(chi_i)> for i = 1..n+1.

    Traps are pure and the transformed rounds unitary, so each factor is the
    effect's value on the played output vector; a matched effect is the
    overlap with the honest output of the same trap call.
    """
    rule = spec.acceptance
    if isinstance(rule, GlobalAcceptance):
        rule = rule.per_round
    k = spec.k
    matched = rule.traps is spec.traps
    vals = np.empty(n + 1)
    for i, (honest, out) in enumerate(_round_outputs(spec, strategy, n), start=1):
        if matched:
            value = float(abs(np.vdot(honest, out)) ** 2)
        else:
            e = rule.element(k, n, i)
            if e.dim != 2**k:
                raise ContractViolationError(
                    f"acceptance element for round {i} has dim {e.dim}, expected {2**k}"
                )
            value = e.value(out)
        vals[i - 1] = snap_probability(value, f"round factor (n={n}, i={i})")
    return vals


def output_round_weights(output_round: OutputRound, n: int) -> np.ndarray:
    """Distribution of the output-round position over {1, ..., n+1}."""
    if isinstance(output_round, str):
        return np.full(n + 1, 1.0 / (n + 1))
    probs = np.asarray(output_round[n], dtype=float)
    if probs.shape != (n + 1,):
        raise ContractViolationError(
            f"output-round distribution for n={n} has length {probs.size}, expected {n + 1}"
        )
    if probs.min() < 0.0 or abs(float(probs.sum()) - 1.0) > 1e-12:
        raise ContractViolationError(
            f"output-round distribution for n={n} is not a probability vector"
        )
    return probs


def _per_ell(spec: ProtocolSpec, strategy: ServerStrategy, n: int) -> np.ndarray:
    """Acceptance probability for each output round ell = 1..n+1, for n >= 1."""
    factors = _round_factors(spec, strategy, n)
    m = factors.size
    pre = np.ones(m + 1)
    pre[1:] = np.cumprod(factors)
    suf = np.ones(m + 1)
    suf[:-1] = np.cumprod(factors[::-1])[::-1]
    # entry ell-1: product over i < ell times product over i > ell
    return pre[:m] * suf[1:]


def outcome_table(
    omega: RoundDistribution, per_ell: Callable[[int], Sequence[float]]
) -> RoundOutcomeTable:
    """The (n, ell) acceptance table over the support of ``omega``.

    ``per_ell(n)`` gives the n + 1 acceptance probabilities for n >= 1; with
    no test rounds the empty product accepts.
    """
    rows = []
    for n, _ in omega.support:
        values = per_ell(n) if n else (1.0,)
        rows += [
            (n, ell, snap_probability(float(p), f"p(n={n}, ell={ell})"))
            for ell, p in enumerate(values, start=1)
        ]
    return RoundOutcomeTable(tuple(rows))


def weighted_acceptance(
    omega: RoundDistribution, output_round: OutputRound, table: RoundOutcomeTable
) -> float:
    """Acceptance averaged over n ~ omega and the output-round distribution."""
    per_n: dict[int, list[float]] = {}
    for n, _, p in table.entries:
        per_n.setdefault(n, []).append(p)
    total = 0.0
    for n, wn in omega.support:
        if wn == 0.0:
            continue
        if n == 0:
            total += wn
            continue
        weights = output_round_weights(output_round, n)
        total += wn * float(weights @ np.array(per_n[n]))
    return snap_probability(total, "overall acceptance")


def acceptance_probability(
    spec: ProtocolSpec, strategy: ServerStrategy, n: int, ell: int
) -> float:
    """Probability the client accepts for a fixed (n, output round)."""
    require_supported(strategy)
    if not 1 <= ell <= n + 1:
        raise OutOfDomainError(f"output round {ell} outside {{1, ..., {n + 1}}}")
    if n == 0:
        return 1.0  # no tests: the empty product accepts
    return float(_per_ell(spec, strategy, n)[ell - 1])


def round_outcome_table(spec: ProtocolSpec, strategy: ServerStrategy) -> RoundOutcomeTable:
    """Acceptance probability per (n, output round) over the support of omega."""
    require_supported(strategy)
    return outcome_table(spec.omega, lambda n: _per_ell(spec, strategy, n))


def overall_acceptance(spec: ProtocolSpec, strategy: ServerStrategy) -> float:
    """Exact acceptance probability, averaged over n and the output round."""
    return weighted_acceptance(spec.omega, spec.output_round, round_outcome_table(spec, strategy))


def client_output_state(
    spec: ProtocolSpec,
    strategy: ServerStrategy,
    input_state: DensityOperator,
    target_unitary,
) -> AbortExtendedState:
    """Mixture (accept prob) * transformed output + (reject prob) * rejection.

    Valid because the supported strategies act identically and independently
    on every round: the output-round payload does not depend on (n, ell).
    """
    require_supported(strategy)
    k = spec.k
    u = as_square_matrix(target_unitary)
    if input_state.dim != 2**k or u.shape[0] != 2**k:
        raise ContractViolationError(
            f"input/unitary dimension must be 2**{k}, got {input_state.dim} and {u.shape[0]}"
        )
    applied = transform_round(strategy, u, k)
    payload = DensityOperator(applied @ input_state.matrix @ dagger(applied))
    return mix_with_abort(payload, overall_acceptance(spec, strategy))


class MonteCarloResult(NamedTuple):
    accept_rate: float
    abort_rate: float


def monte_carlo_run(
    spec: ProtocolSpec, strategy: ServerStrategy, trials: int, seed: int
) -> MonteCarloResult:
    """Sampled protocol runs: n ~ omega, output round ~ rule, then one
    Bernoulli draw per test round. Deterministic for a fixed seed.

    Only acceptance is sampled; the payload never enters the draws."""
    require_supported(strategy)
    if trials < 1:
        raise OutOfDomainError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    ns = np.array([n for n, _ in spec.omega.support])
    probs = np.array([p for _, p in spec.omega.support])
    draws = rng.choice(ns.size, size=trials, p=probs)
    accepted = 0
    for j, n in enumerate(ns):
        m = int(np.count_nonzero(draws == j))
        if m == 0:
            continue
        ells = rng.choice(n + 1, size=m, p=output_round_weights(spec.output_round, n))
        if n == 0:
            accepted += m
            continue
        if isinstance(spec.acceptance, PerRoundAcceptance):
            factors = _round_factors(spec, strategy, n)
            # consecutive row blocks consume the stream exactly as one draw would
            rows = max(1, _MC_BLOCK_UNIFORMS // (n + 1))
            for start in range(0, m, rows):
                block = ells[start:start + rows]
                ok = rng.random((block.size, n + 1)) < factors[None, :]
                ok[np.arange(block.size), block] = True  # the output round is not a test
                accepted += int(np.count_nonzero(ok.all(axis=1)))
        else:  # global acceptance: one joint draw per run
            per_ell = _per_ell(spec, strategy, n)
            accepted += int(np.count_nonzero(rng.random(m) < per_ell[ells]))
    rate = accepted / trials
    return MonteCarloResult(rate, 1.0 - rate)


class JensenCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def jensen_gap_check(omega: RoundDistribution, c: float) -> JensenCheck:
    """Concavity step: sum_n omega(n) sqrt(1 - c^{2n}) <= sqrt(1 - c^{2N}).

    ``N`` is the mean of ``omega``; equality holds for point masses.
    """
    if not 0.0 <= c <= 1.0:
        raise OutOfDomainError(f"c = {c!r} outside [0, 1]")
    lhs = math.fsum(
        p * math.sqrt(max(0.0, 1.0 - c ** (2 * n))) for n, p in omega.support
    )
    rhs = math.sqrt(max(0.0, 1.0 - c ** (2.0 * omega.mean)))
    return JensenCheck(lhs, rhs, lhs <= rhs + 1e-12)
