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
figure goes through one engine: ``outcome_table`` checks and builds a
``RoundOutcomeTable``, a row of p(n, output round) per support point of the
round distribution that carries its own average (``.acceptance``). The
general-test engine in ``combs`` builds its tables the same way.

The per-round engine works on ``2**k`` vectors only. A round bank receives
the rounds of each ``(spec, n)`` once through ``receive_trap``, the one check
of a trap, and keeps per round the input ``chi``, the honest output
``h = U chi`` and, for a rank-1 effect ``e``, ``g = U^dagger e``; the
unitary is dropped. The attack is a phase vector ``phi``, so a round factor
is honest ``|<e|h>|^2``, POST ``|<e|phi h>|^2`` or PRE ``|<g|phi chi>|^2``,
with ``e = h`` when matched; a general ``PovmElement`` reads ``<out|M|out>``
and keeps its unitary for PRE. The bank lives on the spec, so a report row's
tables and sampler calls share it, and it is freed with the row. It holds
``3 * r * 2**k * 16`` bytes: ``r = n + 1``, or ``r = 1`` (its factor read
once and broadcast) for round-independent traps and effects. A global rule is
the tensor product of its per-round effects: its exact figures are those of
per-round mode, and only the sampler, with one joint draw per run, tells
the two apart. The dense path (``transform_round``, ``PovmElement``
matrices, ``client_output_state`` and ``combs.overall_acceptance_via_combs``)
is the reference the tests compare against. The benchmark's tracer
(``perfbench/spans.py``) hooks ``round_outcome_table``,
``overall_acceptance``, ``client_output_state``, ``monte_carlo_run``
(``spec``, ``trials``, ``seed``) and ``TrapGenerator.trap`` by name.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Mapping, NamedTuple, Sequence

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
from .states import AbortExtendedState, Effect, PovmElement, attack_phases, mix_with_abort
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

    Must be deterministic for fixed ``(k, n, i)``. A family with the same
    trap in every round sets ``round_independent``.
    """

    round_independent: ClassVar[bool] = False

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
    calling ``element``. A rule whose effect is the same in every round sets
    ``round_independent``.
    """

    element: Callable[[int, int, int], Effect]  # (k, n, i) -> effect on 2**k
    traps: TrapGenerator | None = None
    round_independent: ClassVar[bool] = False


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
    _bank: dict[int, tuple] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise ContractViolationError(f"k must be positive, got {self.k}")
        if 2**self.k > DIM_CAP:
            raise DimensionCapError(f"2**{self.k} exceeds the dimension cap {DIM_CAP}")
        if isinstance(self.output_round, str) and self.output_round != "uniform":
            raise ContractViolationError(
                f"output_round must be 'uniform' or a per-n mapping, got {self.output_round!r}"
            )


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


class _Round(NamedTuple):
    """A received round: input, honest output ``U chi``, effect ``e`` (``h`` if matched)
    and ``g = U^dagger e`` (``chi`` if matched; None for a general element, which keeps ``u``)."""

    chi: np.ndarray
    h: np.ndarray
    e: np.ndarray | PovmElement
    g: np.ndarray | PovmElement | None
    u: np.ndarray | None


def _receive_round(spec: ProtocolSpec, rule: PerRoundAcceptance, n: int, i: int) -> _Round:
    k = spec.k
    u, chi = receive_trap(spec.traps, k, n, i)
    h = chi if u is None else u @ chi
    if rule.traps is spec.traps:  # matched: the effect is the honest output
        return _Round(chi, h, h, chi, None)
    effect = rule.element(k, n, i)
    if effect.dim != 2**k:
        raise ContractViolationError(
            f"acceptance element for round {i} has dim {effect.dim}, expected {2**k}"
        )
    if isinstance(effect, PovmElement):
        return _Round(chi, h, effect, effect if u is None else None, u)
    e = effect.vector.amplitudes
    return _Round(chi, h, e, e if u is None else np.conj(e.conj() @ u), None)  # no copy of U


def _bank(spec: ProtocolSpec, n: int) -> tuple[_Round, ...]:
    """n's rounds, received once per spec (a failed round caches nothing): one
    row when traps and effects are round-independent, else n + 1."""
    if n not in spec._bank:
        rule = spec.acceptance
        rule = rule.per_round if isinstance(rule, GlobalAcceptance) else rule
        one = spec.traps.round_independent and (rule.traps is spec.traps or rule.round_independent)
        rounds = range(1, 2 if one else n + 2)
        spec._bank[n] = tuple(_receive_round(spec, rule, n, i) for i in rounds)
    return spec._bank[n]


def _round_factors(spec: ProtocolSpec, strategy: ServerStrategy, n: int) -> np.ndarray:
    """Per-round acceptance factors <e_i, (transformed T_i)(chi_i)> for i = 1..n+1,
    read from n's bank: the attack is a phase vector on the honest output
    (POST) or on the input, read by the pulled-back effect (PRE)."""
    rows = _bank(spec, n)
    honest = isinstance(strategy, Honest)
    phases = None if honest else attack_phases(strategy.alpha, spec.k)
    vals = np.empty(len(rows))
    for i, r in enumerate(rows, start=1):
        if honest or strategy.placement is Placement.POST:
            left, out = r.e, r.h if honest else phases * r.h
        elif r.g is not None:
            left, out = r.g, phases * r.chi
        else:
            left, out = r.e, r.u @ (phases * r.chi)
        value = (left.value(out) if isinstance(left, PovmElement)
                 else float(abs(np.vdot(left, out)) ** 2))
        vals[i - 1] = snap_probability(value, f"round factor (n={n}, i={i})")
    return vals if vals.size == n + 1 else np.full(n + 1, vals[0])


def output_round_weights(output_round: OutputRound, n: int) -> np.ndarray:
    """Distribution of the output-round position over {1, ..., n+1}; with no
    tests (n = 0) the output round is round 1, whatever the rule."""
    if isinstance(output_round, str) or n == 0:
        return np.full(n + 1, 1.0 / (n + 1))
    if n not in output_round:
        raise ContractViolationError(f"no output-round distribution for n={n}")
    probs = np.asarray(output_round[n], dtype=float)
    if probs.shape != (n + 1,):
        raise ContractViolationError(
            f"output-round distribution for n={n} has length {probs.size}, expected {n + 1}"
        )
    # written so that NaN entries fail both comparisons
    if not (np.all(probs >= 0.0) and abs(float(probs.sum()) - 1.0) <= 1e-12):
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


@dataclass(frozen=True, eq=False)
class RoundOutcomeTable:
    """Acceptance p(n, ell), one read-only row over ell = 1..n+1 per support
    point n of ``omega``, and its average; built by :func:`outcome_table`."""

    omega: RoundDistribution
    output_round: OutputRound
    rows: tuple[np.ndarray, ...]

    @property
    def acceptance(self) -> float:
        """Acceptance averaged over n ~ omega and the output-round distribution."""
        total = 0.0
        for (n, wn), row in zip(self.omega.support, self.rows):
            if wn != 0.0:
                total += wn * float(output_round_weights(self.output_round, n) @ row)
        return snap_probability(total, "overall acceptance")


def outcome_table(
    omega: RoundDistribution, output_round: OutputRound, per_ell: Callable[[int], Sequence[float]]
) -> RoundOutcomeTable:
    """The (n, ell) acceptance table over the support of ``omega``.

    ``per_ell(n)`` gives the n + 1 acceptance probabilities for n >= 1; with no
    test rounds the empty product accepts. Values within 1e-12 of [0, 1] are
    clamped into it; anything else, NaN included, is rejected.
    """
    rows = []
    for n, _ in omega.support:
        row = np.asarray(per_ell(n) if n else (1.0,), dtype=float)
        # written so that NaN entries fail both comparisons
        bad = np.flatnonzero(~((row >= -_PROB_SNAP) & (row <= 1.0 + _PROB_SNAP)))
        if bad.size:
            ell, p = int(bad[0]) + 1, float(row[bad[0]])
            raise ContractViolationError(f"p(n={n}, ell={ell}) = {p!r} outside [0, 1]")
        row = np.where(row > 0.0, np.minimum(row, 1.0), 0.0)  # -0.0 becomes 0.0
        row.flags.writeable = False
        rows.append(row)
    return RoundOutcomeTable(omega, output_round, tuple(rows))


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
    return outcome_table(spec.omega, spec.output_round, lambda n: _per_ell(spec, strategy, n))


def overall_acceptance(spec: ProtocolSpec, strategy: ServerStrategy) -> float:
    """Exact acceptance probability, averaged over n and the output round."""
    return round_outcome_table(spec, strategy).acceptance


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
