"""Executable model of the interleaved test/output delegation protocol.

The client samples a test-round count ``n``, hides one output round among
the ``n + 1`` delegated rounds, runs known trap computations in the test
rounds, and accepts iff the trap outputs pass a measurement. For the
supported server strategies (identical and independent across rounds) the
position of the output round does not affect any probability, so tests and
output are evaluated independently; the test suite checks this against a
literal sequential simulator on small instances.

Acceptance probabilities are computed exactly and, as a stochastic
cross-check, by a seeded round-by-round Monte-Carlo sampler. The sampler
takes a sequence of strategies and draws once how many runs have each ``n``
and, per ``n``, each output round (counts, not one label per run); it then
draws only the failing test rounds, against the smallest factor among the
strategies (sparse rounds in batches, dense ones alone), and every strategy
reads the same uniforms (common random numbers). It reads round factors
only, never the exact products, so it checks them independently. Each
result follows the law of one uniform per run and round; a strategy's
result depends on the set it is sampled with, not on the order of the set,
on duplicates, or on strategies whose factors are nowhere below the set's
smallest. Every exact figure goes through one engine: ``outcome_table``
checks and builds a ``RoundOutcomeTable``, a row of p(n, output round) per
support point of the round distribution that carries its own average
(``.acceptance``). The general-test engine in ``combs`` builds its tables
the same way.

The per-round engine works on ``2**k`` vectors: a round is its action. A
round bank receives the rounds of each ``(spec, n)`` once, as one block from
``TrapGenerator.action`` checked by ``receive_action``, and keeps four
stacked ``(r, 2**k)`` arrays ``(chi, h, e, g)``: the inputs, the honest
outputs ``U chi``, the rank-1 effects and ``U^dagger e`` (matched: ``e = h``,
``g = chi``). ``action`` is a trap family's one description of its
rounds, and no ``U`` is formed or kept. With the attack as a phase vector
``phi``, a round factor is POST ``|<e|phi h>|^2`` or PRE ``|<g|phi chi>|^2``
(honest: ``phi = 1`` POST, ``|<e|h>|^2``), all rounds in one contraction.
The bank lives on the spec, so a report row's tables and sampler call share
it, and is freed with the row. It holds at most ``4 * r * 2**k`` complex numbers: ``r = n + 1``,
or ``r = 1`` (one factor, broadcast) for round-independent traps and
effects. The client accepts iff every test round passes: a joint
measurement on all test outputs that accepts iff every trap passes is the
tensor product of these effects, so it is this rule. The dense path
(``transform_round``, effect rows as projectors, ``client_output_state`` and
``reference.round_outcome_table_via_combs``, which plays each round as
``reference.action_unitary`` of its action) is the reference the tests
compare against; the gate compares the last with ``round_outcome_table``
cell by cell. The benchmark's tracer (``perfbench/spans.py``) hooks
``round_outcome_table``, ``overall_acceptance``, ``client_output_state``
and ``monte_carlo_run`` (binding its parameters ``spec``, ``trials`` and
``seed`` by name) by name.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Mapping, Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    DimensionCapError,
    OutOfDomainError,
)
from .linalg import (
    DERIVED_TOL,
    DIM_CAP,
    NORM_TOL,
    PROB_TOL,
    VALIDATION_TOL,
    DensityOperator,
    dagger,
    tol_text,
)
from .states import AbortExtendedState, attack_phases
from .strategies import PhaseAttack, Placement, require_supported, transform_round

# The sampler's sizes. A call holds ``ells`` (8 bytes) and one ``dead`` flag
# per strategy (1 byte) for each run of a round count: 110 MB at this cap and
# a report row's three strategies.
MAX_TRIALS = 10**7
# A round with K <= m / 8 failing runs is sparse: a draw of K keys with
# replacement repeats about K / 2m <= 1/16 of them, and only those are redrawn.
_SPARSE_SHARE = 8
_BATCH_PAIRS = 2**12  # (round, run) pairs per batch of sparse rounds: 32 KB of keys


def snap_probability(p, what: str, given: bool = False):
    """``p`` (a float or an array) clamped into [0, 1], -0.0 as 0.0, if off it by
    rounding only: ``PROB_TOL`` for values ``given`` to the engine, else
    ``DERIVED_TOL``. Else (NaN too) raises, naming the first bad entry as
    ``what`` with its 1-based index in place of ``{}``."""
    tol = PROB_TOL if given else DERIVED_TOL
    a = np.array(p, dtype=float)
    lo, hi = a.min(initial=math.inf), a.max(initial=-math.inf)
    if not (lo >= -tol and hi <= 1.0 + tol):  # NaN fails both
        i = int(np.flatnonzero(~((a >= -tol) & (a <= 1.0 + tol)))[0])
        raise ContractViolationError(f"{what.format(i + 1)} = {float(a.flat[i])!r} outside [0, 1]")
    if lo <= 0.0 or hi > 1.0:  # -0.0 becomes 0.0
        a = np.where(a > 0.0, np.minimum(a, 1.0), 0.0)
    return float(a) if a.ndim == 0 else a


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
        if any(isinstance(n, bool) or not isinstance(n, int) or n < 0 for n in ns):
            raise ContractViolationError("round counts must be non-negative integers")
        if ns != sorted(ns) or len(set(ns)) != len(ns):
            raise ContractViolationError("support must be sorted by n with unique entries")
        if any(not (math.isfinite(p) and p >= 0.0) for p in ps):
            raise ContractViolationError("probabilities must be finite and non-negative")
        total = math.fsum(ps)
        if abs(total - 1.0) > PROB_TOL:
            raise ContractViolationError(
                f"probabilities sum to {total!r}, not 1 within {tol_text(PROB_TOL)}"
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


class TrapGenerator(abc.ABC):
    """Produces the trap computation and input of every round, as its action.

    The engine reads a trap only through :meth:`action` on the rounds of
    ``(k, n)``, checked once by :func:`receive_action`, and never forms its
    matrix. Must be deterministic for fixed ``(k, n, e)``. A family with the
    same trap in every round sets ``round_independent``.
    """

    round_independent: ClassVar[bool] = False

    @abc.abstractmethod
    def action(
        self, k: int, n: int, e: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rounds of ``(k, n)`` as stacked ``(r, 2**k)`` arrays
        ``(chi, h, g)``: inputs, ``h = U chi`` and ``g = U^dagger e`` (``chi``
        if ``e`` is None: matched). ``r`` is the row count of ``e``, else
        ``n + 1``, or 1 for a round-independent family. Unchecked."""


@dataclass(frozen=True)
class PerRoundAcceptance:
    """One rank-1 effect per test round; accept iff every round accepts.

    ``element(k, n)`` gives the rounds' effects as the unit rows of an
    ``(r, 2**k)`` complex block: one per round (``r = n + 1``), or ``r = 1``
    for one effect in every round. ``traps``, when set, says each effect is
    the projector onto the round's honest output under those traps; if they
    are the spec's, the engine reads it from its own trap call."""

    element: Callable[[int, int], np.ndarray]  # (k, n) -> (r, 2**k) effect rows
    traps: TrapGenerator | None = None


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
    acceptance: PerRoundAcceptance
    output_round: OutputRound = "uniform"
    _bank: dict[int, tuple] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 1:
            raise ContractViolationError(f"k must be a positive integer, got {self.k!r}")
        if 2**self.k > DIM_CAP:
            raise DimensionCapError(f"2**{self.k} exceeds the dimension cap {DIM_CAP}")
        require_output_round(self.output_round)


def require_output_round(output_round) -> None:
    """Rejects an ``output_round`` that is neither ``"uniform"`` nor a mapping;
    a mapping's distributions are checked per n when read."""
    if not (isinstance(output_round, Mapping) or output_round == "uniform"):
        raise ContractViolationError(
            f"output_round must be 'uniform' or a per-n mapping, got {output_round!r}")


def overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``<a_i|b_i>`` of two ``(r, d)`` stacks, each equal to
    ``np.vdot(a_i, b_i)`` bit for bit."""
    return np.matmul(a.conj()[:, None, :], b[:, :, None])[:, 0, 0]


def receive_action(
    traps: TrapGenerator, k: int, n: int, e: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rounds of ``(k, n)`` as checked ``(r, 2**k)`` arrays
    ``(chi, h, e, g)``, from ``traps.action(k, n, e)`` (``e`` None: matched,
    ``e = h`` and ``g = chi``).

    The one check of a trap, naming its first failing round, on the action
    only: ``|h|^2 = 1``, ``|g|^2 = |e|^2`` and ``<g|chi> = <e|h>`` within
    ``VALIDATION_TOL``, which hold iff a unitary maps ``(chi, g)`` to
    ``(h, e)``, and ``|chi| = |h| = 1`` within ``NORM_TOL``, as states demand.
    So every figure is a unitary trap's, and a trap unitary only on this
    action passes (no ``U^dagger U``); ``GeneralTest`` checks its unitaries in
    full.
    """
    matched = e is None
    chi, h, g = traps.action(k, n, e)
    e = h if matched else e
    r = (1 if traps.round_independent else n + 1) if matched else len(e)
    if not chi.shape == h.shape == g.shape == e.shape == (r, 2**k):
        raise ContractViolationError(
            f"trap action for n={n} has shapes {chi.shape}, {h.shape}, {g.shape}, expected {(r, 2**k)}")
    hh = overlaps(h, h)
    gram = np.maximum.reduce([np.abs(hh - 1.0), np.abs(overlaps(g, g) - overlaps(e, e)),
                              np.abs(overlaps(g, chi) - overlaps(e, h))])
    norms = np.sqrt(np.stack([overlaps(chi, chi), hh]).real)  # |chi|, |h| per round
    unit = np.abs(norms - 1.0).max(axis=0)
    bad = np.flatnonzero(~((gram <= VALIDATION_TOL) & (unit <= NORM_TOL)))
    if bad.size:
        i = int(bad[0])
        what = f"trap unitary for round (n={n}, i={i + 1})"
        if not gram[i] <= VALIDATION_TOL:
            raise ContractViolationError(
                f"{what} is not unitary on its action within {tol_text(VALIDATION_TOL)}")
        norm_chi, norm_h = norms[:, i].tolist()
        off = f"not 1 within {tol_text(NORM_TOL)}"
        if abs(norm_h - 1.0) > NORM_TOL:
            raise ContractViolationError(f"{what} maps its input to norm {norm_h!r}, {off}")
        raise ContractViolationError(f"{what} takes an input of norm {norm_chi!r}, {off}")
    return chi, h, e, g


def receive_rounds(spec: ProtocolSpec, n: int) -> tuple[np.ndarray, ...]:
    """n's rounds under the spec's rule as checked ``(r, 2**k)`` arrays
    ``(chi, h, e, g)``: one row if traps and effects are round-independent,
    else n + 1. A matched rule reads its effects from the same action; any
    other rule's block is checked first, naming its first failing round: shape
    ``(1 or n + 1, 2**k)``, rows of norm 1 within ``NORM_TOL`` (NaN fails)."""
    k, rule = spec.k, spec.acceptance
    if rule.traps is spec.traps:  # matched: the effect is the honest output
        return receive_action(spec.traps, k, n)
    e, d = np.asarray(rule.element(k, n), dtype=np.complex128), 2**k
    if e.ndim != 2 or e.shape[1] != d or len(e) not in (1, n + 1):
        raise ContractViolationError(
            f"acceptance effects for n={n} have shape {e.shape}, expected {(1, d)} or {(n + 1, d)}")
    norms = np.linalg.norm(e, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
    if bad.size:
        i = int(bad[0])
        raise ContractViolationError(f"acceptance effect for round (n={n}, i={i + 1}) has norm "
                                     f"{float(norms[i])!r}, not 1 within {tol_text(NORM_TOL)}")
    if len(e) < n + 1 and not spec.traps.round_independent:
        e = np.broadcast_to(e, (n + 1, d))
    return receive_action(spec.traps, k, n, e)


def _bank(spec: ProtocolSpec, n: int) -> tuple[np.ndarray, ...]:
    """n's received rounds, kept on the spec (a failed round caches nothing)."""
    if n not in spec._bank:
        spec._bank[n] = receive_rounds(spec, n)
    return spec._bank[n]


def _round_factors(spec: ProtocolSpec, strategy: PhaseAttack, n: int) -> np.ndarray:
    """Per-round acceptance factors <e_i, (transformed T_i)(chi_i)> for i = 1..n+1,
    read from n's bank in one contraction: the attack is a phase vector on the
    honest output (POST) or on the input, read by the pulled-back effect (PRE)."""
    chi, h, e, g = _bank(spec, n)
    left, right = (g, chi) if strategy.placement is Placement.PRE else (e, h)
    z = overlaps(left, attack_phases(strategy.alpha, spec.k) * right)
    vals = np.hypot(z.real, z.imag) ** 2  # |z| as scalar abs() gives it; np.abs may differ
    vals = snap_probability(vals, f"round factor (n={n}, i={{}})")
    return vals if vals.size == n + 1 else np.full(n + 1, vals[0])


def output_round_weights(output_round: OutputRound, n: int) -> np.ndarray:
    """Distribution of the output-round position over {1, ..., n+1}; with no
    tests (n = 0) the output round is round 1, whatever the rule. A rule that
    is neither ``"uniform"`` nor a mapping is rejected, whatever ``n``."""
    require_output_round(output_round)
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
    if not (np.all(probs >= 0.0) and abs(float(probs.sum()) - 1.0) <= PROB_TOL):
        raise ContractViolationError(
            f"output-round distribution for n={n} is not a probability vector"
        )
    return probs


def _per_ell(spec: ProtocolSpec, strategy: PhaseAttack, n: int) -> np.ndarray:
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
    test rounds the empty product accepts. The rows are given, so a row must
    be 1-D of length n + 1, and values within ``PROB_TOL`` of [0, 1] are
    clamped into it; anything else, NaN included, is rejected
    (:func:`snap_probability`).
    """
    rows = []
    for n, _ in omega.support:
        row = snap_probability(per_ell(n) if n else (1.0,), f"p(n={n}, ell={{}})", given=True)
        if np.shape(row) != (n + 1,):
            raise ContractViolationError(
                f"p(n={n}, ell) row has shape {np.shape(row)}, expected {(n + 1,)}")
        row.flags.writeable = False
        rows.append(row)
    return RoundOutcomeTable(omega, output_round, tuple(rows))


def round_outcome_table(spec: ProtocolSpec, strategy: PhaseAttack) -> RoundOutcomeTable:
    """Acceptance probability per (n, output round) over the support of omega."""
    require_supported(strategy)
    return outcome_table(spec.omega, spec.output_round, lambda n: _per_ell(spec, strategy, n))


def overall_acceptance(spec: ProtocolSpec, strategy: PhaseAttack) -> float:
    """Exact acceptance probability, averaged over n and the output round."""
    return round_outcome_table(spec, strategy).acceptance


def client_output_state(
    spec: ProtocolSpec,
    strategy: PhaseAttack,
    input_state: DensityOperator,
    target_unitary,
) -> AbortExtendedState:
    """Mixture (accept prob) * transformed output + (reject prob) * rejection.

    Valid because the supported strategies act identically and independently
    on every round: the output-round payload does not depend on (n, ell).
    """
    k = spec.k
    if input_state.dim != 2**k:
        raise ContractViolationError(f"input state has dim {input_state.dim}, expected {2**k}")
    applied = transform_round(strategy, target_unitary, k)
    payload = DensityOperator(applied @ input_state.matrix @ dagger(applied))
    return AbortExtendedState(overall_acceptance(spec, strategy), payload)


def monte_carlo_run(
    spec: ProtocolSpec, strategies: Sequence[PhaseAttack], trials: int, seed: int
) -> tuple[float, ...]:
    """Sampled protocol runs, drawn as counts: how many of the ``trials`` runs
    have each n ~ omega (one multinomial draw), then per n how many of its
    runs have each output round ~ rule (one more), then, round by round, the
    failing test rounds (:func:`_rejected_runs`). Every rule is sampled this
    way: the draw reads the round factors, never their exact products, so it
    checks the products rather than repeating them. Deterministic for a fixed
    seed. ``trials`` is at most ``MAX_TRIALS``, checked with the other
    arguments before any draw.

    Counts carry the law of one label per run because runs are exchangeable:
    n's runs get their output rounds in sorted order (``ells``), and nothing
    drawn after depends on where a run sits. The failing runs of a round are
    a uniform subset of n's runs, whether drawn in a batch of sparse rounds
    or alone, so the accept counts follow the law of a run-by-run draw.

    Returns one accept rate per strategy, in order, all read from one set of
    uniforms (common random numbers). Only the rounds that fail the smallest
    factor among the strategies are drawn, so a rate depends on the set: it
    is unchanged by reordering the strategies, by duplicating one, or by
    adding one whose factors are nowhere below the set's smallest (such as
    the honest run under a matched rule), but it is not in general the result
    of a call with that strategy alone. The law of each result is that of one
    uniform per run and round either way. Only acceptance is sampled; the
    payload never enters the draws."""
    if not (isinstance(strategies, Sequence) and strategies):
        raise OutOfDomainError(
            f"monte_carlo_run takes a non-empty sequence of strategies, got {strategies!r}")
    for strategy in strategies:
        require_supported(strategy)
    for name, value, least in (("trials", trials, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise OutOfDomainError(f"{name} must be an integer >= {least}, got {value!r}")
    if trials > MAX_TRIALS:
        raise OutOfDomainError(f"trials must be an integer <= {MAX_TRIALS} (MAX_TRIALS), got {trials!r}")
    rng = np.random.default_rng(seed)
    ns, probs = zip(*spec.omega.support)
    accepted = np.zeros(len(strategies), dtype=np.int64)
    for n, m in zip(ns, _counts(rng, trials, probs).tolist()):
        if n == 0 or m == 0:  # with no tests the empty product accepts
            accepted += m
            continue
        w = output_round_weights(spec.output_round, n)
        ells = np.repeat(np.arange(n + 1), _counts(rng, m, w))  # sorted: runs are exchangeable
        factors = np.stack([_round_factors(spec, s, n) for s in strategies])
        accepted += m - _rejected_runs(rng, ells, factors)
    return tuple(a / int(trials) for a in accepted.tolist())


def _counts(rng: np.random.Generator, size: int, probs) -> np.ndarray:
    """How many of ``size`` independent draws from ``probs`` land on each entry
    (multinomial). ``probs`` sums to 1 within ``PROB_TOL``; it is renormalised,
    as the multinomial gives the last entry whatever mass the others leave,
    and an entry of weight 0 must never be drawn."""
    probs = np.asarray(probs, dtype=float)
    return rng.multinomial(size, probs / probs.sum())


def _rejected_runs(rng: np.random.Generator, ells: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Runs each row of ``factors`` (a strategy's n + 1 round factors) rejects.

    A run fails round i for strategy s iff its uniform u >= f_s,i. Only the
    uniforms at or above floor_i = min_s f_s,i are drawn: first every count
    K_i ~ Binomial(m, 1 - floor_i), then each round's runs as a uniform
    K_i-subset (:func:`_failing_runs`), and after each batch of sparse
    rounds, or each dense round, one u on [floor_i, 1) per (round, run) pair.
    This is the law of one uniform per run and round, shared by every
    strategy. The output round is not a test: it is dropped after the draw,
    so the stream does not depend on which runs it drops."""
    m = ells.size
    floor = factors.min(axis=0)
    dead = np.zeros((len(factors), m), dtype=bool)
    for rounds, runs in _failing_runs(rng, m, rng.binomial(m, 1.0 - floor)):
        u = rng.uniform(floor[rounds], 1.0, runs.size)
        tests = ells[runs] != rounds
        for row, f in zip(dead, factors[:, rounds]):
            # a round that always passes never fails, whatever u rounds to
            row[runs[(u >= f) & (f < 1.0) & tests]] = True
    return np.count_nonzero(dead, axis=1)


def _failing_runs(rng: np.random.Generator, m: int, counts: np.ndarray):
    """Yields each round's runs, a uniform ``counts[i]``-subset of range(m), as
    ``(rounds, runs)``. Sparse rounds (``counts[i]`` at most ``m /
    _SPARSE_SHARE`` and ``_BATCH_PAIRS``) come first, in round order, a batch
    of whole rounds and at most ``_BATCH_PAIRS`` pairs at a time
    (:func:`_distinct_runs`; ``rounds`` holds each pair's round). Then each
    dense round comes alone (:func:`_subset`; ``rounds`` is its index): its
    draw is O(m) anyway, or larger than a batch. Empty rounds draw nothing."""
    sparse = (counts * _SPARSE_SHARE <= m) & (counts <= _BATCH_PAIRS)
    rounds = np.flatnonzero(sparse & (counts > 0))
    ends = np.cumsum(counts[rounds])  # pairs up to and including each sparse round
    start = 0
    while start < rounds.size:
        done = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, done + _BATCH_PAIRS, "right"))
        batch, runs = _distinct_runs(rng, m, counts[rounds[start:stop]])
        yield rounds[start:stop][batch], runs
        start = stop
    for i in np.flatnonzero(~sparse).tolist():
        yield i, _subset(rng, m, int(counts[i]))


def _distinct_runs(rng: np.random.Generator, m: int, counts: np.ndarray):
    """A uniform ``counts[j]``-subset of range(m) for each j, as ``(j, runs)``
    arrays of pairs sorted by j, then run: keys ``j * m + run`` drawn with
    replacement, deduplicated by sorting, and each j's shortfall redrawn until
    none is left. Every step treats the runs alike, so each subset is uniform."""
    keys, short = np.empty(0, dtype=np.int64), counts
    while short.any():
        drawn = np.repeat(np.arange(counts.size) * m, short) + rng.integers(0, m, short.sum())
        keys = np.sort(np.concatenate([keys, drawn]))
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        short = counts - np.bincount(keys // m, minlength=counts.size)
    return np.divmod(keys, m)


def _subset(rng: np.random.Generator, m: int, size: int) -> np.ndarray:
    """A uniform ``size``-subset of range(m): drawn directly up to m/2, else
    as the complement of an (m - size)-subset, so at most m/2 indices are drawn."""
    if 2 * size <= m:
        return rng.choice(m, size, replace=False, shuffle=False)
    keep = np.ones(m, dtype=bool)
    keep[rng.choice(m, m - size, replace=False, shuffle=False)] = False
    return np.flatnonzero(keep)
