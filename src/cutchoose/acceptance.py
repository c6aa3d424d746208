"""End-to-end verification suite.

Each criterion states its checks at the gate's named allowances: it yields a
failure message for every condition that does not hold, each written as the
condition that must hold, so a NaN fails. One runner, :func:`_criterion`,
times it, applies its runtime limit and returns its :class:`CriterionResult`;
the CLI ``selftest`` subcommand and the test suite both drive this module.
The bound statements are universally quantified and cannot be checked
exhaustively, so the suite certifies concrete witness instances plus
randomized property families — the strongest desk-scale evidence available.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .bounds import STEP_TOL, SecurityModel, run_tradeoff_check
from .combs import bell_test_setup, general_tradeoff_check
from .families import (
    ComputationalTraps,
    PlusTraps,
    RandomTraps,
    computational_acceptance,
    matched_acceptance,
    plus_acceptance,
)
from .linalg import (
    dagger,
    fidelity_psd,
    pure_trace_distance,
    tol_text,
    trace_norm,
)
from .protocol import (
    ProtocolSpec,
    RoundDistribution,
    monte_carlo_run,
    overall_acceptance,
    round_outcome_table,
)
from .reference import (
    diamond_distance_pure_search,
    diamond_distance_unitaries,
    numerical_range_min_overlap,
    random_comb_draw,
    random_complex_gaussian,
    round_outcome_table_via_combs,
    scan_unit_interval,
)
from .states import phase_gate
from .strategies import HONEST, PhaseAttack, Placement


# The gate's allowances, each used by name
_EXACT_TOL = 1e-9  # an exact sum against its closed form or the bound it must clear
_ENGINE_TOL = 1e-10  # the per-round and network engines on one probability
_JENSEN_TOL = 1e-12  # rounding of the concavity step's two sums
_REFINED_TOL = 1e-6  # a refined grid optimum: max_p off a^2 + b^2, a minimum below the true one
_NUMERICAL_RANGE_TOL = 1e-4  # the numerical-range optimizer from 16 random starts
_SEARCH_TOL = 1e-5  # the diamond distance's pure-state search on its finite grid
_MC_SIGMAS = 4.0  # sampled acceptance off the exact value, in binomial standard deviations


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _criterion(name: str, detail: str, limit: float | None = None):
    """A criterion from a generator of failure messages: timed once, failed past
    its runtime ``limit`` in seconds (its pass ``detail`` then quotes the time),
    and reported with its first three failures, or ``detail`` if none."""

    def wrap(checks: Callable[[], Iterator[str]]) -> Callable[[], CriterionResult]:
        @functools.wraps(checks)
        def criterion() -> CriterionResult:
            t0 = time.perf_counter()
            failures = list(checks())
            seconds = time.perf_counter() - t0
            pass_detail = detail
            if limit is not None:
                if seconds >= limit:
                    failures.append(f"runtime {seconds:.2f}s exceeds {limit:g}s")
                pass_detail += f"; {seconds:.2f}s"
            if failures:
                more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
                return CriterionResult(name, False, "; ".join(failures[:3]) + more, seconds)
            return CriterionResult(name, True, pass_detail, seconds)

        return criterion

    return wrap


def _tradeoff_sweep(model: SecurityModel, eps_d, bound, margin_text: str) -> Iterator[str]:
    """Plus-trap point masses N in {1,2,5,10,50,200} under ``model``: eps_h = 0
    and eps_d = ``eps_d(N)`` in closed form, eps_h + eps_d at least 1.5
    ``bound(N)`` (half the bound as margin, ``margin_text``), report satisfied."""
    for n in (1, 2, 5, 10, 50, 200):
        spec = ProtocolSpec(RoundDistribution.point_mass(n), 1, PlusTraps(), plus_acceptance())
        report = run_tradeoff_check(spec, model)
        want, floor = eps_d(n), bound(n)
        if not abs(report.eps_h) <= _EXACT_TOL:
            yield f"N={n}: eps_h={report.eps_h:.3e} not 0"
        if not abs(report.eps_d - want) <= _EXACT_TOL:
            yield f"N={n}: eps_d={report.eps_d!r} != {want!r}"
        margin = report.eps_h + report.eps_d - floor
        if not margin >= 0.5 * floor - _EXACT_TOL:
            yield f"N={n}: margin {margin:.3e} below {margin_text}"
        if not report.satisfied:
            yield f"N={n}: report not satisfied"


@_criterion("stand-alone trade-off (N in {1,2,5,10,50,200})",
            "eps_h = 0, eps_d = (1-4/9N)^N 4/(9N), sum >= 1.5/(7N)", limit=1.0)
def criterion_stand_alone_tradeoff():
    """Point-mass sweeps reproduce the stand-alone bound with margin."""
    return _tradeoff_sweep(
        SecurityModel.STAND_ALONE, lambda n: (1.0 - 4.0 / (9.0 * n)) ** n * (4.0 / (9.0 * n)),
        lambda n: 1.0 / (7.0 * n), "0.5/(7N)",
    )


@_criterion("composable trade-off (same sweep)",
            "eps_d = (1-1/4N)^N / (2 sqrt N), sum >= 1.5/(4 sqrt N)")
def criterion_composable_tradeoff():
    """Same sweep under the composable (trace-distance) model."""
    return _tradeoff_sweep(
        SecurityModel.COMPOSABLE, lambda n: (1.0 - 1.0 / (4.0 * n)) ** n / (2.0 * math.sqrt(n)),
        lambda n: 1.0 / (4.0 * math.sqrt(n)), "0.5/(4 sqrt N)",
    )


@_criterion("general-test trade-offs (entangled tests, N in {1,2,3,4})",
            "sums above 1/(7N^2) and 1/(4N)", limit=10.0)
def criterion_general_test_bounds():
    """Entangled-test setups satisfy both general-variant bounds."""
    for n in (1, 2, 3, 4):
        setup = bell_test_setup(n)
        sa = general_tradeoff_check(SecurityModel.STAND_ALONE, setup)
        if not sa.eps_h + sa.eps_d >= 1.0 / (7.0 * n * n) - _EXACT_TOL:
            yield f"N={n}: stand-alone sum {sa.eps_h + sa.eps_d!r} below 1/(7N^2)"
        co = general_tradeoff_check(SecurityModel.COMPOSABLE, setup)
        if not co.eps_h + co.eps_d >= 1.0 / (4.0 * n) - _EXACT_TOL:
            yield f"N={n}: composable sum {co.eps_h + co.eps_d!r} below 1/(4N)"


def _state_pairs(rng: np.random.Generator):
    """1000 dims from {2, 4, 8, 16} in one draw, and a pair of Haar states of
    each dim padded to 16: each dim's pairs as one normalised (2, m, d)
    complex Gaussian block."""
    dims, amps = rng.choice((2, 4, 8, 16), size=1000), np.zeros((2, 1000, 16), complex)
    for d in (2, 4, 8, 16):
        cols = np.flatnonzero(dims == d)
        pairs = random_complex_gaussian(rng, (2, cols.size, d))
        amps[:, cols, :d] = pairs / np.linalg.norm(pairs, axis=-1, keepdims=True)
    return dims, amps


def _psd_quadruples(rng: np.random.Generator):
    """1000 quadruples P1, Q1, P2, Q2 padded to 6 x 6, with their dims d1 + d2:
    P1, Q1 on the diagonal block (0, d1) and P2, Q2 on (d1, d2), d1 and d2 in
    {1, 2, 3}. Each block is G G† times a scale from U(0.1, 2); the scales
    come as one array, and each block size's Ginibre matrices G as one stack."""
    d1, d2 = rng.integers(1, 4, size=(2, 1000))
    zero = np.zeros_like(d1)
    sizes, offsets = np.stack([d1, d1, d2, d2]), np.stack([zero, zero, d1, d1])
    scales = rng.uniform(0.1, 2.0, size=(4, 1000))
    quads = np.zeros((4, 1000, 6, 6), dtype=np.complex128)
    for size in (1, 2, 3):
        j, t = np.nonzero(sizes == size)
        g = random_complex_gaussian(rng, (j.size, size, size))
        at = (offsets[j, t, None] + np.arange(size))[:, :, None]
        quads[j[:, None, None], t[:, None, None], at, at.transpose(0, 2, 1)] = (
            g @ dagger(g) * scales[j, t, None, None])
    return (d1 + d2, *quads)


def _identity_cases():
    """The closed-form families' 1000 cases each, drawn family by family in
    stacks from one generator seeded 20260809: (dims, padded u, v,
    pure_trace_distance), (dims, padded P1, Q1, P2, Q2), (a, b) rows, angles.
    The closed form is the production function on the stacked states of each
    dimension, validated once per stack."""
    rng = np.random.default_rng(20260809)
    dims, amps = _state_pairs(rng)
    closed = _stacked(pure_trace_distance, dims, *amps)
    yield dims, amps, closed
    del dims, amps, closed  # not held while the other families run
    yield _psd_quadruples(rng)
    yield rng.uniform(0.0, 1.0, size=(1000, 2))
    yield rng.uniform(0.0, 2.0 * math.pi, size=1000)


def _stacked(measure, dims, *padded) -> np.ndarray:
    """``measure`` on the stacked cases of each dimension ``d`` (operands ``op[i]``
    cut to ``d`` along every axis); row ``i`` holds case ``i``'s value or values."""
    groups = [np.flatnonzero(dims == d) for d in np.unique(dims)]
    values = [
        np.transpose(measure(*(op[(g,) + (slice(dims[g[0]]),) * (op.ndim - 1)] for op in padded)))
        for g in groups
    ]
    return np.concatenate(values)[np.argsort(np.concatenate(groups))]


def _half_trace_norm_gap(u, v):
    """0.5 ||uu† - vv†||_1 for each pair of rows of two stacks of state vectors."""
    return 0.5 * trace_norm(u[:, :, None] * u[:, None].conj() - v[:, :, None] * v[:, None].conj())


def _block_additivity(p1, q1, p2, q2):
    """Joint and split fidelity and trace norm of orthogonal-support quadruples."""
    fid_split = (np.sqrt(fidelity_psd(p1, q1)) + np.sqrt(fidelity_psd(p2, q2))) ** 2
    tn_split = trace_norm(p1 - q1) + trace_norm(p2 - q2)
    return fidelity_psd(p1 + p2, q1 + q2), fid_split, trace_norm(p1 + p2 - q1 - q2), tn_split


def _max_p_objective(w: np.ndarray):
    """ps -> (sqrt(p) a + sqrt(1-p) b)^2, one objective per row (a, b) of ``w``:
    ``(1, r)`` grid probes and ``(B, 33)`` refinement probes give ``(B, r)``.
    On grid probes, shared by every row, the square expands to
    a^2 p + b^2 (1-p) + 2ab sqrt(p(1-p)): one ``(B, 3) @ (3, r)`` product."""
    w = np.asarray(w).reshape(-1, 2)
    a, b = w[:, :1], w[:, 1:]
    coeffs = np.concatenate([a * a, b * b, 2.0 * a * b], axis=1)

    def objective(ps):
        if ps.shape[0] == 1:
            p, q = ps, 1.0 - ps
            return coeffs @ np.concatenate([p, q, np.sqrt(p * q)])
        return (a * np.sqrt(ps) + b * np.sqrt(1.0 - ps)) ** 2

    return objective


@_criterion("closed-form identities (4 x 1000 randomized cases)",
            "trace distance, block additivity, max_p identity, numerical range")
def criterion_closed_form_identities():
    """Randomized property families behind the bound derivations, each drawn
    in full, then evaluated in stacks through the production functions."""
    cases = _identity_cases()
    tol = tol_text(_EXACT_TOL)

    # pure-state trace distance vs singular-value route
    dims, amps, closed = next(cases)
    for trial, (c, eig) in enumerate(zip(closed, _stacked(_half_trace_norm_gap, dims, *amps))):
        if not abs(c - eig) <= _EXACT_TOL:
            yield f"trace-distance trial {trial}: |{c}-{eig}| > {tol}"
            break

    # orthogonal-support additivity of fidelity and trace norm
    for trial, (fj, fs, tj, ts) in enumerate(_stacked(_block_additivity, *next(cases))):
        if not abs(fj - fs) <= _EXACT_TOL:
            yield f"block fidelity trial {trial}: |{fj}-{fs}| > {tol}"
            break
        if not abs(tj - ts) <= _EXACT_TOL:
            yield f"block trace-norm trial {trial}: |{tj}-{ts}| > {tol}"
            break

    # max_p (sqrt(p) a + sqrt(1-p) b)^2 = a^2 + b^2, via the grid search
    ab = next(cases)
    _, maxima = scan_unit_interval(_max_p_objective(ab), minimize=False)
    for trial, ((a, b), best) in enumerate(zip(ab, maxima)):
        if not abs(best - (a * a + b * b)) <= _REFINED_TOL:
            yield f"max_p trial {trial}: |{best}-{a * a + b * b}| > {tol_text(_REFINED_TOL)}"
            break

    # optimizer finds the numerical-range minimum cos^2(alpha/2)
    alphas = next(cases)
    founds = numerical_range_min_overlap(alphas, trials=16, seed=np.arange(len(alphas)))
    for trial, (alpha, found) in enumerate(zip(alphas, founds)):
        target = math.cos(alpha / 2.0) ** 2
        if not (abs(found - target) <= _NUMERICAL_RANGE_TOL and found >= target - _REFINED_TOL):
            yield f"numerical-range trial {trial}: {found} vs {target}"
            break


@_criterion("acceptance-gap bound on random networks (20 seeds)",
            "gap <= N|sin(alpha/2)| on every draw", limit=30.0)
def criterion_gap_bound_random_networks():
    """|p_H - p_D| <= N |sin(alpha/2)| on 20 random test networks, read from
    each draw's composable report."""
    for seed in range(20):
        draw = random_comb_draw(seed)
        report = general_tradeoff_check(
            SecurityModel.COMPOSABLE, draw.setup, draw.alpha, draw.placement)
        gap = abs(report.p_h - report.p_d)
        bound = report.n_expected * abs(math.sin(report.alpha / 2.0))
        if not gap <= bound + STEP_TOL:
            yield f"seed {seed}: gap {gap!r} > bound {bound!r}"


@_criterion("diamond distance of the phase rotation (50 angles)",
            f"closed form within {tol_text(_EXACT_TOL)}, "
            f"pure-state search within {tol_text(_SEARCH_TOL)}")
def criterion_diamond_distance():
    """Half diamond distance of a phase rotation equals |sin(alpha/2)|."""
    eye = np.eye(2, dtype=np.complex128)
    alphas = np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)
    gates = np.stack([phase_gate(alpha) for alpha in alphas])
    searches = diamond_distance_pure_search(eye, gates).tolist()
    for alpha, gate, searched in zip(alphas, gates, searches):
        expected = abs(math.sin(alpha / 2.0))
        closed = diamond_distance_unitaries(eye, gate)
        if not abs(closed - expected) <= _EXACT_TOL:
            yield f"alpha={alpha:.4f}: closed form {closed!r} vs {expected!r}"
        if not abs(searched - expected) <= _SEARCH_TOL:
            yield f"alpha={alpha:.4f}: search {searched!r} vs {expected!r}"


def _concavity_sums(omega: RoundDistribution, c: float) -> tuple[float, float]:
    """The concavity step's two sides for ``c`` in [0, 1]: sum_n omega(n)
    sqrt(1 - c^{2n}) and sqrt(1 - c^{2N}), N the mean of ``omega``; equal for
    a point mass."""
    lhs = math.fsum(p * math.sqrt(max(0.0, 1.0 - c ** (2 * n))) for n, p in omega.support)
    return lhs, math.sqrt(max(0.0, 1.0 - c ** (2.0 * omega.mean)))


@_criterion("concavity step (100 random distributions, c in {0.5, 0.9, 0.99})",
            f"sum_n omega(n) sqrt(1-c^2n) <= sqrt(1-c^2N) at {tol_text(_JENSEN_TOL)}")
def criterion_jensen_step():
    """Concavity step for 100 random round distributions."""
    rng = np.random.default_rng(7)
    for trial in range(100):
        size = int(rng.integers(1, 6))
        ns = sorted(int(x) for x in rng.choice(13, size=size, replace=False))
        probs = rng.dirichlet(np.ones(size))
        omega = RoundDistribution.from_pairs(zip(ns, probs))
        for c in (0.5, 0.9, 0.99):
            lhs, rhs = _concavity_sums(omega, c)
            if not lhs <= rhs + _JENSEN_TOL:
                yield f"trial {trial}, c={c}: lhs {lhs!r} > rhs {rhs!r}"


def _mc_configs():
    """Ten (spec, strategy) pairs mixing trap families, attacks and supports."""
    rand = RandomTraps(seed=11)
    plus, matched = (PlusTraps(), plus_acceptance()), (rand, matched_acceptance(rand))
    comp = (ComputationalTraps(), computational_acceptance())
    point, mix = RoundDistribution.point_mass, RoundDistribution.from_pairs([(1, 0.5), (3, 0.5)])
    wide = RoundDistribution.from_pairs([(0, 0.2), (2, 0.5), (4, 0.3)])
    rows = [  # (omega, (traps, acceptance), k, strategy)
        (point(2), plus, 1, HONEST),
        (point(2), plus, 1, PhaseAttack(math.pi / 2.0)),
        (mix, plus, 1, PhaseAttack(1.0)),
        (wide, plus, 1, PhaseAttack(2.2, Placement.PRE)),
        (point(3), comp, 1, PhaseAttack(0.7)),
        (mix, matched, 1, HONEST),
        (mix, matched, 1, PhaseAttack(0.9)),
        (point(4), matched, 1, PhaseAttack(2.9, Placement.PRE)),
        (point(1), plus, 2, PhaseAttack(1.3)),
        (wide, comp, 1, PhaseAttack(0.4)),
    ]
    return [(ProtocolSpec(omega, k, traps, rule), strategy)
            for omega, (traps, rule), k, strategy in rows]


@_criterion("sampled vs exact acceptance (10 configs, 1e5 trials)",
            f"within {_MC_SIGMAS:g} sigma of the exact value, byte-identical reruns")
def criterion_monte_carlo():
    """Sampled acceptance matches the exact sums; runs are seed-deterministic."""
    trials = 100_000
    for idx, (spec, strategy) in enumerate(_mc_configs()):
        exact = overall_acceptance(spec, strategy)
        first = monte_carlo_run(spec, (strategy,), trials, seed=1000 + idx)[0]
        again = monte_carlo_run(spec, (strategy,), trials, seed=1000 + idx)[0]
        if repr(first) != repr(again):
            yield f"config {idx}: two runs with one seed differ"
        tolerance = _MC_SIGMAS * math.sqrt(exact * (1.0 - exact) / trials)
        if not abs(first - exact) <= tolerance:
            yield f"config {idx}: |{first} - {exact}| > {tolerance:.2e}"


@_criterion("per-round vs network engine (10 configs)",
            f"overall and per-round probabilities agree within {tol_text(_ENGINE_TOL)}")
def criterion_cross_engine_consistency():
    """Per-round protocol reproduced through the general network engine: the
    two tables agree in every (n, ell) cell, so their averages agree too."""
    tol = tol_text(_ENGINE_TOL)
    for idx, (spec, strategy) in enumerate(_mc_configs()):
        direct = round_outcome_table(spec, strategy)
        via = round_outcome_table_via_combs(spec, strategy)
        rows = zip(spec.omega.support, direct.rows, via.rows, strict=True)
        for (n, _), p_direct, p_via in rows:
            for ell in np.flatnonzero(~(np.abs(p_direct - p_via) <= _ENGINE_TOL)).tolist():
                yield (f"config {idx}: p(n={n}, ell={ell + 1}) "
                       f"|{p_direct[ell]} - {p_via[ell]}| > {tol}")


ALL_CRITERIA: tuple[tuple[str, Callable[[], CriterionResult]], ...] = (
    ("stand-alone-tradeoff", criterion_stand_alone_tradeoff),
    ("composable-tradeoff", criterion_composable_tradeoff),
    ("general-test-bounds", criterion_general_test_bounds),
    ("closed-form-identities", criterion_closed_form_identities),
    ("gap-bound-random-networks", criterion_gap_bound_random_networks),
    ("diamond-distance", criterion_diamond_distance),
    ("jensen-step", criterion_jensen_step),
    ("monte-carlo-vs-exact", criterion_monte_carlo),
    ("cross-engine-consistency", criterion_cross_engine_consistency),
)


def run_all(names: list[str] | None = None, echo: bool = True) -> list[CriterionResult]:
    """Run the suite (optionally a subset), printing one line per criterion."""
    selected = ALL_CRITERIA if not names else tuple(
        (n, f) for n, f in ALL_CRITERIA if n in names
    )
    results = []
    for _, fn in selected:
        res = fn()
        results.append(res)
        if echo:
            status = "PASS" if res.passed else "FAIL"
            print(f"{status} {res.name} [{res.seconds:.2f}s] {res.detail}")
    return results
