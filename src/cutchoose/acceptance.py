"""End-to-end verification suite.

Each criterion runs a self-contained check at a pinned tolerance and returns
a :class:`CriterionResult`; the CLI ``selftest`` subcommand and the test
suite both drive this module. The bound statements are universally
quantified and cannot be checked exhaustively, so the suite certifies
concrete witness instances plus randomized property families — the
strongest desk-scale evidence available.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import SecurityModel, run_tradeoff_check
from .combs import (
    bell_test_setup,
    diamond_distance_pure_search,
    diamond_distance_unitaries,
    general_tradeoff_check,
    linear_gap_check,
    overall_acceptance_via_combs,
    random_comb_draw,
    spec_round_as_general,
    general_test_acceptance,
)
from .families import (
    ComputationalTraps,
    PlusTraps,
    RandomTraps,
    computational_acceptance,
    matched_acceptance,
    plus_acceptance,
)
from .linalg import (
    fidelity_psd,
    pure_trace_distance,
    trace_norm,
)
from .optimize import scan_unit_interval
from .protocol import (
    ProtocolSpec,
    RoundDistribution,
    acceptance_probability,
    jensen_gap_check,
    monte_carlo_run,
    overall_acceptance,
)
from .sampling import random_psd, random_pure_state
from .states import numerical_range_min_overlap, phase_gate
from .strategies import HONEST, PhaseAttack, Placement


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name: str, t0: float, failures: list[str], detail_ok: str) -> CriterionResult:
    dt = time.perf_counter() - t0
    if failures:
        preview = "; ".join(failures[:3])
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        return CriterionResult(name, False, preview + more, dt)
    return CriterionResult(name, True, detail_ok, dt)


def _plus_spec(n: int, k: int = 1) -> ProtocolSpec:
    return ProtocolSpec(
        omega=RoundDistribution.point_mass(n),
        k=k,
        traps=PlusTraps(),
        acceptance=plus_acceptance(),
    )


def criterion_stand_alone_tradeoff() -> CriterionResult:
    """Point-mass sweeps reproduce the stand-alone bound with margin."""
    t0 = time.perf_counter()
    failures = []
    for n in (1, 2, 5, 10, 50, 200):
        report = run_tradeoff_check(_plus_spec(n), SecurityModel.STAND_ALONE)
        s2 = 4.0 / (9.0 * n)
        expected_eps_d = (1.0 - s2) ** n * s2
        bound = 1.0 / (7.0 * n)
        if abs(report.eps_h) > 1e-9:
            failures.append(f"N={n}: eps_h={report.eps_h:.3e} not 0")
        if abs(report.eps_d - expected_eps_d) > 1e-9:
            failures.append(f"N={n}: eps_d={report.eps_d!r} != {expected_eps_d!r}")
        margin = report.eps_h + report.eps_d - bound
        if margin < 0.5 / (7.0 * n) - 1e-9:
            failures.append(f"N={n}: margin {margin:.3e} below 0.5/(7N)")
        if not report.satisfied:
            failures.append(f"N={n}: report not satisfied")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    return _result(
        "stand-alone trade-off (N in {1,2,5,10,50,200})", t0, failures,
        f"eps_h = 0, eps_d = (1-4/9N)^N 4/(9N), sum >= 1.5/(7N); {elapsed:.2f}s",
    )


def criterion_composable_tradeoff() -> CriterionResult:
    """Same sweep under the composable (trace-distance) model."""
    t0 = time.perf_counter()
    failures = []
    for n in (1, 2, 5, 10, 50, 200):
        report = run_tradeoff_check(_plus_spec(n), SecurityModel.COMPOSABLE)
        expected_eps_d = (1.0 - 1.0 / (4.0 * n)) ** n / (2.0 * math.sqrt(n))
        bound = 1.0 / (4.0 * math.sqrt(n))
        if abs(report.eps_h) > 1e-9:
            failures.append(f"N={n}: eps_h={report.eps_h:.3e} not 0")
        if abs(report.eps_d - expected_eps_d) > 1e-9:
            failures.append(f"N={n}: eps_d={report.eps_d!r} != {expected_eps_d!r}")
        margin = report.eps_h + report.eps_d - bound
        if margin < 0.5 / (4.0 * math.sqrt(n)) - 1e-9:
            failures.append(f"N={n}: margin {margin:.3e} below 0.5/(4 sqrt N)")
    return _result(
        "composable trade-off (same sweep)", t0, failures,
        "eps_d = (1-1/4N)^N / (2 sqrt N), sum >= 1.5/(4 sqrt N)",
    )


def criterion_general_test_bounds() -> CriterionResult:
    """Entangled-test setups satisfy both general-variant bounds."""
    t0 = time.perf_counter()
    failures = []
    for n in (1, 2, 3, 4):
        setup = bell_test_setup(n)
        sa = general_tradeoff_check(SecurityModel.STAND_ALONE, setup)
        if sa.eps_h + sa.eps_d < 1.0 / (7.0 * n * n) - 1e-9:
            failures.append(f"N={n}: stand-alone sum {sa.eps_h + sa.eps_d!r} below 1/(7N^2)")
        co = general_tradeoff_check(SecurityModel.COMPOSABLE, setup)
        if co.eps_h + co.eps_d < 1.0 / (4.0 * n) - 1e-9:
            failures.append(f"N={n}: composable sum {co.eps_h + co.eps_d!r} below 1/(4N)")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    return _result(
        "general-test trade-offs (entangled tests, N in {1,2,3,4})", t0, failures,
        f"sums above 1/(7N^2) and 1/(4N); {elapsed:.2f}s",
    )


def _orthogonal_psd_quadruple(rng, out) -> int:
    """Draws P1, Q1, P2, Q2 (orthogonal supports across two diagonal blocks)
    into the zeroed ``out[0..3]`` and returns their dimension."""
    d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    for j, (offset, size) in enumerate(((0, d1), (0, d1), (d1, d2), (d1, d2))):
        block = random_psd(size, rng) * float(rng.uniform(0.1, 2.0))
        out[j, offset:offset + size, offset:offset + size] = block
    return d1 + d2


def _identity_cases():
    """The closed-form families' 1000 cases each, drawn in turn from one generator
    into arrays (lists of small arrays fragment the heap): (dims, padded u, v,
    pure_trace_distance), (dims, padded P1, Q1, P2, Q2), (a, b) rows, angles."""
    rng = np.random.default_rng(20260809)
    dims, closed, amps = np.empty(1000, int), np.empty(1000), np.zeros((2, 1000, 16), complex)
    for t in range(1000):
        d = dims[t] = int(rng.choice((2, 4, 8, 16)))
        u, v = random_pure_state(d, rng), random_pure_state(d, rng)
        amps[:, t, :d], closed[t] = (u.amplitudes, v.amplitudes), pure_trace_distance(u, v)
    yield dims, amps, closed
    quads = np.zeros((4, 1000, 6, 6), dtype=np.complex128)
    dims = np.array([_orthogonal_psd_quadruple(rng, quads[:, t]) for t in range(1000)])
    yield (dims, *quads)
    del dims, amps, closed, quads  # not held while the last two families run
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
    ``(1, r)`` grid probes and ``(B, 33)`` refinement probes give ``(B, r)``."""
    w = np.asarray(w).reshape(-1, 2)
    a, b = w[:, :1], w[:, 1:]
    return lambda ps: (a * np.sqrt(ps) + b * np.sqrt(1.0 - ps)) ** 2


def criterion_closed_form_identities() -> CriterionResult:
    """Randomized property families behind the bound derivations, each drawn
    in full, then evaluated in stacks through the production functions."""
    t0 = time.perf_counter()
    failures = []
    cases = _identity_cases()

    # pure-state trace distance vs eigenvalue route
    dims, amps, closed = next(cases)
    for trial, (c, eig) in enumerate(zip(closed, _stacked(_half_trace_norm_gap, dims, *amps))):
        if abs(c - eig) > 1e-9:
            failures.append(f"trace-distance trial {trial}: |{c}-{eig}| > 1e-9")
            break

    # orthogonal-support additivity of fidelity and trace norm
    for trial, (fj, fs, tj, ts) in enumerate(_stacked(_block_additivity, *next(cases))):
        if abs(fj - fs) > 1e-9:
            failures.append(f"block fidelity trial {trial}: |{fj}-{fs}| > 1e-9")
            break
        if abs(tj - ts) > 1e-9:
            failures.append(f"block trace-norm trial {trial}: |{tj}-{ts}| > 1e-9")
            break

    # max_p (sqrt(p) a + sqrt(1-p) b)^2 = a^2 + b^2, via the grid search
    ab = next(cases)
    _, maxima = scan_unit_interval(_max_p_objective(ab), minimize=False)
    for trial, ((a, b), best) in enumerate(zip(ab, maxima)):
        if abs(best - (a * a + b * b)) > 1e-6:
            failures.append(f"max_p trial {trial}: |{best}-{a * a + b * b}| > 1e-6")
            break

    # optimizer finds the numerical-range minimum cos^2(alpha/2)
    alphas = next(cases)
    founds = numerical_range_min_overlap(alphas, trials=16, seed=np.arange(len(alphas)))
    for trial, (alpha, found) in enumerate(zip(alphas, founds)):
        target = math.cos(alpha / 2.0) ** 2
        if abs(found - target) > 1e-4 or found < target - 1e-6:
            failures.append(f"numerical-range trial {trial}: {found} vs {target}")
            break

    return _result(
        "closed-form identities (4 x 1000 randomized cases)", t0, failures,
        "trace distance, block additivity, max_p identity, numerical range",
    )


def criterion_gap_bound_random_networks() -> CriterionResult:
    """|p_H - p_D| <= N |sin(alpha/2)| on 20 random test networks."""
    t0 = time.perf_counter()
    failures = []
    for seed in range(20):
        draw = random_comb_draw(seed)
        check = linear_gap_check(draw.setup, draw.alpha, draw.placement)
        if not check.holds or check.gap > check.bound + 1e-10:
            failures.append(f"seed {seed}: gap {check.gap!r} > bound {check.bound!r}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 30s")
    return _result(
        "acceptance-gap bound on random networks (20 seeds)", t0, failures,
        f"gap <= N|sin(alpha/2)| on every draw; {elapsed:.2f}s",
    )


def criterion_diamond_distance() -> CriterionResult:
    """Half diamond distance of a phase rotation equals |sin(alpha/2)|."""
    t0 = time.perf_counter()
    failures = []
    eye = np.eye(2, dtype=np.complex128)
    alphas = np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)
    gates = np.stack([phase_gate(alpha) for alpha in alphas])
    searches = diamond_distance_pure_search(eye, gates).tolist()
    for alpha, gate, searched in zip(alphas, gates, searches):
        expected = abs(math.sin(alpha / 2.0))
        closed = diamond_distance_unitaries(eye, gate)
        if abs(closed - expected) > 1e-9:
            failures.append(f"alpha={alpha:.4f}: closed form {closed!r} vs {expected!r}")
        if abs(searched - expected) > 1e-5:
            failures.append(f"alpha={alpha:.4f}: search {searched!r} vs {expected!r}")
    return _result(
        "diamond distance of the phase rotation (50 angles)", t0, failures,
        "closed form within 1e-9, pure-state search within 1e-5",
    )


def criterion_jensen_step() -> CriterionResult:
    """Concavity step for 100 random round distributions."""
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7)
    for trial in range(100):
        size = int(rng.integers(1, 6))
        ns = sorted(int(x) for x in rng.choice(13, size=size, replace=False))
        probs = rng.dirichlet(np.ones(size))
        omega = RoundDistribution.from_pairs(zip(ns, probs))
        for c in (0.5, 0.9, 0.99):
            check = jensen_gap_check(omega, c)
            if check.lhs > check.rhs + 1e-12:
                failures.append(f"trial {trial}, c={c}: lhs {check.lhs!r} > rhs {check.rhs!r}")
    return _result(
        "concavity step (100 random distributions, c in {0.5, 0.9, 0.99})", t0, failures,
        "sum_n omega(n) sqrt(1-c^2n) <= sqrt(1-c^2N) at 1e-12",
    )


def _mc_configs():
    """Ten (spec, strategy) pairs mixing trap families, attacks and supports."""
    specs = []
    plus, comp = PlusTraps(), ComputationalTraps()
    rand = RandomTraps(seed=11)
    omega_mix = RoundDistribution.from_pairs([(1, 0.5), (3, 0.5)])
    omega_wide = RoundDistribution.from_pairs([(0, 0.2), (2, 0.5), (4, 0.3)])

    def spec(omega, traps, acc, k=1):
        return ProtocolSpec(omega=omega, k=k, traps=traps, acceptance=acc)

    specs.append((spec(RoundDistribution.point_mass(2), plus, plus_acceptance()), HONEST))
    specs.append((
        spec(RoundDistribution.point_mass(2), plus, plus_acceptance()),
        PhaseAttack(math.pi / 2.0),
    ))
    specs.append((spec(omega_mix, plus, plus_acceptance()), PhaseAttack(1.0)))
    specs.append((
        spec(omega_wide, plus, plus_acceptance()),
        PhaseAttack(2.2, Placement.PRE),
    ))
    specs.append((
        spec(RoundDistribution.point_mass(3), comp, computational_acceptance()),
        PhaseAttack(0.7),
    ))
    specs.append((spec(omega_mix, rand, matched_acceptance(rand)), HONEST))
    specs.append((spec(omega_mix, rand, matched_acceptance(rand)), PhaseAttack(0.9)))
    specs.append((
        spec(RoundDistribution.point_mass(4), rand, matched_acceptance(rand)),
        PhaseAttack(2.9, Placement.PRE),
    ))
    specs.append((
        spec(RoundDistribution.point_mass(1), plus, plus_acceptance(), k=2),
        PhaseAttack(1.3),
    ))
    specs.append((spec(omega_wide, comp, computational_acceptance()), PhaseAttack(0.4)))
    return specs


def criterion_monte_carlo() -> CriterionResult:
    """Sampled acceptance matches the exact sums; runs are seed-deterministic."""
    t0 = time.perf_counter()
    failures = []
    trials = 100_000
    for idx, (spec, strategy) in enumerate(_mc_configs()):
        exact = overall_acceptance(spec, strategy)
        first = monte_carlo_run(spec, (strategy,), trials, seed=1000 + idx)[0]
        again = monte_carlo_run(spec, (strategy,), trials, seed=1000 + idx)[0]
        if repr(first) != repr(again):
            failures.append(f"config {idx}: two runs with one seed differ")
        tolerance = 4.0 * math.sqrt(exact * (1.0 - exact) / trials)
        if abs(first.accept_rate - exact) > tolerance:
            failures.append(
                f"config {idx}: |{first.accept_rate} - {exact}| > {tolerance:.2e}"
            )
    return _result(
        "sampled vs exact acceptance (10 configs, 1e5 trials)", t0, failures,
        "within 4 sigma of the exact value, byte-identical reruns",
    )


def criterion_cross_engine_consistency() -> CriterionResult:
    """Per-round protocol reproduced through the general network engine."""
    t0 = time.perf_counter()
    failures = []
    for idx, (spec, strategy) in enumerate(_mc_configs()):
        direct = overall_acceptance(spec, strategy)
        via = overall_acceptance_via_combs(spec, strategy)
        if abs(direct - via) > 1e-10:
            failures.append(f"config {idx}: overall |{direct} - {via}| > 1e-10")
        n = spec.omega.max_n
        if n >= 1:
            ell = min(n, 2)
            test, comb = spec_round_as_general(spec, n, ell)
            p_direct = acceptance_probability(spec, strategy, n, ell)
            p_via = general_test_acceptance(test, comb, strategy)
            if abs(p_direct - p_via) > 1e-10:
                failures.append(f"config {idx}: round |{p_direct} - {p_via}| > 1e-10")
    return _result(
        "per-round vs network engine (10 configs)", t0, failures,
        "overall and per-round probabilities agree within 1e-10",
    )


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
