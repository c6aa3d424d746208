"""The gate's and the tests' references: code that no report runs.

The engine never imports this module; the gate (``acceptance``), the demos
and the tests do, so ``import cutchoose`` loads none of it. It holds a grid
optimizer on [0, 1], seeded random states and effects, the numerical-range
search, the security errors by a scan over the mixing weight, the comb view
of the per-round protocol (:func:`round_outcome_table_via_combs`), both
diamond distances, and seeded random general setups.

The optimizer takes the first optimum of an even grid, in lockstep on
arrays: :func:`refine` zooms on one bracket per element, and
:func:`scan_unit_interval` scans for the ``B`` objectives of one function in
blocks of about ``_BLOCK_VALUES`` values, so memory does not grow with ``B``.
:func:`diamond_distance_pure_search` scans the same grid itself, reading
both ends of each rotated part's spectrum (in closed form at 2×2) so that one
part serves two grid points, and hands its first optimum to :func:`refine`.
Every generator takes an explicit ``numpy.random.Generator``, so callers stay
deterministic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bounds import _check_dims
from .combs import (NOISE_CHANNELS, Comb, GeneralSetup, GeneralTest, Tooth,
                    general_test_acceptance, random_unitary, trivial_parallel_comb)
from .errors import ContractViolationError, DimensionCapError, OutOfDomainError
from .linalg import (DensityOperator, PureState, dagger, fidelity_psd, require_broadcast,
                     require_unitary, trace_norm)
from .protocol import (ProtocolSpec, RoundDistribution, RoundOutcomeTable, outcome_table,
                       receive_rounds)
from .states import AbortExtendedState, PovmElement
from .strategies import PhaseAttack, Placement

_GRID_POINTS = 10_001  # [0, 1] at step 1e-4, endpoints included
_BLOCK_VALUES = 2**16  # grid values per block over all objectives: 512 KB
_ZOOM = np.linspace(0.0, 1.0, 33)  # a round's probes: 32 cells, 2 kept, 16-fold zoom
REFINE_TOL = 1e-12  # bracket width at which refine stops, unless told otherwise


def _values(f, probes: np.ndarray, rows: int | None = None) -> np.ndarray:
    """``f`` at ``(1, r)`` or ``(B, r)`` probes: ``(rows, r)`` values that must
    all be finite (``rows`` None takes the rows ``f`` gives)."""
    vals = np.asarray(f(probes), dtype=float)
    want = (vals.shape[0] if rows is None and vals.ndim == 2 else rows, probes.shape[1])
    if vals.shape != want:
        raise ContractViolationError(f"objective gave shape {vals.shape}, expected {want}")
    bad = ~np.isfinite(vals)
    if bad.any():  # the first probe, in grid order, with a non-finite value
        t = float(np.broadcast_to(probes, vals.shape).T[bad.T][0])
        raise OutOfDomainError(f"objective is not finite at grid point {t}")
    return vals


def refine(f, lo, hi, tol: float = REFINE_TOL, minimize: bool = True):
    """Zoom on brackets [lo, hi] for the first optimum of ``f``.

    ``lo``, ``hi``: floats or same-shape arrays; ``f`` maps ``(B, 33)``
    probes, one row per bracket in flat order, to their values. Each round
    probes 33 evenly spaced points per bracket, ends included, and keeps the
    two cells beside the first best. A bracket takes the rounds that narrow
    it to ``tol`` (at least one), then holds still, so it gets what it would
    alone. Returns ``(x, f(x))`` at each bracket's last best probe, floats
    for a scalar bracket. Raises :class:`OutOfDomainError` on a non-finite or
    reversed bracket, a ``tol`` not finite and positive, or a non-finite value.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise OutOfDomainError(f"refine tol must be finite and > 0, got {tol!r}")
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    shape, lo, hi = lo.shape, lo.ravel(), hi.ravel()
    width = hi - lo
    if not np.all(np.isfinite(width) & (width >= 0)):
        raise OutOfDomainError("refine brackets must be finite with lo <= hi")
    rounds = np.ceil((np.log2(np.maximum(width, tol)) - math.log2(tol)) / 4).clip(1)
    rows = np.arange(lo.size)
    for k in range(int(rounds.max(initial=1))):
        probes = lo[:, None] + (hi - lo)[:, None] * _ZOOM
        vals = _values(f, probes, lo.size)
        j = vals.argmin(axis=1) if minimize else vals.argmax(axis=1)
        zoom = k + 1 < rounds
        lo = np.where(zoom, probes[rows, np.maximum(j - 1, 0)], lo)
        hi = np.where(zoom, probes[rows, np.minimum(j + 1, _ZOOM.size - 1)], hi)
    x, v = probes[rows, j].reshape(shape), vals[rows, j].reshape(shape)
    return (float(x), float(v)) if x.ndim == 0 else (x, v)


def scan_unit_interval(f, minimize: bool = True):
    """Grid scan of [0, 1] at step 1e-4 (endpoints included) for the ``B``
    objectives of ``f``, whose first optimum :func:`refine` zooms on between
    its neighbours. The first grid point fixes ``B``; the rest are cut into
    blocks of ``_BLOCK_VALUES // B`` points (the last takes one point more
    rather than leave one alone), each reduced to a running first optimum.
    Returns ``(x, f(x))`` as ``(B,)`` arrays. Raises
    :class:`ContractViolationError` on values of another shape than
    ``(B, r)`` and :class:`OutOfDomainError` on a non-finite value.
    """
    xs = np.linspace(0.0, 1.0, _GRID_POINTS)
    best_v = _values(f, xs[None, :1])[:, 0]
    best_i, b = np.zeros(best_v.size, dtype=int), best_v.size
    r = max(1, _BLOCK_VALUES // max(1, b))
    # no later block of one point: numpy takes one-row matrix products to
    # another BLAS kernel, whose last bits differ from a longer block's
    edges = [*range(1, _GRID_POINTS - 1, r), _GRID_POINTS]
    for start, stop in zip(edges[:-1], edges[1:]):
        vals = _values(f, xs[None, start:stop], b)
        j = vals.argmin(axis=1) if minimize else vals.argmax(axis=1)
        v = vals[np.arange(b), j]
        better = v < best_v if minimize else v > best_v
        best_i, best_v = np.where(better, start + j, best_i), np.where(better, v, best_v)
    lo, hi = xs[np.maximum(best_i - 1, 0)], xs[np.minimum(best_i + 1, _GRID_POINTS - 1)]
    return refine(f, lo, hi, minimize=minimize)


def random_complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_pure_state(dim: int, rng: np.random.Generator) -> PureState:
    vec = random_complex_gaussian(rng, dim)
    return PureState(vec / np.linalg.norm(vec))


def random_psd(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    g = random_complex_gaussian(rng, (dim, rank or dim))
    return g @ dagger(g)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    m = random_psd(dim, rng, rank=rank)
    return DensityOperator(m / np.trace(m).real)


def random_povm_effect(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random PSD matrix with spectrum strictly inside [0, 1)."""
    m = random_psd(dim, rng)
    top = float(np.linalg.eigvalsh(m).max())
    return m / (top + float(rng.uniform(0.1, 1.0)))


_RANGE_TOL = 1e-9  # width to which numerical_range_min_overlap refines its weight


def segment_modulus_sq(lam, alpha):
    """|lam * 1 + (1-lam) * e^{i alpha}|^2 on the eigenvalue segment, elementwise."""
    lam = np.asarray(lam, dtype=float)
    return lam**2 + (1.0 - lam) ** 2 + 2.0 * lam * (1.0 - lam) * np.cos(alpha)


def numerical_range_min_overlap(alpha, trials: int = 64, seed=0):
    """Minimum of |<u| (1 ⊗ P(alpha)) |u>|^2 over pure states.

    Random pure states seed the search; the operator has the two-point
    spectrum {1, e^{i alpha}}, so every value equals the segment objective at
    lam = (weight on the 1-eigenspace), and the refinement zooms on lam in
    [0, 1] within 1/2 of the best sample, where that objective is convex. The
    raw sampled minimum is kept as a cross-check upper bound. Arrays of
    ``alpha`` and ``seed`` (broadcast together) give an array of minima, each
    its scalar call's, refined in lockstep.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise OutOfDomainError(f"trials must be an integer >= 1, got {trials!r}")
    alpha, seed = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.asarray(seed))
    if not np.all(np.isfinite(alpha)):
        raise OutOfDomainError(f"alpha must be finite, got {alpha[~np.isfinite(alpha)][0]}")
    # per seed, one draw in the order of per-state draws: real parts, then imaginary parts
    g = np.empty((seed.size, trials, 2, 4))
    for s, out in zip(seed.flat, g):
        np.random.default_rng(s).standard_normal(out=out)
    g = g.reshape(seed.shape + (trials, 2, 4))
    # squared norms summed as np.linalg.norm sums one state's: real, then imaginary
    norms = np.sqrt(np.einsum("...ij,...ij->...i", g, g).sum(axis=-1))
    weights = np.abs((g[..., 0, :] + 1j * g[..., 1, :]) / norms[..., None]) ** 2
    # 1 ⊗ P(alpha) is diagonal: phase 1 on even components (the weight lam on
    # its 1-eigenspace), e^{i alpha} on odd ones
    lam, rest = weights[..., ::2].sum(axis=-1), weights[..., 1::2].sum(axis=-1)
    vals = np.abs(lam + np.exp(1j * alpha)[..., None] * rest) ** 2
    best = vals.min(axis=-1)
    best_lam = np.take_along_axis(lam, vals.argmin(axis=-1)[..., None], axis=-1)[..., 0]
    lo, hi = np.maximum(0.0, best_lam - 0.5), np.minimum(1.0, best_lam + 0.5)
    _, refined = refine(lambda t: segment_modulus_sq(t, alpha.reshape(-1, 1)),
                        lo, hi, tol=_RANGE_TOL)
    found = np.minimum(best, refined)
    return float(found) if found.ndim == 0 else found


def _mixtures(target: DensityOperator, ps) -> np.ndarray:
    """p*target ⊕ (1-p)*reject for each p of ``ps``, as a stack of matrices."""
    p = np.asarray(ps)[..., None, None]
    return (p * AbortExtendedState(1.0, target).matrix
            + (1.0 - p) * AbortExtendedState(0.0, target).matrix)


def epsilon_d_standalone_grid(rho_d: AbortExtendedState, target: DensityOperator) -> float:
    """Independent evaluation of ``bounds.epsilon_d_standalone`` by scanning p."""
    _check_dims(rho_d, target)
    _, (best,) = scan_unit_interval(
        lambda ps: fidelity_psd(rho_d.matrix, _mixtures(target, ps)), minimize=False
    )
    return max(0.0, 1.0 - min(1.0, float(best)))


def epsilon_d_composable_grid(rho_d: AbortExtendedState, target: DensityOperator) -> float:
    """Independent evaluation of ``bounds.epsilon_d_composable`` by scanning p."""
    _check_dims(rho_d, target)
    _, (best,) = scan_unit_interval(
        lambda ps: 0.5 * trace_norm(rho_d.matrix - _mixtures(target, ps)), minimize=True
    )
    return max(0.0, float(best))


def action_unitary(chi: np.ndarray, h: np.ndarray, e: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A unitary with ``U chi = h`` and ``U g = e``, for one round that passes
    ``protocol.receive_action``: the product of two reflections
    ``I - v v^dagger / <v|x>``, ``v = x - y``, each unitary and mapping ``x``
    to ``y`` when ``|x| = |y|`` (Householder). The second maps the first's
    image of ``g`` to ``e`` and fixes ``h``. O(d^2): the dense reference's
    matrix for a round known by its action; the identity for identity rounds."""
    u = np.eye(chi.shape[0], dtype=np.complex128)
    for x, y in ((chi, h), (None, e)):
        x = u @ g if x is None else x
        v = x - y
        c = np.vdot(v, x)
        if c:
            u -= np.outer(v / c, np.conj(v) @ u)
    return u


def round_outcome_table_via_combs(
    spec: ProtocolSpec, strategy: PhaseAttack
) -> RoundOutcomeTable:
    """The per-round protocol's (n, ell) table through the general engine, the
    reference for ``protocol.round_outcome_table``. Each n's rounds are
    received once; each round plays the unitary that :func:`action_unitary`
    builds from its checked action (the identity for identity traps) and the
    projector onto its effect, and output round ell leaves the other n rounds
    as one joint test on a parallel comb."""
    def per_ell(n):
        rounds = [(chi, np.outer(e, e.conj()), action_unitary(chi, h, e, g))
                  for chi, h, e, g in zip(*receive_rounds(spec, n))]
        if len(rounds) == 1:  # round-independent: one row stands for every round
            rounds *= n + 1
        comb, row = trivial_parallel_comb(n, k=spec.k, y_dim=1), []
        for ell in range(1, n + 2):
            tests = rounds[:ell - 1] + rounds[ell:]
            chi_vec, joint = np.ones(1, dtype=np.complex128), np.eye(1, dtype=np.complex128)
            for chi, effect, _ in tests:
                chi_vec, joint = np.kron(chi_vec, chi), np.kron(joint, effect)
            unitaries = tuple(u for _, _, u in tests)
            test = GeneralTest(PureState(chi_vec), unitaries, PovmElement(joint))
            row.append(general_test_acceptance(test, comb, strategy))
        return row

    return outcome_table(spec.omega, spec.output_round, per_ell)


def _unitary_pair(u, v, stack: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Both arguments as finite unitaries of one dim, within ``VALIDATION_TOL``; with
    ``stack``, stacks ``(..., d, d)`` whose leading axes broadcast."""
    um = require_unitary(u, "first argument", stack=stack)
    vm = require_unitary(v, "second argument", um.shape[-1], stack=stack)
    require_broadcast(um, vm)
    return um, vm


def diamond_distance_unitaries(u, v) -> float:
    """Half diamond distance between two unitary channels.

    For unitaries the value is sqrt(1 - nu^2) where nu is the distance from
    the origin to the convex hull of the spectrum of u†v. The hull of points
    on the unit circle contains the origin iff no arc gap exceeds pi;
    otherwise the nearest hull point lies on the chord closing the largest
    gap, at distance cos(spread / 2) for spread = 2*pi - largest gap.
    """
    um, vm = _unitary_pair(u, v)
    eigs = np.linalg.eigvals(dagger(um) @ vm)
    angles = np.sort(np.angle(eigs))
    gaps = np.append(np.diff(angles), angles[0] + 2.0 * math.pi - angles[-1])
    largest = float(gaps.max())
    if largest <= math.pi:
        return 1.0
    nu = math.cos((2.0 * math.pi - largest) / 2.0)
    return math.sqrt(max(0.0, 1.0 - nu * nu))


_SEARCH_STACK = 2**13  # rotated parts (pairs x points) per block: 64 KB an array at 2x2, 2 MB at 4x4


def hermitian_2x2_ends(a, b, re, im):
    """λ_min and λ_max of the Hermitian matrices [[a, c], [c*, b]], c = re + i im,
    elementwise: mean ∓ sqrt(half_diff² + re² + im²) for mean = (a + b)/2 and
    half_diff = (a - b)/2, the ends of the eigenvalue pair centred on the mean."""
    mean, half = (a + b) / 2.0, (a - b) / 2.0
    radius = np.sqrt(half * half + re * re + im * im)
    return mean - radius, mean + radius


def diamond_distance_pure_search(u, v):
    """Independent estimate: the smallest output overlap |<z|Mz>| over unit
    inputs z, for M = u†v ⊗ 1 on the input extended by a same-sized reference.

    That minimum is the distance nu from 0 to the numerical range of M, which
    is convex (Toeplitz–Hausdorff), so nu = max(0, max_θ λ_min(Re(e^{-iθ} M))).
    For W = u†v, Re(e^{-iθ} M) = Re(e^{-iθ} W) ⊗ 1 has the spectrum of
    Re(e^{-iθ} W), each eigenvalue repeated d times, so the search reads the
    d×d rotated parts of W: cos θ h1 + sin θ h2 for the Hermitian parts h1,
    h2 of W, each entry formed elementwise at 2×2, so a pair's values do not
    depend on its stack. A 2×2 part's ends are read in closed form
    (:func:`hermitian_2x2_ends`), a 3×3 or 4×4 part's by ``eigvalsh``. The
    maximum is found on the grid θ/2π = 0, 1e-4, ..., 1 and refined by
    zooming grids, whose ``(B, 33)`` probes give one row per pair, as
    :func:`scan_unit_interval` would. Since
    Re(e^{-i(θ+π)} W) = -Re(e^{-iθ} W),
    the ends of one part on the grid's first half give λ_min at θ and, as
    -λ_max, at θ + π: 5,001 parts per pair cover the 10,001 points, and the
    first grid point with the largest value is the one refined.
    The argument holds for any matrix and uses only the Hermitian eigenvalues
    of rotated parts, closed form or solved, and never the spectrum of u†v,
    while :func:`diamond_distance_unitaries` reads that spectrum and relies on
    u†v being normal: the two are independent.

    ``u``, ``v``: one pair of unitaries, or stacks ``(..., d, d)`` whose
    leading axes broadcast; all pairs are scanned together. One pair gives a
    float, stacks an array, each value the one its pair gets alone; an empty
    stack gives an empty array.
    """
    um, vm = _unitary_pair(u, v, stack=True)
    d = um.shape[-1]
    # every caller passes 2x2, read in closed form; at 4x4 a block holds one
    # pair's half grid, 5,001 4x4 matrices or 1.3 MB, for eigvalsh
    if d > 4:
        raise DimensionCapError(f"pure-state search takes at most 4x4, got {d}x{d}")
    w = dagger(um) @ vm
    if not math.prod(w.shape[:-2]):
        return np.empty(w.shape[:-2])
    m = w.reshape(-1, d, d)
    # the Hermitian parts h1, h2 of each W as real (2, K) rows: the entries
    # (a, b, Re c, Im c) of [[a, c], [c*, b]] at 2x2, all 2 d² reals above
    h = np.stack([m + dagger(m), (m - dagger(m)) * -1j], axis=1) / 2.0
    if d == 2:
        parts = np.stack([h[..., 0, 0].real, h[..., 1, 1].real,
                          h[..., 0, 1].real, h[..., 0, 1].imag], axis=-1)
    else:
        parts = h.reshape(len(m), 2, -1).view(np.float64)

    def ends(ts):
        """Per block of pairs, its slice and λ_min, λ_max of Re(e^{-2πit} W)
        at the ``(1, r)`` or ``(B, r)`` points ``ts``, one block alive at a time."""
        theta = 2.0 * math.pi * ts
        cos, sin = (np.broadcast_to(f(theta), (len(m), ts.shape[1])) for f in (np.cos, np.sin))
        step = max(1, _SEARCH_STACK // ts.shape[1])
        for j in range(0, len(m), step):
            rows = slice(j, j + step)
            c, s, p = cos[rows], sin[rows], parts[rows]
            if d == 2:
                entries = (c * p[:, 0, k, None] + s * p[:, 1, k, None] for k in range(4))
                yield (rows, *hermitian_2x2_ends(*entries))
            else:
                rotated = (np.stack([c, s], axis=-1) @ p).view(np.complex128)
                eigs = np.linalg.eigvalsh(rotated.reshape(c.shape + (d, d)))
                del rotated  # one block alive at a time
                yield rows, eigs[..., 0], eigs[..., -1]

    xs = np.linspace(0.0, 1.0, _GRID_POINTS)
    half = _GRID_POINTS // 2  # grid point j + half is θ + π
    best = np.empty(len(m), dtype=int)
    for rows, lam_min, lam_max in ends(xs[None, :half + 1]):
        vals = np.concatenate([lam_min, -lam_max[:, 1:]], axis=1)
        bad = ~np.isfinite(vals)
        if bad.any():  # the first grid point, in grid order, with a non-finite value
            raise OutOfDomainError(f"objective is not finite at grid point {xs[bad.any(axis=0)][0]}")
        best[rows] = vals.argmax(axis=1)
    lo, hi = xs[np.maximum(best - 1, 0)], xs[np.minimum(best + 1, _GRID_POINTS - 1)]
    _, top = refine(lambda ts: np.concatenate([lam_min for _, lam_min, _ in ends(ts)]),
                    lo, hi, minimize=False)
    nu = np.maximum(0.0, top)
    dist = np.sqrt(np.maximum(0.0, 1.0 - nu**2)).reshape(w.shape[:-2])
    return float(dist) if dist.ndim == 0 else dist


class RandomCombDraw(NamedTuple):
    setup: GeneralSetup
    alpha: float
    placement: Placement


def random_comb_draw(seed: int) -> RandomCombDraw:
    """Seeded random general setup with k = 1 and at most 3 test rounds: round
    distribution, wiring, teeth (wire permutations, dephasing, depolarizing),
    entangled test states, random unitary sequences, and a random acceptance
    effect."""
    max_rounds, k = 3, 1
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, max_rounds + 1))
    ns = sorted(int(x) for x in rng.choice(max_rounds + 1, size=size, replace=False))
    if all(n == 0 for n in ns):
        ns = sorted(set(ns) | {int(rng.integers(1, max_rounds + 1))})
    probs = rng.dirichlet(np.ones(len(ns)))
    omega = RoundDistribution.from_pairs(zip(ns, probs))
    output_round: dict[int, tuple[float, ...]] = {}
    tests: dict[int, GeneralTest] = {}
    combs: dict[tuple[int, int], Comb] = {}
    d = 2**k

    def random_tooth(width: int) -> Tooth | None:
        kind = int(rng.integers(0, 4))
        if kind == 0:
            return None
        if kind == 1:
            return Tooth(tuple(int(p) for p in rng.permutation(width)), None, None, None)
        qubit = int(rng.integers(0, width * k))
        strength = float(rng.uniform(0.0, 1.0))
        # kinds 2 and 3 are the palette in table order: dephasing, depolarizing
        return Tooth(None, list(NOISE_CHANNELS)[kind - 2], qubit, strength)

    for n in ns:
        if n == 0:
            continue
        output_round[n] = tuple(rng.dirichlet(np.ones(n + 1)))
        width = int(rng.integers(1, min(n, 2) + 1))
        y_dim = int(2 ** rng.integers(0, 2))
        full_dim = d**width * y_dim
        chi = random_density(full_dim, rng)
        unitaries = tuple(random_unitary(d, rng) for _ in range(n))
        mu = PovmElement(random_povm_effect(full_dim, rng))
        tests[n] = GeneralTest(chi, unitaries, mu)
        hole_regs = tuple(int(x) for x in rng.integers(0, width, size=n))
        for ell in range(1, n + 2):
            combs[(n, ell)] = Comb(
                n_holes=n,
                k=k,
                width=width,
                y_dim=y_dim,
                hole_registers=hole_regs,
                teeth=tuple(random_tooth(width) for _ in range(n + 1)),
            )
    setup = GeneralSetup(omega=omega, tests=tests, combs=combs, output_round=output_round)
    alpha = float(rng.uniform(0.0, 2.0 * math.pi))
    placement = Placement.POST if rng.integers(0, 2) == 0 else Placement.PRE
    return RandomCombDraw(setup, alpha, placement)
