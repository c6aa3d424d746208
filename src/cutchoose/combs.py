"""General test networks: combs with memory, channel plugging, diamond distance.

A test network intertwines the n delegated test computations with n + 1
fixed operations (teeth) connected through memory registers. Here the
traversal state is always the full stack of ``width`` k-qubit registers:
each hole acts on one designated register (the rest form the memory), and a
tooth is an optional channel on the whole stack (wire permutations and named
Kraus sets cover the shipped families). Plugging n channels into the holes
yields a channel on the register stack; the client may additionally keep an
auxiliary space that the network never touches.

Channels are stored as Kraus-operator lists. A test state is pushed through
the network step by step, so cost grows linearly in the hole count; :func:`plug`
composes the whole network and is the reference. Everything is capped at a
total dimension of 256: the bounds being certified are dimension-independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .bounds import TradeoffReport, certify_tradeoff
from .errors import (
    ContractViolationError,
    DimensionCapError,
    LayoutError,
)
from .linalg import COMB_DIM_CAP, DensityOperator, as_square_matrix, dagger, is_unitary
from .optimize import scan_unit_interval
from .protocol import (
    GlobalAcceptance,
    OutputRound,
    ProtocolSpec,
    RoundDistribution,
    RoundOutcomeTable,
    outcome_table,
    receive_trap,
    snap_probability,
)
from .sampling import random_density, random_povm_effect, random_unitary
from .states import PovmElement, attack_phases, bell_pair, computational_basis_state, plus_state
from .strategies import (
    HONEST,
    PhaseAttack,
    Placement,
    ProtocolVariant,
    SecurityModel,
    ServerStrategy,
    require_supported,
)


class Channel:
    """Completely positive trace-preserving map given by Kraus operators."""

    __slots__ = ("kraus", "dim")

    def __init__(self, kraus, check: bool = True):
        ops = tuple(np.asarray(k, dtype=np.complex128) for k in kraus)
        if not ops:
            raise ContractViolationError("channel needs at least one Kraus operator")
        d = ops[0].shape[0] if ops[0].ndim == 2 else 0
        for op in ops:
            if op.ndim != 2 or op.shape != (d, d):
                raise ContractViolationError("Kraus operators must be square and same-shaped")
        self.kraus = ops
        self.dim = d
        if check and not self.is_trace_preserving():
            raise ContractViolationError("Kraus operators do not sum to the identity within 1e-9")

    @classmethod
    def from_unitary(cls, u) -> "Channel":
        m = as_square_matrix(u)
        if not is_unitary(m):
            raise ContractViolationError("matrix is not unitary within 1e-10")
        return cls((m,), check=False)

    def is_trace_preserving(self, tol: float = 1e-9) -> bool:
        acc = sum(dagger(k) @ k for k in self.kraus)
        return bool(np.max(np.abs(acc - np.eye(self.dim))) <= tol)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for k in self.kraus:
            out += k @ rho @ dagger(k)
        return out

    def compose(self, inner: "Channel") -> "Channel":
        """self after inner."""
        if inner.dim != self.dim:
            raise LayoutError(f"cannot compose channels of dims {inner.dim} and {self.dim}")
        return Channel(
            tuple(a @ b for a in self.kraus for b in inner.kraus), check=False
        )


def register_permutation_unitary(perm: Sequence[int], width: int, k: int) -> np.ndarray:
    """Permutation of k-qubit registers: output slot j holds input register perm[j]."""
    perm = tuple(int(x) for x in perm)
    if sorted(perm) != list(range(width)):
        raise LayoutError(f"{perm} is not a permutation of 0..{width - 1}")
    full = (2**k) ** width
    # row y is the basis vector of the input whose register perm[j] holds y's digit j
    return np.eye(full, dtype=np.complex128)[
        np.arange(full).reshape((2**k,) * width).transpose(perm).ravel()
    ]


def _embed(op: np.ndarray, slot: int, slots: int) -> np.ndarray:
    """``op`` on subsystem ``slot`` of ``slots`` equal-sized ones, identity elsewhere."""
    d = op.shape[0]
    left = np.eye(d**slot, dtype=np.complex128)
    right = np.eye(d ** (slots - slot - 1), dtype=np.complex128)
    return np.kron(np.kron(left, op), right)


_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_Z = np.diag([1.0, -1.0]).astype(np.complex128)


def _pauli_channel(name, paulis, rate, strength, qubit=0, total_qubits=1) -> Channel:
    """Each Pauli error with probability ``rate * strength``, else the identity."""
    if not 0.0 <= strength <= 1.0:
        raise ContractViolationError(f"{name} strength {strength!r} outside [0, 1]")
    if not 0 <= qubit < total_qubits:
        raise ContractViolationError(f"{name} qubit {qubit} not among {total_qubits} qubits")
    w = rate * strength
    ops = (math.sqrt(1.0 - len(paulis) * w) * np.eye(2), *(math.sqrt(w) * p for p in paulis))
    return Channel([_embed(op, qubit, total_qubits) for op in ops])


# (strength, qubit=0, total_qubits=1) -> channel on one qubit of total_qubits
dephasing_channel = functools.partial(_pauli_channel, "dephasing", (_Z,), 1.0)
depolarizing_channel = functools.partial(_pauli_channel, "depolarizing", (_X, _Y, _Z), 0.25)
# the noise palette of teeth
NOISE_CHANNELS = {"dephasing": dephasing_channel, "depolarizing": depolarizing_channel}


class Tooth(NamedTuple):
    """One gap of a network: a wire permutation (output slot j holds input
    register ``permutation[j]``, 0-based), then a palette channel on qubit
    ``qubit`` of the register stack; either may be None."""

    permutation: tuple[int, ...] | None
    channel: str | None
    qubit: int | None
    strength: float | None


def build_tooth(tooth: Tooth | None, width: int, k: int) -> Channel | None:
    """The channel of a tooth on ``width`` k-qubit registers; None for plain wires."""
    if tooth is None:
        return None
    perm = None
    if tooth.permutation is not None:
        perm = register_permutation_unitary(tooth.permutation, width, k)
    if tooth.channel is None:
        return Channel((perm,), check=False)
    noise = NOISE_CHANNELS[tooth.channel](tooth.strength, tooth.qubit, width * k)
    # the noise acts after the wire permutation
    return noise if perm is None else Channel([op @ perm for op in noise.kraus], check=False)


@dataclass(frozen=True, eq=False)
class Comb:
    """n-hole network over ``width`` k-qubit registers plus an untouched
    auxiliary space of dimension ``y_dim``.

    ``hole_registers[i]`` is the (0-based) register fed into hole ``i + 1``;
    the remaining registers are the memory between teeth. ``teeth`` has one
    optional channel per gap (before hole 1, between holes, after the last),
    each acting on the full register stack; ``None`` means plain wires.
    """

    n_holes: int
    k: int
    width: int
    y_dim: int
    hole_registers: tuple[int, ...]
    teeth: tuple[Channel | None, ...]

    def __post_init__(self):
        if self.n_holes < 0 or self.k < 1 or self.width < 1 or self.y_dim < 1:
            raise LayoutError("comb dimensions must be positive (n_holes may be 0)")
        if len(self.hole_registers) != self.n_holes:
            raise LayoutError(
                f"{len(self.hole_registers)} hole registers for {self.n_holes} holes"
            )
        if any(not 0 <= r < self.width for r in self.hole_registers):
            raise LayoutError(f"hole registers {self.hole_registers} outside 0..{self.width - 1}")
        if len(self.teeth) != self.n_holes + 1:
            raise LayoutError(f"{len(self.teeth)} teeth for {self.n_holes} holes (need n + 1)")
        if self.register_dim * self.y_dim > COMB_DIM_CAP:
            raise DimensionCapError(
                f"total dimension {self.register_dim * self.y_dim} beyond the cap {COMB_DIM_CAP}"
            )
        for j, tooth in enumerate(self.teeth):
            if tooth is not None and tooth.dim != self.register_dim:
                raise LayoutError(
                    f"tooth {j} acts on dim {tooth.dim}, expected {self.register_dim}"
                )

    @property
    def register_dim(self) -> int:
        return (2**self.k) ** self.width

    @property
    def hole_dim(self) -> int:
        return 2**self.k


def trivial_parallel_comb(n_holes: int, k: int = 1, y_dim: int = 1) -> Comb:
    """One register per hole, plain wires everywhere."""
    return Comb(
        n_holes=n_holes,
        k=k,
        width=max(n_holes, 1),
        y_dim=y_dim,
        hole_registers=tuple(range(n_holes)),
        teeth=(None,) * (n_holes + 1),
    )


def _check_holes(comb: Comb, shapes) -> None:
    """Layout check of the operators plugged into the holes, by their shapes."""
    if len(shapes) != comb.n_holes:
        raise LayoutError(f"{len(shapes)} channels plugged into {comb.n_holes} holes")
    for i, shape in enumerate(shapes):
        if shape != (comb.hole_dim, comb.hole_dim):
            raise LayoutError(f"channel {i + 1} has dim {shape[0]}, hole expects {comb.hole_dim}")


def _walk(comb: Comb, hole_kraus):
    """Kraus sets of the plugged network on the register stack, in time order:
    tooth 0, hole 1, tooth 1, ..., hole n, tooth n (plain-wire teeth skipped).

    ``hole_kraus[i]`` is the Kraus set plugged into hole ``i + 1``; the
    entry points check their layout with :func:`_check_holes`.
    """
    if comb.teeth[0] is not None:
        yield comb.teeth[0].kraus
    for i, ops in enumerate(hole_kraus):
        yield tuple(_embed(op, comb.hole_registers[i], comb.width) for op in ops)
        if comb.teeth[i + 1] is not None:
            yield comb.teeth[i + 1].kraus


def plug(comb: Comb, round_channels) -> Channel:
    """Compose teeth and plugged channels into one channel on the register stack.

    Kraus counts multiply with every step: the reference for :func:`_evolve`."""
    channels = [c if isinstance(c, Channel) else Channel.from_unitary(c) for c in round_channels]
    _check_holes(comb, [(c.dim, c.dim) for c in channels])
    result = Channel((np.eye(comb.register_dim, dtype=np.complex128),), check=False)
    for kraus in _walk(comb, [c.kraus for c in channels]):
        result = Channel(kraus, check=False).compose(result)
    if not result.is_trace_preserving():
        raise ContractViolationError("plugged network is not trace preserving within 1e-9")
    return result


def _evolve(comb: Comb, hole_unitaries, rho: np.ndarray) -> np.ndarray:
    """Push a state on (register stack x auxiliary space) through the network
    with ``hole_unitaries`` plugged in, one :func:`_walk` step at a time. Each
    Kraus operator multiplies the state reshaped to (register dim, rest), from
    the left and, through the adjoint, from the right."""
    d, full = comb.register_dim, comb.register_dim * comb.y_dim

    def left(op, m):
        return (op @ m.reshape(d, -1)).reshape(full, full)

    for kraus in _walk(comb, [(u,) for u in hole_unitaries]):
        rho = sum(dagger(left(op, dagger(left(op, rho)))) for op in kraus)
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > 1e-9:
        raise ContractViolationError(f"network output has trace {trace!r}, not 1 within 1e-9")
    return rho


@dataclass(frozen=True, eq=False)
class GeneralTest:
    """Test state (possibly entangled with the kept auxiliary register), the
    delegated unitary sequence, and the joint acceptance element.

    The unitaries are checked once, here: finite, square and unitary within
    1e-10.
    """

    chi: DensityOperator
    unitaries: tuple[np.ndarray, ...]
    measurement: PovmElement

    def __post_init__(self):
        unitaries = tuple(as_square_matrix(u) for u in self.unitaries)
        for i, u in enumerate(unitaries, start=1):
            if not is_unitary(u):
                raise ContractViolationError(f"test unitary {i} is not unitary within 1e-10")
        object.__setattr__(self, "unitaries", unitaries)


def general_test_acceptance(test: GeneralTest, comb: Comb, strategy: ServerStrategy) -> float:
    """Acceptance probability of the general test under a server strategy.

    The attack is the diagonal ``1 ⊗ diag(1, e^{ia})``, applied to each hole
    unitary as a phase vector: on its rows after it (POST), on its columns
    before it (PRE).
    """
    require_supported(strategy)
    full_dim = comb.register_dim * comb.y_dim
    if test.chi.dim != full_dim:
        raise LayoutError(f"test state has dim {test.chi.dim}, network expects {full_dim}")
    if test.measurement.dim != full_dim:
        raise LayoutError(
            f"measurement has dim {test.measurement.dim}, network expects {full_dim}"
        )
    _check_holes(comb, [u.shape for u in test.unitaries])
    played = test.unitaries
    if isinstance(strategy, PhaseAttack):
        phases = attack_phases(strategy.alpha, comb.k)
        if strategy.placement is Placement.POST:
            played = [phases[:, None] * u for u in played]
        else:
            played = [u * phases for u in played]
    out = _evolve(comb, played, test.chi.matrix)
    # the measurement is Hermitian, so Tr(M out) is the Frobenius product
    return snap_probability(
        float(np.vdot(test.measurement.matrix, out).real), "acceptance probability"
    )


@dataclass(frozen=True, eq=False)
class GeneralSetup:
    """Bundle of everything the general engine needs for one scenario.

    ``output_round`` takes the same values as in :class:`ProtocolSpec`.
    """

    omega: RoundDistribution
    k: int
    tests: Mapping[int, GeneralTest]
    combs: Mapping[tuple[int, int], Comb]
    output_round: OutputRound = "uniform"

    def __post_init__(self):
        for n in (n for n, _ in self.omega.support if n):
            for name, key in [("tests", n)] + [("combs", (n, ell)) for ell in range(1, n + 2)]:
                if key not in getattr(self, name):
                    raise LayoutError(f"general setup has no {name}[{key}]")

    def outcome_table(self, strategy: ServerStrategy) -> RoundOutcomeTable:
        def per_ell(n):
            # combs compare by identity, so a comb shared across ell is evaluated once
            combs = [self.combs[(n, ell)] for ell in range(1, n + 2)]
            values = {
                comb: general_test_acceptance(self.tests[n], comb, strategy)
                for comb in dict.fromkeys(combs)
            }
            return [values[comb] for comb in combs]

        return outcome_table(self.omega, self.output_round, per_ell)

    def overall(self, strategy: ServerStrategy) -> float:
        return self.outcome_table(strategy).acceptance


def _bell_pairs_register_major(pairs: int) -> np.ndarray:
    """``pairs`` Bell pairs with all first halves before all second halves.

    The pair order (X1, Y1, X2, Y2, ...) is permuted to register-major order
    (X1, X2, ..., Y1, Y2, ...): test registers first, kept auxiliary qubits last.
    """
    vec = np.ones(1, dtype=np.complex128)
    for _ in range(pairs):
        vec = np.kron(vec, bell_pair().amplitudes)
    src = [2 * j for j in range(pairs)] + [2 * j + 1 for j in range(pairs)]
    return vec.reshape((2,) * (2 * pairs)).transpose(src).reshape(-1)


def _point_mass_setup(test: GeneralTest, comb: Comb) -> GeneralSetup:
    """Exactly ``comb.n_holes`` test rounds, one network for every output round."""
    n = comb.n_holes
    return GeneralSetup(RoundDistribution.point_mass(n), comb.k, {n: test},
                        {(n, ell): comb for ell in range(1, n + 2)})


def bell_test_setup(n_tests: int) -> GeneralSetup:
    """Each test register is maximally entangled with a kept auxiliary qubit.

    Honest tests are identities checked by the projector onto the entangled
    state, which detects a single-qubit phase rotation at the generic rate.
    """
    if n_tests < 1:
        raise ContractViolationError(f"need at least one test round, got {n_tests}")
    vec = _bell_pairs_register_major(n_tests)
    chi = DensityOperator(np.outer(vec, vec.conj()))
    measurement = PovmElement(np.outer(vec, vec.conj()))
    eye2 = np.eye(2, dtype=np.complex128)
    test = GeneralTest(chi, (eye2,) * n_tests, measurement)
    return _point_mass_setup(test, trivial_parallel_comb(n_tests, k=1, y_dim=2**n_tests))


def custom_test_setup(custom, n: int) -> GeneralSetup:
    """General setup for a parsed ``custom`` descriptor (its ``Tooth`` teeth,
    1-based ``hole_registers``, state, measurement and unitaries) with ``n``
    holes (k = 1)."""
    k = 1
    width, y_dim = custom.width, 2**custom.y_qubits
    comb = Comb(
        n_holes=n,
        k=k,
        width=width,
        y_dim=y_dim,
        hole_registers=tuple(h - 1 for h in custom.hole_registers),
        teeth=tuple(build_tooth(t, width, k) for t in custom.teeth),
    )
    full_dim = comb.register_dim * y_dim
    if custom.state == "plus":
        chi_vec = plus_state(width * k + custom.y_qubits).amplitudes
    elif custom.state == "zero":
        chi_vec = computational_basis_state(width * k + custom.y_qubits).amplitudes
    else:  # bell-pairs, validated y_qubits == width
        chi_vec = _bell_pairs_register_major(width)
    chi = DensityOperator(np.outer(chi_vec, chi_vec.conj()))

    if custom.unitaries == "identity":
        unitaries = tuple(np.eye(2**k, dtype=np.complex128) for _ in range(n))
    else:
        rng = np.random.default_rng(custom.unitary_seed)
        unitaries = tuple(random_unitary(2**k, rng) for _ in range(n))

    if custom.measurement == "identity":
        mu = PovmElement(np.eye(full_dim, dtype=np.complex128))
    else:
        # accept on the honest output: the honest-evolved test state is a valid
        # effect (all eigenvalues <= 1), a projector when the network is unitary
        mu = PovmElement(_evolve(comb, unitaries, chi.matrix))

    return _point_mass_setup(GeneralTest(chi, unitaries, mu), comb)


def _round_tests(spec: ProtocolSpec, n: int):
    """Fetch n's traps and acceptance once; return ``ell -> (GeneralTest, Comb)``,
    the per-round protocol at (n, output round ell) as a general test."""
    if n < 1:
        raise ContractViolationError("general view needs at least one test round")
    k = spec.k
    traps = [receive_trap(spec.traps, k, n, i) for i in range(1, n + 2)]
    rule = spec.acceptance
    rule = rule.per_round if isinstance(rule, GlobalAcceptance) else rule
    effects = [rule.element(k, n, i).matrix for i in range(1, n + 2)]
    comb = trivial_parallel_comb(n, k=k, y_dim=1)
    eye = np.eye(2**k, dtype=np.complex128)

    def build(ell: int) -> tuple[GeneralTest, Comb]:
        tests = [i for i in range(n + 1) if i != ell - 1]
        chi_vec, joint = np.ones(1, dtype=np.complex128), np.eye(1, dtype=np.complex128)
        for i in tests:
            chi_vec, joint = np.kron(chi_vec, traps[i][1]), np.kron(joint, effects[i])
        chi_op = DensityOperator(np.outer(chi_vec, chi_vec.conj()))
        unitaries = tuple(eye if traps[i][0] is None else traps[i][0] for i in tests)
        return GeneralTest(chi_op, unitaries, PovmElement(joint)), comb

    return build


def spec_round_as_general(spec: ProtocolSpec, n: int, ell: int) -> tuple[GeneralTest, Comb]:
    """Express one (n, output round) of the per-round protocol as a general test."""
    return _round_tests(spec, n)(ell)


def overall_acceptance_via_combs(spec: ProtocolSpec, strategy: ServerStrategy) -> float:
    """Per-round protocol evaluated through the general engine (consistency path)."""
    def per_ell(n):
        build = _round_tests(spec, n)
        return [general_test_acceptance(*build(ell), strategy) for ell in range(1, n + 2)]

    return outcome_table(spec.omega, spec.output_round, per_ell).acceptance


def _unitary_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Both arguments as square, same-shape, finite matrices unitary within 1e-10."""
    um, vm = as_square_matrix(u), as_square_matrix(v)
    if um.shape != vm.shape:
        raise ContractViolationError(f"dimension mismatch: {um.shape} vs {vm.shape}")
    for name, m in (("first", um), ("second", vm)):
        if not is_unitary(m):
            raise ContractViolationError(f"{name} argument is not unitary within 1e-10")
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


def diamond_distance_pure_search(u, v) -> float:
    """Independent estimate: the smallest output overlap |<z|Mz>| over unit
    inputs z, for M = u†v ⊗ 1 on the input extended by a same-sized reference.

    That minimum is the distance nu from 0 to the numerical range of M, which
    is convex (Toeplitz–Hausdorff), so nu = max(0, max_θ λ_min(Re(e^{-iθ} M))).
    The maximum is found by a grid scan over θ refined by golden section.
    The argument holds for any matrix and uses only Hermitian eigenvalues of
    rotated parts, while :func:`diamond_distance_unitaries` reads the
    spectrum of u†v and relies on it being normal: the two are independent.
    """
    um, vm = _unitary_pair(u, v)
    d = um.shape[0]
    if d > 4:  # every caller passes 2x2; at 4x4 the grid below peaks near 80 MB
        raise DimensionCapError(f"pure-state search takes at most 4x4, got {d}x{d}")
    m = np.kron(dagger(um) @ vm, np.eye(d, dtype=np.complex128))

    def lowest(ts):
        phases = np.exp(-2j * math.pi * np.asarray(ts, dtype=float))[:, None, None]
        return np.linalg.eigvalsh((phases * m + phases.conj() * dagger(m)) / 2.0)[:, 0]

    _, best = scan_unit_interval(lambda t: float(lowest([t])[0]), lowest, minimize=False)
    return math.sqrt(max(0.0, 1.0 - max(0.0, best) ** 2))


class GapCheck(NamedTuple):
    gap: float
    bound: float
    holds: bool


def linear_gap_check(
    setup: GeneralSetup, alpha: float, placement: Placement = Placement.POST
) -> GapCheck:
    """Check |p_H - p_D| <= N |sin(alpha/2)| on a concrete general setup."""
    p_h = setup.overall(HONEST)
    p_d = setup.overall(PhaseAttack(alpha, placement))
    gap = abs(p_h - p_d)
    bound = setup.omega.mean * abs(math.sin(alpha / 2.0))
    return GapCheck(gap, bound, gap <= bound + 1e-10)


def general_tradeoff_check(
    model: SecurityModel,
    setup: GeneralSetup,
    alpha_override: float | None = None,
    placement: Placement = Placement.POST,
) -> TradeoffReport:
    """Trade-off certification for a general-test setup, at N = the mean of its omega."""
    return certify_tradeoff(
        model, ProtocolVariant.GENERAL_TESTS, alpha_override, placement,
        setup.k, setup.outcome_table,
    )


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
                teeth=tuple(build_tooth(random_tooth(width), width, k) for _ in range(n + 1)),
            )
    setup = GeneralSetup(omega=omega, k=k, tests=tests, combs=combs, output_round=output_round)
    alpha = float(rng.uniform(0.0, 2.0 * math.pi))
    placement = Placement.POST if rng.integers(0, 2) == 0 else Placement.PRE
    return RandomCombDraw(setup, alpha, placement)
