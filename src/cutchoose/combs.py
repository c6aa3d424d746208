"""General test networks: combs with memory and channel plugging.

A test network intertwines the n delegated test computations with n + 1
fixed operations (teeth) connected through memory registers: each hole acts
on one of ``width`` k-qubit registers (the rest form the memory), and a
tooth is a wire permutation and/or a palette channel on one qubit. Plugging
n channels into the holes yields a channel on the register stack; the client
may additionally keep an auxiliary space that the network never touches.

A comb is built once into steps on the stack's qubit axes (axis transposes,
hole unitaries on their register, single-qubit Kraus sets): the sequential
link product of quantum combs, one tooth at a time (Chiribella, D'Ariano,
Perinotti, arXiv:0904.4483). A pure test state goes through a unitary network
as a vector; otherwise the state is a density tensor whose qubits each keep
their left and right axes side by side, and each step is one matrix product
of its Liouville form ``Σ K ⊗ K̄`` on a reshaped view. Cost is linear in the
hole count; :func:`plug` composes the dense network and is the
reference. Everything is capped at a total dimension of 256: the bounds
being certified are dimension-independent. The per-round protocol through
this engine, the diamond distances and the seeded random setups that check
it are in ``reference``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .bounds import TradeoffReport, certify_tradeoff
from .errors import (
    ContractViolationError,
    DimensionCapError,
    LayoutError,
)
from .linalg import (COMB_DIM_CAP, IDENTITY_TOL, DensityOperator, PureState, dagger,
                     require_unitary, tol_text)
from .protocol import (
    OutputRound,
    RoundDistribution,
    RoundOutcomeTable,
    outcome_table,
    require_output_round,
    snap_probability,
)
from .states import (Effect, PovmElement, RankOneEffect, attack_phases, bell_pair,
                     computational_basis_state, plus_state)
from .strategies import (
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
            raise ContractViolationError(
                f"Kraus operators do not sum to the identity within {tol_text(IDENTITY_TOL)}")

    @classmethod
    def from_unitary(cls, u) -> "Channel":
        return cls((require_unitary(u, "channel matrix"),), check=False)

    def is_trace_preserving(self) -> bool:
        """Whether the Kraus operators' ``Σ K†K`` is the identity within ``IDENTITY_TOL``."""
        acc = sum(dagger(k) @ k for k in self.kraus)
        return bool(np.max(np.abs(acc - np.eye(self.dim))) <= IDENTITY_TOL)

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


def _permutation(perm: Sequence[int], width: int) -> tuple[int, ...]:
    """``perm`` as a tuple of ints, checked to be a permutation of ``0..width-1``."""
    perm = tuple(int(x) for x in perm)
    if sorted(perm) != list(range(width)):
        raise LayoutError(f"{perm} is not a permutation of 0..{width - 1}")
    return perm


def register_permutation_unitary(perm: Sequence[int], width: int, k: int) -> np.ndarray:
    """Permutation of k-qubit registers: output slot j holds input register perm[j]."""
    perm = _permutation(perm, width)
    full = (2**k) ** width
    # row y is the basis vector of the input whose register perm[j] holds y's digit j
    return np.eye(full, dtype=np.complex128)[
        np.arange(full).reshape((2**k,) * width).transpose(perm).ravel()
    ]


def _embed(op: np.ndarray, first: int, qubits: int) -> np.ndarray:
    """``op`` on the qubits from ``first`` on of ``qubits``, identity elsewhere."""
    rest = qubits - first - (op.shape[0].bit_length() - 1)
    return np.kron(np.kron(np.eye(2**first, dtype=np.complex128), op), np.eye(2**rest))


_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_Z = np.diag([1.0, -1.0]).astype(np.complex128)

# the noise palette of teeth: name -> (Pauli errors, rate per unit strength)
NOISE_CHANNELS = {"dephasing": ((_Z,), 1.0), "depolarizing": ((_X, _Y, _Z), 0.25)}


def _pauli_channel(name, strength, qubit=0, total_qubits=1) -> Channel:
    """Palette channel ``name`` for ``qubit`` of ``total_qubits`` as its single-qubit
    Kraus set: each Pauli error with probability ``rate * strength``, else the identity."""
    paulis, rate = NOISE_CHANNELS[name]
    if not 0.0 <= strength <= 1.0:
        raise ContractViolationError(f"{name} strength {strength!r} outside [0, 1]")
    if not 0 <= qubit < total_qubits:
        raise ContractViolationError(f"{name} qubit {qubit} not among {total_qubits} qubits")
    w = rate * strength
    ops = (math.sqrt(1.0 - len(paulis) * w) * np.eye(2), *(math.sqrt(w) * p for p in paulis))
    return Channel(ops)


# (strength, qubit=0, total_qubits=1) -> the single-qubit channel a tooth puts on that qubit
dephasing_channel = functools.partial(_pauli_channel, "dephasing")
depolarizing_channel = functools.partial(_pauli_channel, "depolarizing")


class Tooth(NamedTuple):
    """One gap of a network: a wire permutation (output slot j holds input
    register ``permutation[j]``, 0-based), then a palette channel on qubit
    ``qubit`` of the register stack; either may be None."""

    permutation: tuple[int, ...] | None
    channel: str | None
    qubit: int | None
    strength: float | None


class Step(NamedTuple):
    """One step of a network on the register stack's qubits (qubit 0 most
    significant): the Kraus set ``kraus`` on the consecutive qubits ``axes``;
    hole number ``kraus`` (0-based) when it is an int; or, when it is None,
    the wire permutation whose output qubit j is input qubit ``axes[j]``."""

    axes: tuple[int, ...]
    kraus: tuple[np.ndarray, ...] | int | None


def build_tooth(tooth: Tooth | None, width: int, k: int) -> tuple[Step, ...]:
    """The steps of a tooth on ``width`` k-qubit registers: the wire
    permutation, then the palette channel; none for plain wires."""
    steps = []
    if tooth is not None and tooth.permutation is not None:
        perm = _permutation(tooth.permutation, width)
        steps.append(Step(tuple(p * k + b for p in perm for b in range(k)), None))
    if tooth is not None and tooth.channel is not None:
        noise = _pauli_channel(tooth.channel, tooth.strength, tooth.qubit, width * k)
        steps.append(Step((tooth.qubit,), noise.kraus))
    return tuple(steps)


@dataclass(frozen=True, eq=False)
class Comb:
    """n-hole network over ``width`` k-qubit registers plus an untouched
    auxiliary space of dimension ``y_dim``.

    ``hole_registers[i]`` is the (0-based) register fed into hole ``i + 1``;
    the remaining registers are the memory between teeth. ``teeth`` has one
    optional :class:`Tooth` per gap (before hole 1, between holes, after the
    last); ``None`` means plain wires. ``steps`` is the walk in time order,
    built once: tooth 0, hole 1, tooth 1, ..., hole n, tooth n.
    """

    n_holes: int
    k: int
    width: int
    y_dim: int
    hole_registers: tuple[int, ...]
    teeth: tuple[Tooth | None, ...]
    steps: tuple[Step, ...] = field(init=False, repr=False)

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
        k, steps = self.k, list(build_tooth(self.teeth[0], self.width, self.k))
        for i, (r, tooth) in enumerate(zip(self.hole_registers, self.teeth[1:])):
            steps += (Step(tuple(range(r * k, r * k + k)), i), *build_tooth(tooth, self.width, k))
        object.__setattr__(self, "steps", tuple(steps))

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
    """The comb's steps with ``hole_kraus[i]`` plugged into hole ``i + 1``; the
    entry points check their layout with :func:`_check_holes`."""
    for axes, kraus in comb.steps:
        yield (axes, hole_kraus[kraus]) if isinstance(kraus, int) else (axes, kraus)


def plug(comb: Comb, round_channels) -> Channel:
    """Compose teeth and plugged channels into one channel on the register stack.

    Kraus counts multiply with every step: the reference for :func:`_evolve`."""
    channels = [c if isinstance(c, Channel) else Channel.from_unitary(c) for c in round_channels]
    _check_holes(comb, [(c.dim, c.dim) for c in channels])
    qubits = comb.width * comb.k
    result = Channel((np.eye(comb.register_dim, dtype=np.complex128),), check=False)
    for axes, kraus in _walk(comb, [c.kraus for c in channels]):
        dense = ((register_permutation_unitary(axes, qubits, 1),) if kraus is None
                 else tuple(_embed(op, axes[0], qubits) for op in kraus))
        result = Channel(dense, check=False).compose(result)
    if not result.is_trace_preserving():
        raise ContractViolationError(
            f"plugged network is not trace preserving within {tol_text(IDENTITY_TOL)}")
    return result


def _liouville(kraus) -> np.ndarray:
    """``Σ K ⊗ K̄`` of a Kraus set on m qubits, as a ``(4**m, 4**m)`` matrix whose
    rows (and columns) run over the qubits' (left, right) index pairs in turn."""
    ks = np.asarray(kraus)
    dim = ks.shape[-1]
    m = dim.bit_length() - 1
    # one broadcast product over the stack: [i, j, k, l] = Σ K[i, k] K̄[j, l]
    form = (ks[:, :, None, :, None] * ks.conj()[:, None, :, None, :]).sum(axis=0)
    if m > 1:  # m left bits, then m right bits -> m (left, right) bit pairs
        pairs = [b for j in range(m) for b in (j, m + j)]
        form = form.reshape((2,) * 4 * m).transpose(pairs + [2 * m + b for b in pairs])
    return form.reshape(dim * dim, dim * dim)


def _evolve(comb: Comb, hole_unitaries, state: np.ndarray) -> np.ndarray:
    """Push a state on (register stack x auxiliary space) through the network
    with ``hole_unitaries`` plugged in: a vector through a unitary network,
    else a density matrix (a vector becomes its projector). The density
    tensor is transposed once so that each qubit's left and right axes sit
    side by side (q1 L, q1 R, ..., y L, y R) and act as one axis of size 4.
    A step on consecutive qubits ``a..a+m-1`` is then one matrix product on a
    reshaped view, ``op @ t.reshape(b**a, b**m, -1)`` with ``b`` = 2 (``op`` a
    hole unitary) or 4 (``op`` the step's Liouville form ``Σ K ⊗ K̄``), and a
    wire permutation is a transpose of those axes.
    The output's trace (a vector's squared norm) must be 1 within ``IDENTITY_TOL``."""
    q, y = comb.width * comb.k, comb.y_dim
    if state.ndim == 1 and any(isinstance(s.kraus, tuple) and len(s.kraus) > 1
                               for s in comb.steps):
        state = np.outer(state, state.conj())
    pure = state.ndim == 1
    base, t = 2, state
    if not pure:  # (q1 L, ..., y L, q1 R, ..., y R) -> (q1 L, q1 R, ..., y L, y R)
        base, t = 4, state.reshape(((2,) * q + (y,)) * 2).transpose(
            [a for j in range(q + 1) for a in (j, q + 1 + j)])
    for axes, kraus in _walk(comb, [(u,) for u in hole_unitaries]):
        if kraus is None:
            t = t.reshape((base,) * q + (-1,)).transpose(axes + (q,))
        else:
            op = kraus[0] if pure else _liouville(kraus)
            t = op @ t.reshape(base ** axes[0], base ** len(axes), -1)
    if not pure:  # and back
        t = t.reshape((2, 2) * q + (y, y)).transpose(
            list(range(0, 2 * q + 2, 2)) + list(range(1, 2 * q + 2, 2)))
    out = t.reshape(state.shape)
    trace = float(np.vdot(out, out).real if pure else np.trace(out).real)
    if abs(trace - 1.0) > IDENTITY_TOL:
        raise ContractViolationError(
            f"network output has {'squared norm' if pure else 'trace'} {trace!r}, "
            f"not 1 within {tol_text(IDENTITY_TOL)}")
    return out


@dataclass(frozen=True, eq=False)
class GeneralTest:
    """Test state (possibly entangled with the kept auxiliary register), the
    delegated unitary sequence, and the joint acceptance element.

    The unitaries are checked once, here: finite, square and unitary within
    ``VALIDATION_TOL``.
    """

    chi: PureState | DensityOperator
    unitaries: tuple[np.ndarray, ...]
    measurement: Effect

    def __post_init__(self):
        unitaries = tuple(require_unitary(u, f"test unitary {i}")
                          for i, u in enumerate(self.unitaries, start=1))
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
    chi = test.chi
    out = _evolve(comb, played, chi.amplitudes if isinstance(chi, PureState) else chi.matrix)
    # a vector is read as <out|M|out>; M is Hermitian, so Tr(M out) is the Frobenius product
    value = (test.measurement.value(out) if out.ndim == 1
             else float(np.vdot(test.measurement.matrix, out).real))
    return snap_probability(value, "acceptance probability")


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
    _tables: dict = field(default_factory=dict, init=False, repr=False)  # one per strategy

    def __post_init__(self):
        require_output_round(self.output_round)
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

        if strategy not in self._tables:
            self._tables[strategy] = outcome_table(self.omega, self.output_round, per_ell)
        return self._tables[strategy]


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
    chi = PureState(_bell_pairs_register_major(n_tests))
    eye2 = np.eye(2, dtype=np.complex128)
    test = GeneralTest(chi, (eye2,) * n_tests, RankOneEffect(chi))
    return _point_mass_setup(test, trivial_parallel_comb(n_tests, k=1, y_dim=2**n_tests))


def _tooth(doc: dict | None) -> Tooth | None:
    """A normalized tooth document (1-based, defaults spelled out) as a Tooth."""
    if doc is None:
        return None
    perm = tuple(p - 1 for p in doc["permute"]) if "permute" in doc else None
    qubit = doc["register"] - 1 if "channel" in doc else None
    return Tooth(perm, doc.get("channel"), qubit, doc.get("strength"))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def custom_test_setup(setup: dict) -> GeneralSetup:
    """General setup (k = 1) for a normalized ``custom`` setup document, with
    one hole per entry of its ``hole_registers``. Its teeth and hole registers
    are 1-based as written in the config; here they become the 0-based
    indices of :class:`Comb` and :class:`Tooth`."""
    k, n = 1, len(setup["hole_registers"])
    width, y_qubits = setup["width"], setup["y_qubits"]
    comb = Comb(
        n_holes=n,
        k=k,
        width=width,
        y_dim=2**y_qubits,
        hole_registers=tuple(h - 1 for h in setup["hole_registers"]),
        teeth=tuple(_tooth(t) for t in setup["teeth"]),
    )
    full_dim = comb.register_dim * comb.y_dim
    if setup["state"] == "plus":
        chi_vec = plus_state(width * k + y_qubits).amplitudes
    elif setup["state"] == "zero":
        chi_vec = computational_basis_state(width * k + y_qubits).amplitudes
    else:  # bell-pairs, validated y_qubits == width
        chi_vec = _bell_pairs_register_major(width)
    chi = PureState(chi_vec)

    if setup["unitaries"] == "identity":
        unitaries = tuple(np.eye(2**k, dtype=np.complex128) for _ in range(n))
    else:
        rng = np.random.default_rng(setup["unitary_seed"])
        unitaries = tuple(random_unitary(2**k, rng) for _ in range(n))

    if setup["measurement"] == "identity":
        mu = PovmElement(np.eye(full_dim, dtype=np.complex128))
    else:
        # accept on the honest output: the projector onto it when the network is
        # unitary, else the honest-evolved state, a valid effect (eigenvalues <= 1)
        out = _evolve(comb, unitaries, chi.amplitudes)
        mu = RankOneEffect(PureState(out)) if out.ndim == 1 else PovmElement(out)

    return _point_mass_setup(GeneralTest(chi, unitaries, mu), comb)


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
