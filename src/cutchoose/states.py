"""States, gates, measurement elements, and the abort-extended output space.

A measurement effect of a general test is either a :class:`PovmElement` (a
validated dense matrix, read as a quadratic form) or a :class:`RankOneEffect`
(a projector kept as its unit vector, read as an overlap); a per-round rule
gives its effects as unit rows instead (``protocol.receive_rounds``).

A protocol output is an (acceptance weight, payload) pair. Its dense form
realizes the rejection symbol as an explicit extra Hilbert-space dimension
(``2**k + 1``, last basis direction), so fidelity and trace-distance formulas
apply verbatim to protocol outputs; it is assembled only where a distance
needs it. The numerical-range search for the phase attack's smallest
overlap over pure states is in ``reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError
from .linalg import (
    DIM_CAP,
    VALIDATION_TOL,
    DensityOperator,
    PureState,
    as_square_matrix,
    require_operator,
)


def phase_gate(alpha: float) -> np.ndarray:
    """diag(1, e^{i alpha}) on a single qubit."""
    return np.diag([1.0, np.exp(1j * alpha)]).astype(np.complex128)


def _k_qubit_dim(k: int) -> int:
    """``2**k``, the dim of a k-qubit register, for ``k`` in ``1..log2(DIM_CAP)``."""
    if k < 1:
        raise OutOfDomainError(f"k must be positive, got {k}")
    dim = 2**k
    if dim > DIM_CAP:
        raise OutOfDomainError(f"2**{k} exceeds the dimension cap {DIM_CAP}")
    return dim


def attack_operator(alpha: float, k: int) -> np.ndarray:
    """Identity on the first k-1 qubits, phase rotation on the last one
    (dense; the engine uses its diagonal, :func:`attack_phases`)."""
    return np.kron(np.eye(_k_qubit_dim(k) // 2), phase_gate(alpha))


def attack_phases(alpha: float, k: int) -> np.ndarray:
    """Diagonal of :func:`attack_operator`: 1 on basis states whose last qubit
    is 0 (even indices), e^{i alpha} on the others."""
    phases = np.ones(2**k, dtype=np.complex128)
    phases[1::2] = np.exp(1j * alpha)
    return phases


def plus_state(k: int) -> PureState:
    """Uniform-amplitude k-qubit state, every amplitude 2^{-k/2}."""
    dim = _k_qubit_dim(k)
    return PureState(np.full(dim, dim**-0.5, dtype=np.complex128))


def computational_basis_state(k: int, index: int = 0) -> PureState:
    dim = _k_qubit_dim(k)
    if not 0 <= index < dim:
        raise OutOfDomainError(f"basis index {index} out of range for dim {dim}")
    vec = np.zeros(dim, dtype=np.complex128)
    vec[index] = 1.0
    return PureState(vec)


def bell_pair() -> PureState:
    """(|00> + |11>) / sqrt(2)."""
    return PureState(np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) / math.sqrt(2.0))


@dataclass(frozen=True, eq=False)
class PovmElement:
    """Hermitian PSD matrix with all eigenvalues at most 1 (within ``VALIDATION_TOL``)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_square_matrix(self.matrix, "measurement element")
        require_operator(m, "measurement element", VALIDATION_TOL,
                         -VALIDATION_TOL, 1.0 + VALIDATION_TOL)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def value(self, out: np.ndarray) -> float:
        """Acceptance probability <out|M|out> on a state vector."""
        return float(np.vdot(out, self.matrix @ out).real)


@dataclass(frozen=True, eq=False)
class RankOneEffect:
    """Projector onto a unit vector, kept as the vector.

    A projector onto a unit vector is a valid effect by construction, so no
    eigenvalue check runs and no matrix is stored; :attr:`matrix` builds the
    dense projector for the reference paths.
    """

    vector: PureState

    @property
    def dim(self) -> int:
        return self.vector.dim

    @property
    def matrix(self) -> np.ndarray:
        return self.vector.projector()

    def value(self, out: np.ndarray) -> float:
        """Acceptance probability |<e|out>|^2 on a state vector."""
        return float(abs(np.vdot(self.vector.amplitudes, out)) ** 2)


Effect = PovmElement | RankOneEffect

# accept weights at or below this leave no payload (AbortExtendedState.payload)
ACCEPT_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class AbortExtendedState:
    """Protocol output: the payload with weight ``accept_weight``, the
    rejection symbol with weight ``1 - accept_weight``.

    The pair is the block-diagonal state on dimension ``payload_state.dim + 1``
    whose last basis vector is the rejection symbol; :attr:`matrix` assembles
    it. The pair cannot couple payload and rejection: the block structure
    holds by construction.
    """

    accept_weight: float
    payload_state: DensityOperator

    def __post_init__(self):
        if not 0.0 <= self.accept_weight <= 1.0:
            raise OutOfDomainError(
                f"acceptance probability {self.accept_weight!r} outside [0, 1]"
            )

    @property
    def matrix(self) -> np.ndarray:
        """The dense (d + 1)-dim block matrix: p * payload, then 1 - p."""
        d = self.payload_state.dim
        m = np.zeros((d + 1, d + 1), dtype=np.complex128)
        m[:d, :d] = self.accept_weight * self.payload_state.matrix
        m[d, d] = 1.0 - self.accept_weight
        return m

    def payload(self) -> DensityOperator | None:
        """Normalized payload state, or None if the accept weight vanishes."""
        return self.payload_state if self.accept_weight > ACCEPT_FLOOR else None
