"""Dense complex linear algebra on small Hilbert spaces (dim <= 4096).

All heavy lifting happens on plain ``numpy`` complex arrays in row-major
layout. The typed carriers (:class:`PureState`, :class:`DensityOperator`)
validate the invariants the protocol code relies on and are used at module
boundaries; internal loops pass raw arrays.

Tolerances follow a three-level scheme: input validation at 1e-10,
numerical-identity assertions at 1e-9, and state normalization at 1e-12.
This leaves roughly two orders of magnitude between accumulated rounding
error and the assertion thresholds at the dimensions handled here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NotPsdError

DIM_CAP = 4096
COMB_DIM_CAP = 256  # channel networks: register stack times kept auxiliary space
VALIDATION_TOL = 1e-10
NORM_TOL = 1e-12

# Eigenvalues in [PSD_FLOOR, 0) are treated as rounding noise and clamped
# to zero; anything below the floor is a genuinely negative operator and
# raises, so protocol bugs are not masked by silent clamping.
PSD_FLOOR = -1e-8


def as_square_matrix(a, what: str = "matrix") -> np.ndarray:
    """``a`` as a square complex128 matrix with finite entries; errors name ``what``."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolationError(f"{what} has shape {m.shape}, expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise ContractViolationError(f"{what} has non-finite entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def is_unitary(u: np.ndarray, tol: float = VALIDATION_TOL) -> bool:
    m = np.asarray(u)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return np.max(np.abs(dagger(m) @ m - np.eye(m.shape[0]))) <= tol


def require_unitary(u, what: str, dim: int | None = None) -> np.ndarray:
    """``u`` as a complex matrix: finite, square, of dim ``dim`` (any when None)
    and unitary within 1e-10. The one unitarity check; errors name ``what``."""
    m = as_square_matrix(u, what)
    if dim is not None and m.shape[0] != dim:
        raise ContractViolationError(f"{what} has dim {m.shape[0]}, expected {dim}")
    if not is_unitary(m):
        raise ContractViolationError(f"{what} is not unitary within 1e-10")
    return m


def hermitian_eig(h, tol: float = VALIDATION_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``v``, so that ``h = v @ diag(w) @ v†``. The output
    is deterministic for identical input. Raises
    :class:`ContractViolationError` if ``h`` deviates from Hermitian by more
    than ``tol`` in any entry.
    """
    m = as_square_matrix(h)
    dev = float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0
    if dev > tol:
        raise ContractViolationError(
            f"matrix is not Hermitian (max deviation {dev:.3e} > {tol:.1e})"
        )
    w, v = np.linalg.eigh((m + dagger(m)) / 2.0)
    return w, v


def _clamped_sqrt(eigvals: np.ndarray, floor: float = PSD_FLOOR) -> np.ndarray:
    lo = float(eigvals.min()) if eigvals.size else 0.0
    if lo < floor:
        raise NotPsdError(f"eigenvalue {lo:.3e} below the PSD floor {floor:.1e}")
    w = np.clip(eigvals, 0.0, None)
    # Eigenvalues this far below the top are unresolvable rounding noise;
    # without zeroing them, sqrt amplifies ~1e-17 into ~3e-9 and pollutes
    # linear functionals like Tr sqrt(...) past the identity tolerances.
    top = float(w.max()) if w.size else 0.0
    return np.sqrt(np.where(w <= 1e-13 * top, 0.0, w))


def psd_sqrt(p) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix.

    Eigenvalues in ``[PSD_FLOOR, 0)`` are clamped to zero; below the floor a
    :class:`NotPsdError` is raised.
    """
    w, v = hermitian_eig(p)
    s = (v * _clamped_sqrt(w)) @ dagger(v)
    return (s + dagger(s)) / 2.0


def _require_same_dim(a: int, b: int) -> None:
    """The one dimension check of the two-operand measures."""
    if a != b:
        raise ContractViolationError(f"dimension mismatch: {a} vs {b}")


def fidelity_psd(a, b) -> float:
    """Fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2 for PSD matrices.

    Works on unnormalized positive operators; no clipping is applied.
    """
    am, bm = as_square_matrix(a), as_square_matrix(b)
    _require_same_dim(am.shape[0], bm.shape[0])
    s = psd_sqrt(am)
    inner = s @ bm @ s
    w = np.linalg.eigvalsh((inner + dagger(inner)) / 2.0)
    root = float(np.sum(_clamped_sqrt(w)))
    return root * root


def fidelity(rho: "DensityOperator", sigma: "DensityOperator") -> float:
    """Fidelity of two density operators, clipped into [0, 1]."""
    return float(min(1.0, max(0.0, fidelity_psd(rho.matrix, sigma.matrix))))


def trace_norm(a) -> float:
    """Trace norm (sum of singular values) via the eigenvalues of a†a."""
    m = as_square_matrix(a)
    gram = dagger(m) @ m
    w = np.clip(np.linalg.eigvalsh((gram + dagger(gram)) / 2.0), 0.0, None)
    top = float(w.max()) if w.size else 0.0
    return float(np.sum(np.sqrt(np.where(w <= 1e-13 * top, 0.0, w))))


def pure_trace_distance(u: "PureState", v: "PureState") -> float:
    """Trace distance of two pure states, sqrt(1 - |<u|v>|^2)."""
    _require_same_dim(u.dim, v.dim)
    overlap = abs(u.inner(v)) ** 2
    return float(np.sqrt(max(0.0, 1.0 - overlap)))


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector; Euclidean norm must be 1 within 1e-12."""

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.amplitudes, dtype=np.complex128)
        if vec.ndim != 1:
            raise ContractViolationError(f"expected a vector, got ndim={vec.ndim}")
        if not np.all(np.isfinite(vec)):
            raise ContractViolationError("state vector has non-finite entries")
        nrm = float(np.linalg.norm(vec))
        if abs(nrm - 1.0) > NORM_TOL:
            raise ContractViolationError(
                f"state vector norm {nrm!r} deviates from 1 by more than {NORM_TOL:.1e}"
            )
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def inner(self, other: "PureState") -> complex:
        """<self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def density(self) -> "DensityOperator":
        return DensityOperator(self.projector())


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, PSD, trace-one operator on a finite-dimensional space."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_square_matrix(self.matrix, "density operator")
        if np.max(np.abs(m - dagger(m))) > 1e-12:
            raise ContractViolationError("density operator is not Hermitian within 1e-12")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-10:
            raise ContractViolationError(f"density operator trace {tr!r} is not 1 within 1e-10")
        w = np.linalg.eigvalsh((m + dagger(m)) / 2.0)
        if float(w.min()) < -1e-10:
            raise NotPsdError(f"density operator eigenvalue {w.min():.3e} below -1e-10")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]
