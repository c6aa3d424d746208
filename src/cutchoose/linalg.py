"""Dense complex linear algebra on small Hilbert spaces (dim <= 4096).

All heavy lifting happens on plain ``numpy`` complex arrays in row-major
layout. The typed carriers (:class:`PureState`, :class:`DensityOperator`)
validate the invariants the protocol code relies on and are used at module
boundaries; internal loops pass raw arrays.

The measures take one matrix or a stack ``(..., d, d)``: one gives a Python
``float``, a stack an array. Validation runs once per stack
(:func:`as_square_matrix`, the Hermitian check of :func:`hermitian_eig`, the
PSD floor of :func:`psd_sqrt`) and names the first bad index; floors and
clamps apply per matrix, so a stacked matrix gets the value it gets alone.

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


def as_square_matrix(a, what: str = "matrix", stack: bool = False) -> np.ndarray:
    """``a`` as a square complex128 matrix with finite entries, or with
    ``stack`` as a stack ``(..., d, d)`` of them; errors name ``what`` and,
    in a stack, the first bad index."""
    m = np.asarray(a, dtype=np.complex128)
    if (m.ndim != 2 and not (stack and m.ndim > 2)) or m.shape[-1] != m.shape[-2]:
        raise ContractViolationError(f"{what} has shape {m.shape}, expected a square matrix")
    if not np.all(np.isfinite(m)):
        bad = ~np.isfinite(m).all(axis=(-2, -1))
        raise ContractViolationError(f"{what}{_first_bad(bad)[1]} has non-finite entries")
    return m


def _first_bad(bad: np.ndarray):
    """First index of a per-matrix mask (``()`` for one matrix) and its error text."""
    i = tuple(int(j) for j in np.unravel_index(np.argmax(bad), bad.shape))
    return i, (f" at stack index {i[0] if len(i) == 1 else i}" if i else "")


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def is_unitary(u: np.ndarray, tol: float = VALIDATION_TOL):
    """Whether ``u`` is unitary within ``tol`` in every entry of ``u†u - 1``;
    for a stack ``(..., d, d)``, one flag per matrix. False if not square."""
    m = np.asarray(u)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    return np.abs(dagger(m) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1), initial=0.0) <= tol


def require_unitary(u, what: str, dim: int | None = None, stack: bool = False) -> np.ndarray:
    """``u`` as a complex matrix, or with ``stack`` a stack ``(..., d, d)`` of
    them: finite, square, of dim ``dim`` (any when None) and unitary within
    1e-10. The one unitarity check; errors name ``what`` and, in a stack, the
    first bad index."""
    m = as_square_matrix(u, what, stack)
    if dim is not None and m.shape[-1] != dim:
        raise ContractViolationError(f"{what} has dim {m.shape[-1]}, expected {dim}")
    bad = ~is_unitary(m)
    if np.any(bad):
        raise ContractViolationError(f"{what}{_first_bad(bad)[1]} is not unitary within 1e-10")
    return m


def _require_hermitian(m: np.ndarray, tol: float = VALIDATION_TOL) -> None:
    """Raise unless every matrix of ``m`` is Hermitian within ``tol`` in every entry."""
    dev = np.abs(m - dagger(m)).max(axis=(-2, -1), initial=0.0)
    if np.any(dev > tol):
        i, at = _first_bad(dev > tol)
        msg = f"matrix{at} is not Hermitian (max deviation {dev[i]:.3e} > {tol:.1e})"
        raise ContractViolationError(msg)


def hermitian_eig(h, tol: float = VALIDATION_TOL):
    """Eigendecomposition ``(w, v)`` of a Hermitian matrix or of each matrix of
    a stack: ``w`` ascending, ``v`` orthonormal columns, ``h = v diag(w) v†``,
    deterministic for identical input. Raises :class:`ContractViolationError`
    if ``h`` deviates from Hermitian by more than ``tol`` in any entry."""
    m = as_square_matrix(h, stack=True)
    _require_hermitian(m, tol)
    return np.linalg.eigh((m + dagger(m)) / 2.0)


def _clamped_sqrt(eigvals: np.ndarray) -> np.ndarray:
    lo = eigvals.min(axis=-1, initial=0.0)
    if np.any(lo < PSD_FLOOR):
        i, at = _first_bad(lo < PSD_FLOOR)
        raise NotPsdError(f"eigenvalue {lo[i]:.3e}{at} below the PSD floor {PSD_FLOOR:.1e}")
    w = np.clip(eigvals, 0.0, None)
    # Eigenvalues this far below the top are unresolvable rounding noise;
    # without zeroing them, sqrt amplifies ~1e-17 into ~3e-9 and pollutes
    # linear functionals like Tr sqrt(...) past the identity tolerances.
    top = w.max(axis=-1, keepdims=True, initial=0.0)
    return np.sqrt(np.where(w <= 1e-13 * top, 0.0, w))


def psd_sqrt(p) -> np.ndarray:
    """Principal square root of a PSD matrix or of each matrix of a stack.
    Eigenvalues in ``[PSD_FLOOR, 0)`` are clamped to zero; below the floor a
    :class:`NotPsdError` is raised."""
    w, v = hermitian_eig(p)
    s = (v * _clamped_sqrt(w)[..., None, :]) @ dagger(v)
    return (s + dagger(s)) / 2.0


def _require_same_dim(a: int, b: int) -> None:
    """The one dimension check of the two-operand measures."""
    if a != b:
        raise ContractViolationError(f"dimension mismatch: {a} vs {b}")


def fidelity_psd(a, b):
    """Fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2 for PSD matrices, or per matrix
    of stacks (leading axes broadcast). Works on unnormalized positive
    operators; no clipping is applied. ``b`` gets ``a``'s Hermitian check."""
    am, bm = as_square_matrix(a, stack=True), as_square_matrix(b, stack=True)
    _require_same_dim(am.shape[-1], bm.shape[-1])
    s = psd_sqrt(am)
    _require_hermitian(bm)
    inner = s @ bm @ s
    w = np.linalg.eigvalsh((inner + dagger(inner)) / 2.0)
    root = np.sum(_clamped_sqrt(w), axis=-1)
    out = root * root
    return float(out) if out.ndim == 0 else out


def fidelity(rho: "DensityOperator", sigma: "DensityOperator") -> float:
    """Fidelity of two density operators, clipped into [0, 1]."""
    return float(min(1.0, max(0.0, fidelity_psd(rho.matrix, sigma.matrix))))


def trace_norm(a):
    """Trace norm (sum of singular values) of a matrix or of each matrix of a stack."""
    out = np.linalg.svd(as_square_matrix(a, stack=True), compute_uv=False).sum(-1)
    return float(out) if out.ndim == 0 else out


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
