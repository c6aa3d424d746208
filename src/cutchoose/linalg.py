"""Dense complex linear algebra on small Hilbert spaces (dim <= 4096).

All heavy lifting happens on plain ``numpy`` complex arrays in row-major
layout. The typed carriers (:class:`PureState`, :class:`DensityOperator`)
validate the invariants the protocol code relies on and are used at module
boundaries; internal loops pass raw arrays.

The measures take one matrix or a stack ``(..., d, d)``, and
:func:`pure_trace_distance` two states or two stacks ``(..., d)`` of state
vectors: one gives a Python ``float``, a stack an array. Validation runs once
per stack (:func:`as_square_matrix`, :func:`as_state_vectors`, the Hermitian
check of :func:`hermitian_eig`, the PSD floor of :func:`psd_sqrt`) and names
the first bad index; floors and clamps apply per matrix or vector, so a
stacked one gets the value it gets alone.

The engine's tolerances are named here, once, and each check uses its name:

==================  =====  ====================================================
``NORM_TOL``        1e-12  unit norms; a density operator's Hermitian deviation
``PROB_TOL``        1e-12  a given outcome-table row; a distribution's sum
``VALIDATION_TOL``  1e-10  unitarity, a trap's Gram condition, Hermitian checks,
                           an effect's spectrum, a density operator's trace/floor
``IDENTITY_TOL``    1e-9   Kraus completeness; a network output's trace
``PSD_FLOOR``       -1e-8  lowest eigenvalue a square root clamps to zero
``RELATIVE_ZERO``   1e-13  share of the top eigenvalue below which one is zero
``DERIVED_TOL``     ~1e-9  a derived probability (a sum of the above)
==================  =====  ====================================================

A boundary check validates a value handed to the engine (a state, an effect,
a unitary, a trap action, a distribution, a given outcome-table row) where it
is made. A value derived from checked inputs (a round factor, a network's
acceptance, a table's average) is not checked against a boundary constant
again: it is clamped into [0, 1] within ``DERIVED_TOL``. An allowance that
serves one check only is named beside it, in its own module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NotPsdError

DIM_CAP = 4096
COMB_DIM_CAP = 256  # channel networks: register stack times kept auxiliary space
NORM_TOL = 1e-12
PROB_TOL = 1e-12
VALIDATION_TOL = 1e-10
IDENTITY_TOL = 1e-9

# Eigenvalues in [PSD_FLOOR, 0) are treated as rounding noise and clamped
# to zero; anything below the floor is a genuinely negative operator and
# raises, so protocol bugs are not masked by silent clamping.
PSD_FLOOR = -1e-8
RELATIVE_ZERO = 1e-13

# how far checked inputs can put a derived probability past [0, 1], to first order: an
# effect's top eigenvalue or a trap's Gram condition, times a network output's trace or
# two squared unit norms; or two distribution sums
DERIVED_TOL = VALIDATION_TOL + IDENTITY_TOL + 4 * NORM_TOL + 2 * PROB_TOL


def tol_text(tol: float) -> str:
    """A tolerance as messages write it: ``1e-9``, not ``1e-09``."""
    return f"{tol:.0e}".replace("e-0", "e-")


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


def is_unitary(u: np.ndarray):
    """Whether ``u`` is unitary within ``VALIDATION_TOL`` in every entry of ``u†u - 1``;
    for a stack ``(..., d, d)``, one flag per matrix. False if not square."""
    m = np.asarray(u)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    dev = np.abs(dagger(m) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1), initial=0.0)
    return dev <= VALIDATION_TOL


def require_unitary(u, what: str, dim: int | None = None, stack: bool = False) -> np.ndarray:
    """``u`` as a complex matrix, or with ``stack`` a stack ``(..., d, d)`` of
    them: finite, square, of dim ``dim`` (any when None) and unitary within
    ``VALIDATION_TOL``. The one unitarity check; errors name ``what`` and, in a stack, the
    first bad index."""
    m = as_square_matrix(u, what, stack)
    if dim is not None and m.shape[-1] != dim:
        raise ContractViolationError(f"{what} has dim {m.shape[-1]}, expected {dim}")
    bad = ~is_unitary(m)
    if np.any(bad):
        raise ContractViolationError(
            f"{what}{_first_bad(bad)[1]} is not unitary within {tol_text(VALIDATION_TOL)}")
    return m


def _require_hermitian(m: np.ndarray, tol: float, what: str = "matrix") -> None:
    """Raise unless every matrix of ``m`` is Hermitian within ``tol`` in every entry."""
    dev = np.abs(m - dagger(m)).max(axis=(-2, -1), initial=0.0)
    if np.any(dev > tol):
        i, at = _first_bad(dev > tol)
        msg = f"{what}{at} is not Hermitian (max deviation {dev[i]:.3e} > {tol_text(tol)})"
        raise ContractViolationError(msg)


def require_operator(m: np.ndarray, what: str, hermitian_tol: float, floor: float = -math.inf,
                     ceiling: float = math.inf, vectors: bool = False):
    """The one operator check: each matrix of ``m`` (from :func:`as_square_matrix`)
    Hermitian within ``hermitian_tol``, eigenvalues in ``[floor, ceiling]``
    (below: :class:`NotPsdError`). Returns its Hermitian part's eigenvalues,
    ascending, or with ``vectors`` ``(w, v)``; errors name ``what`` and a bad index."""
    _require_hermitian(m, hermitian_tol, what)
    h = (m + dagger(m)) / 2.0
    w, v = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    lo, hi = w.min(axis=-1, initial=math.inf), w.max(axis=-1, initial=-math.inf)
    if np.any(lo < floor):
        i, at = _first_bad(lo < floor)
        raise NotPsdError(f"{what}{at} has eigenvalue {lo[i]:.3e} below {floor!r}")
    if np.any(hi > ceiling):
        i, at = _first_bad(hi > ceiling)
        raise ContractViolationError(f"{what}{at} has eigenvalue {hi[i]:.12g} above {ceiling!r}")
    return (w, v) if vectors else w


def hermitian_eig(h):
    """Eigendecomposition ``(w, v)`` of a Hermitian matrix or of each matrix of
    a stack: ``w`` ascending, ``v`` orthonormal columns, ``h = v diag(w) v†``,
    deterministic for identical input. Raises :class:`ContractViolationError`
    if ``h`` deviates from Hermitian by more than ``VALIDATION_TOL`` in any entry."""
    return require_operator(as_square_matrix(h, stack=True), "matrix", VALIDATION_TOL, vectors=True)


def _clamped_sqrt(eigvals: np.ndarray) -> np.ndarray:
    lo = eigvals.min(axis=-1, initial=0.0)
    if np.any(lo < PSD_FLOOR):
        i, at = _first_bad(lo < PSD_FLOOR)
        raise NotPsdError(f"eigenvalue {lo[i]:.3e}{at} below the PSD floor {tol_text(PSD_FLOOR)}")
    w = np.clip(eigvals, 0.0, None)
    # Eigenvalues this far below the top are unresolvable rounding noise;
    # without zeroing them, sqrt amplifies ~1e-17 into ~3e-9 and pollutes
    # linear functionals like Tr sqrt(...) past the identity tolerances.
    top = w.max(axis=-1, keepdims=True, initial=0.0)
    return np.sqrt(np.where(w <= RELATIVE_ZERO * top, 0.0, w))


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


def require_broadcast(a: np.ndarray, b: np.ndarray) -> None:
    """Raise unless two stacks' shapes broadcast."""
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ContractViolationError(f"stacks of shapes {a.shape} and {b.shape} do not broadcast") from None


def fidelity_psd(a, b):
    """Fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2 for PSD matrices, or per matrix
    of stacks (leading axes broadcast). Works on unnormalized positive
    operators; no clipping is applied. ``b`` gets ``a``'s Hermitian check."""
    am, bm = as_square_matrix(a, stack=True), as_square_matrix(b, stack=True)
    _require_same_dim(am.shape[-1], bm.shape[-1])
    require_broadcast(am, bm)
    s = psd_sqrt(am)
    _require_hermitian(bm, VALIDATION_TOL)
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


def as_state_vectors(a, what: str = "state vector", stack: bool = False) -> np.ndarray:
    """``a`` as a complex128 state vector, or with ``stack`` as a stack
    ``(..., d)`` of them: finite entries and Euclidean norm 1 within
    ``NORM_TOL``. Errors name ``what`` and, in a stack, the first bad index."""
    vec = np.asarray(a, dtype=np.complex128)
    if vec.ndim != 1 and not (stack and vec.ndim > 1):
        raise ContractViolationError(f"expected a vector, got ndim={vec.ndim}")
    nrm = np.sqrt((vec.real * vec.real + vec.imag * vec.imag).sum(axis=-1))
    ok = abs(nrm - 1.0) <= NORM_TOL
    if not ok.all():  # a non-finite entry fails the norm too; it is named first
        bad = ~np.isfinite(vec).all(axis=-1)
        if bad.any():
            raise ContractViolationError(f"{what}{_first_bad(bad)[1]} has non-finite entries")
        i, at = _first_bad(~ok)
        raise ContractViolationError(
            f"{what}{at} norm {float(nrm[i])!r} deviates from 1 by more than {tol_text(NORM_TOL)}")
    return vec


def pure_trace_distance(u, v):
    """Trace distance sqrt(1 - |<u|v>|^2) of two pure states: two
    :class:`PureState` give a float, two stacks ``(..., d)`` of state vectors
    (leading axes broadcast, each stack checked by :func:`as_state_vectors`)
    an array. Both go through one kernel, so a pair gets its stacked value."""
    uv, vv = (x.amplitudes if isinstance(x, PureState) else as_state_vectors(x, what, stack=True)
              for x, what in ((u, "first state vector"), (v, "second state vector")))
    _require_same_dim(uv.shape[-1], vv.shape[-1])
    require_broadcast(uv, vv)
    s = (uv.conj() * vv).sum(axis=-1)
    out = np.sqrt(np.maximum(0.0, 1.0 - (s.real**2 + s.imag**2)))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector; Euclidean norm must be 1 within ``NORM_TOL``."""

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = as_state_vectors(self.amplitudes).copy()
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
        require_operator(m, "density operator", NORM_TOL, floor=-VALIDATION_TOL)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > VALIDATION_TOL:
            raise ContractViolationError(
                f"density operator trace {tr!r} is not 1 within {tol_text(VALIDATION_TOL)}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]
