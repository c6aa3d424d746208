"""Scalar optimization on [0, 1]: dense grid scan with golden-section refinement.

Both run in lockstep on arrays. :func:`golden_section` refines one bracket
per element (a scalar bracket is the 0-d case). :func:`scan_unit_interval`
takes one objective that broadcasts its probes against its ``B`` objectives:
grid blocks arrive as ``(1, r)`` and give ``(B, r)`` values, refinement
probes arrive as ``(B, 1)``, one per objective. The grid is evaluated in
blocks of about ``_BLOCK_VALUES`` values, each reduced to a running best per
objective, so its memory does not grow with ``B``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError, OutOfDomainError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 10_001  # [0, 1] at step 1e-4, endpoints included
_BLOCK_VALUES = 2**16  # grid values per block over all objectives: 512 KB

# The bracket state stacks rows a, b, x1, x2, f1, f2 and the step's probe and
# its value over the brackets. A step holds a finished bracket, keeps
# [x1, b] or keeps [a, x2] (kinds 0, 1, 2). Per kind, the first two rows of
# the table give (p, q) for the probe p + c (q - p), and the other eight the
# next state: a hold probes x1 + c * 0 = x1 and keeps its state.
_STEP_ROWS = np.array([
    [2, 2, 3], [2, 1, 0],
    [0, 2, 0], [1, 1, 3], [2, 3, 6], [3, 6, 2], [4, 5, 7], [5, 7, 4], [6, 6, 6], [7, 7, 7],
])


def golden_section(f, a, b, tol: float = 1e-12, minimize: bool = True):
    """Golden-section search for unimodal functions on brackets [a, b].

    ``a``, ``b``: floats or same-shape arrays, one bracket each; ``f`` maps one
    probe per bracket to its value. Each bracket probes what it would alone
    and is masked out once narrower than ``tol``, or once a step no longer
    narrows it (its float spacing exceeds ``tol``). Returns ``(x, f(x))`` at
    each best probed point, floats for a scalar bracket. Raises
    :class:`OutOfDomainError` on a non-finite or reversed bracket, or a
    ``tol`` that is not finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise OutOfDomainError(f"golden-section tol must be finite and > 0, got {tol!r}")
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not np.all(np.isfinite(a) & np.isfinite(b) & (a <= b)):
        raise OutOfDomainError("golden-section brackets must be finite with a <= b")
    keep_left, better = (np.less_equal, np.less) if minimize else (np.greater_equal, np.greater)
    # one step is two gathers from the flat state, one state row per table row
    rows, offsets = _STEP_ROWS * a.size, np.arange(a.size).reshape(a.shape)
    x1, x2 = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    state = np.stack(np.broadcast_arrays(a, b, x1, x2, f(x1), f(x2), a, a))
    last = np.full(a.shape, np.inf)
    while True:
        width = state[1] - state[0]
        active = (width > tol) & (width < last)
        if not np.count_nonzero(active):
            break
        last = width
        at = rows[:, np.left_shift(active, keep_left(state[4], state[5]))] + offsets
        p, q = state.take(at[:2])
        state[6] = p + _INV_PHI * (q - p)
        state[7] = f(state[6])
        state = state.take(at[2:])
    a, b, x1, x2, f1, f2 = state[:6]
    # the first of the best (value, x) pairs, as min() orders tuples
    best_v, best_x = f1, x1
    for v, x in ((f2, x2), (f(a), a), (f(b), b)):
        take = better(v, best_v) | ((v == best_v) & (x < best_x))
        best_v, best_x = np.where(take, v, best_v), np.where(take, x, best_x)
    return (float(best_x), float(best_v)) if best_x.ndim == 0 else (best_x, best_v)


def _block_best(f, xs: np.ndarray, start: int, stop: int, minimize: bool):
    """Index and value of the first optimum per objective over grid points
    ``start:stop``, from ``(B, r)`` values of ``f`` that must all be finite."""
    vals = np.asarray(f(xs[None, start:stop]), dtype=float)
    if vals.ndim != 2 or vals.shape[1] != stop - start:
        raise ContractViolationError(f"objective gave shape {vals.shape} for {stop - start} grid points")
    if not np.all(np.isfinite(vals)):
        t = float(xs[start + np.argmin(np.isfinite(vals).all(axis=0))])
        raise OutOfDomainError(f"objective is not finite at grid point {t}")
    j = vals.argmin(axis=1) if minimize else vals.argmax(axis=1)
    return start + j, vals[np.arange(len(vals)), j]


def scan_unit_interval(f, minimize: bool = True):
    """Grid scan of [0, 1] at step 1e-4 (endpoints included) refined by
    golden-section search, for the ``B`` objectives of ``f``: ``(1, r)`` grid
    probes give ``(B, r)`` values and ``(B, 1)`` refinement probes ``(B, 1)``.
    The first grid point alone fixes ``B``; the rest are cut into blocks of
    ``_BLOCK_VALUES // B`` points (one block when ``B`` is small; the last
    block takes one point more rather than leave one alone), each reduced to
    a running best that keeps the first optimum, as ``np.argmin`` does.
    Returns ``(x, f(x))`` as ``(B,)`` arrays. Raises
    :class:`OutOfDomainError` on a non-finite grid value.
    """
    xs = np.linspace(0.0, 1.0, _GRID_POINTS)
    best_i, best_v = _block_best(f, xs, 0, 1, minimize)
    r = max(1, _BLOCK_VALUES // max(1, best_v.size))
    # no later block of one point: numpy takes one-row matrix products to
    # another BLAS kernel, whose last bits differ from a longer block's
    edges = [*range(1, _GRID_POINTS - 1, r), _GRID_POINTS]
    for start, stop in zip(edges[:-1], edges[1:]):
        i, v = _block_best(f, xs, start, stop, minimize)
        better = v < best_v if minimize else v > best_v
        best_i, best_v = np.where(better, i, best_i), np.where(better, v, best_v)
    lo = xs[np.maximum(best_i - 1, 0)][:, None]
    hi = xs[np.minimum(best_i + 1, _GRID_POINTS - 1)][:, None]
    x_ref, v_ref = golden_section(f, lo, hi, minimize=minimize)
    x_ref, v_ref = x_ref[:, 0], v_ref[:, 0]
    take = ((v_ref < best_v) == minimize) | (v_ref == best_v)
    return np.where(take, x_ref, xs[best_i]), np.where(take, v_ref, best_v)
