"""Scalar optimization on [0, 1]: dense grid scan refined by zooming grids.

Both take the first optimum of an even grid, in lockstep on arrays.
:func:`refine` zooms on one bracket per element (a scalar bracket is the 0-d
case), each for a round count fixed by its width before the first round.
:func:`scan_unit_interval` takes one objective that broadcasts its probes
against its ``B`` objectives: ``(1, r)`` grid blocks and ``(B, 33)`` zoom
rounds both give ``(B, r)`` values. Grid blocks hold about ``_BLOCK_VALUES``
values, so memory does not grow with ``B``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError, OutOfDomainError

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
