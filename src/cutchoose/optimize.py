"""Scalar optimization on [0, 1]: dense grid scan with golden-section refinement.

Both take one vectorised objective and run in lockstep on arrays: one bracket
per element (a scalar bracket is the 0-d case), one objective per grid column.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfDomainError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 10_001  # [0, 1] at step 1e-4, endpoints included


def golden_section(f, a, b, tol: float = 1e-12, minimize: bool = True):
    """Golden-section search for unimodal functions on brackets [a, b].

    ``a``, ``b``: floats or same-shape arrays, one bracket each; ``f`` maps one
    probe per bracket to its value. Each bracket probes what it would alone
    and is masked out once narrower than ``tol``. Returns ``(x, f(x))`` at
    each best probed point, floats for a scalar bracket. Raises
    :class:`OutOfDomainError` on a non-finite or reversed bracket.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not np.all(np.isfinite(a) & np.isfinite(b) & (a <= b)):
        raise OutOfDomainError("golden-section brackets must be finite with a <= b")
    sign = 1.0 if minimize else -1.0
    x1, x2 = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    f1, f2 = sign * f(x1), sign * f(x2)
    while np.any(active := b - a > tol):
        # keep [a, x2] and probe left of x2, or keep [x1, b] and probe right of x1
        left = f1 <= f2
        probe = np.where(left, x2 - _INV_PHI * (x2 - a), x1 + _INV_PHI * (b - x1))
        fp = sign * f(np.where(active, probe, x1))
        moved = np.where(left, (a, x2, probe, x1, fp, f1), (x1, b, x2, probe, f2, fp))
        a, b, x1, x2, f1, f2 = np.where(active, moved, (a, b, x1, x2, f1, f2))
    # the first of the lowest (value, x) pairs, as min() orders tuples
    best_v, best_x = f1, x1
    for v, x in ((f2, x2), (sign * f(a), a), (sign * f(b), b)):
        take = (v < best_v) | ((v == best_v) & (x < best_x))
        best_v, best_x = np.where(take, v, best_v), np.where(take, x, best_x)
    return (float(best_x), float(sign * best_v)) if best_x.ndim == 0 else (best_x, sign * best_v)


def scan_unit_interval(f, minimize: bool = True):
    """Grid scan of [0, 1] at step 1e-4 (endpoints included) refined by
    golden-section search on ``f``, which gives ``(G,)`` values on the
    ``(G,)`` grid, or ``(G, B)`` for ``B`` objectives (the refinement then
    reads objective ``j`` at probe ``j``). Returns ``(x, f(x))``, floats or
    ``(B,)`` arrays. Raises :class:`OutOfDomainError` on a non-finite grid value.
    """
    xs = np.linspace(0.0, 1.0, _GRID_POINTS)
    vals = np.asarray(f(xs), dtype=float)
    if not np.all(np.isfinite(vals)):
        t = float(xs[np.argwhere(~np.isfinite(vals))[0][0]])
        raise OutOfDomainError(f"objective is not finite at grid point {t}")
    i = np.argmin(vals, axis=0) if minimize else np.argmax(vals, axis=0)
    x_best, v_best = xs[i], np.take_along_axis(vals, i[None], axis=0)[0]
    lo, hi = xs[np.maximum(i - 1, 0)], xs[np.minimum(i + 1, _GRID_POINTS - 1)]
    refine = f if vals.ndim == 1 else (lambda x: np.diagonal(f(x)))
    x_ref, v_ref = golden_section(refine, lo, hi, minimize=minimize)
    take = ((v_ref < v_best) == minimize) | (v_ref == v_best)
    x, v = np.where(take, x_ref, x_best), np.where(take, v_ref, v_best)
    return (float(x), float(v)) if vals.ndim == 1 else (x, v)
