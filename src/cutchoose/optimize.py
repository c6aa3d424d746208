"""Scalar optimization on [0, 1]: dense grid scan with golden-section refinement."""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 10_001  # [0, 1] at step 1e-4, endpoints included


def golden_section(f, a: float, b: float, tol: float = 1e-12, minimize: bool = True):
    """Golden-section search for a unimodal scalar function on [a, b].

    Returns ``(x, f(x))`` at the best probed point. Converges to an endpoint
    when the function is monotone on the bracket.
    """
    sign = 1.0 if minimize else -1.0
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1 = sign * f(x1)
    f2 = sign * f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = sign * f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = sign * f(x2)
    candidates = [(f1, x1), (f2, x2), (sign * f(a), a), (sign * f(b), b)]
    best_val, best_x = min(candidates)
    return best_x, sign * best_val


def scan_unit_interval(f, vector_f, minimize: bool = True):
    """Grid scan of [0, 1] at step 1e-4 (endpoints included) refined by
    golden-section search.

    ``vector_f`` evaluates the objective on the whole grid at once and must
    agree with ``f`` pointwise; ``f`` drives the refinement. Returns
    ``(x, f(x))``.
    """
    xs = np.linspace(0.0, 1.0, _GRID_POINTS)
    vals = np.asarray(vector_f(xs), dtype=float)
    i = int(np.argmin(vals) if minimize else np.argmax(vals))
    x_best, v_best = float(xs[i]), float(vals[i])
    lo = float(xs[max(i - 1, 0)])
    hi = float(xs[min(i + 1, _GRID_POINTS - 1)])
    x_ref, v_ref = golden_section(f, lo, hi, minimize=minimize)
    if (v_ref < v_best) == minimize or v_ref == v_best:
        return x_ref, v_ref
    return x_best, v_best
