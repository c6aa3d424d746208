"""Goodness-of-fit tests at a fixed level, shared by the tests that compare laws.

A test draws at fixed seeds, so it passes or fails the same way every run;
the level says how often a correct draw would fail at a seed picked at
random. Critical values are computed here so the tests need numpy only.
"""

import math

import numpy as np

LEVEL = 1e-3  # chance that a correct law fails one comparison
_Z = 3.090232306167813  # the standard normal's 1 - LEVEL quantile


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance: the largest gap of the ECDFs."""
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, points, side="right") / a.size
                               - np.searchsorted(b, points, side="right") / b.size)))


def ks_critical(n, m):
    """The two-sample KS distance that samples of sizes n and m exceed with
    probability LEVEL under one law (asymptotic)."""
    return math.sqrt(-math.log(LEVEL / 2.0) / 2.0) * math.sqrt((n + m) / (n * m))


def chi2_critical(df):
    """The chi-square statistic with ``df`` degrees of freedom exceeds this with
    probability about LEVEL (Wilson-Hilferty; a little above the exact value
    for small ``df``, so the test errs towards passing)."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + _Z * math.sqrt(c)) ** 3


def chi2_statistic(observed, expected):
    """Pearson's statistic over bins, each bin pooled with the next until it
    expects at least 5 (a short remainder joins the last bin); returns it
    with its degrees of freedom, the pooled bins less one."""
    obs, exp, o, e = [], [], 0.0, 0.0
    for o_i, e_i in zip(observed, expected):
        o, e = o + o_i, e + e_i
        if e >= 5.0:
            obs.append(o)
            exp.append(e)
            o, e = 0.0, 0.0
    obs[-1], exp[-1] = obs[-1] + o, exp[-1] + e
    obs, exp = np.array(obs), np.array(exp)
    return float(((obs - exp) ** 2 / exp).sum()), exp.size - 1


def contingency_chi2(a, b, categories):
    """Pearson's statistic that two samples come from one law over
    ``categories``, with its degrees of freedom."""
    counts = np.array([[np.count_nonzero(np.asarray(s) == c) for c in categories] for s in (a, b)])
    expected = counts.sum(axis=1, keepdims=True) * counts.sum(axis=0) / counts.sum()
    return float(((counts - expected) ** 2 / expected).sum()), len(categories) - 1


def within_sigmas(rate, p, trials, sigmas=5.0):
    """Whether a rate sampled from ``trials`` runs lies within ``sigmas``
    binomial standard deviations of the exact ``p``; 1e-12 more covers a ``p``
    rounded off 0 or 1. A correct draw misses 5 sigma with chance about 6e-7."""
    return abs(rate - p) <= sigmas * math.sqrt(max(0.0, p * (1.0 - p)) / trials) + 1e-12
