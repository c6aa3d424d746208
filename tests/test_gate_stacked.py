"""The closed-form-identities criterion evaluates its cases in stacks.

The stacked values must equal the production functions' one-case calls on
every draw, and a wrong answer from any function the criterion checks must
still turn it to FAIL, naming the first failing trial.
"""

import itertools
import re

import numpy as np
import pytest

from cutchoose import acceptance, reference
from cutchoose.linalg import trace_norm
from cutchoose.reference import (numerical_range_min_overlap, random_psd, random_pure_state,
                                 scan_unit_interval)
from law import chi2_critical, contingency_chi2, ks_critical, ks_distance


@pytest.fixture(scope="module")
def cases():
    return tuple(acceptance._identity_cases())


class ScaleRecorder:
    """A generator that keeps what its ``uniform(0.1, 2.0, ...)`` calls return:
    the block scales of a draw."""

    def __init__(self, seed):
        self.rng, self.scales = np.random.default_rng(seed), []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def uniform(self, low, high, size=None):
        out = self.rng.uniform(low, high, size)
        if (low, high) == (0.1, 2.0):
            self.scales.append(np.ravel(out))
        return out


def stacked_draw(seed):
    """The draws of the first two closed-form families at ``seed``: dims, state
    pairs, the diagonal block of every P1, Q1, P2, Q2 (d1 read as the nonzero
    diagonal of P1), and the scales; the padding around each is zero."""
    rng = ScaleRecorder(seed)
    dims, (us, vs) = acceptance._state_pairs(rng)
    quad_dims, *quads = acceptance._psd_quadruples(rng)
    assert not any(u[d:].any() or v[d:].any() for d, u, v in zip(dims, us, vs))
    pairs = [(u[:d], v[:d]) for d, u, v in zip(dims, us, vs)]
    blocks = []
    for t, dim in enumerate(quad_dims):
        d1 = np.count_nonzero(np.diagonal(quads[0][t]))
        for j, (lo, hi) in enumerate(((0, d1), (0, d1), (d1, dim), (d1, dim))):
            padding = quads[j][t].copy()
            blocks.append(padding[lo:hi, lo:hi].copy())
            padding[lo:hi, lo:hi] = 0.0
            assert not padding.any()
    return dims, pairs, blocks, np.concatenate(rng.scales)


def per_case_draw(seed):
    """The same from the per-case loops the stacked draw replaced: one state
    pair, then one quadruple of blocks, at a time."""
    rng = np.random.default_rng(seed)
    dims, pairs, blocks, scales = [], [], [], []
    for _ in range(1000):
        dims.append(int(rng.choice((2, 4, 8, 16))))
        pairs.append((random_pure_state(dims[-1], rng).amplitudes,
                      random_pure_state(dims[-1], rng).amplitudes))
    for _ in range(1000):
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        for size in (d1, d1, d2, d2):
            scales.append(float(rng.uniform(0.1, 2.0)))
            blocks.append(random_psd(size, rng) * scales[-1])
    return np.array(dims), pairs, blocks, np.array(scales)


def relative_gap(p, q):
    """||p - q||_F / (||p||_F + ||q||_F): a joint statistic of two blocks,
    0 when one is the other and spread out when they are independent."""
    return np.linalg.norm(p - q) / (np.linalg.norm(p) + np.linalg.norm(q))


def pooled(draw, seeds):
    """The statistics the law test compares, over ``draw`` at each seed. The
    gaps are taken between the blocks of one quadruple of equal size: P1, Q1
    and P2, Q2 ("within"), and across the two when d1 = d2 ("across")."""
    out = {"dims": [], "overlaps": [], "sizes": [], "scales": [],
           "traces": {1: [], 2: [], 3: []}, "eigenvalues": {1: [], 2: [], 3: []},
           "gaps": {(kind, size): [] for kind in ("within", "across") for size in (1, 2, 3)}}
    for seed in seeds:
        dims, pairs, blocks, scales = draw(seed)
        out["dims"].append(dims)
        out["overlaps"].append([abs(np.vdot(u, v)) ** 2 for u, v in pairs])
        out["sizes"].append([len(b) for b in blocks])
        out["scales"].append(scales)
        for b in blocks:
            out["traces"][len(b)].append([np.trace(b).real])
            out["eigenvalues"][len(b)].append(np.linalg.eigvalsh(b))
        for quad in zip(*[iter(blocks)] * 4):
            for i, j in itertools.combinations(range(4), 2):
                if len(quad[i]) == len(quad[j]):
                    kind = "within" if (i, j) in ((0, 1), (2, 3)) else "across"
                    out["gaps"][kind, len(quad[i])].append(relative_gap(quad[i], quad[j]))
    return {key: value if isinstance(value, dict) else np.concatenate(value)
            for key, value in out.items()}


class TestStackedEqualsOneCaseCalls:
    def test_every_family_draws_1000_cases(self, cases):
        (dims, amps, closed), (quad_dims, *quads), ab, alphas = cases
        assert dims.shape == closed.shape == quad_dims.shape == alphas.shape == (1000,)
        assert amps.shape == (2, 1000, 16) and ab.shape == (1000, 2)
        assert [q.shape for q in quads] == [(1000, 6, 6)] * 4
        assert set(dims) == {2, 4, 8, 16} and set(quad_dims) == {2, 3, 4, 5, 6}

    def test_the_draws_follow_the_per_case_law(self):
        # the stacked draw against the per-case loops it replaced, at other seeds
        # than the gate's; each comparison at law.LEVEL
        new, old = (pooled(draw, seeds) for draw, seeds in (
            (stacked_draw, (1, 2, 3)), (per_case_draw, (101, 102, 103))))
        stat, df = contingency_chi2(new["dims"], old["dims"], (2, 4, 8, 16))
        assert stat <= chi2_critical(df), ("dims", stat)
        stat, df = contingency_chi2(new["sizes"], old["sizes"], (1, 2, 3))
        assert stat <= chi2_critical(df), ("block sizes", stat)
        samples = [("scales", new["scales"], old["scales"])]
        for d in (2, 4, 8, 16):
            samples.append((f"|<u|v>|^2 at d={d}",
                            *(s["overlaps"][s["dims"] == d] for s in (new, old))))
        for size in (1, 2, 3):
            for stat_name in ("traces", "eigenvalues"):
                samples.append((f"block {stat_name} at size {size}",
                                *(np.concatenate(s[stat_name][size]) for s in (new, old))))
        for kind, size in new["gaps"]:
            samples.append((f"{kind} block gaps at size {size}",
                            *(np.array(s["gaps"][kind, size]) for s in (new, old))))
        for name, a, b in samples:
            assert ks_distance(a, b) <= ks_critical(a.size, b.size), name

    def test_trace_distance(self, cases):
        dims, amps, closed = cases[0]
        stacked = acceptance._stacked(acceptance._half_trace_norm_gap, dims, *amps)
        single = [
            0.5 * trace_norm(np.outer(u, u.conj()) - np.outer(v, v.conj()))
            for u, v in ((amps[0, t, :d], amps[1, t, :d]) for t, d in enumerate(dims))
        ]
        np.testing.assert_allclose(stacked, single, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stacked, closed, rtol=0, atol=1e-9)

    def test_block_additivity(self, cases):
        dims, *quads = cases[1]
        stacked = acceptance._stacked(acceptance._block_additivity, dims, *quads)
        single = [
            acceptance._block_additivity(*(q[t, :d, :d] for q in quads)) for t, d in enumerate(dims)
        ]
        assert stacked.shape == (1000, 4)
        np.testing.assert_allclose(stacked, single, rtol=0, atol=1e-12)

    def test_max_p(self, cases):
        ab = cases[2]
        _, stacked = scan_unit_interval(acceptance._max_p_objective(ab), minimize=False)
        single = [
            scan_unit_interval(acceptance._max_p_objective(row), minimize=False)[1][0] for row in ab
        ]
        np.testing.assert_allclose(stacked, single, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stacked, (ab**2).sum(axis=1), rtol=0, atol=1e-6)

    def test_numerical_range(self, cases):
        alphas = cases[3]
        stacked = numerical_range_min_overlap(alphas, trials=16, seed=np.arange(1000))
        single = [
            numerical_range_min_overlap(float(a), trials=16, seed=i) for i, a in enumerate(alphas)
        ]
        np.testing.assert_array_equal(stacked, single)


class TestMutationsFail:
    def _failure(self):
        result = acceptance.criterion_closed_form_identities()
        assert not result.passed
        return result.detail

    def test_trace_norm_off_by_1e_8(self, monkeypatch):
        real = acceptance.trace_norm
        monkeypatch.setattr(acceptance, "trace_norm", lambda a: real(a) * (1.0 + 1e-8))
        assert self._failure().startswith("trace-distance trial 0: ")

    def test_numerical_range_offset_by_2e_4(self, monkeypatch):
        real = acceptance.numerical_range_min_overlap
        monkeypatch.setattr(
            acceptance, "numerical_range_min_overlap", lambda *a, **k: real(*a, **k) + 2e-4
        )
        assert self._failure().startswith("numerical-range trial 0: ")

    @pytest.mark.parametrize("cut, kinds", [
        # one round and no narrowing: a tol wider than every bracket. Its 33
        # probes are already 32 times finer than the max_p grid, so only the
        # numerical range sees it
        ("no-narrowing-round", ["numerical-range"]),
        # no refinement at all: the bracket's middle, the grid's best point
        ("bracket-middle", ["max_p", "numerical-range"]),
    ], ids=["no-narrowing-round", "bracket-middle"])
    def test_refinement_cut_short(self, monkeypatch, cut, kinds):
        real = reference.refine

        def cut_short(f, lo, hi, tol=1e-12, minimize=True):
            if cut == "no-narrowing-round":
                return real(f, lo, hi, tol=1e300, minimize=minimize)
            mid = (np.asarray(lo) + hi) / 2.0
            return real(f, mid, mid, tol=tol, minimize=minimize)

        monkeypatch.setattr(reference, "refine", cut_short)
        # the failing families, each named with its first failing case; which
        # case fails first is the drawn stream's, not the cut's
        parts = [re.fullmatch(r"(.+) trial \d+: .+", part) for part in self._failure().split("; ")]
        assert [part and part[1] for part in parts] == kinds


# the gate's criteria that draw their cases
DRAWN_CRITERIA = ("closed-form-identities", "gap-bound-random-networks", "jensen-step",
                  "monte-carlo-vs-exact")


def test_the_drawn_criteria_pass_on_another_stream(monkeypatch):
    # every generator the gate makes draws from its seed with one more word: a
    # stream of the same law, as a NumPy release that changed a distribution's
    # algorithm would give. Each criterion checks a law, so each still passes
    real, seeds = np.random.default_rng, []

    def shifted(seed):
        seeds.append(seed)
        return real([*np.atleast_1d(seed).tolist(), 20261020])

    monkeypatch.setattr(np.random, "default_rng", shifted)
    criteria = dict(acceptance.ALL_CRITERIA)
    for name in DRAWN_CRITERIA:
        seeds.clear()
        result = criteria[name]()
        assert seeds, name  # the criterion drew from the shifted streams
        assert result.passed, (name, result.detail)

