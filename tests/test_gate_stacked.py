"""The closed-form-identities criterion evaluates its cases in stacks.

The stacked values must equal the production functions' one-case calls on
every draw, and a wrong answer from any function the criterion checks must
still turn it to FAIL, naming the first failing trial.
"""

import numpy as np
import pytest

from cutchoose import acceptance, optimize, states
from cutchoose.linalg import pure_trace_distance, trace_norm
from cutchoose.optimize import scan_unit_interval
from cutchoose.sampling import random_psd, random_pure_state
from cutchoose.states import numerical_range_min_overlap


@pytest.fixture(scope="module")
def cases():
    return tuple(acceptance._identity_cases())


class TestStackedEqualsOneCaseCalls:
    def test_every_family_draws_1000_cases(self, cases):
        (dims, amps, closed), (quad_dims, *quads), ab, alphas = cases
        assert dims.shape == closed.shape == quad_dims.shape == alphas.shape == (1000,)
        assert amps.shape == (2, 1000, 16) and ab.shape == (1000, 2)
        assert [q.shape for q in quads] == [(1000, 6, 6)] * 4
        assert set(dims) == {2, 4, 8, 16} and set(quad_dims) == {2, 3, 4, 5, 6}

    def test_the_draws_are_the_per_case_draws(self, cases):
        # the draws of the per-trial loops: one state pair, then one quadruple, at a time
        rng = np.random.default_rng(20260809)
        (dims, amps, closed), (quad_dims, *quads) = cases[:2]
        for t in range(1000):
            dim = int(rng.choice((2, 4, 8, 16)))
            u, v = random_pure_state(dim, rng), random_pure_state(dim, rng)
            assert dim == dims[t] and not amps[:, t, dim:].any()
            assert np.array_equal(amps[:, t, :dim], [u.amplitudes, v.amplitudes])
            assert closed[t] == pure_trace_distance(u, v)
        for t in range(1000):
            d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            assert quad_dims[t] == d1 + d2
            for j, (offset, size) in enumerate(((0, d1), (0, d1), (d1, d2), (d1, d2))):
                expected = np.zeros((6, 6), dtype=complex)
                block = random_psd(size, rng) * float(rng.uniform(0.1, 2.0))
                expected[offset:offset + size, offset:offset + size] = block
                assert np.array_equal(quads[j][t], expected)
        assert np.array_equal(cases[2], rng.uniform(0.0, 1.0, size=(1000, 2)))

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

    @pytest.mark.parametrize("cut, first_failures", [
        # one round and no narrowing: a tol wider than every bracket. Its 33
        # probes are already 32 times finer than the max_p grid, so only the
        # numerical range sees it
        ("no-narrowing-round", ("numerical-range trial 4: ",)),
        # no refinement at all: the bracket's middle, the grid's best point
        ("bracket-middle", ("max_p trial 84: ", "numerical-range trial 0: ")),
    ], ids=["no-narrowing-round", "bracket-middle"])
    def test_refinement_cut_short(self, monkeypatch, cut, first_failures):
        real = optimize.refine

        def cut_short(f, lo, hi, tol=1e-12, minimize=True):
            if cut == "no-narrowing-round":
                return real(f, lo, hi, tol=1e300, minimize=minimize)
            mid = (np.asarray(lo) + hi) / 2.0
            return real(f, mid, mid, tol=tol, minimize=minimize)

        for module in (optimize, states):
            monkeypatch.setattr(module, "refine", cut_short)
        parts = self._failure().split("; ")
        assert len(parts) == len(first_failures)
        assert all(part.startswith(first) for part, first in zip(parts, first_failures))
