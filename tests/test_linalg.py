import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cutchoose.combs import Channel, GeneralTest, random_unitary
from cutchoose.errors import ContractViolationError, NotPsdError
from cutchoose.linalg import (
    DensityOperator,
    PureState,
    fidelity,
    fidelity_psd,
    hermitian_eig,
    psd_sqrt,
    pure_trace_distance,
    trace_norm,
)
from cutchoose.reference import (diamond_distance_unitaries, random_density, random_psd,
                                 random_pure_state)
from cutchoose.protocol import TrapGenerator, receive_action
from cutchoose.states import PovmElement, phase_gate, plus_state
from cutchoose.strategies import HONEST, transform_round

I2 = np.eye(2)


def ket(*amps):
    v = np.asarray(amps, dtype=complex)
    return PureState(v / np.linalg.norm(v))


class TestHermitianEig:
    def test_identity(self):
        w, _ = hermitian_eig(I2)
        np.testing.assert_allclose(w, [1.0, 1.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            hermitian_eig(np.diag([1.0, 1.0j]))

    def test_pauli_x(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        w, v = hermitian_eig(x)
        np.testing.assert_allclose(w, [-1.0, 1.0])
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(np.vdot(v[:, 0], minus)) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(v[:, 1], plus)) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        h = random_psd(8, rng)
        w1, v1 = hermitian_eig(h)
        w2, v2 = hermitian_eig(h.copy())
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5, 8, 16]))
    def test_reconstruction_and_orthonormality(self, seed, dim):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + g.conj().T) / 2
        w, v = hermitian_eig(h)
        np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=1e-10)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)
        assert np.all(np.diff(w) >= 0)


class TestPsdSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-12)

    def test_projector_is_own_root(self):
        p = plus_state(1).projector()
        np.testing.assert_allclose(psd_sqrt(p), p, atol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(NotPsdError):
            psd_sqrt(np.diag([1.0, -1e-3]))

    def test_clamps_noise_eigenvalues(self):
        s = psd_sqrt(np.diag([1.0, -5e-9]))
        np.testing.assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-12)

    def test_squares_back_1000_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            dim = int(rng.integers(2, 17))
            p = random_psd(dim, rng)
            s = psd_sqrt(p)
            assert np.linalg.norm(s @ s - p) <= 1e-9


class TestFidelity:
    def test_self(self):
        rho = random_density(4, np.random.default_rng(0))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(ket(1, 0).density(), ket(0, 1).density()) == pytest.approx(0.0, abs=1e-12)

    def test_half_overlap(self):
        assert fidelity(ket(1, 0).density(), plus_state(1).density()) == pytest.approx(0.5, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ContractViolationError):
            fidelity(random_density(2, np.random.default_rng(0)),
                     random_density(4, np.random.default_rng(0)))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        rho, sigma = random_density(dim, rng), random_density(dim, rng)
        f1, f2 = fidelity(rho, sigma), fidelity(sigma, rho)
        assert abs(f1 - f2) <= 1e-9
        assert 0.0 <= f1 <= 1.0

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        rho, sigma = random_density(dim, rng), random_density(dim, rng)
        u = random_unitary(dim, rng)
        rotated = fidelity(
            DensityOperator(u @ rho.matrix @ u.conj().T),
            DensityOperator(u @ sigma.matrix @ u.conj().T),
        )
        assert abs(rotated - fidelity(rho, sigma)) <= 1e-9


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(I2) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_difference(self):
        d = ket(1, 0).projector() - ket(0, 1).projector()
        assert trace_norm(d) == pytest.approx(2.0, abs=1e-12)

    def test_rotated_plus_difference(self):
        # cross-check the singular-value route against 2 sqrt(1 - |<u|v>|^2)
        alpha = np.pi / 2
        plus = plus_state(1)
        rotated = PureState(phase_gate(alpha) @ plus.amplitudes)
        via_eigs = trace_norm(plus.projector() - rotated.projector())
        closed = 2.0 * np.sqrt(1.0 - abs(plus.inner(rotated)) ** 2)
        assert via_eigs == pytest.approx(closed, abs=1e-12)
        assert via_eigs == pytest.approx(2.0 * abs(np.sin(np.pi / 4)), abs=1e-12)

    def test_tensor_with_density_operator(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            nu = random_density(int(rng.integers(2, 5)), rng)
            assert trace_norm(np.kron(a, nu.matrix)) == pytest.approx(
                trace_norm(a), abs=1e-9
            )

    def test_small_singular_values_are_kept(self):
        assert abs(trace_norm(np.diag([1.0, 1e-7])) - (1.0 + 1e-7)) <= 1e-15

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_stacks_sum_their_singular_values(self, dim):
        rng = np.random.default_rng(100 + dim)
        # singular values spread over nine decades, and Hermitian matrices,
        # whose singular values are their absolute eigenvalues
        s = 10.0 ** -rng.uniform(0, 9, size=(4, dim))
        u = np.stack([random_unitary(dim, rng) for _ in range(8)])
        spread = (u[:4] * s[:, None, :]) @ u[4:].conj().swapaxes(-1, -2)
        g = rng.standard_normal((4, dim, dim)) + 1j * rng.standard_normal((4, dim, dim))
        h = g + g.conj().swapaxes(-1, -2)
        np.testing.assert_allclose(trace_norm(spread), s.sum(-1), rtol=1e-13, atol=0)
        np.testing.assert_allclose(
            trace_norm(h), np.abs(np.linalg.eigvalsh(h)).sum(-1), rtol=1e-13, atol=0
        )


class TestStacks:
    @pytest.mark.parametrize("dim", range(1, 17))
    def test_stacked_measures_equal_the_per_matrix_calls(self, dim):
        rng = np.random.default_rng(dim)
        # full rank and rank-deficient PSD pairs; rank 1 makes sqrt(a) b sqrt(a) rank 1
        ranks = [dim, max(1, dim - 1), max(1, dim // 2), 1]
        a = np.stack([random_psd(dim, rng, rank=r) for r in ranks * 2])
        b = np.stack([random_psd(dim, rng, rank=r) for r in ranks[::-1] * 2])
        g = rng.standard_normal((8, dim, dim)) + 1j * rng.standard_normal((8, dim, dim))
        stacked = (fidelity_psd(a, b), trace_norm(a - b), trace_norm(g))
        single = (
            [fidelity_psd(x, y) for x, y in zip(a, b)],
            [trace_norm(x - y) for x, y in zip(a, b)],
            [trace_norm(x) for x in g],
        )
        for many, one in zip(stacked, single):
            assert many.shape == (8,)
            np.testing.assert_allclose(many, one, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            psd_sqrt(a), [psd_sqrt(x) for x in a], rtol=0, atol=1e-12
        )

    def test_leading_axes_are_kept(self):
        a = np.stack([np.eye(2), 2 * np.eye(2), np.zeros((2, 2)), np.diag([1.0, 0.0])])
        assert trace_norm(a.reshape(2, 2, 2, 2)).shape == (2, 2)
        assert fidelity_psd(a.reshape(2, 2, 2, 2), np.eye(2)).shape == (2, 2)

    def test_one_matrix_gives_a_python_float(self):
        assert type(trace_norm(I2)) is float
        assert type(fidelity_psd(I2, I2)) is float

    @pytest.mark.parametrize("call, error, message", [
        (trace_norm, ContractViolationError, r"^matrix at stack index 3 has non-finite entries$"),
        (hermitian_eig, ContractViolationError,
         r"^matrix at stack index 3 is not Hermitian \(max deviation 1\.000e\+00 > 1e-10\)$"),
        (psd_sqrt, NotPsdError, r"^eigenvalue -1\.000e-03 at stack index 3 below the PSD floor"),
    ], ids=["non-finite", "non-hermitian", "below-psd-floor"])
    def test_one_bad_matrix_is_named_by_its_index(self, call, error, message):
        stack = np.stack([np.eye(2)] * 5).astype(complex)
        stack[3] = {
            trace_norm: np.diag([1.0, np.inf]),
            hermitian_eig: np.array([[1.0, 1.0], [0.0, 1.0]]),
            psd_sqrt: np.diag([1.0, -1e-3]),
        }[call]
        with pytest.raises(error, match=message):
            call(stack)

    def test_bad_index_in_a_stack_of_stacks(self):
        stack = np.zeros((2, 3, 2, 2))
        stack[1, 2, 0, 1] = 1.0
        with pytest.raises(ContractViolationError, match=r"at stack index \(1, 2\) is not Hermitian"):
            hermitian_eig(stack)

    def test_fidelity_checks_its_second_operand(self):
        # b = [[1, 1], [0, 1]] is not Hermitian; the fidelity used to come out as 3.73
        with pytest.raises(ContractViolationError, match=r"^matrix is not Hermitian"):
            fidelity_psd(np.eye(2), [[1, 1], [0, 1]])
        b = np.stack([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])])
        with pytest.raises(ContractViolationError, match=r"^matrix at stack index 1 is not Hermitian"):
            fidelity_psd(np.eye(2), b)

    def test_fidelity_names_stacks_that_do_not_broadcast(self, monkeypatch):
        # the check runs before any decomposition: none is allowed here
        def refuse(*args, **kwargs):
            raise AssertionError("decomposed before the broadcast check")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        with pytest.raises(ContractViolationError,
                           match=r"^stacks of shapes \(3, 2, 2\) and \(2, 2, 2\) do not broadcast$"):
            fidelity_psd(np.stack([np.eye(2)] * 3), np.stack([np.eye(2)] * 2))

    def test_one_matrix_keeps_its_shape_check(self):
        with pytest.raises(ContractViolationError, match=r"has shape \(2, 2, 2\), expected a square matrix"):
            PovmElement(np.zeros((2, 2, 2)))


class TestPureTraceDistance:
    def test_equal(self):
        assert pure_trace_distance(ket(1, 0), ket(1, 0)) == 0.0

    def test_orthogonal(self):
        assert pure_trace_distance(ket(1, 0), ket(0, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_half_turn(self):
        plus = plus_state(1)
        rotated = PureState(phase_gate(np.pi) @ plus.amplitudes)
        assert abs(plus.inner(rotated)) == pytest.approx(0.0, abs=1e-12)
        assert pure_trace_distance(plus, rotated) == pytest.approx(1.0, abs=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_overlap_identity_and_trace_norm(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.choice([2, 4, 8]))
        u, v = random_pure_state(dim, rng), random_pure_state(dim, rng)
        t = pure_trace_distance(u, v)
        assert abs(t**2 + abs(u.inner(v)) ** 2 - 1.0) <= 1e-9
        assert abs(t - 0.5 * trace_norm(u.projector() - v.projector())) <= 1e-9

    def test_stacks_broadcast_their_leading_axes(self):
        rng = np.random.default_rng(23)
        u = np.stack([random_pure_state(4, rng).amplitudes for _ in range(3)])
        v = np.stack([random_pure_state(4, rng).amplitudes for _ in range(5)])
        table = pure_trace_distance(u[:, None], v)
        assert table.shape == (3, 5)
        for i, j in itertools.product(range(3), range(5)):
            assert table[i, j] == pure_trace_distance(PureState(u[i]), PureState(v[j]))
        assert pure_trace_distance(u[0], v).shape == (5,)

    def test_a_bad_stack_is_named_by_its_index(self):
        good = np.stack([ket(1, 0).amplitudes] * 4)
        scaled, nan = good.copy(), good.copy()
        scaled[2:] *= 2.0
        nan[1, 0] = np.nan
        cases = [
            (good, scaled, r"^second state vector at stack index 2 norm 2\.0 deviates from 1 by more than 1e-12$"),
            (scaled, good, r"^first state vector at stack index 2 norm 2\.0 deviates from 1 by more than 1e-12$"),
            (good, nan, r"^second state vector at stack index 1 has non-finite entries$"),
            (good, np.eye(4), r"^dimension mismatch: 2 vs 4$"),
            (good, good[:3], r"^stacks of shapes \(4, 2\) and \(3, 2\) do not broadcast$"),
        ]
        for u, v, message in cases:
            with pytest.raises(ContractViolationError, match=message):
                pure_trace_distance(u, v)


class TestOrthogonalBlocks:
    def _quadruple(self, rng):
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        blocks = []
        for offset, size in ((0, d1), (d1, d2)):
            for _ in range(2):
                m = np.zeros((d1 + d2, d1 + d2), dtype=complex)
                m[offset:offset + size, offset:offset + size] = random_psd(size, rng)
                blocks.append(m)
        return blocks

    def test_trace_norm_additivity(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            p1, q1, p2, q2 = self._quadruple(rng)
            lhs = trace_norm(p1 + p2 - q1 - q2)
            rhs = trace_norm(p1 - q1) + trace_norm(p2 - q2)
            assert abs(lhs - rhs) <= 1e-9

    def test_fidelity_additivity(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            p1, q1, p2, q2 = self._quadruple(rng)
            lhs = fidelity_psd(p1 + p2, q1 + q2)
            rhs = (np.sqrt(fidelity_psd(p1, q1)) + np.sqrt(fidelity_psd(p2, q2))) ** 2
            assert abs(lhs - rhs) <= 1e-9


class TestCarriers:
    def test_pure_state_rejects_bad_norm(self):
        with pytest.raises(ContractViolationError):
            PureState(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("vec, message", [
        (np.eye(2), r"^expected a vector, got ndim=2$"),
        (np.array([np.nan, 1.0]), r"^state vector has non-finite entries$"),
    ], ids=["matrix", "nan"])
    def test_pure_state_rejects_a_matrix_or_nan(self, vec, message):
        with pytest.raises(ContractViolationError, match=message):
            PureState(vec)

    def test_density_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ContractViolationError):
            DensityOperator(np.eye(2))

    def test_density_rejects_negative(self):
        with pytest.raises(NotPsdError):
            DensityOperator(np.diag([1.5, -0.5]))


class _OneTrap(TrapGenerator):
    """The identity on the plus state, except that ``u`` acts in round 2
    (matched: ``g`` is ``chi``)."""

    def __init__(self, u):
        self.u = u

    def action(self, k, n, e=None):
        chi = np.tile(plus_state(k).amplitudes, (n + 1, 1))
        h = chi.copy()
        h[1] = self.u @ chi[1]
        return chi, h, chi


@pytest.mark.parametrize("u", [np.diag([1.0, 2.0]), np.diag([1.0, np.nan])],
                         ids=["non-unitary", "non-finite"])
def test_trap_action_names_its_round(u):
    # a trap is checked on its action, not by U†U: a NaN fails the same check
    message = r"^trap unitary for round \(n=3, i=2\) is not unitary on its action within 1e-10$"
    with pytest.raises(ContractViolationError, match=message):
        receive_action(_OneTrap(u), 1, 3)


# each boundary that takes a unitary, as (object named in its errors, call on a k = 1 input)
UNITARY_BOUNDARIES = {
    "general-test": (r"test unitary 2", lambda u: GeneralTest(
        plus_state(1), (I2, u), PovmElement(I2))),
    "transform-round": (r"delegated unitary", lambda u: transform_round(HONEST, u, 1)),
    "channel": (r"channel matrix", Channel.from_unitary),
    "diamond-distance": (r"second argument", lambda u: diamond_distance_unitaries(I2, u)),
}


@pytest.mark.parametrize("boundary", UNITARY_BOUNDARIES)
@pytest.mark.parametrize("matrix, problem", [
    (np.diag([1.0, 2.0]), r"is not unitary within 1e-10"),
    (np.diag([1.0, np.nan]), r"has non-finite entries"),
    (np.ones((2, 3)), r"has shape \(2, 3\), expected a square matrix"),
], ids=["non-unitary", "non-finite", "non-square"])
def test_unitary_boundaries_name_their_object(boundary, matrix, problem):
    what, call = UNITARY_BOUNDARIES[boundary]
    with pytest.raises(ContractViolationError, match=f"^{what} {problem}$"):
        call(matrix)


@pytest.mark.parametrize("boundary", ["transform-round", "diamond-distance"])
def test_unitary_boundaries_name_a_wrong_dim(boundary):
    what, call = UNITARY_BOUNDARIES[boundary]
    with pytest.raises(ContractViolationError, match=f"^{what} has dim 4, expected 2$"):
        call(np.eye(4))
