"""``random`` traps, drawn as their action, against Haar draws by QR.

``RandomTraps`` draws ``chi`` and ``h = U chi`` as independent uniform unit
vectors and, for an effect ``e``, ``g = U^dagger e`` as ``<h|e> chi`` plus a
uniform vector of the right length orthogonal to ``chi``. This is the law of
a Haar ``U`` on a Haar input. Checked here: the honest, POST and PRE factors
the engine reads from such rows against the same factors of a Haar ``U``
sampled by phase-fixed QR of a Ginibre matrix (two-sample Kolmogorov-Smirnov
at the 1 % level, seeded), the exact invariants of every draw, that ``chi``
and ``h`` do not depend on the rule that reads them, and the reference
matrix that two reflections build from a row.
"""

import math
import re

import numpy as np
import pytest

from cutchoose import protocol
from cutchoose.errors import OutOfDomainError
from cutchoose.families import RandomTraps, matched_acceptance, plus_acceptance
from cutchoose.protocol import ProtocolSpec, RoundDistribution, receive_action
from cutchoose.reference import action_unitary
from cutchoose.states import attack_phases, computational_basis_state, plus_state
from cutchoose.strategies import HONEST, PhaseAttack, Placement
from dense_rounds import played
from law import ks_distance

DRAWS = 20_000
ALPHA = 1.3
KS_CRITICAL_1PCT = math.sqrt(-math.log(0.005) / 2.0) * math.sqrt(2.0 / DRAWS)


def qr_factors(k, effect, rng):
    """Honest, POST and PRE factors of DRAWS Haar traps by phase-fixed QR
    (the law of ``combs.random_unitary``) on Haar inputs."""
    d = 2**k
    ginibre = rng.standard_normal((DRAWS, d, d)) + 1j * rng.standard_normal((DRAWS, d, d))
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r, axis1=1, axis2=2)
    u = q * (diag / np.abs(diag))[:, None, :]
    chi = rng.standard_normal((DRAWS, d)) + 1j * rng.standard_normal((DRAWS, d))
    chi /= np.linalg.norm(chi, axis=1, keepdims=True)
    h = np.einsum("rij,rj->ri", u, chi)
    e = h if effect is None else np.broadcast_to(effect, (DRAWS, d))
    g = np.einsum("rji,rj->ri", u.conj(), e)
    phases = attack_phases(ALPHA, k)
    return {name: np.abs(row_dots(left, right)) ** 2 for name, left, right in (
        ("honest", e, h), ("post", e, phases * h), ("pre", g, phases * chi))}


def row_dots(a, b):
    """<a_i|b_i> for each row i."""
    return np.einsum("ij,ij->i", a.conj(), b)


def engine_factors(k, rule_name, seed):
    """The same factors as the engine reads them from DRAWS rounds of one block."""
    traps = RandomTraps(seed=seed)
    rule = matched_acceptance(traps) if rule_name == "matched" else plus_acceptance()
    spec = ProtocolSpec(RoundDistribution.point_mass(DRAWS - 1), k, traps, rule)
    return {name: protocol._round_factors(spec, strategy, DRAWS - 1) for name, strategy in (
        ("honest", HONEST), ("post", PhaseAttack(ALPHA)), ("pre", PhaseAttack(ALPHA, Placement.PRE)))}


@pytest.mark.parametrize("rule_name", ["matched", "plus"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_factors_follow_the_haar_law(k, rule_name):
    rng = np.random.default_rng([2026, k])
    effect = None if rule_name == "matched" else plus_state(k).amplitudes
    want = qr_factors(k, effect, rng)
    got = engine_factors(k, rule_name, seed=100 + k)
    if rule_name == "matched":  # the honest output is the effect: every factor is 1
        for factors in (got, want):
            np.testing.assert_allclose(factors.pop("honest"), 1.0, rtol=0, atol=1e-12)
    for name in got:
        assert ks_distance(got[name], want[name]) < KS_CRITICAL_1PCT, name


def effects(k, n, rng):
    """Effects of each kind: matched (None), fixed plus and computational
    vectors, and a different uniform vector per round."""
    per_round = rng.standard_normal((n + 1, 2**k)) + 1j * rng.standard_normal((n + 1, 2**k))
    per_round /= np.linalg.norm(per_round, axis=1, keepdims=True)
    return [None, np.broadcast_to(plus_state(k).amplitudes, (n + 1, 2**k)),
            np.broadcast_to(computational_basis_state(k).amplitudes, (n + 1, 2**k)), per_round]


@pytest.mark.parametrize("k, n", [(1, 0), (1, 7), (3, 4), (5, 2)])
def test_every_draw_keeps_its_invariants(k, n):
    rng = np.random.default_rng([7, k, n])
    traps = RandomTraps(seed=3)
    first = None
    for e in effects(k, n, rng):
        chi, h, e, g = receive_action(traps, k, n, e)
        assert chi.shape == h.shape == e.shape == g.shape == (n + 1, 2**k)
        np.testing.assert_allclose(row_dots(chi, chi), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(row_dots(h, h), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(row_dots(g, g), row_dots(e, e), rtol=0, atol=1e-12)
        np.testing.assert_allclose(row_dots(g, chi), row_dots(e, h), rtol=0, atol=1e-12)
        # chi and h are drawn before anything that depends on the effect
        first = first or (chi, h)
        np.testing.assert_array_equal(chi, first[0])
        np.testing.assert_array_equal(h, first[1])
        for row in zip(chi, h, e, g):
            u = action_unitary(*row)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2**k), rtol=0, atol=1e-12)
            np.testing.assert_allclose(u @ row[0], row[1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(u.conj().T @ row[2], row[3], rtol=0, atol=1e-12)


def test_trap_is_the_matched_round_as_a_matrix():
    traps = RandomTraps(seed=4)
    chi, h, _, _ = receive_action(traps, 3, 5)
    spec = ProtocolSpec(RoundDistribution.point_mass(5), 3, traps, matched_acceptance(traps))
    for i in range(1, 7):
        u, row = played(spec, 5, i)
        np.testing.assert_array_equal(row, chi[i - 1])
        np.testing.assert_allclose(u @ chi[i - 1], h[i - 1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), rtol=0, atol=1e-12)


def test_seeded_per_k_and_n():
    traps = RandomTraps(seed=5)
    a, b = traps.action(2, 3), traps.action(2, 3)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    for other in (RandomTraps(seed=6).action(2, 3), traps.action(2, 4), traps.action(3, 3)):
        assert not np.array_equal(other[0][:1, :4], a[0][:1, :4])


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None], ids=repr)
def test_rejects_a_seed_that_is_not_a_count(seed):
    message = f"random trap seed must be an integer >= 0, got {seed!r}"
    with pytest.raises(OutOfDomainError, match=f"^{re.escape(message)}$"):
        RandomTraps(seed=seed)
    assert RandomTraps(seed=np.int64(3)).seed == 3
