"""Named trap and acceptance families used by configs and tests.

The name tables ``TRAP_FAMILIES``, ``ACCEPTANCE_FAMILIES`` and
``ACCEPTANCE_MODES`` are the one registry: scenario configs name a family
and its parameters, and ``config`` accepts exactly the names these tables
hold. All families are deterministic; the seeded one draws the rounds of
``(k, n)`` from one generator seeded by ``(seed, k, n)`` only.

Identity traps (``plus``, ``computational``) return no matrix. ``random``
traps are drawn as their action (``RandomTraps.action``), with no ``2**k``
matrix. Every effect is a :class:`RankOneEffect`, the one kind the engine
reads (an overlap of ``2**k`` vectors); ``matched`` reads its traps' honest
outputs through ``receive_action``, once per ``(k, n)``. Global mode wraps a
per-round rule in :class:`GlobalAcceptance`, the tensor product of its
effects.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import PureState
from .protocol import (
    GlobalAcceptance,
    PerRoundAcceptance,
    TrapGenerator,
    action_unitary,
    overlaps,
    receive_action,
)
from .states import RankOneEffect, computational_basis_state, plus_state


@dataclass(frozen=True)
class PlusTraps(TrapGenerator):
    """Identity computation on the uniform-superposition input."""

    round_independent = True

    def trap(self, k, n, i):
        return None, plus_state(k)


@dataclass(frozen=True)
class ComputationalTraps(TrapGenerator):
    """Identity computation on the all-zero input.

    Diagonal-phase attacks fix the all-zero state, so this family never
    detects them; it exists as the worst-case witness.
    """

    round_independent = True

    def trap(self, k, n, i):
        return None, computational_basis_state(k)


@dataclass(frozen=True)
class RandomTraps(TrapGenerator):
    """Haar-random trap and input in every round, drawn as their action.

    The n + 1 rounds of ``(k, n)`` come from one generator seeded by
    ``(seed, k, n)``, and no ``2**k`` matrix is formed. ``chi`` and
    ``h = U chi`` are independent uniform unit vectors, drawn first, so they
    do not depend on the rule that reads them. For an effect ``e``,
    ``g = U^dagger e = <h|e> chi + |e - <h|e> h| w`` with ``w`` uniform in
    ``chi``'s orthogonal complement: given ``U chi = h``, a Haar ``U`` is any
    such map times a Haar unitary fixing ``chi`` (the subgroup algorithm,
    Diaconis & Shahshahani 1987). :meth:`trap` gives a matched round as a
    matrix, :func:`~cutchoose.protocol.action_unitary` of its row.
    """

    seed: int = 0

    def action(self, k, n, e=None):
        d, r = 2**k, n + 1
        rng = np.random.default_rng([self.seed, k, n])
        chi, h = _unit_rows(rng, r, d), _unit_rows(rng, r, d)
        if e is None:
            return chi, h, chi
        c = overlaps(h, e)[:, None]
        w = _gaussian_rows(rng, r, d)
        w -= overlaps(chi, w)[:, None] * chi
        w *= _norms(e - c * h) / _norms(w)
        w += c * chi
        return chi, h, w

    def trap(self, k, n, i):
        chi, h, _ = self.action(k, n)
        chi, h = chi[i - 1], h[i - 1]
        return action_unitary(chi, h, h, chi), PureState(chi)


def _gaussian_rows(rng: np.random.Generator, r: int, d: int) -> np.ndarray:
    """An (r, d) array of independent standard complex Gaussians."""
    return rng.standard_normal((r, d, 2)).view(np.complex128)[..., 0]


def _unit_rows(rng: np.random.Generator, r: int, d: int) -> np.ndarray:
    """r independent uniform unit vectors of dim d."""
    rows = _gaussian_rows(rng, r, d)
    rows /= _norms(rows)
    return rows


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, as an (r, 1) column."""
    return np.sqrt(overlaps(rows, rows).real)[:, None]


class _ConstantAcceptance(PerRoundAcceptance):
    """A per-round rule with the same effect in every round."""

    round_independent = True


def _constant_acceptance(state_of_k) -> PerRoundAcceptance:
    """The projector onto ``state_of_k(k)`` in every round, built once per k."""
    effect = functools.cache(lambda k: RankOneEffect(state_of_k(k)))
    return _ConstantAcceptance(lambda k, n, i: effect(k))


def plus_acceptance() -> PerRoundAcceptance:
    """Accept a round iff its output projects onto the uniform superposition."""
    return _constant_acceptance(plus_state)


def computational_acceptance() -> PerRoundAcceptance:
    return _constant_acceptance(computational_basis_state)


def matched_acceptance(traps: TrapGenerator) -> PerRoundAcceptance:
    """Accept a round iff its output projects onto the honest trap output.

    The honest outputs of ``(k, n)`` are received once, checked (errors name
    the round), and kept for the rounds of that ``n``."""

    @functools.lru_cache(maxsize=1)
    def outputs(k, n):
        return receive_action(traps, k, n)[1]

    def element(k, n, i):
        h = outputs(k, n)
        return RankOneEffect(PureState(h[min(i, len(h)) - 1]))

    return PerRoundAcceptance(element, traps=traps)


# name -> trap generator class, called with the family's parameters
TRAP_FAMILIES = {"plus": PlusTraps, "computational": ComputationalTraps, "random": RandomTraps}

# name -> per-round rule for the given traps; each entry calls its constructor
# by name, so a rebinding of the module-level name reaches it
ACCEPTANCE_FAMILIES = {
    "plus": lambda traps: plus_acceptance(),
    "computational": lambda traps: computational_acceptance(),
    "matched": lambda traps: matched_acceptance(traps),
}

# mode -> the rule applied per test round, or as one joint measurement
ACCEPTANCE_MODES = {"per-round": lambda rule: rule, "global": GlobalAcceptance}
