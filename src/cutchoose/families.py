"""Named trap and acceptance families used by configs and tests.

The name tables ``TRAP_FAMILIES``, ``ACCEPTANCE_FAMILIES`` and
``ACCEPTANCE_MODES`` are the one registry: scenario configs name a family
and its parameters, and ``config`` accepts exactly the names these tables
hold. All families are deterministic; the seeded one derives its per-round
randomness from ``(seed, k, n, i)`` only.

Identity traps (``plus``, ``computational``) return no matrix. Every effect
is a :class:`RankOneEffect`, the one kind the engine reads (an overlap of
``2**k`` vectors); ``matched`` checks its trap through ``receive_trap``.
Global mode wraps a per-round rule in :class:`GlobalAcceptance`, the tensor
product of its effects.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import PureState
from .protocol import GlobalAcceptance, PerRoundAcceptance, TrapGenerator, receive_trap
from .sampling import random_pure_state, random_unitary
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
    """Seeded Haar-random unitary and input per round."""

    seed: int = 0

    def trap(self, k, n, i):
        rng = np.random.default_rng([self.seed, k, n, i])
        return random_unitary(2**k, rng), random_pure_state(2**k, rng)


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
    """Accept a round iff its output projects onto the honest trap output."""

    def element(k, n, i):
        _, _, h, _ = receive_trap(traps, k, n, i)  # checked: errors name the round
        return RankOneEffect(PureState(h))

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
