"""Named trap and acceptance families used by configs and tests.

Keeping these in a registry lets scenario configs stay declarative: a trap
family is referenced by name plus parameters, and acceptance families pair
with them. All families are deterministic; the seeded one derives its
per-round randomness from ``(seed, k, n, i)`` only.

Identity traps (``plus``, ``computational``) return no matrix, and every
shipped per-round effect is a :class:`RankOneEffect`, read as an overlap of
``2**k`` vectors. Global mode wraps the same per-round rule in
:class:`GlobalAcceptance`, the tensor product of its effects.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .linalg import PureState
from .protocol import GlobalAcceptance, PerRoundAcceptance, TrapGenerator
from .sampling import random_pure_state, random_unitary
from .states import RankOneEffect, computational_basis_state, plus_state


@dataclass(frozen=True)
class PlusTraps(TrapGenerator):
    """Identity computation on the uniform-superposition input."""

    def trap(self, k, n, i):
        return None, plus_state(k)


@dataclass(frozen=True)
class ComputationalTraps(TrapGenerator):
    """Identity computation on the all-zero input.

    Diagonal-phase attacks fix the all-zero state, so this family never
    detects them; it exists as the worst-case witness.
    """

    def trap(self, k, n, i):
        return None, computational_basis_state(k)


@dataclass(frozen=True)
class RandomTraps(TrapGenerator):
    """Seeded Haar-random unitary and input per round."""

    seed: int = 0

    def trap(self, k, n, i):
        rng = np.random.default_rng([self.seed, k, n, i])
        return random_unitary(2**k, rng), random_pure_state(2**k, rng)


def _constant_acceptance(state_of_k) -> PerRoundAcceptance:
    """The projector onto ``state_of_k(k)`` in every round, built once per k."""
    effect = functools.cache(lambda k: RankOneEffect(state_of_k(k)))
    return PerRoundAcceptance(lambda k, n, i: effect(k))


def plus_acceptance() -> PerRoundAcceptance:
    """Accept a round iff its output projects onto the uniform superposition."""
    return _constant_acceptance(plus_state)


def computational_acceptance() -> PerRoundAcceptance:
    return _constant_acceptance(computational_basis_state)


def matched_acceptance(traps: TrapGenerator) -> PerRoundAcceptance:
    """Accept a round iff its output projects onto the honest trap output."""

    def element(k, n, i):
        t, chi = traps.trap(k, n, i)
        return RankOneEffect(PureState(chi.amplitudes if t is None else t @ chi.amplitudes))

    return PerRoundAcceptance(element, traps=traps)


def build_trap_family(name: str, params: dict) -> TrapGenerator:
    if name == "plus":
        return PlusTraps()
    if name == "computational":
        return ComputationalTraps()
    if name == "random":
        return RandomTraps(seed=int(params.get("seed", 0)))
    raise ConfigError([f"unknown trap family {name!r}"])


def build_acceptance(name: str, mode: str, traps: TrapGenerator):
    if name == "plus":
        rule = plus_acceptance()
    elif name == "computational":
        rule = computational_acceptance()
    elif name == "matched":
        rule = matched_acceptance(traps)
    else:
        raise ConfigError([f"unknown acceptance family {name!r}"])
    if mode == "per-round":
        return rule
    if mode == "global":
        return GlobalAcceptance(rule)
    raise ConfigError([f"unknown acceptance mode {mode!r}"])
