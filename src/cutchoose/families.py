"""Named trap and acceptance families used by configs and tests.

The name tables ``TRAP_FAMILIES`` and ``ACCEPTANCE_FAMILIES`` are the one
registry: scenario configs name a family and its parameters, and ``config``
accepts exactly the names these tables hold. All families are
deterministic; the seeded one draws the rounds of ``(k, n)`` from one
generator seeded by ``(seed, k, n)`` only.

Every trap family is its action (``TrapGenerator.action``) and forms no
``2**k`` matrix: the identity traps (``plus``, ``computational``) give their
fixed input's row, and ``random`` traps draw their rounds' vectors. Every
acceptance rule is its block of rank-1 effect rows per ``(k, n)``, the one
kind the engine reads (an overlap of ``2**k`` vectors): ``plus`` and
``computational`` give their state's one row, and ``matched`` its traps'
honest outputs, received through ``receive_action``. A config's
``acceptance.mode``, ``"per-round"`` or ``"global"``, builds this same rule:
a joint measurement that accepts iff every trap passes is the tensor
product of the per-round effects, and every sampled run is drawn round by
round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError
from .protocol import (
    PerRoundAcceptance,
    TrapGenerator,
    overlaps,
    receive_action,
)
from .states import computational_basis_state, plus_state


class _IdentityTraps(TrapGenerator):
    """The identity computation on one fixed input, ``_input(k)``, in every
    round: each row is that input, and ``g`` is the effect itself."""

    round_independent = True

    def action(self, k, n, e=None):
        chi = np.broadcast_to(self._input(k).amplitudes, (1 if e is None else len(e), 2**k))
        return chi, chi, (chi if e is None else e)


@dataclass(frozen=True)
class PlusTraps(_IdentityTraps):
    """Identity computation on the uniform-superposition input."""

    _input = staticmethod(plus_state)


@dataclass(frozen=True)
class ComputationalTraps(_IdentityTraps):
    """Identity computation on the all-zero input.

    Diagonal-phase attacks fix the all-zero state, so this family never
    detects them; it exists as the worst-case witness.
    """

    _input = staticmethod(computational_basis_state)


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
    Diaconis & Shahshahani 1987).
    """

    seed: int = 0

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise OutOfDomainError(f"random trap seed must be an integer >= 0, got {seed!r}")

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


def plus_acceptance() -> PerRoundAcceptance:
    """Accept a round iff its output projects onto the uniform superposition."""
    return PerRoundAcceptance(lambda k, n: plus_state(k).amplitudes[None])


def computational_acceptance() -> PerRoundAcceptance:
    return PerRoundAcceptance(lambda k, n: computational_basis_state(k).amplitudes[None])


def matched_acceptance(traps: TrapGenerator) -> PerRoundAcceptance:
    """Accept a round iff its output projects onto the honest trap output,
    received (and checked, errors naming the round) once per ``(k, n)``."""
    return PerRoundAcceptance(lambda k, n: receive_action(traps, k, n)[1], traps=traps)


# name -> trap generator class, called with the family's parameters
TRAP_FAMILIES = {"plus": PlusTraps, "computational": ComputationalTraps, "random": RandomTraps}

# name -> per-round rule for the given traps; each entry calls its constructor
# by name, so a rebinding of the module-level name reaches it
ACCEPTANCE_FAMILIES = {
    "plus": lambda traps: plus_acceptance(),
    "computational": lambda traps: computational_acceptance(),
    "matched": lambda traps: matched_acceptance(traps),
}
