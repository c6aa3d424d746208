"""The server's strategy: the phase rotation.

A strategy is a single-qubit phase rotation by an angle alpha, placed before
or after each delegated unitary; honest is its angle 0 (``HONEST``). This one
family keeps every supported strategy independent and identically
distributed across rounds, which the protocol engine relies on. The
bound-optimal angle of each regime is in ``bounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import OutOfDomainError, UnsupportedStrategyError
from .linalg import require_unitary
from .states import attack_operator

_TWO_PI = 2.0 * math.pi


class Placement(Enum):
    PRE = "pre"
    POST = "post"


@dataclass(frozen=True)
class PhaseAttack:
    """Phase rotation diag(1, e^{i alpha}) on the last qubit of every round;
    alpha is reduced into [0, 2pi), and alpha = 0 is the honest server."""

    alpha: float
    placement: Placement = Placement.POST

    def __post_init__(self):
        if not isinstance(self.placement, Placement):
            raise OutOfDomainError(f"placement must be a Placement, got {self.placement!r}")
        alpha = float(self.alpha)
        if not math.isfinite(alpha):
            raise OutOfDomainError(f"attack angle alpha must be finite, got {alpha!r}")
        alpha %= _TWO_PI  # a tiny negative angle rounds up to 2pi itself: angle 0
        object.__setattr__(self, "alpha", 0.0 if alpha == _TWO_PI else alpha)


HONEST = PhaseAttack(0.0)  # the server follows the protocol exactly


def require_supported(strategy) -> None:
    if not isinstance(strategy, PhaseAttack):
        raise UnsupportedStrategyError(
            f"unsupported server strategy {type(strategy).__name__}; supported: PhaseAttack"
        )


def transform_round(strategy: PhaseAttack, delegated_unitary, k: int) -> np.ndarray:
    """Unitary the server actually applies in place of the delegated one.

    The dense reference: the protocol engine applies the same attack to
    vectors, as the phase vector :func:`states.attack_phases`."""
    require_supported(strategy)
    u = require_unitary(delegated_unitary, "delegated unitary", 2**k)
    a = attack_operator(strategy.alpha, k)
    if strategy.placement is Placement.POST:
        return a @ u
    return u @ a

