"""The dense reference's rounds, shared by the tests that play them literally.

A trap family is its action: ``receive_rounds(spec, n)`` gives each round
as a checked row ``(chi, h, e, g)``, and the dense reference plays the
matrix ``action_unitary`` builds from that row (the identity for an
identity round), as ``reference`` does. A round's effect is read from the rule's
own block, not through the engine's check of it.
"""

import numpy as np

from cutchoose.protocol import receive_rounds
from cutchoose.reference import action_unitary


def played(spec, n, i):
    """Round i's matrix and input as the dense reference plays them; a
    round-independent block's one row stands for every round."""
    rows = receive_rounds(spec, n)
    chi, h, e, g = (a[min(i, len(a)) - 1] for a in rows)
    return action_unitary(chi, h, e, g), chi


def effect_row(rule, k, n, i):
    """Round i's effect vector: row i of ``rule.element(k, n)``, or its one row
    if the block has one."""
    rows = rule.element(k, n)
    return rows[min(i, len(rows)) - 1]


def squared_overlap(a, b):
    """``|<a|b>|^2`` squared as the engine squares its overlaps, ``m * m``:
    numpy's scalar ``m ** 2`` can differ from it in the last ulp."""
    m = abs(np.vdot(a, b))
    return m * m
