"""A tour of the basic objects: states, the phase rotation, and distances.

The cheating strategy studied throughout is a single-qubit phase rotation
diag(1, e^{i alpha}) slipped in before or after each delegated unitary. This
script shows why it is hard to catch: its effect on any single trap round is
bounded by cos^2(alpha/2), no matter which trap the client picks.
"""

import math

import numpy as np

from cutchoose import (
    attack_operator,
    phase_gate,
    plus_state,
    pure_trace_distance,
    trace_norm,
)
from cutchoose.linalg import PureState
from cutchoose.reference import numerical_range_min_overlap

alpha = math.pi / 2
print(f"phase rotation at alpha = pi/2:\n{np.round(phase_gate(alpha), 3)}\n")

# The uniform superposition is the canonical input the rotation disturbs most.
plus = plus_state(1)
rotated = PureState(attack_operator(alpha, 1) @ plus.amplitudes)
print("uniform superposition:", np.round(plus.amplitudes, 4))
print("after the rotation:   ", np.round(rotated.amplitudes, 4))

overlap = abs(plus.inner(rotated)) ** 2
print(f"\nsquared overlap = {overlap:.6f}  (cos^2(alpha/2) = {math.cos(alpha/2)**2:.6f})")
print(f"pure-state trace distance = {pure_trace_distance(plus, rotated):.6f}"
      f"  (|sin(alpha/2)| = {abs(math.sin(alpha/2)):.6f})")
print(f"trace norm of the projector difference = "
      f"{trace_norm(plus.projector() - rotated.projector()):.6f}"
      f"  (2|sin(alpha/2)| = {2*abs(math.sin(alpha/2)):.6f})")

# No trap state does better: the minimum disturbance over ALL pure states is
# the squared distance from the origin to the segment joining the two
# eigenvalues 1 and e^{i alpha} of the rotation.
print("\nworst-case overlap over all pure trap states (sampled + refined):")
for a in (math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi):
    found = numerical_range_min_overlap(a, trials=64, seed=0)
    print(f"  alpha = {a:5.3f}: min overlap = {found:.8f}"
          f"   cos^2(alpha/2) = {math.cos(a/2)**2:.8f}")

print("\nA small rotation is therefore almost invisible to every test round —"
      "\nthat is the lever the trade-off bounds pull on.")
