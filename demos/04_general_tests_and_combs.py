"""General tests: entangled inputs, channel networks, diamond distance.

The per-round picture restricts the client to separable pure traps. Lifting
that: test registers may be entangled with a kept auxiliary register, and
the test unitaries are wired through an n-hole network (sequential reuse of
registers, permutation or noise teeth between holes). The acceptance gap is
then governed by the diamond distance of a single rotated round.
"""

import math

import numpy as np

from cutchoose import (
    Channel,
    Comb,
    HONEST,
    PhaseAttack,
    bell_test_setup,
    general_tradeoff_check,
    phase_gate,
    plug,
    SecurityModel,
)
from cutchoose.combs import register_permutation_unitary
from cutchoose.reference import (
    diamond_distance_pure_search,
    diamond_distance_unitaries,
    random_comb_draw,
    random_density,
)

# --- wiring: five holes on three registers, like a small sequential network
comb = Comb(
    n_holes=5, k=1, width=3, y_dim=1,
    hole_registers=(0, 0, 1, 2, 1),   # rounds 1,2 -> reg 1; 3,5 -> reg 2; 4 -> reg 3
    teeth=(None,) * 6,
)
network = plug(comb, [np.eye(2)] * 5)
rho = random_density(8, np.random.default_rng(0)).matrix
print("five identity rounds through the network leave the state unchanged:",
      np.allclose(network.apply(rho), rho))

swap = Channel.from_unitary(register_permutation_unitary((1, 0), 2, 1))
print("a permutation tooth is just another channel:",
      swap.is_trace_preserving())

# --- entangled tests detect the rotation at the generic rate, not better
print("\nmaximally entangled test rounds (kept half never leaves the client):")
for n in (1, 2, 3):
    setup = bell_test_setup(n)
    for alpha in (0.6, 1.8):
        p = setup.outcome_table(PhaseAttack(alpha)).acceptance
        print(f"  n = {n}, alpha = {alpha}: acceptance {p:.6f}"
              f"   cos^{2*n}(alpha/2) = {math.cos(alpha/2)**(2*n):.6f}")

# --- the per-round diamond distance caps the acceptance gap linearly in N
print("\nacceptance gap vs N |sin(alpha/2)|:")
for seed in (0, 1, 2, 3):
    draw = random_comb_draw(seed)
    report = general_tradeoff_check(SecurityModel.COMPOSABLE, draw.setup, draw.alpha,
                                    draw.placement)
    step = next(s for s in report.proof_steps if s.name == "acceptance_gap")
    print(f"  random network {seed}: gap = {step.rhs:.6f} <= {step.lhs:.6f} "
          f"({'ok' if step.holds else 'VIOLATED'})")

print("\nhalf diamond distance of the rotated round (closed form vs search):")
for alpha in (0.5, math.pi / 3, math.pi, 5.0):
    closed = diamond_distance_unitaries(np.eye(2), phase_gate(alpha))
    search = diamond_distance_pure_search(np.eye(2), phase_gate(alpha))
    print(f"  alpha = {alpha:5.3f}: {closed:.8f} vs {search:.8f}"
          f"   |sin(alpha/2)| = {abs(math.sin(alpha/2)):.8f}")

# --- the weaker linear gap bound still forces a trade-off
print("\ngeneral-variant trade-off on the entangled-test family:")
for n in (1, 2, 3, 4):
    sa = general_tradeoff_check(SecurityModel.STAND_ALONE, bell_test_setup(n))
    co = general_tradeoff_check(SecurityModel.COMPOSABLE, bell_test_setup(n))
    print(f"  N = {n}: fidelity sum {sa.eps_h + sa.eps_d:.5f} >= {sa.bound:.5f};"
          f"  trace-distance sum {co.eps_h + co.eps_d:.5f} >= {co.bound:.5f}")
