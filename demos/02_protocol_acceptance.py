"""Running the interleaved test/output protocol, exactly and by sampling.

A client hides one output round among n trap rounds. Acceptance factors over
rounds, so the exact engine sums tiny per-round quantities; the Monte-Carlo
sampler replays the protocol round by round as a cross-check.
"""

import math

from cutchoose import (
    HONEST,
    ComputationalTraps,
    PhaseAttack,
    PlusTraps,
    ProtocolSpec,
    RoundDistribution,
    computational_acceptance,
    monte_carlo_run,
    overall_acceptance,
    plus_acceptance,
    round_outcome_table,
)

spec = ProtocolSpec(
    omega=RoundDistribution.from_pairs([(1, 0.25), (2, 0.5), (4, 0.25)]),
    k=1,
    traps=PlusTraps(),
    acceptance=plus_acceptance(),
)

print("round distribution:", spec.omega.support, " expected tests N =", spec.omega.mean)
print(f"honest acceptance: {overall_acceptance(spec, HONEST):.6f}")

print("\nacceptance under the phase rotation, exact vs 10^5 sampled runs:")
print(f"{'alpha':>8} {'exact':>10} {'sampled':>10} {'cos^2N(a/2)':>12}")
for alpha in (0.4, 0.8, 1.2, 1.6, 2.4):
    attack = PhaseAttack(alpha)
    exact = overall_acceptance(spec, attack)
    sampled = monte_carlo_run(spec, attack, trials=100_000, seed=7)
    print(f"{alpha:8.2f} {exact:10.6f} {sampled.accept_rate:10.6f}"
          f" {math.cos(alpha / 2) ** (2 * spec.omega.mean):12.6f}")

# Per-(n, output round) table: with round-independent traps the position of
# the hidden output round does not matter.
print("\nper-(n, output round) acceptance under alpha = 1.2:")
table = round_outcome_table(spec, PhaseAttack(1.2))
for (n, _), row in zip(table.omega.support, table.rows):
    for ell, p in enumerate(row, start=1):
        print(f"  n = {n}, output round {ell}: {p:.6f}")

# A poorly chosen trap family can be completely blind: the rotation fixes the
# all-zero state, so computational-basis traps never fire.
blind = ProtocolSpec(
    omega=RoundDistribution.point_mass(4),
    k=1,
    traps=ComputationalTraps(),
    acceptance=computational_acceptance(),
)
print("\ncomputational-basis traps vs a strong rotation (alpha = pi):")
print(f"  acceptance = {overall_acceptance(blind, PhaseAttack(math.pi)):.6f}"
      "   (the attack is invisible to this family)")
