"""
Bit-string commitments and cheating at scale
============================================

Commit to N bits with N independent pair instances, each probed with a
uniformly random confirmation state.  A committer who relabels every
pair survives each pair's check with probability 1/2, so the chance of
fooling all N checks dies off as 2^-N.
"""

import math

from relcommit.adversary import Strategy, string_cheat_acceptance
from relcommit.montecarlo import RunConfig, monte_carlo
from relcommit.protocol import SchemeParams, committed_string
from relcommit.quantum import BellLabel

# The committed string is just the per-pair parity bits.
labels = [BellLabel(0, 0), BellLabel(1, 1), BellLabel(0, 1), BellLabel(1, 0)]
print(f"labels {[str(l) for l in labels]} commit the string {committed_string(labels)}")
print()

# Exact acceptance when every pair's announcement is shifted by the
# sign-flip delta (1,0).  Under the uniform four-state probe policy a
# single pair lets that through half the time; N pairs multiply.
delta = BellLabel(1, 0)
print("pairs   exact acceptance   2^-N")
for n in (1, 2, 4, 8, 12, 16, 20):
    params = SchemeParams("string", n_pairs=n, validation_mode="R2")
    acceptance = string_cheat_acceptance(params, [delta] * n)
    print(f"{n:>5}   {acceptance:.10e}   {0.5**n:.10e}")
print()

# Cross-check the N = 8 point by mass sampling: a million runs, each
# drawing eight pair branches; the one branch table is validated once
# per campaign, and a run passes when all eight drawn branches do.
config = RunConfig(
    scheme="string",
    n_pairs=8,
    validation_mode="R2",
    seed=11,
    trials=10**6,
    strategy=Strategy.relabel_announce(delta),
)
row = monte_carlo(config).row("acceptance", "accept")
expected = config.trials * row.exact_probability
print(f"sampled acceptances in {config.trials} trials: {row.count}")
print(f"exact expectation: {expected:.1f}  (z = {row.z:+.2f}, within 5 SE: {row.agrees})")
print()

# Honest pairs mixed in do not dilute the binding: only the relabeled
# pairs pay the factor 1/2.
params = SchemeParams("string", n_pairs=4, validation_mode="R2")
mixed = [delta, BellLabel(0, 0), delta, BellLabel(0, 0)]
acceptance = string_cheat_acceptance(params, mixed)
print(f"two cheating pairs out of four: acceptance {acceptance:.6f}"
      f" (= 0.25 = {math.log2(acceptance):+.0f} bits)")
