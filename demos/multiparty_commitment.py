"""
Two committers, one coordinator
===============================

In the multiparty scheme both ends commit: each party's Bell label is
secret, a central swap entangles their retained qubits, and each side
stores a confirmation bit the other side's announcement must match.
"""

from relcommit.adversary import concealment_tv
from relcommit.protocol import (
    SchemeParams,
    committed_bit,
    run_pairs,
    validate_multiparty,
)
from relcommit.quantum import BellLabel

alice = BellLabel(0, 1)
bob = BellLabel(1, 0)
params = SchemeParams("multi", x=1.0, c=1.0, bob_label=bob)
print(f"alice commits {committed_bit(alice)} via {alice}, "
      f"bob commits {committed_bit(bob)} via {bob}")
print()

# Enumerate the joint run.  Each branch now carries two stored bits:
# alice's confirmation of bob and bob's confirmation of alice.
(branches,) = run_pairs(params, [alice])
print(f"{len(branches)} branches; the first few:")
for t in branches[:4]:
    print(
        f"  swap {t.swap_outcome}  teleport {t.teleport_outcome}"
        f"  stored(alice) {t.stored_alice_bit}  stored(bob) {t.stored_bob_bit}"
        f"  p = {t.probability:.4f}"
    )
print()

# Both parties announce honestly; both confirmation checks pass on
# every branch, in both validation modes.
for mode in ("R1", "R2"):
    mass = sum(
        t.probability
        for t in branches
        if validate_multiparty(t, alice, (bob, t.teleport_outcome), mode).accept
    )
    print(f"honest reveal, mode {mode}: acceptance probability {mass:.6f}")
print()

# Bob flips his announced parity: alice's stored bit catches it.
bad_bob = bob ^ BellLabel(0, 1)
caught = sum(
    t.probability
    for t in branches
    if not validate_multiparty(t, alice, (bad_bob, t.teleport_outcome), "R2").accept
)
print(f"bob announcing {bad_bob}: rejected with probability {caught:.6f}")

# A subtler point: bob announces a flipped label AND a teleport outcome
# flipped the same way.  The two lies cancel inside alice's probe-copy
# check, so that check alone cannot catch the pair.  The committed bit
# he can flip this way is still constrained by the swap record, but the
# finding is worth knowing about.
joint = sum(
    t.probability
    for t in branches
    if validate_multiparty(
        t, alice, (bad_bob, t.teleport_outcome ^ BellLabel(0, 1)), "R2"
    ).accept
)
print(f"bob shifting label and outcome together: accepted with probability {joint:.6f}")
print()

# Before any announcement the receiver-side views are independent of
# both committed bits, averaged over the other party's label.
tv = concealment_tv(params, upto="storage")
print(f"pre-reveal total-variation distance between committed bits: {tv:.2e}")
