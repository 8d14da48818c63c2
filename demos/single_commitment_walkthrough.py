"""
Single-party commitment, branch by branch
=========================================

One committer, one receiver, two Bell pairs and a probe qubit.  The
committer's secret is the parity bit of her Bell label.  Enumerate
every measurement branch, check the receiver learns nothing before the
reveal, then watch an honest reveal pass and a dishonest one fail.
"""

from collections import defaultdict

from relcommit.protocol import (
    SchemeParams,
    committed_bit,
    run_pairs,
    validate_transcript,
)
from relcommit.quantum import BellLabel
from relcommit.serialize import serialize_transcript

params = SchemeParams("single", x=1.0, c=1.0)
alice = BellLabel(1, 1)  # committed bit = parity component = 1
print(f"committer label {alice}, committed bit {committed_bit(alice)}")
print(f"probe policy: {params.phi_choices()}")
print()

# Exact enumeration: every (swap outcome, teleport outcome, stored bit)
# branch with its probability.  Sixteen branches, each 1/16.
(branches,) = run_pairs(params, [alice])
print(f"{len(branches)} branches:")
for t in branches[:4]:
    print(
        f"  swap {t.swap_outcome}  teleport {t.teleport_outcome}"
        f"  stored bit {t.stored_alice_bit}  p = {t.probability:.4f}"
    )
print("  ...")
print()

# Concealment, the long way: group the receiver's pre-reveal view by
# the committed bit and compare the distributions.  The stored bit is
# perfectly correlated with the *outcomes*, never with the label.
views = {0: defaultdict(float), 1: defaultdict(float)}
for label in (BellLabel(0, 0), BellLabel(0, 1)):
    for t in run_pairs(params, [label])[0]:
        key = (t.swap_outcome, t.teleport_outcome, t.stored_alice_bit)
        views[committed_bit(label)][key] += t.probability
gap = max(
    abs(views[0][k] - views[1][k]) for k in set(views[0]) | set(views[1])
)
print(f"largest per-view probability gap between bit 0 and bit 1: {gap:.2e}")
print()

# Honest reveal: announce the true label.  Every branch validates.
accepted = sum(
    t.probability for t in branches if validate_transcript(t, alice, "R2").accept
)
print(f"honest announcement accepted with probability {accepted:.6f}")

# Dishonest reveal: announce the label with the parity bit flipped.
# Under mode R2 the stored confirmation bit exposes it every time.
lie = alice ^ BellLabel(0, 1)
caught = sum(
    t.probability for t in branches if not validate_transcript(t, lie, "R2").accept
)
print(f"parity-flipped announcement {lie} rejected with probability {caught:.6f}")

verdict = validate_transcript(branches[0], lie, "R2")
print(f"sample rejection reason: {verdict.reason}")
print()

# Transcripts serialize to one JSON line each, e.g. for archiving runs.
print("one branch as JSONL:")
print(serialize_transcript(branches[0]))
