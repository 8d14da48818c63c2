"""Commitment scheme state machines over the exact quantum engine.

Three schemes share one quantum skeleton.  A committer (Alice) and a
receiver-side party each prepare an entangled pair and send one half to
a middle agent, whose joint pair-basis measurement swaps the
entanglement onto the retained halves.  The receiver teleports a probe
qubit through his own pair; Alice rotates her half by the Pauli frame
named by her pair label and returns it, and the agent stores its
measured bit.  At reveal, announcements let the verifier recompute what
that stored bit should have been.

* ``single``: one pair per party, one committed bit.
* ``multi``: two committers on opposite sides of a verifying center;
  the second committer also returns a rotated copy of the probe.
* ``string``: N independent single-scheme pairs committing an N-bit
  string, with the probe drawn per pair from all four basis states.

The committed bit of a pair label is its parity bit: labels with parity
0 encode 0, parity 1 encode 1.  Changing the announced parity is what
the validation check is designed to catch.

Validation knows two verifier models:

* ``R1``: the verifier reconstructs the teleportation correction from
  the announcement alone.  The announced label then cancels out of the
  comparison, so every announcement is accepted; the analyzer layer
  reports this as a finding rather than hiding it.
* ``R2`` (default): the verifier is granted the true correction (as if
  the sealed swap and teleport records carried it) and checks the
  announced frame against it.  Parity flips are then always caught,
  sign flips pass on parity-preserving announcements.

``run_*`` functions return exhaustive branch enumerations: transcripts
weighted by exact probabilities, read from one memoized table per pair,
:func:`branches`.  The verifier memoizes its state-vector predictions
the same way, and :func:`clear_caches` drops both.  This module never
samples; seeded draws from these tables live in
:mod:`relcommit.montecarlo`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .quantum import (
    BASIS_STATES,
    PROB_ATOL,
    BasisStateSpec,
    BellLabel,
    PauliOp,
    apply_pauli,
    basis_measure,
    bell_measure,
    make_basis_state,
    make_bell,
    swapped_label,
    teleport_correction,
    tensor,
)
from .spacetime import Schedule, standard_schedule

__all__ = [
    "VALIDATION_MODES",
    "Z_FAMILY",
    "FULL_FAMILY",
    "SchemeParams",
    "Verdict",
    "Transcript",
    "committed_bit",
    "committed_string",
    "branches",
    "clear_caches",
    "run_pairs",
    "run_single",
    "run_multiparty",
    "run_string",
    "validate_single",
    "validate_multiparty",
    "validate_string",
    "validate_transcript",
]

VALIDATION_MODES = ("R1", "R2")

FULL_FAMILY = BASIS_STATES
Z_FAMILY = tuple(spec for spec in BASIS_STATES if spec.basis == "Z")


def committed_bit(label: BellLabel) -> int:
    """Bit encoded by a pair label: its parity bit."""
    return label.j


def committed_string(labels: Sequence[BellLabel]) -> str:
    """Bit string encoded by a sequence of pair labels, one bit per pair."""
    return "".join(str(committed_bit(label)) for label in labels)


@dataclass(frozen=True)
class SchemeParams:
    """Public parameters of one commitment instance.

    ``phi_policy`` fixes the receiver-side probe state: a concrete
    :class:`BasisStateSpec` or ``"uniform"``, which draws from the Z
    family for single/multi and from all four basis states for string.
    ``bob_label`` is the receiver-side pair label (the second
    committer's label in the multi scheme, overridable per run).
    """

    scheme: str
    x: float = 1.0
    c: float = 1.0
    T: float | None = None
    n_pairs: int = 1
    phi_policy: BasisStateSpec | str = "default"
    bob_label: BellLabel = BellLabel(0, 0)
    validation_mode: str = "R2"

    def __post_init__(self) -> None:
        if self.scheme not in ("single", "multi", "string"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be at least 1, got {self.n_pairs}")
        if self.scheme != "string" and self.n_pairs != 1:
            raise ValueError(f"scheme {self.scheme!r} uses exactly one pair")
        if self.validation_mode not in VALIDATION_MODES:
            raise ValueError(f"unknown validation mode {self.validation_mode!r}")
        policy = self.phi_policy
        if isinstance(policy, BasisStateSpec):
            if self.scheme != "string" and policy.basis != "Z":
                raise ValueError(
                    f"scheme {self.scheme!r} fixes the probe in the Z family, got {policy}"
                )
        elif policy not in ("uniform", "default"):
            raise ValueError(f"phi_policy must be a basis state or 'uniform', got {policy!r}")
        for name in ("x", "c", "T"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.x <= 0.0 or self.c <= 0.0:
            raise ValueError(
                f"separation and signal speed must be positive, got x={self.x}, c={self.c}"
            )
        # resolve T so the schedule constructor sees a concrete reveal time
        if self.T is None:
            object.__setattr__(self, "T", 10.0 * self.x / self.c)
        elif self.T < 2.0 * self.x / self.c:
            raise ValueError(
                f"reveal time {self.T!r} precedes the storage phase {2.0 * self.x / self.c!r}"
            )

    def phi_choices(self) -> tuple[tuple[BasisStateSpec, float], ...]:
        """Probe states with their draw weights under this policy."""
        policy = self.phi_policy
        if policy == "default":
            policy = "uniform" if self.scheme == "string" else BasisStateSpec("Z", 0)
        if isinstance(policy, BasisStateSpec):
            return ((policy, 1.0),)
        family = FULL_FAMILY if self.scheme == "string" else Z_FAMILY
        weight = 1.0 / len(family)
        return tuple((spec, weight) for spec in family)

    def schedule(self) -> Schedule:
        return standard_schedule(self.x, self.c, self.T, self.scheme)


@dataclass(frozen=True)
class Verdict:
    """Validation outcome with a machine-readable reason on abort."""

    accept: bool
    reason: str = ""

    @classmethod
    def accepted(cls) -> "Verdict":
        return cls(True)

    @classmethod
    def aborted(cls, reason: str) -> "Verdict":
        return cls(False, reason)


@dataclass(frozen=True)
class Transcript:
    """Classical record of one protocol branch.

    Quantum states never appear here; the transcript is exactly what the
    honest parties could write down.  ``probability`` is the exact
    weight of this branch within its run's enumeration.
    """

    scheme: str
    alice_label: BellLabel
    bob_label: BellLabel
    swap_outcome: BellLabel
    teleport_outcome: BellLabel
    phi: BasisStateSpec
    stored_alice_bit: int
    probability: float
    schedule: Schedule
    stored_bob_bit: int | None = None
    alice_mid_measurement: int | None = None
    announced_alice_label: BellLabel | None = None
    announced_bob_label: BellLabel | None = None
    announced_teleport_outcome: BellLabel | None = None
    pair_index: int | None = None
    verdict: Verdict | None = None

    def __post_init__(self) -> None:
        if self.stored_alice_bit not in (0, 1):
            raise ValueError(f"stored bit must be 0 or 1, got {self.stored_alice_bit!r}")
        if not 0.0 < self.probability <= 1.0 + PROB_ATOL:
            raise ValueError(f"branch probability out of range: {self.probability!r}")


def _enumerate_pair(
    params: SchemeParams, alice_label: BellLabel, bob_label: BellLabel
) -> list[Transcript]:
    """Exhaustive branches of one single or string pair.

    Register order: Alice's retained half, her flying half, the
    receiver's flying half, the receiver's retained half, the probe.
    The middle agent's joint measurement hits qubits 1 and 2; the
    receiver's teleportation measurement hits the probe and his retained
    half (4 and 3); the confirmation measurement reads qubit 0 in the
    probe's basis family.
    """
    schedule = params.schedule()
    alice_frame = PauliOp(alice_label.i, alice_label.j)
    out: list[Transcript] = []
    for phi, phi_weight in params.phi_choices():
        register = tensor([
            make_bell(alice_label),
            make_bell(bob_label),
            make_basis_state(phi),
        ])
        for swap in bell_measure(register, 1, 2):
            for tele in bell_measure(swap.post_state, 4, 3):
                confirmed = apply_pauli(tele.post_state, 0, alice_frame)
                for final in basis_measure(confirmed, 0, phi.basis):
                    out.append(
                        Transcript(
                            scheme=params.scheme,
                            alice_label=alice_label,
                            bob_label=bob_label,
                            swap_outcome=swap.outcome,
                            teleport_outcome=tele.outcome,
                            phi=phi,
                            stored_alice_bit=final.outcome,
                            probability=phi_weight * swap.probability
                            * tele.probability * final.probability,
                            schedule=schedule,
                            announced_alice_label=alice_label,
                        )
                    )
    return out


def _enumerate_multi(
    params: SchemeParams, alice_label: BellLabel, bob_label: BellLabel
) -> list[Transcript]:
    """Exhaustive branches of the two-committer scheme (see ``run_multiparty``)."""
    schedule = params.schedule()
    alice_frame = PauliOp(alice_label.i, alice_label.j)
    bob_frame = PauliOp(bob_label.i, bob_label.j)
    out: list[Transcript] = []
    for phi, phi_weight in params.phi_choices():
        register = tensor([
            make_bell(alice_label),
            make_bell(bob_label),
            make_basis_state(phi),
        ])
        for swap in bell_measure(register, 1, 2):
            for tele in bell_measure(swap.post_state, 4, 3):
                probe_copy = apply_pauli(make_basis_state(phi), 0, bob_frame)
                probe_copy = apply_pauli(probe_copy, 0, PauliOp(tele.outcome.i, tele.outcome.j))
                bob_finals = basis_measure(probe_copy, 0, phi.basis)
                for mid in basis_measure(tele.post_state, 0, "Z"):
                    confirmed = apply_pauli(mid.post_state, 0, alice_frame)
                    for final in basis_measure(confirmed, 0, phi.basis):
                        for bob_final in bob_finals:
                            out.append(
                                Transcript(
                                    scheme="multi",
                                    alice_label=alice_label,
                                    bob_label=bob_label,
                                    swap_outcome=swap.outcome,
                                    teleport_outcome=tele.outcome,
                                    phi=phi,
                                    stored_alice_bit=final.outcome,
                                    stored_bob_bit=bob_final.outcome,
                                    alice_mid_measurement=mid.outcome,
                                    probability=phi_weight
                                    * swap.probability
                                    * tele.probability
                                    * mid.probability
                                    * final.probability
                                    * bob_final.probability,
                                    schedule=schedule,
                                    announced_alice_label=alice_label,
                                    announced_bob_label=bob_label,
                                    announced_teleport_outcome=tele.outcome,
                                )
                            )
    return out


@lru_cache(maxsize=4096)
def branches(
    params: SchemeParams, alice_label: BellLabel, bob_label: BellLabel
) -> tuple[Transcript, ...]:
    """Every classical branch of one pair, with exact weights summing to 1.

    The one place that picks an enumerator by scheme.  ``bob_label`` is
    the receiver-side label (the second committer's in the multi
    scheme) and overrides ``params.bob_label``.  A string pair is
    enumerated on its own, so its transcripts carry ``pair_index=None``;
    the ``run_*`` functions and the sampler stamp the index.  Memoized on the hashable
    arguments; ``clear_caches`` drops the table.
    """
    if params.scheme == "multi":
        return tuple(_enumerate_multi(params, alice_label, bob_label))
    return tuple(_enumerate_pair(params, alice_label, bob_label))


def run_pairs(
    params: SchemeParams,
    alice_labels: Sequence[BellLabel],
    bob_label: BellLabel,
) -> list[list[Transcript]]:
    """Every branch of any scheme, one branch list per committed pair.

    String transcripts carry ``pair_index=k``; the one-pair schemes'
    carry no index.
    """
    out = []
    for k, label in enumerate(alice_labels):
        table = branches(params, label, bob_label)
        if params.scheme == "string":
            table = [dataclasses.replace(t, pair_index=k) for t in table]
        out.append(list(table))
    return out


def run_single(params: SchemeParams, alice_label: BellLabel) -> list[Transcript]:
    """Every classical branch of the single-bit scheme, weights summing to 1."""
    if params.scheme != "single":
        raise ValueError(f"run_single requires scheme 'single', got {params.scheme!r}")
    return run_pairs(params, [alice_label], params.bob_label)[0]


def run_multiparty(
    params: SchemeParams, alice_label: BellLabel, bob_label: BellLabel
) -> list[Transcript]:
    """Every classical branch of the two-committer scheme around a verifying center.

    Both committers learn the center's swap outcome.  Alice measures her
    retained qubit in the computational basis (recorded, announced only
    if the parties later choose to), then rotates and returns it.  Bob
    prepares a fresh copy of the probe rotated by his teleportation
    outcome and his own pair label and returns that; the center stores
    both measured bits.
    """
    if params.scheme != "multi":
        raise ValueError(f"run_multiparty requires scheme 'multi', got {params.scheme!r}")
    return run_pairs(params, [alice_label], bob_label)[0]


def run_string(
    params: SchemeParams, alice_labels: Sequence[BellLabel]
) -> list[list[Transcript]]:
    """Every branch of the N-pair string scheme, one branch list per pair.

    Pairs are physically independent, so each list is one pair's own
    enumeration.
    """
    if params.scheme != "string":
        raise ValueError(f"run_string requires scheme 'string', got {params.scheme!r}")
    if len(alice_labels) != params.n_pairs:
        raise ValueError(
            f"expected {params.n_pairs} committer labels, got {len(alice_labels)}"
        )
    return run_pairs(params, alice_labels, params.bob_label)


@lru_cache(maxsize=None)
def _expected_stored_bit(
    phi: BasisStateSpec, frame_label: BellLabel, correction: PauliOp
) -> int:
    """Bit the verifier predicts for the stored confirmation measurement.

    Reconstructs the probe, applies the teleportation correction and the
    announced Pauli frame, and reads the measurement in the probe's own
    basis family.  Deterministic because Pauli frames permute basis
    family members.  Memoized over its 64 possible inputs; each entry is
    still computed on state vectors.  The multi scheme's probe copy is
    the same prediction, with the second committer's label as the
    correction and his teleportation outcome as the frame.
    """
    state = make_basis_state(phi)
    state = apply_pauli(state, 0, correction)
    state = apply_pauli(state, 0, PauliOp(frame_label.i, frame_label.j))
    outcomes = basis_measure(state, 0, phi.basis)
    if len(outcomes) != 1:
        raise AssertionError("expected a deterministic confirmation measurement")
    return int(outcomes[0].outcome)


def clear_caches() -> None:
    """Drop every memoized table: branch enumerations and verifier bits."""
    for cached in (branches, _expected_stored_bit):
        cached.cache_clear()


def _correction_for(
    transcript: Transcript,
    announced: BellLabel,
    mode: str,
    bob_claim: tuple[BellLabel, BellLabel] | None = None,
) -> PauliOp:
    """Teleportation correction the verifier applies to the probe.

    ``R1`` rebuilds it from announcements: the committer's label and the
    receiver side's (label, teleport outcome), which default to the
    transcript's own records.  ``R2`` uses the true records.
    """
    alice, bob, teleport = transcript.alice_label, transcript.bob_label, transcript.teleport_outcome
    if mode == "R1":
        alice = announced
        bob, teleport = bob_claim or (bob, teleport)
    return teleport_correction(swapped_label(alice, bob, transcript.swap_outcome), teleport)


def validate_single(transcript: Transcript, announced: BellLabel, mode: str = "R2") -> Verdict:
    """Check one announced label against the stored confirmation bit."""
    if mode not in VALIDATION_MODES:
        raise ValueError(f"unknown validation mode {mode!r}")
    expected = _expected_stored_bit(
        transcript.phi, announced, _correction_for(transcript, announced, mode)
    )
    if expected == transcript.stored_alice_bit:
        return Verdict.accepted()
    return Verdict.aborted(
        f"stored bit {transcript.stored_alice_bit} != expected {expected} "
        f"for announced label {announced}"
    )


def validate_multiparty(
    transcript: Transcript,
    alice_announced: BellLabel,
    bob_announced: tuple[BellLabel, BellLabel],
    mode: str = "R2",
) -> Verdict:
    """Check both committers' announcements against the stored bits.

    ``bob_announced`` is his claimed pair label and claimed teleportation
    outcome.  Bob's returned probe copy must reproduce the stored copy
    bit under his announced rotations; Alice's side follows the single
    scheme check, with Bob's announced teleportation outcome standing in
    for the sealed one in the R1 model.
    """
    if mode not in VALIDATION_MODES:
        raise ValueError(f"unknown validation mode {mode!r}")
    if transcript.stored_bob_bit is None:
        raise ValueError("transcript lacks the second committer's stored bit")
    bob_label, teleport = bob_announced
    bob_expected = _expected_stored_bit(transcript.phi, teleport, PauliOp(bob_label.i, bob_label.j))
    failures = []
    if bob_expected != transcript.stored_bob_bit:
        failures.append(
            f"bob: stored probe copy bit {transcript.stored_bob_bit} != expected {bob_expected}"
        )
    correction = _correction_for(transcript, alice_announced, mode, bob_announced)
    alice_expected = _expected_stored_bit(transcript.phi, alice_announced, correction)
    if alice_expected != transcript.stored_alice_bit:
        failures.append(
            f"alice: stored bit {transcript.stored_alice_bit} != expected {alice_expected}"
        )
    if failures:
        return Verdict.aborted("; ".join(failures))
    return Verdict.accepted()


def validate_transcript(transcript: Transcript, announced: BellLabel, mode: str = "R2") -> Verdict:
    """Check one pair's announced committer label, whatever its scheme.

    A multi transcript's second committer announces his true records.
    """
    if transcript.scheme == "multi":
        return validate_multiparty(
            transcript, announced, (transcript.bob_label, transcript.teleport_outcome), mode
        )
    return validate_single(transcript, announced, mode)


def validate_string(
    pair_transcripts: Sequence[Transcript],
    announced_labels: Sequence[BellLabel],
    mode: str = "R2",
) -> Verdict:
    """Accept a string reveal only when every pair's check passes."""
    if len(pair_transcripts) != len(announced_labels):
        raise ValueError(
            f"{len(pair_transcripts)} transcripts but {len(announced_labels)} announcements"
        )
    for k, (transcript, announced) in enumerate(zip(pair_transcripts, announced_labels)):
        verdict = validate_single(transcript, announced, mode)
        if not verdict.accept:
            return Verdict.aborted(f"pair {k}: {verdict.reason}")
    return Verdict.accepted()
