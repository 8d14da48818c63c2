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

:func:`run_pairs` enumerates any scheme exactly.  One enumerator fills
each committed label's table of code columns, its branches against all
four receiver labels, with the quantum engine's stack kernel: a step is
one measured stack, of which the enumerator keeps the weights and the
outcome codes, and only a step measured again has its collapsed states
built.  String pairs share the single scheme's steps; the multi scheme
adds two, its probe copies read off the verifier's measured table.
Tables are memoized on all the enumerator reads (multi or not, the
probe states, the committed label), so they are shared across pair
counts, receiver labels, geometry and validation mode.  A table is
receiver-label-major, so each label pair's branches are a contiguous
slice of it; :func:`branches` reads :class:`Transcript` objects out of
that slice on each call, stamped with the caller's scheme and schedule.

The verifier is tabulated once per process: lookup arrays read off the
certified label arithmetic, and its stored-bit predictions, computed on
state vectors.  One function checks a whole table's columns at a time,
or one branch; :func:`validate_transcript` (one pair of any scheme) and
:func:`validate_multiparty` (also a second committer's claims) are its
one-branch wrappers, while the analyzer and the sampler check whole
tables.  :func:`clear_caches` drops every memo.  This module never
samples; seeded draws from these tables live in
:mod:`relcommit.montecarlo`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .quantum import (
    BASIS_STATES,
    BELL_LABELS,
    PAULI_OPS,
    PROB_ATOL,
    BasisStateSpec,
    BellLabel,
    _BASIS_KETS,
    _BELL_KETS,
    _Projection,
    _collapsed,
    _measure_stack,
    _pauli_stack,
    swapped_label,
    teleport_correction,
)
from .quantum import clear_caches as _clear_quantum_caches
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
    "parse_phi_policy",
    "run_pairs",
    "validate_multiparty",
    "validate_transcript",
]

VALIDATION_MODES = ("R1", "R2")

FULL_FAMILY = BASIS_STATES
Z_FAMILY = tuple(spec for spec in BASIS_STATES if spec.basis == "Z")
_PROBE_KETS = np.stack([_BASIS_KETS[s.basis][s.value] for s in BASIS_STATES])  # a row per state


def committed_bit(label: BellLabel) -> int:
    """Bit encoded by a pair label: its parity bit."""
    return label.j


def committed_string(labels: Sequence[BellLabel]) -> str:
    """Bit string encoded by a sequence of pair labels, one bit per pair."""
    return "".join(str(committed_bit(label)) for label in labels)


_PHI_NAMES = {str(spec): spec for spec in BASIS_STATES}


def parse_phi_policy(name: str) -> BasisStateSpec | str:
    """Probe policy names of the CLI and config files: Z0, Z1, X0, X1, uniform, default."""
    if name in ("uniform", "default"):
        return name
    try:
        return _PHI_NAMES[name]
    except KeyError:
        raise ValueError(
            f"probe policy must be one of {sorted(_PHI_NAMES)} or 'uniform', got {name!r}"
        ) from None


@dataclass(frozen=True)
class SchemeParams:
    """Public parameters of one commitment instance, each settled once.

    ``schedule`` is the canonical timetable, built at construction by
    :func:`~relcommit.spacetime.standard_schedule`, which owns the
    geometry rules and raises on bad ``x``, ``c`` or ``T``; it takes no
    part in equality or hashing.  ``T`` becomes its reveal time
    (``10x/c`` when not given).  ``phi_policy`` fixes the receiver-side
    probe state: a concrete :class:`BasisStateSpec` or ``"uniform"``,
    which draws from the Z family for single/multi and from all four
    basis states for string; ``"default"`` resolves to ``"uniform"``
    for string and to Z0 otherwise.  ``bob_label`` is the receiver-side
    pair label (the second committer's label in the multi scheme,
    overridable per run).
    """

    scheme: str
    x: float = 1.0
    c: float = 1.0
    T: float | None = None
    n_pairs: int = 1
    phi_policy: BasisStateSpec | str = "default"
    bob_label: BellLabel = BellLabel(0, 0)
    validation_mode: str = "R2"
    schedule: Schedule = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        schedule = standard_schedule(self.x, self.c, self.T, self.scheme)
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "T", schedule.phase_times.reveal)
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be at least 1, got {self.n_pairs}")
        if self.scheme != "string" and self.n_pairs != 1:
            raise ValueError(f"scheme {self.scheme!r} uses exactly one pair")
        if self.validation_mode not in VALIDATION_MODES:
            raise ValueError(f"unknown validation mode {self.validation_mode!r}")
        policy = self.phi_policy
        if policy == "default":
            policy = "uniform" if self.scheme == "string" else BasisStateSpec("Z", 0)
            object.__setattr__(self, "phi_policy", policy)
        if isinstance(policy, BasisStateSpec):
            if self.scheme != "string" and policy.basis != "Z":
                raise ValueError(
                    f"scheme {self.scheme!r} fixes the probe in the Z family, got {policy}"
                )
        elif policy != "uniform":
            raise ValueError(f"phi_policy must be a basis state or 'uniform', got {policy!r}")

    def phi_choices(self) -> tuple[tuple[BasisStateSpec, float], ...]:
        """Probe states with their draw weights under this policy."""
        if isinstance(self.phi_policy, BasisStateSpec):
            return ((self.phi_policy, 1.0),)
        family = FULL_FAMILY if self.scheme == "string" else Z_FAMILY
        weight = 1.0 / len(family)
        return tuple((spec, weight) for spec in family)


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


class _Columns(NamedTuple):
    """Code columns of branches: arrays over a whole table, or one branch's scalars.

    Labels and outcomes are codes as in :class:`_VerifierTables`;
    ``stored_bob`` and ``mid`` (the committer's mid-protocol Z outcome)
    are ``None`` outside the multi scheme.
    """

    probe: np.ndarray | int
    alice: np.ndarray | int
    bob: np.ndarray | int
    swap: np.ndarray | int
    tele: np.ndarray | int
    stored_alice: np.ndarray | int
    stored_bob: np.ndarray | int | None
    mid: np.ndarray | int | None
    probability: np.ndarray | float


def _row(t: Transcript) -> _Columns:
    """One branch as scalar code columns."""
    return _Columns(
        BASIS_STATES.index(t.phi), _code(t.alice_label), _code(t.bob_label), _code(t.swap_outcome),
        _code(t.teleport_outcome), t.stored_alice_bit, t.stored_bob_bit, t.alice_mid_measurement,
        t.probability,
    )


def _registers(alice_label: BellLabel, probes: np.ndarray) -> np.ndarray:
    """The register of every (probe, receiver label), probe-major: row ``4p + b``.

    ``probes`` holds one probe state's amplitudes per row, and ``b`` is
    the receiver label's code.  The kets are multiplied as
    :func:`~relcommit.quantum.tensor` does (``np.kron``'s broadcast
    products, left factor first), so each row equals that tensor
    product bit for bit.
    """
    pairs = _BELL_KETS[_code(alice_label)][None, :, None] * _BELL_KETS[:, None, :]
    return (pairs.reshape(4, 16)[None, :, :, None] * probes[:, None, None, :]).reshape(-1, 32)


def _lineage(steps: Sequence[_Projection]) -> list[np.ndarray]:
    """Per branch of the last step: its register, then its branch of each step."""
    rows = [np.arange(len(steps[-1].probabilities))]
    for step in reversed(steps):
        rows.insert(0, step.parents[rows[0]])
    return rows


def _measure_probes(stack: np.ndarray, bases: np.ndarray) -> _Projection:
    """Qubit 0 of each row measured in its probe's basis family ``bases[row]``, as one step.

    Each run of rows sharing a basis is measured as one stack.
    """
    starts = np.flatnonzero(np.r_[True, bases[1:] != bases[:-1]]).tolist()
    parts = []
    for start, stop in zip(starts, starts[1:] + [len(bases)]):
        measured = _measure_stack(stack[start:stop], (0,), str(bases[start]))
        parts.append((measured.parents + start, measured.probabilities, measured.codes))
    return _Projection(*map(np.concatenate, zip(*parts)), residuals=None)


def _enumerate(
    multi: bool, probes: tuple[BasisStateSpec, ...], alice_label: BellLabel
) -> _Columns:
    """Exhaustive branches of one committed label, every probe state at once.

    Register order: Alice's retained half, her flying half, the
    receiver's flying half, the receiver's retained half, the probe.
    The middle agent's joint measurement hits qubits 1 and 2; the
    receiver's teleportation measurement hits the probe and his retained
    half (4 and 3); Alice rotates qubit 0 by her label's Pauli frame and
    the confirmation measurement reads it in the probe's basis family.
    ``multi`` adds two steps: Alice's recorded Z measurement of qubit 0
    before her frame, and the second committer's returned copy of the
    probe, rotated by his label and then his teleportation outcome.  The
    copy is built from labels, never evolved through the register, so
    its step is read off :func:`_verifier_tables`, which the label
    algebra route cross-checks.  Every other step measures every branch
    of the step before it as one stack, starting from the registers of
    every (probe, receiver label) pair, probe-major; a step measuring in
    the probe's basis makes one stack per run of rows sharing a basis,
    and probe families list their Z states first.  Rows stay in the
    order of their registers, so a row's register ``4p + b`` names its
    probe ``p`` and its receiver label ``b``.  A step keeps its weights
    and outcome codes; collapsed states are built only for a step that
    another step measures, and dropped once it has measured them.
    """
    probe_codes = np.array([BASIS_STATES.index(phi) for phi in probes])
    bases = np.array([phi.basis for phi in probes])
    stack = _registers(alice_label, _PROBE_KETS[probe_codes])
    steps = []
    for qubits, basis in [((1, 2), "bell"), ((4, 3), "bell")] + ([((0,), "Z")] if multi else []):
        measured = _measure_stack(stack, qubits, basis)
        stack = _collapsed(measured, qubits, basis)
        steps.append(measured._replace(residuals=None))
        del measured
    stack = _pauli_stack(stack, 0, PAULI_OPS[_code(alice_label)])
    steps.append(_measure_probes(stack, bases[_lineage(steps)[0] // 4]))
    if multi:
        register, _, t, *_ = _lineage(steps)
        tables = _verifier_tables()  # indexed [probe, frame, correction]
        at = (probe_codes[register // 4], steps[1].codes[t], register % 4)
        parents = np.arange(len(register))  # each copy has one outcome
        steps.append(_Projection(parents, tables.weight[at], tables.prediction[at], None))
    register, *rows = _lineage(steps)
    probability = 1.0 / len(probes)  # step order fixes the rounding, which TestGoldenTables pins
    for step, row in zip(steps, rows):
        probability = probability * step.probabilities[row]
    swap_codes, tele_codes, *rest = (step.codes[row] for step, row in zip(steps, rows))
    mid, stored_alice, stored_bob = rest if multi else (None, *rest, None)
    return _Columns(
        probe_codes[register // 4], np.full(len(register), _code(alice_label)), register % 4,
        swap_codes, tele_codes, stored_alice, stored_bob, mid, probability,
    )


@lru_cache(maxsize=None)
def _table(
    multi: bool, probes: tuple[BasisStateSpec, ...], alice_label: BellLabel
) -> _Columns:
    """The one memo of branch tables, keyed on all that :func:`_enumerate` reads.

    Code columns, receiver-label-major, so each receiver label's rows
    are one contiguous slice (see :func:`_pair_columns`).  Raises
    ``ValueError`` unless every stored bit is 0 or 1 and every
    probability lies in ``(0, 1 + PROB_ATOL]``.
    """
    enumerated = _enumerate(multi, probes, alice_label)
    order = np.argsort(enumerated.bob, kind="stable")
    columns = _Columns._make(
        None if column is None else _frozen(column[order]) for column in enumerated
    )
    stored = [bits for bits in (columns.stored_alice, columns.stored_bob) if bits is not None]
    if not np.isin(stored, (0, 1)).all():
        raise ValueError(f"stored bit must be 0 or 1, got {np.unique(stored).tolist()!r}")
    probability = columns.probability
    if not ((probability > 0.0) & (probability <= 1.0 + PROB_ATOL)).all():
        raise ValueError(f"branch probability out of range: {probability.tolist()!r}")
    return columns


def _columns(params: SchemeParams, alice_label: BellLabel) -> _Columns:
    """Every branch of one committed label against each receiver label: its :func:`_table`.

    The one map from :class:`SchemeParams` to the memo key: multi or
    not, and the probe states.
    """
    probes = tuple(spec for spec, _ in params.phi_choices())
    return _table(params.scheme == "multi", probes, alice_label)


def _pair_columns(params: SchemeParams, alice_label: BellLabel, bob_label: BellLabel) -> _Columns:
    """One label pair's branches: its receiver label's slice of :func:`_columns`.

    ``bob_label`` overrides ``params.bob_label``.
    """
    columns = _columns(params, alice_label)
    code = _code(bob_label)
    start, stop = np.searchsorted(columns.bob, (code, code + 1))
    return _Columns._make(None if column is None else column[start:stop] for column in columns)


def _scalar_rows(columns: _Columns | _Check) -> Iterator[_Columns | _Check]:
    """A table's columns, or a check over them, as one row of scalars per branch."""
    count = len(columns[0])
    rows = zip(*([None] * count if column is None else column.tolist() for column in columns))
    return map(type(columns)._make, rows)


def _transcript(
    params: SchemeParams,
    alice_label: BellLabel,
    bob_label: BellLabel,
    row: _Columns,
    announced: BellLabel,
    verdict: Verdict | None = None,
) -> Transcript:
    """One branch of a :func:`_pair_columns` table as a transcript.

    ``row`` is one of :func:`_scalar_rows`; the committer announces
    ``announced``.  In the multi scheme the second committer announces
    his true label and teleportation outcome.
    """
    probe, _, _, swap, tele, stored, stored_bob, mid, probability = row
    multi = stored_bob is not None
    return Transcript(
        scheme=params.scheme, alice_label=alice_label, bob_label=bob_label,
        swap_outcome=BELL_LABELS[swap], teleport_outcome=BELL_LABELS[tele],
        phi=BASIS_STATES[probe], stored_alice_bit=stored, probability=probability,
        schedule=params.schedule, stored_bob_bit=stored_bob, alice_mid_measurement=mid,
        announced_alice_label=announced,
        announced_bob_label=bob_label if multi else None,
        announced_teleport_outcome=BELL_LABELS[tele] if multi else None,
        verdict=verdict,
    )


def branches(
    params: SchemeParams, alice_label: BellLabel, bob_label: BellLabel
) -> tuple[Transcript, ...]:
    """Every classical branch of one pair, with exact weights summing to 1.

    The :func:`_pair_columns` table read out as transcripts, built afresh
    on each call.  ``bob_label`` is the receiver-side label (the second
    committer's in the multi scheme) and overrides ``params.bob_label``.
    A string pair is enumerated on its own, so its transcripts carry
    ``pair_index=None``; :func:`run_pairs` and the sampler stamp the
    index.
    """
    columns = _pair_columns(params, alice_label, bob_label)
    return tuple(
        _transcript(params, alice_label, bob_label, row, alice_label)
        for row in _scalar_rows(columns)
    )


def run_pairs(
    params: SchemeParams,
    alice_labels: Sequence[BellLabel],
    bob_label: BellLabel,
) -> list[list[Transcript]]:
    """Every branch of any scheme, one branch list per committed pair.

    One committer label per pair, each distinct label's table read out
    once; string transcripts carry ``pair_index=k``, the one-pair
    schemes' carry no index.
    """
    if len(alice_labels) != params.n_pairs:
        raise ValueError(f"expected {params.n_pairs} committer labels, got {len(alice_labels)}")
    tables = {label: branches(params, label, bob_label) for label in set(alice_labels)}
    return [[t if k is None else dataclasses.replace(t, pair_index=k) for t in tables[label]]
            for k, label in zip(_pair_indices(params), alice_labels)]


def _pair_indices(params: SchemeParams) -> Sequence[int | None]:
    """Each pair's ``pair_index``: ``k`` for string pairs, ``None`` for the one-pair schemes."""
    return range(params.n_pairs) if params.scheme == "string" else (None,) * params.n_pairs


def _code(label: BellLabel) -> int:
    """A pair label's 2-bit code: its index in ``BELL_LABELS``."""
    return 2 * label.i + label.j


def _frozen(values) -> np.ndarray:
    array = np.array(values)
    array.setflags(write=False)
    return array


class _VerifierTables(NamedTuple):
    """The verifier's arithmetic as lookup arrays over codes.

    A label's code is its index in ``BELL_LABELS``, a Pauli's in
    ``PAULI_OPS`` (a frame label ``(i, j)`` names the Pauli of the same
    code) and a probe's in ``BASIS_STATES``.
    """

    swap: np.ndarray  # [label a, label b, swap outcome] -> swapped label
    correction: np.ndarray  # [shared label, teleport outcome] -> correction Pauli
    prediction: np.ndarray  # [probe, frame, correction] -> predicted stored bit
    weight: np.ndarray  # [probe, frame, correction] -> measured weight of that prediction


@lru_cache(maxsize=None)
def _verifier_tables() -> _VerifierTables:
    """Tabulate the verifier once: certified label arithmetic and predictions.

    The label lookups are read off :func:`swapped_label` (64 inputs) and
    :func:`teleport_correction` (16).  A prediction is the bit of the
    stored confirmation measurement, computed on state vectors: the
    probe, rotated by the teleportation correction and then by the
    announced Pauli frame, measured in its own basis family.  Each
    family's rotated probes are measured as one stack, and every row
    must give exactly one outcome, because Pauli frames permute basis
    family members; ``weight`` is that outcome's.  The multi scheme's
    probe copy is this rotated probe, the second committer's label the
    correction and his teleportation outcome the frame; built from labels,
    never evolved through a register, :func:`_enumerate` reads it here.
    """
    swap = [[[_code(swapped_label(a, b, s)) for s in BELL_LABELS] for b in BELL_LABELS]
            for a in BELL_LABELS]
    correction = [[PAULI_OPS.index(teleport_correction(shared, outcome)) for outcome in BELL_LABELS]
                  for shared in BELL_LABELS]
    rotated = np.stack([
        _pauli_stack(_pauli_stack(_PROBE_KETS, 0, op), 0, frame)
        for frame in PAULI_OPS for op in PAULI_OPS
    ], axis=1).reshape(len(BASIS_STATES), 4, 4, 2)  # [probe, frame, correction, amplitude]
    prediction = np.empty(rotated.shape[:3], dtype=np.intp)
    weight = np.empty(rotated.shape[:3])
    for basis in ("Z", "X"):
        rows = [k for k, phi in enumerate(BASIS_STATES) if phi.basis == basis]
        measured = _measure_stack(rotated[rows].reshape(-1, 2), (0,), basis)
        if not np.array_equal(measured.parents, np.arange(16 * len(rows))):
            raise AssertionError("expected a deterministic confirmation measurement")
        prediction[rows] = measured.codes.reshape(len(rows), 4, 4)  # a Z/X code is its bit
        weight[rows] = measured.probabilities.reshape(len(rows), 4, 4)
    return _VerifierTables(*map(_frozen, (swap, correction, prediction, weight)))


def clear_caches() -> None:
    """Drop every memoized table: branch columns, the verifier, engine index tables."""
    for cached in (_table, _verifier_tables):
        cached.cache_clear()
    _clear_quantum_caches()


class _Check(NamedTuple):
    """Accept bits and expected stored bits, shaped like the checked columns."""

    accept: np.ndarray | bool
    alice_expected: np.ndarray | int
    bob_expected: np.ndarray | int | None  # None outside the multi scheme


def _verify(
    columns: _Columns,
    announced: BellLabel,
    mode: str,
    bob_claim: tuple[BellLabel, BellLabel] | None = None,
) -> _Check:
    """The verifier, on a table's columns or on one branch's :func:`_row`.

    The committer announces ``announced``.  ``R1`` rebuilds the
    teleportation correction from announcements: that label and the
    receiver side's (label, teleport outcome), which are ``bob_claim``
    when given and the branch's own records otherwise.  ``R2`` uses the
    true records.  In the multi scheme the second committer's probe copy
    must also reproduce its stored bit under his claimed label and
    outcome.
    """
    if mode not in VALIDATION_MODES:
        raise ValueError(f"unknown validation mode {mode!r}")
    tables = _verifier_tables()
    claim_bob, claim_tele = (columns.bob, columns.tele) if bob_claim is None else map(_code, bob_claim)
    if mode == "R1":
        alice, bob, tele = _code(announced), claim_bob, claim_tele
    else:
        alice, bob, tele = columns.alice, columns.bob, columns.tele
    correction = tables.correction[tables.swap[alice, bob, columns.swap], tele]
    alice_expected = tables.prediction[columns.probe, _code(announced), correction]
    accept = alice_expected == columns.stored_alice
    bob_expected = None
    if columns.stored_bob is not None:
        bob_expected = tables.prediction[columns.probe, claim_tele, claim_bob]
        accept = accept & (bob_expected == columns.stored_bob)
    return _Check(accept, alice_expected, bob_expected)


def _verdict(
    row: _Columns,
    announced: BellLabel,
    accept: bool,
    alice_expected: int,
    bob_expected: int | None,
) -> Verdict:
    """One branch's :class:`Verdict` from its scalar row and its row of a :func:`_verify` check."""
    if accept:
        return Verdict.accepted()
    stored_alice, stored_bob = row.stored_alice, row.stored_bob
    if bob_expected is None:
        return Verdict.aborted(
            f"stored bit {stored_alice} != expected {alice_expected} "
            f"for announced label {announced}"
        )
    failures = []
    if bob_expected != stored_bob:
        failures.append(f"bob: stored probe copy bit {stored_bob} != expected {bob_expected}")
    if alice_expected != stored_alice:
        failures.append(f"alice: stored bit {stored_alice} != expected {alice_expected}")
    return Verdict.aborted("; ".join(failures))


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
    if transcript.stored_bob_bit is None:
        raise ValueError("transcript lacks the second committer's stored bit")
    row = _row(transcript)
    return _verdict(row, alice_announced, *_verify(row, alice_announced, mode, bob_announced))


def validate_transcript(transcript: Transcript, announced: BellLabel, mode: str = "R2") -> Verdict:
    """Check one pair's announced committer label, whatever its scheme.

    A multi transcript's second committer announces his true records.
    """
    if transcript.scheme == "multi":
        return validate_multiparty(
            transcript, announced, (transcript.bob_label, transcript.teleport_outcome), mode
        )
    # only the multi scheme has a probe copy to check
    row = _row(transcript)._replace(stored_bob=None)
    return _verdict(row, announced, *_verify(row, announced, mode))
