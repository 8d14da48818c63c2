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
a table of code columns, the branches of all 16 (committed, receiver)
label pairs, with the quantum engine's stack kernel: one pass per probe
state, whose steps are each one measured stack of every label pair's
branches, of which the enumerator keeps the weights and the outcome
codes, and only a step measured again has its collapsed states built.
String pairs share the single scheme's steps; the multi scheme adds
two, its probe copies read off the verifier's measured table.  Tables
are memoized on all the enumerator reads (multi or not, and the probe
states), so one table serves every committed label, pair count,
receiver label, geometry and validation mode.  A table is sorted by
(committed label, receiver label), each pair's rows probe-major, so a
committed label's branches and each label pair's are contiguous
slices of it; :func:`branches` reads :class:`Transcript` objects out of
a pair's slice on each call, stamped with the caller's scheme and
schedule.

The verifier is tabulated once per process: lookup arrays read off the
certified label arithmetic, and its stored-bit predictions, computed on
state vectors.  One function checks a whole table's columns at a time,
or one branch; :func:`validate_transcript` (one pair of any scheme) and
:func:`validate_multiparty` (also a second committer's claims) are its
one-branch wrappers, while the analyzer and the sampler check whole
tables, a committed label's under all four announcements in one call.
:func:`clear_caches` drops every memo.  This module never
samples; seeded draws from these tables live in
:mod:`relcommit.montecarlo`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache
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
    _pauli_frames,
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
    pair label (the second committer's label in the multi scheme); a
    run with another takes ``dataclasses.replace(params, bob_label=b)``.
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
        if not 1 <= self.n_pairs <= sys.maxsize:
            bound = "at least 1" if self.n_pairs < 1 else f"at most {sys.maxsize}"
            raise ValueError(f"n_pairs must be {bound}, got {self.n_pairs}")
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


def _with_pair_index(transcript: Transcript, pair_index: int | None) -> Transcript:
    """``dataclasses.replace(transcript, pair_index=pair_index)``, without ``__init__``.

    Every other field is already checked, and nothing checks a pair
    index, so the copy takes the fields as they are: about 1 µs, where
    ``replace`` re-runs ``__init__`` and ``__post_init__`` in about 7 µs.
    """
    copy = object.__new__(Transcript)
    fields = copy.__dict__
    fields.update(transcript.__dict__)
    fields["pair_index"] = pair_index
    return copy


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


def _registers(probe: np.ndarray) -> np.ndarray:
    """The register of every (committed, receiver) label pair with one probe: row ``4a + b``.

    ``probe`` holds the probe state's amplitudes, and ``a`` and ``b``
    are the labels' codes.  The real kets are multiplied as
    :func:`~relcommit.quantum.tensor` does (``np.kron``'s broadcast
    products, left factor first), so each float64 row is that tensor
    product's real part bit for bit; its imaginary part is zero.
    """
    pairs = _BELL_KETS[:, None, :, None] * _BELL_KETS[None, :, None, :]
    return (pairs.reshape(16, 16)[:, :, None] * probe).reshape(16, 32)


def _lineage(steps: Sequence[_Projection]) -> list[np.ndarray]:
    """Per branch of the last step: its register, then its branch of each step."""
    rows = [np.arange(len(steps[-1].probabilities))]
    for step in reversed(steps):
        rows.insert(0, step.parents[rows[0]])
    return rows


def _enumerate(multi: bool, probe: BasisStateSpec, prior: float) -> _Columns:
    """Exhaustive branches of every label pair with one probe state, weighted by ``prior``.

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
    all 16 (committed, receiver) label pairs.  Rows stay in the order of
    their registers, so a row's register ``4a + b`` names its committed
    label ``a`` and its receiver label ``b``.  A step keeps its weights
    and outcome codes; collapsed states are built only for a step that
    another step measures, and dropped once it has measured them.
    Alice's frame is folded into the last of those collapses, which
    each kept branch's register already names: the frame of label ``a``
    turns the factor that holds qubit 0 (see
    :func:`~relcommit.quantum._collapsed`), the 8-amplitude residual of
    the teleportation step or, in ``multi``, the 2-amplitude ket of the
    recorded Z step, so no 32-amplitude register is gathered.
    """
    probe_code = BASIS_STATES.index(probe)
    stack = _registers(_PROBE_KETS[probe_code])
    steps = []
    plan = [((1, 2), "bell"), ((4, 3), "bell")] + ([((0,), "Z")] if multi else [])
    for qubits, basis in plan:
        measured = _measure_stack(stack, qubits, basis)
        steps.append(measured._replace(residuals=None))
        # the last collapse also turns qubit 0 by each branch's committed
        # label, read off its register: a label's code names its frame
        frame = (0, _lineage(steps)[0] // 4) if len(steps) == len(plan) else None
        stack = _collapsed(measured, qubits, basis, frame)
        del measured
    steps.append(_measure_stack(stack, (0,), probe.basis)._replace(residuals=None))
    if multi:
        register, _, t, *_ = _lineage(steps)
        tables = _verifier_tables()  # indexed [probe, frame, correction]
        at = (probe_code, steps[1].codes[t], register % 4)
        parents = np.arange(len(register))  # each copy has one outcome
        steps.append(_Projection(parents, tables.weight[at], tables.prediction[at], None))
    register, *rows = _lineage(steps)
    probability = prior  # step order fixes the rounding, which TestGoldenTables pins
    for step, row in zip(steps, rows):
        probability = probability * step.probabilities[row]
    swap_codes, tele_codes, *rest = (step.codes[row] for step, row in zip(steps, rows))
    mid, stored_alice, stored_bob = rest if multi else (None, *rest, None)
    return _Columns(
        np.full(len(register), probe_code), register // 4, register % 4,
        swap_codes, tele_codes, stored_alice, stored_bob, mid, probability,
    )


@lru_cache(maxsize=None)
def _table(multi: bool, probes: tuple[BasisStateSpec, ...]) -> _Columns:
    """The one memo of branch tables, keyed on all that :func:`_enumerate` reads.

    Code columns of one :func:`_enumerate` pass per probe state,
    concatenated probe-major and stably sorted by (committed label,
    receiver label): each label pair's rows are one contiguous slice,
    probe-major, and so are each committed label's (see
    :func:`_columns`).  Raises ``ValueError`` unless every stored bit is
    0 or 1 and every probability lies in ``(0, 1 + PROB_ATOL]``.
    """
    passes = [_enumerate(multi, probe, 1.0 / len(probes)) for probe in probes]
    enumerated = _Columns._make(
        None if parts[0] is None else np.concatenate(parts) for parts in zip(*passes)
    )
    order = np.argsort(4 * enumerated.alice + enumerated.bob, kind="stable")
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


def _slice(columns: _Columns, key: np.ndarray, code: int) -> _Columns:
    """The rows of ``columns`` whose sorted ``key`` column equals ``code``."""
    start, stop = np.searchsorted(key, (code, code + 1))
    return _Columns._make(None if column is None else column[start:stop] for column in columns)


def _params_table(params: SchemeParams) -> _Columns:
    """The :func:`_table` of ``params``, the one map from
    :class:`SchemeParams` to the memo key: multi or not, and the probe
    states."""
    probes = tuple(spec for spec, _ in params.phi_choices())
    return _table(params.scheme == "multi", probes)


def _columns(params: SchemeParams, alice_label: BellLabel) -> _Columns:
    """Every branch of one committed label against each receiver label: its slice of :func:`_table`."""
    table = _params_table(params)
    return _slice(table, table.alice, _code(alice_label))


def _pair_columns(params: SchemeParams, alice_label: BellLabel) -> _Columns:
    """One label pair's branches: the ``params.bob_label`` slice of :func:`_columns`."""
    columns = _columns(params, alice_label)
    return _slice(columns, columns.bob, _code(params.bob_label))


def _scalar_rows(columns: _Columns | _Check) -> Iterator[_Columns | _Check]:
    """A table's columns, or a check over them, as one row of scalars per branch."""
    count = len(columns[0])
    rows = zip(*([None] * count if column is None else column.tolist() for column in columns))
    return map(type(columns)._make, rows)


def _transcript(
    params: SchemeParams, row: _Columns, announced: BellLabel, verdict: Verdict | None = None
) -> Transcript:
    """One branch of a :func:`_pair_columns` table as a transcript.

    ``row`` is one of :func:`_scalar_rows`, and both labels are its
    codes; the committer announces ``announced``.  In the multi scheme
    the second committer announces the true label and teleportation
    outcome.  The transcript takes its fields as :func:`_with_pair_index`
    copies them, without ``__init__``: ``__post_init__`` checks only that
    the stored bit is 0 or 1 and the probability lies in
    ``(0, 1 + PROB_ATOL]``, and :func:`_table` raises on a table with any
    other row before one is read out.  That saves about 2.5 µs of the
    constructor's 3 µs a branch.
    """
    probe, alice, bob, swap, tele, stored, stored_bob, mid, probability = row
    bob_label, teleport_outcome = BELL_LABELS[bob], BELL_LABELS[tele]
    multi = stored_bob is not None
    transcript = object.__new__(Transcript)
    transcript.__dict__.update(
        scheme=params.scheme, alice_label=BELL_LABELS[alice], bob_label=bob_label,
        swap_outcome=BELL_LABELS[swap], teleport_outcome=teleport_outcome,
        phi=BASIS_STATES[probe], stored_alice_bit=stored, probability=probability,
        schedule=params.schedule, stored_bob_bit=stored_bob, alice_mid_measurement=mid,
        announced_alice_label=announced,
        announced_bob_label=bob_label if multi else None,
        announced_teleport_outcome=teleport_outcome if multi else None,
        pair_index=None, verdict=verdict,
    )
    return transcript


def branches(params: SchemeParams, alice_label: BellLabel) -> tuple[Transcript, ...]:
    """Every classical branch of one pair, with exact weights summing to 1.

    The :func:`_pair_columns` table read out as transcripts, built afresh
    on each call, against the receiver-side label ``params.bob_label``
    (the second committer's in the multi scheme).  A string pair is
    enumerated on its own, so its transcripts carry ``pair_index=None``;
    :func:`run_pairs` and the sampler stamp the index.
    """
    columns = _pair_columns(params, alice_label)
    return tuple(_transcript(params, row, alice_label) for row in _scalar_rows(columns))


def run_pairs(params: SchemeParams, alice_labels: Sequence[BellLabel]) -> list[list[Transcript]]:
    """Every branch of any scheme, one branch list per committed pair.

    One committer label per pair against ``params.bob_label``, each
    distinct label's table read out once; string transcripts carry
    ``pair_index=k``, the one-pair schemes' carry no index.
    """
    if len(alice_labels) != params.n_pairs:
        raise ValueError(f"expected {params.n_pairs} committer labels, got {len(alice_labels)}")
    tables = {label: branches(params, label) for label in set(alice_labels)}
    return [[t if k is None else _with_pair_index(t, k) for t in tables[label]]
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
    sources, signs = _pauli_frames(1, 0)  # a row per Pauli's code
    corrected = _PROBE_KETS[:, sources] * signs  # [probe, correction, amplitude]
    corrections = np.arange(4)[:, None]  # against each frame's sources: [frame, correction, amplitude]
    rotated = corrected[:, corrections, sources[:, None]] * signs[:, None]  # [probe, frame, ...]
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
    """Accept bits and expected stored bits, shaped like the checked columns.

    Checked under an array of announced codes, ``accept`` and
    ``alice_expected`` take the broadcast shape, while ``bob_expected``,
    which no announcement of the committer's changes, keeps the columns'.
    """

    accept: np.ndarray | bool
    alice_expected: np.ndarray | int
    bob_expected: np.ndarray | int | None  # None outside the multi scheme


def _verify(
    columns: _Columns,
    announced: BellLabel | np.ndarray,
    mode: str,
    bob_claim: tuple[BellLabel, BellLabel] | None = None,
) -> _Check:
    """The verifier, on a table's columns or on one branch's :func:`_row`.

    The committer announces ``announced``: one label, or an integer
    array of label codes that broadcasts against the columns, so that a
    ``(4, 1)`` code column checks a table under four announcements at
    once, one row of accept bits each.  ``R1`` rebuilds the
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
    code = _code(announced) if isinstance(announced, BellLabel) else announced
    claim_bob, claim_tele = (columns.bob, columns.tele) if bob_claim is None else map(_code, bob_claim)
    if mode == "R1":
        alice, bob, tele = code, claim_bob, claim_tele
    else:
        alice, bob, tele = columns.alice, columns.bob, columns.tele
    correction = tables.correction[tables.swap[alice, bob, columns.swap], tele]
    alice_expected = tables.prediction[columns.probe, code, correction]
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
