"""Exact simulator and security analyzer for relativistic quantum bit
commitment over entangled pairs.

The package enumerates the schemes' small quantum registers exactly:
every probability it reports is a finite sum, not an estimate, and the
security analyzer recomputes each one through an independent label
algebra route as a self-check.  A causality layer audits protocol
timetables against special relativity, and a CLI exposes runs,
enumerations, attack scans and audits.
"""

from .adversary import (
    SecurityReport,
    SelfCheckError,
    Strategy,
    build_report,
    concealment_tv,
    detection_probability,
    extraction_guess_probability,
    string_cheat_acceptance,
)
from .montecarlo import RunConfig, StatsSummary, monte_carlo
from .protocol import (
    SchemeParams,
    Transcript,
    Verdict,
    committed_bit,
    committed_string,
    run_pairs,
    validate_multiparty,
    validate_transcript,
)
from .quantum import (
    BASIS_STATES,
    BELL_LABELS,
    PAULI_OPS,
    BasisStateSpec,
    BellLabel,
    Branch,
    BranchSet,
    PauliOp,
    StateVector,
    apply_pauli,
    basis_measure,
    bell_measure,
    compose_pauli,
    fidelity,
    make_basis_state,
    make_bell,
    states_equal_up_to_phase,
    swapped_label,
    teleport_correction,
    tensor,
)
from .serialize import (
    TranscriptParseError,
    parse_transcript,
    serialize_transcript,
)
from .spacetime import (
    AuditReport,
    Schedule,
    SpacetimeEvent,
    Topology,
    audit,
    canonical_topology,
    light_travel_time,
    standard_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # quantum
    "BASIS_STATES",
    "BELL_LABELS",
    "PAULI_OPS",
    "BasisStateSpec",
    "BellLabel",
    "Branch",
    "BranchSet",
    "PauliOp",
    "StateVector",
    "apply_pauli",
    "basis_measure",
    "bell_measure",
    "compose_pauli",
    "fidelity",
    "make_basis_state",
    "make_bell",
    "states_equal_up_to_phase",
    "swapped_label",
    "teleport_correction",
    "tensor",
    # spacetime
    "AuditReport",
    "Schedule",
    "SpacetimeEvent",
    "Topology",
    "audit",
    "canonical_topology",
    "light_travel_time",
    "standard_schedule",
    # protocol
    "SchemeParams",
    "Transcript",
    "Verdict",
    "committed_bit",
    "committed_string",
    "run_pairs",
    "validate_multiparty",
    "validate_transcript",
    # adversary
    "SecurityReport",
    "SelfCheckError",
    "Strategy",
    "build_report",
    "concealment_tv",
    "detection_probability",
    "extraction_guess_probability",
    "string_cheat_acceptance",
    # harness
    "RunConfig",
    "StatsSummary",
    "monte_carlo",
    "TranscriptParseError",
    "parse_transcript",
    "serialize_transcript",
]
