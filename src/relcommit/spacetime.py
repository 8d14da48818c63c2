"""1+1 dimensional geometry, canonical timetables, and causality audits.

The commitment schemes live on a line: three named agents at fixed
positions exchange qubits and classical messages.  A :class:`Schedule`
records every event and message with explicit times; :func:`audit`
replays it against special relativity, flagging any message that
outruns light and any event that consumes data before a light signal
could have delivered it from the point of production.

Canonical layouts (half-separation ``x``, signal speed ``c``):

* ``single`` / ``string``: receiver ``bob`` at 0, his agent ``b0`` at
  ``x``, committer ``alice`` at ``2x``.
* ``multi``: committer ``alice`` at 0, verifying agent ``center`` at
  ``x``, committer ``bob`` at ``2x``.

Phase times are ``0`` (commitment), ``x/c`` (confirmation), ``2x/c``
(storage) and ``T`` (reveal), with ``T >= 2x/c`` but otherwise free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SCHEMES",
    "EVENT_KINDS",
    "Actor",
    "Topology",
    "SpacetimeEvent",
    "Message",
    "PhaseTimes",
    "Schedule",
    "Violation",
    "AuditReport",
    "light_travel_time",
    "canonical_topology",
    "standard_schedule",
    "audit",
]

SCHEMES = ("single", "multi", "string")

EVENT_KINDS = ("prepare", "send", "receive", "bsm", "measure", "announce", "validate")

# kinds whose payload_ref is produced at the event; send/receive only move it
_PRODUCING_KINDS = frozenset({"prepare", "bsm", "measure", "announce", "validate"})

_CHANNELS = ("quantum", "classical")


@dataclass(frozen=True)
class Actor:
    """Named agent pinned to a fixed position on the line."""

    actor_id: str
    position: float

    def __post_init__(self) -> None:
        if not self.actor_id:
            raise ValueError("actor_id must be non-empty")
        if not math.isfinite(self.position):
            raise ValueError(f"position must be finite, got {self.position!r}")


@dataclass(frozen=True)
class Topology:
    """Set of actors plus the signal speed ``c`` and half-separation ``x``."""

    actors: tuple[Actor, ...]
    c: float
    x: float

    def __post_init__(self) -> None:
        if self.c <= 0 or not math.isfinite(self.c):
            raise ValueError(f"signal speed must be finite and positive, got {self.c!r}")
        if self.x < 0 or not math.isfinite(self.x):
            raise ValueError(f"half-separation must be finite and non-negative, got {self.x!r}")
        ids = [a.actor_id for a in self.actors]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate actor ids in {ids}")

    def position_of(self, actor_id: str) -> float:
        for actor in self.actors:
            if actor.actor_id == actor_id:
                return actor.position
        raise ValueError(f"unknown actor {actor_id!r}")


@dataclass(frozen=True)
class SpacetimeEvent:
    """Local step in a protocol run.

    ``payload_ref`` names the datum the event concerns; ``deps`` name
    data the event consumes.  Producing kinds (prepare, bsm, measure,
    announce, validate) register ``payload_ref`` as created here; send
    and receive treat it as a consumed input.
    """

    actor: str
    time: float
    kind: str
    payload_ref: str | None = None
    deps: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if not math.isfinite(self.time):
            raise ValueError(f"event time must be finite, got {self.time!r}")


@dataclass(frozen=True)
class Message:
    """Qubit or classical payload in flight between two actors."""

    sender: str
    receiver: str
    send_time: float
    arrival_time: float
    channel: str

    def __post_init__(self) -> None:
        if self.channel not in _CHANNELS:
            raise ValueError(f"channel must be one of {_CHANNELS}, got {self.channel!r}")
        if self.arrival_time < self.send_time:
            raise ValueError(
                f"arrival {self.arrival_time!r} precedes send {self.send_time!r}"
            )


@dataclass(frozen=True)
class PhaseTimes:
    """The four protocol phase instants."""

    commit: float
    confirm: float
    store: float
    reveal: float


@dataclass(frozen=True)
class Schedule:
    """Complete timetable of one protocol run."""

    scheme: str
    x: float
    c: float
    phase_times: PhaseTimes
    events: tuple[SpacetimeEvent, ...]
    messages: tuple[Message, ...]

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        times = self.phase_times
        if times.reveal < times.store:
            raise ValueError(f"reveal time {times.reveal!r} precedes storage phase {times.store!r}")


@dataclass(frozen=True)
class Violation:
    """One broken causality constraint found by :func:`audit`."""

    kind: str  # superluminal | dependency | missing_producer
    subject: str
    detail: str


@dataclass(frozen=True)
class AuditReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def light_travel_time(position_a: float, position_b: float, c: float) -> float:
    """Minimum signal delay between two positions."""
    if c <= 0 or not math.isfinite(c):
        raise ValueError(f"signal speed must be finite and positive, got {c!r}")
    return abs(position_a - position_b) / c


def canonical_topology(scheme: str, x: float, c: float) -> Topology:
    """Standard three-actor layout for a scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "multi":
        actors = (Actor("alice", 0.0), Actor("center", x), Actor("bob", 2 * x))
    else:
        actors = (Actor("bob", 0.0), Actor("b0", x), Actor("alice", 2 * x))
    return Topology(actors, c, x)


def _two_party_events(t1: float, t2: float, reveal: float):
    events = (
        SpacetimeEvent("alice", 0.0, "prepare", "alice_pair"),
        SpacetimeEvent("bob", 0.0, "prepare", "bob_pair"),
        SpacetimeEvent("bob", 0.0, "prepare", "probe_source"),
        SpacetimeEvent("alice", 0.0, "send", "alice_pair"),
        SpacetimeEvent("bob", 0.0, "send", "bob_pair"),
        SpacetimeEvent("b0", t1, "receive", "alice_pair"),
        SpacetimeEvent("b0", t1, "receive", "bob_pair"),
        SpacetimeEvent("b0", t1, "bsm", "swap_result", deps=("alice_pair", "bob_pair")),
        SpacetimeEvent("bob", t1, "bsm", "teleport_result", deps=("bob_pair", "probe_source")),
        SpacetimeEvent("bob", t1, "send", "teleport_result"),
        SpacetimeEvent("alice", t1, "prepare", "confirmation_qubit", deps=("alice_pair",)),
        SpacetimeEvent("alice", t1, "send", "confirmation_qubit"),
        SpacetimeEvent("b0", t2, "receive", "confirmation_qubit"),
        SpacetimeEvent("b0", t2, "receive", "teleport_result"),
        SpacetimeEvent("b0", t2, "measure", "stored_alice_bit", deps=("confirmation_qubit",)),
        SpacetimeEvent("alice", reveal, "announce", "alice_announcement", deps=("alice_pair",)),
        SpacetimeEvent("alice", reveal, "send", "alice_announcement"),
        SpacetimeEvent("b0", reveal + t1, "receive", "alice_announcement"),
        SpacetimeEvent(
            "b0",
            reveal + t1,
            "validate",
            "verdict",
            deps=("alice_announcement", "swap_result", "teleport_result", "stored_alice_bit"),
        ),
    )
    messages = (
        Message("alice", "b0", 0.0, t1, "quantum"),
        Message("bob", "b0", 0.0, t1, "quantum"),
        Message("bob", "b0", t1, t2, "classical"),
        Message("alice", "b0", t1, t2, "quantum"),
        Message("alice", "b0", reveal, reveal + t1, "classical"),
    )
    return events, messages


def _multi_events(t1: float, t2: float, reveal: float):
    events = (
        SpacetimeEvent("alice", 0.0, "prepare", "alice_pair"),
        SpacetimeEvent("bob", 0.0, "prepare", "bob_pair"),
        SpacetimeEvent("bob", 0.0, "prepare", "probe_source"),
        SpacetimeEvent("alice", 0.0, "send", "alice_pair"),
        SpacetimeEvent("bob", 0.0, "send", "bob_pair"),
        SpacetimeEvent("center", t1, "receive", "alice_pair"),
        SpacetimeEvent("center", t1, "receive", "bob_pair"),
        SpacetimeEvent("center", t1, "bsm", "swap_result", deps=("alice_pair", "bob_pair")),
        SpacetimeEvent("center", t1, "send", "swap_result"),
        SpacetimeEvent("bob", t1, "bsm", "teleport_result", deps=("bob_pair", "probe_source")),
        SpacetimeEvent("alice", t1, "measure", "alice_mid_measurement", deps=("alice_pair",)),
        SpacetimeEvent("alice", t1, "prepare", "confirmation_qubit", deps=("alice_pair",)),
        SpacetimeEvent("alice", t1, "send", "confirmation_qubit"),
        SpacetimeEvent(
            "bob",
            t1,
            "prepare",
            "bob_confirmation_qubit",
            deps=("bob_pair", "probe_source", "teleport_result"),
        ),
        SpacetimeEvent("bob", t1, "send", "bob_confirmation_qubit"),
        SpacetimeEvent("alice", t2, "receive", "swap_result"),
        SpacetimeEvent("bob", t2, "receive", "swap_result"),
        SpacetimeEvent("center", t2, "receive", "confirmation_qubit"),
        SpacetimeEvent("center", t2, "receive", "bob_confirmation_qubit"),
        SpacetimeEvent("center", t2, "measure", "stored_alice_bit", deps=("confirmation_qubit",)),
        SpacetimeEvent("center", t2, "measure", "stored_bob_bit", deps=("bob_confirmation_qubit",)),
        SpacetimeEvent("alice", reveal, "announce", "alice_announcement", deps=("alice_pair",)),
        SpacetimeEvent("alice", reveal, "send", "alice_announcement"),
        SpacetimeEvent(
            "bob", reveal, "announce", "bob_announcement", deps=("bob_pair", "teleport_result")
        ),
        SpacetimeEvent("bob", reveal, "send", "bob_announcement"),
        SpacetimeEvent("center", reveal + t1, "receive", "alice_announcement"),
        SpacetimeEvent("center", reveal + t1, "receive", "bob_announcement"),
        SpacetimeEvent(
            "center",
            reveal + t1,
            "validate",
            "verdict",
            deps=(
                "alice_announcement",
                "bob_announcement",
                "swap_result",
                "stored_alice_bit",
                "stored_bob_bit",
            ),
        ),
    )
    messages = (
        Message("alice", "center", 0.0, t1, "quantum"),
        Message("bob", "center", 0.0, t1, "quantum"),
        Message("center", "alice", t1, t2, "classical"),
        Message("center", "bob", t1, t2, "classical"),
        Message("alice", "center", t1, t2, "quantum"),
        Message("bob", "center", t1, t2, "quantum"),
        Message("alice", "center", reveal, reveal + t1, "classical"),
        Message("bob", "center", reveal, reveal + t1, "classical"),
    )
    return events, messages


def _storage_time(x: float, c: float) -> float:
    """The storage phase ``2x/c``; ``ValueError`` unless it is finite."""
    t2 = 2 * x / c
    if not math.isfinite(t2):
        raise ValueError(f"storage phase 2x/c must be finite, got {t2!r}")
    return t2


def standard_schedule(x: float, c: float, T: float | None, scheme: str) -> Schedule:
    """Canonical timetable with phases at 0, x/c, 2x/c and T.

    The one owner of the geometry rules: ``x`` finite and non-negative,
    ``c`` finite and positive, ``2x/c`` finite, ``T`` finite and no
    earlier than ``2x/c`` (which :class:`Schedule` checks along with the
    scheme name), and the validation time ``T + x/c`` finite.
    ``T=None`` reveals at ``10x/c``, which must be finite too.  A broken
    rule raises ``ValueError`` naming the quantity that broke it.
    """
    if x < 0 or not math.isfinite(x):
        raise ValueError(f"half-separation must be finite and non-negative, got {x!r}")
    if c <= 0 or not math.isfinite(c):
        raise ValueError(f"signal speed must be finite and positive, got {c!r}")
    t1 = x / c
    t2 = _storage_time(x, c)
    if T is None:
        T = 10.0 * x / c
        if not math.isfinite(T):
            raise ValueError(f"default reveal time 10x/c must be finite, got {T!r}")
    if not math.isfinite(T):
        raise ValueError(f"reveal time must be finite, got {T!r}")
    if not math.isfinite(T + t1):
        raise ValueError(f"validation time T + x/c must be finite, got {T + t1!r}")
    if scheme == "multi":
        events, messages = _multi_events(t1, t2, T)
    else:
        events, messages = _two_party_events(t1, t2, T)
    return Schedule(scheme, x, c, PhaseTimes(0.0, t1, t2, T), events, messages)


def audit(schedule: Schedule) -> AuditReport:
    """Replay a schedule against relativity.

    Checks, with slack ``1e-9 * (x/c)``, and never less than 4 ulp of
    the light bound, so exact light-like timings pass despite rounding:

    * every message arrives no earlier than light from its sender;
    * every consumed payload was produced, and early enough that a light
      signal from the production point reaches the consumer in time.

    Raises ``ValueError`` if the schedule names an actor missing from the
    scheme's canonical topology, or if its ``2x/c`` is not finite, as
    :func:`standard_schedule` does.  With ``2x/c`` finite, so are the
    slack and every light travel time between its actors.
    """
    topology = canonical_topology(schedule.scheme, schedule.x, schedule.c)
    _storage_time(schedule.x, schedule.c)
    tol = 1e-9 * (schedule.x / schedule.c)
    violations: list[Violation] = []

    for msg in schedule.messages:
        bound = msg.send_time + light_travel_time(
            topology.position_of(msg.sender), topology.position_of(msg.receiver), topology.c
        )
        if msg.arrival_time < bound - max(tol, 4 * math.ulp(bound)):
            violations.append(
                Violation(
                    "superluminal",
                    f"{msg.sender}->{msg.receiver}",
                    f"{msg.channel} message sent at t={msg.send_time} arrives at "
                    f"t={msg.arrival_time}, light bound is t={bound}",
                )
            )

    produced: dict[str, SpacetimeEvent] = {}
    for event in sorted(schedule.events, key=lambda e: e.time):
        if event.kind in _PRODUCING_KINDS and event.payload_ref is not None:
            produced.setdefault(event.payload_ref, event)

    for event in schedule.events:
        needed = list(event.deps)
        if event.kind not in _PRODUCING_KINDS and event.payload_ref is not None:
            needed.append(event.payload_ref)
        position = topology.position_of(event.actor)
        for ref in needed:
            source = produced.get(ref)
            if source is None:
                violations.append(
                    Violation(
                        "missing_producer",
                        ref,
                        f"{event.kind} at {event.actor} t={event.time} consumes "
                        f"{ref!r} which no event produces",
                    )
                )
                continue
            bound = source.time + light_travel_time(
                topology.position_of(source.actor), position, topology.c
            )
            if event.time < bound - max(tol, 4 * math.ulp(bound)):
                violations.append(
                    Violation(
                        "dependency",
                        ref,
                        f"{event.kind} at {event.actor} t={event.time} consumes "
                        f"{ref!r} produced at {source.actor} t={source.time}; "
                        f"light bound is t={bound}",
                    )
                )
    return AuditReport(tuple(violations))
