"""JSON wire formats for transcripts, schedules, reports and statistics.

One transcript is one JSON object (one line in JSONL streams).  Field
names are part of the package contract:

* pair labels: ``{"i": 0, "j": 1}``
* probe states: ``{"basis": "Z", "value": 0}``
* stored bits: ``{"alice": 0, "bob": null, "alice_mid": null}``
* announcements: ``{"alice_label": ..., "bob_label": ..., "teleport_outcome": ...}``
* schedule events: ``{"actor", "time", "kind", "payload_ref", "deps"}``

Schedule, strategy, report, label, probe-state, violation and
statistics documents are their dataclasses' fields, as
``dataclasses.asdict`` lays them out (tuples kept as tuples in memory),
so renaming a field of :class:`~relcommit.spacetime.Schedule`,
:class:`~relcommit.adversary.SecurityReport`, its rows,
:class:`~relcommit.adversary.Strategy` or
:class:`~relcommit.montecarlo.StatsSummary` changes the wire format.
Statistics go through ``asdict`` itself; one encoder
(:func:`_document`) writes all the others.  It skips the deep copy
``asdict`` makes of every leaf, which makes ``asdict`` take about six
times as long on a report or a string schedule: some 0.3 ms more on
each ``run`` file written and read back.

Serialization is deterministic: keys sorted, compact separators, floats
in shortest round-trip form, so equal values serialize to equal bytes.
One line encoder writes the lines of ``relcommit run`` (through
:func:`write_draws`) and the branches of ``relcommit enumerate``: it
encodes each drawn branch once, by a hand-written encoder of those
same bytes (:func:`_template`, no ``json.dumps``), the schedule its
table shares once per table, and splices each draw's pair index into
the branch's text, byte for byte :func:`serialize_transcript` of the
draw; both commands hand their stream the text in blocks of about 128
KiB (:func:`_write_blocks`).  :func:`serialize_transcript` and
:func:`parse_transcript` stay on ``json``, the reference the line codec
is tested against.

Readers check JSON types as well as values: bits are the integers 0
and 1 (not ``true`` or ``1.0``), flags are booleans, probabilities
finite numbers, a pair index a non-negative integer or null, and a
schedule and its ``phase_times`` objects.  A parsed pair label or probe
state is the shared member of ``BELL_LABELS`` or ``BASIS_STATES``.
:func:`read_transcripts` parses the schedule text a stream repeats
once, and decodes each distinct branch once: a line holding the last
schedule text parsed in full is keyed on its text without that text
and without its pair index, one pattern of the writer's exact layout
must match the key, and each field reads by lookup in a table built
from the writer's own spellings.  Later lines of that branch take its
transcript with their own pair index.  Every line still reads as
:func:`parse_transcript` of it, and fails with the same message.
"""

from __future__ import annotations

import json
import marshal
import math
import re
from functools import lru_cache
from typing import IO, Iterable, Iterator, Sequence

from .adversary import ExtractionRow, SecurityReport, Strategy, StrategyRow
from .protocol import SchemeParams, Transcript, Verdict, _with_pair_index, parse_phi_policy
from .quantum import BASIS_STATES, BELL_LABELS, BasisStateSpec, BellLabel
from .spacetime import SCHEMES, Message, PhaseTimes, Schedule, SpacetimeEvent

__all__ = [
    "TranscriptParseError",
    "serialize_transcript",
    "parse_transcript",
    "transcript_to_json",
    "transcript_from_json",
    "schedule_to_json",
    "schedule_from_json",
    "strategy_to_json",
    "strategy_from_json",
    "report_to_json",
    "report_from_json",
    "write_draws",
    "read_transcripts",
    "dumps",
]


class TranscriptParseError(ValueError):
    """A transcript document is missing or mangling a required field."""


def dumps(doc) -> str:
    """Canonical JSON encoding used across the package."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


# the types of most values met, returned before ``hasattr``, which is slow on a miss
_LEAVES = frozenset((str, int, float, bool, type(None)))


def _document(value):
    """``dataclasses.asdict(value)``, without its deep copy of each leaf.

    A dataclass instance maps to a dict of its fields, read from its
    ``__dict__``; a tuple or list to one of the same type, item by
    item; anything else (a str, a number, numpy's too, or None) is
    returned as it is.
    """
    kind = type(value)
    if kind in _LEAVES:
        return value
    if kind is tuple or kind is list:
        # a tuple built from a list: ``tuple(map(...))`` grows it in steps,
        # which left the ``transcripts`` benchmark about 1 MB more resident
        return kind([_document(item) for item in value])
    if hasattr(kind, "__dataclass_fields__"):
        return {field: _document(item) for field, item in value.__dict__.items()}
    return value


schedule_to_json = strategy_to_json = report_to_json = _document


def _label_from_json(doc, field: str) -> BellLabel:
    if not isinstance(doc, dict) or "i" not in doc or "j" not in doc:
        raise TranscriptParseError(f"field {field!r} must be a label object with i and j")
    try:
        return BELL_LABELS[2 * _bit(doc, "i") + _bit(doc, "j")]
    except TranscriptParseError as exc:
        raise TranscriptParseError(f"field {field!r}: {exc}") from exc


# parsed labels and probes are these shared members, not fresh objects
_PROBES = {(spec.basis, spec.value): spec for spec in BASIS_STATES}


def _phi_from_json(doc, field: str) -> BasisStateSpec:
    if not isinstance(doc, dict) or "basis" not in doc or "value" not in doc:
        raise TranscriptParseError(f"field {field!r} must have basis and value")
    try:
        return _PROBES[_choice(doc, "basis", ("Z", "X")), _bit(doc, "value")]
    except TranscriptParseError as exc:
        raise TranscriptParseError(f"field {field!r}: {exc}") from exc


def _require(doc: dict, field: str):
    if field not in doc:
        raise TranscriptParseError(f"missing field {field!r}")
    return doc[field]


def _bit(doc: dict, field: str, nullable: bool = False):
    """An integer 0 or 1: not ``true``, ``false`` or ``1.0``."""
    value = doc.get(field) if nullable else _require(doc, field)
    if (nullable and value is None) or (type(value) is int and value in (0, 1)):
        return value
    kind = "0, 1 or null" if nullable else "0 or 1"
    raise TranscriptParseError(f"field {field!r} must be {kind}, got {value!r}")


def _text(doc: dict, field: str, nullable: bool = False):
    value = doc.get(field) if nullable else _require(doc, field)
    if isinstance(value, str) or (nullable and value is None):
        return value
    kind = "a string or null" if nullable else "a string"
    raise TranscriptParseError(f"field {field!r} must be {kind}, got {value!r}")


def _event_from_json(doc: dict) -> SpacetimeEvent:
    deps = doc.get("deps", ())
    if not isinstance(deps, (list, tuple)) or not all(isinstance(ref, str) for ref in deps):
        raise TranscriptParseError(f"field 'deps' must be a list of strings, got {deps!r}")
    return SpacetimeEvent(_text(doc, "actor"), _number(doc, "time"), _text(doc, "kind"),
                          _text(doc, "payload_ref", nullable=True), tuple(deps))


def _message_from_json(doc: dict) -> Message:
    return Message(_text(doc, "sender"), _text(doc, "receiver"), _number(doc, "send_time"),
                   _number(doc, "arrival_time"), _text(doc, "channel"))


def _each(doc: dict, field: str, parse) -> tuple:
    """``parse`` of every row of list ``field``, naming the row of a bad value."""
    out = []
    for k, row in enumerate(_rows(doc, field)):
        try:
            out.append(parse(row))
        except TranscriptParseError as exc:
            raise TranscriptParseError(f"{field}[{k}]: {exc}") from exc
    return tuple(out)


@lru_cache(maxsize=64)
def _schedule_from_marshal(key: bytes) -> Schedule:
    doc = marshal.loads(key)
    try:
        phases = _require(doc, "phase_times")
        if not isinstance(phases, dict):
            raise TranscriptParseError(
                f"field 'phase_times' must be an object, got {type(phases).__name__}"
            )
        return Schedule(
            _choice(doc, "scheme", SCHEMES),
            _number(doc, "x"),
            _number(doc, "c"),
            PhaseTimes(*(_number(phases, at) for at in ("commit", "confirm", "store", "reveal"))),
            _each(doc, "events", _event_from_json),
            _each(doc, "messages", _message_from_json),
        )
    except TranscriptParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise TranscriptParseError(f"bad schedule document: {exc}") from exc


def schedule_from_json(doc: dict) -> Schedule:
    """Inverse of :func:`schedule_to_json`, checking every field's type.

    :func:`read_transcripts` splices a stream's repeated schedule text
    out of its lines, so this serves single lines, schedule files and
    lines not in canonical form.  Each distinct document is still
    checked and built once.  Documents are told apart by value, type
    and key order: by their ``marshal`` bytes in format 2, which keep
    what ``==`` conflates (``true`` and ``1``, ``1`` and ``1.0``,
    ``-0.0`` and ``0.0``) and, unlike later formats, write no
    back-references, so a document keys alike however often its parts
    are referenced elsewhere.
    """
    if not isinstance(doc, dict):
        raise TranscriptParseError(f"schedule must be an object, got {type(doc).__name__}")
    try:
        key = marshal.dumps(doc, 2)
    except ValueError as exc:
        raise TranscriptParseError(f"bad schedule document: {exc}") from exc
    return _schedule_from_marshal(key)


def transcript_to_json(transcript: Transcript) -> dict:
    return {
        "scheme": transcript.scheme,
        "alice_label": _document(transcript.alice_label),
        "bob_label": _document(transcript.bob_label),
        "swap_outcome": _document(transcript.swap_outcome),
        "teleport_outcome": _document(transcript.teleport_outcome),
        "phi": _document(transcript.phi),
        "stored_bits": {
            "alice": transcript.stored_alice_bit,
            "bob": transcript.stored_bob_bit,
            "alice_mid": transcript.alice_mid_measurement,
        },
        "announcements": {
            "alice_label": _document(transcript.announced_alice_label),
            "bob_label": _document(transcript.announced_bob_label),
            "teleport_outcome": _document(transcript.announced_teleport_outcome),
        },
        "pair_index": transcript.pair_index,
        "probability": transcript.probability,
        "verdict": _document(transcript.verdict),
        "schedule": schedule_to_json(transcript.schedule),
    }


def transcript_from_json(doc: dict) -> Transcript:
    """Inverse of :func:`transcript_to_json`, checking every field's type.

    Once each field reads, the record must agree with itself (see
    :func:`_agreement`).
    """
    if not isinstance(doc, dict):
        raise TranscriptParseError(f"transcript must be an object, got {type(doc).__name__}")
    stored = _require(doc, "stored_bits")
    if not isinstance(stored, dict) or "alice" not in stored:
        raise TranscriptParseError("field 'stored_bits' must carry at least the alice bit")
    announcements = {} if doc.get("announcements") is None else doc["announcements"]
    if not isinstance(announcements, dict):
        raise TranscriptParseError(
            f"field 'announcements' must be an object or null, got {announcements!r}"
        )

    def opt_label(container: dict, field: str, qualified: str):
        value = container.get(field)
        return None if value is None else _label_from_json(value, qualified)

    verdict_doc = doc.get("verdict")
    verdict = None
    if verdict_doc is not None:
        if not isinstance(verdict_doc, dict):
            raise TranscriptParseError("field 'verdict' must be an object or null")
        verdict = Verdict(_flag(verdict_doc, "accept"), _text(verdict_doc, "reason"))
    pair_index = doc.get("pair_index")
    if pair_index is not None and (type(pair_index) is not int or pair_index < 0):
        raise TranscriptParseError(
            f"field 'pair_index' must be a non-negative integer or null, got {pair_index!r}"
        )
    try:
        transcript = Transcript(
            scheme=_choice(doc, "scheme", SCHEMES),
            alice_label=_label_from_json(_require(doc, "alice_label"), "alice_label"),
            bob_label=_label_from_json(_require(doc, "bob_label"), "bob_label"),
            swap_outcome=_label_from_json(_require(doc, "swap_outcome"), "swap_outcome"),
            teleport_outcome=_label_from_json(
                _require(doc, "teleport_outcome"), "teleport_outcome"
            ),
            phi=_phi_from_json(_require(doc, "phi"), "phi"),
            stored_alice_bit=_bit(stored, "alice"),
            stored_bob_bit=_bit(stored, "bob", nullable=True),
            alice_mid_measurement=_bit(stored, "alice_mid", nullable=True),
            announced_alice_label=opt_label(announcements, "alice_label", "announcements.alice_label"),
            announced_bob_label=opt_label(announcements, "bob_label", "announcements.bob_label"),
            announced_teleport_outcome=opt_label(
                announcements, "teleport_outcome", "announcements.teleport_outcome"
            ),
            pair_index=pair_index,
            probability=_number(doc, "probability"),
            schedule=schedule_from_json(_require(doc, "schedule")),
            verdict=verdict,
        )
    except TranscriptParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise TranscriptParseError(f"bad transcript document: {exc}") from exc
    return _agreement(transcript)


def _agreement(transcript: Transcript) -> Transcript:
    """``transcript``, once it agrees with itself; else the first disagreement as an error.

    Its scheme is its schedule's; it stores the second committer's bit
    and the committer's mid-protocol bit in the multi scheme only; and
    only there does it hold the second committer's announcements.
    """
    scheme = transcript.scheme
    if transcript.schedule.scheme != scheme:
        raise TranscriptParseError(
            f"field 'scheme' is {scheme!r} but its schedule is {transcript.schedule.scheme!r}"
        )
    multi = scheme == "multi"
    for field, bit in (("bob", transcript.stored_bob_bit),
                       ("alice_mid", transcript.alice_mid_measurement)):
        if (bit is None) == multi:
            raise TranscriptParseError(
                f"field 'stored_bits.{field}' must be {'a bit' if multi else 'null'} "
                f"in the {scheme} scheme, got {bit!r}"
            )
    for field, label in (("bob_label", transcript.announced_bob_label),
                         ("teleport_outcome", transcript.announced_teleport_outcome)):
        if label is not None and not multi:
            raise TranscriptParseError(
                f"field 'announcements.{field}' must be null in the {scheme} scheme, got {label}"
            )
    return transcript


def serialize_transcript(transcript: Transcript) -> str:
    """One transcript as one deterministic JSON line."""
    return dumps(transcript_to_json(transcript))


def parse_transcript(text: str) -> Transcript:
    """Inverse of :func:`serialize_transcript`; lossless round trip."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep is invalid too
        raise TranscriptParseError(f"not valid JSON: {exc}") from exc
    return transcript_from_json(doc)


_string = json.encoder.encode_basestring_ascii  # the string encoder of ``dumps``


def _label_text(label: BellLabel | None) -> str:
    return "null" if label is None else f'{{"i":{label.i},"j":{label.j}}}'


def _bit_text(bit: int | None) -> str:
    return "null" if bit is None else f"{bit}"


def _phi_text(spec: BasisStateSpec) -> str:
    return f'{{"basis":{_string(spec.basis)},"value":{spec.value}}}'


def _flag_text(flag: bool) -> str:
    return "true" if flag else "false"


def _template(transcript: Transcript) -> tuple[str, str, str]:
    """The text of ``transcript`` around its pair index and schedule: ``(head, middle, tail)``.

    ``f"{head}{index}{middle}{K}{tail}"`` is :func:`serialize_transcript`
    of the transcript with pair index text ``index`` and schedule text
    ``K``, byte for byte, for what a branch table holds: Python ints
    for bits and label and probe values, a bool verdict flag and a
    finite float weight.  The keys are written in :func:`dumps`' sorted
    order, as :data:`_LAYOUT` lays out ``head + middle + tail`` for the
    reader; strings go through ``dumps``' own ASCII string encoder and
    the weight through ``float.__repr__``, as in ``dumps``.
    """
    t = transcript
    verdict = t.verdict
    head = (f'{{"alice_label":{_label_text(t.alice_label)},'
            f'"announcements":{{"alice_label":{_label_text(t.announced_alice_label)},'
            f'"bob_label":{_label_text(t.announced_bob_label)},'
            f'"teleport_outcome":{_label_text(t.announced_teleport_outcome)}}},'
            f'"bob_label":{_label_text(t.bob_label)},"pair_index":')
    middle = (f',"phi":{_phi_text(t.phi)},'
              f'"probability":{float.__repr__(t.probability)},"schedule":')
    tail = (f',"scheme":{_string(t.scheme)},'
            f'"stored_bits":{{"alice":{_bit_text(t.stored_alice_bit)},'
            f'"alice_mid":{_bit_text(t.alice_mid_measurement)},'
            f'"bob":{_bit_text(t.stored_bob_bit)}}},'
            f'"swap_outcome":{_label_text(t.swap_outcome)},'
            f'"teleport_outcome":{_label_text(t.teleport_outcome)},"verdict":'
            + ("null}" if verdict is None else
               f'{{"accept":{_flag_text(verdict.accept)},'
               f'"reason":{_string(verdict.reason)}}}}}'))
    return head, middle, tail


def _lines(table: Sequence[Transcript],
           draws: Iterable[tuple[int, int | None]]) -> Iterator[tuple[int, str]]:
    """``(branch, text)`` per draw ``(branch, pair_index)`` of ``table``, as drawn.

    Each text is :func:`serialize_transcript` of ``table[branch]`` with
    ``pair_index`` set, byte for byte; but each branch is encoded once,
    on its first draw, by :func:`_template`, with the schedule its
    branches share encoded once, and later draws splice their pair
    index into that template.
    """
    schedules: dict[int, str] = {}  # the text of each schedule met so far, by id
    templates: list[tuple[str, str] | None] = [None] * len(table)
    for branch, k in draws:
        template = templates[branch]
        if template is None:
            transcript = table[branch]
            key = id(transcript.schedule)
            if key not in schedules:
                schedules[key] = dumps(schedule_to_json(transcript.schedule))
            head, middle, tail = _template(transcript)
            template = templates[branch] = (head, f"{middle}{schedules[key]}{tail}")
        head, rest = template
        yield branch, f"{head}{'null' if k is None else k}{rest}"


_BLOCK = 2**17  # characters that :func:`_write_blocks` gathers for one write


def _write_blocks(stream: IO[str], pieces: Iterable[str]) -> None:
    """Write ``pieces`` to ``stream`` in order, joined into blocks.

    A block closes once it holds at least :data:`_BLOCK` characters, so
    each ``stream.write`` but the last takes one block of about 128 KiB,
    however the stream buffers: the output is written as it is encoded,
    in a few hundred kilobytes of memory, with a few system calls.
    """
    block: list[str] = []
    size = 0
    for piece in pieces:
        block.append(piece)
        size += len(piece)
        if size >= _BLOCK:
            stream.write("".join(block))
            block.clear()
            size = 0
    if block:
        stream.write("".join(block))


def write_draws(
    stream: IO[str], table: Sequence[Transcript], draws: Iterable[tuple[int, int | None]]
) -> list[int]:
    """Write one JSONL line per draw ``(branch, pair_index)`` of ``table``, as drawn.

    Each line is :func:`serialize_transcript` of the draw, from the line
    encoder :func:`_lines`; the lines go out in blocks of about 128 KiB
    (:func:`_write_blocks`).  Returns the number of lines of each branch.
    """
    lines = [0] * len(table)

    def pieces() -> Iterator[str]:
        for branch, text in _lines(table, draws):
            lines[branch] += 1
            yield text
            yield "\n"

    _write_blocks(stream, pieces())
    return lines


# The reader's lookup tables: every spelling of a field that the writer
# can write, and the value it reads as; null only where the full parse
# takes it.  Each transcript field spelled by lookup has its table here.
_LABELS = {_label_text(label): label for label in BELL_LABELS}
_BITS = {_bit_text(bit): bit for bit in (0, 1)}
_FLAGS = {_flag_text(flag): flag for flag in (True, False)}
_LOOKUPS = {
    **dict.fromkeys(("alice_label", "bob_label", "swap_outcome", "teleport_outcome"), _LABELS),
    **dict.fromkeys(("announced_alice_label", "announced_bob_label", "announced_teleport_outcome"),
                    {**_LABELS, _label_text(None): None}),
    "stored_alice_bit": _BITS,
    **dict.fromkeys(("stored_bob_bit", "alice_mid_measurement"), {**_BITS, _bit_text(None): None}),
    "phi": {_phi_text(spec): spec for spec in BASIS_STATES},
    "scheme": {_string(scheme): scheme for scheme in SCHEMES},
}
# a pair index token: the JSON of null or of a non-negative integer of at
# most 18 digits, far from the 4,300 that ``int`` refuses; a longer one
# takes the full parse
_PAIR_INDEX = re.compile("0|[1-9][0-9]{0,17}|null")
# a JSON number with a fraction or an exponent, which ``json.loads``
# reads as ``float`` of it
_PROBABILITY = r"(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
# a string as ``_string`` writes it, unless it holds a control character:
# printable ASCII, the escapes \" and \\, and \uXXXX of any other character
_REASON = r'"(?:[ !#-\[\]-~]|\\["\\]|\\u(?!00[01])[0-9a-f]{4})*"'
_INDEX_KEY = '"pair_index":'
_SCHEDULE_KEY = '"schedule":'
# JSON's whitespace: ``str.strip()`` would also take "\xa0", "\x0c",
# "\x1f" or "\u2028", which ``json.loads`` refuses
_JSON_SPACE = " \t\n\r"
_BODIES = 1024  # most distinct branches that one read keeps


# The layout of a line's key (see :func:`_branch_key`) as :func:`_template`
# writes it (its f-strings stay, being three times as fast as
# ``str.format``; tests hold the two together): the line with its pair
# index token and schedule text cut out.  Each ``{field}`` stands for that
# field's spelling, which :func:`_pattern` matches.
_LAYOUT = ('{{"alice_label":{alice_label},"announcements":{{"alice_label":{announced_alice_label},'
           '"bob_label":{announced_bob_label},"teleport_outcome":{announced_teleport_outcome}}},'
           '"bob_label":{bob_label},"pair_index":,"phi":{phi},"probability":{probability},'
           '"schedule":,"scheme":{scheme},"stored_bits":{{"alice":{stored_alice_bit},'
           '"alice_mid":{alice_mid_measurement},"bob":{stored_bob_bit}}},'
           '"swap_outcome":{swap_outcome},"teleport_outcome":{teleport_outcome},'
           '"verdict":{verdict}}}')
_VERDICT = '{{"accept":{accept},"reason":{reason}}}'


def _regex(layout: str, groups: dict[str, str]) -> str:
    """``layout`` as a regex: its text as it stands, each ``{field}`` the group ``groups[field]``."""
    parts = layout.format_map({field: f"\0{field}\0" for field in groups}).split("\0")
    parts[::2] = map(re.escape, parts[::2])
    parts[1::2] = (f"(?P<{field}>{groups[field]})" for field in parts[1::2])
    return "".join(parts)


@lru_cache(maxsize=None)
def _pattern() -> re.Pattern:
    """The writer's key of a branch, :data:`_LAYOUT`, as a pattern.

    Each field's group matches exactly the spellings in its lookup
    table, so every group a match holds reads by lookup.  Compiled on
    first use, which keeps it out of the import.
    """
    groups = {field: "|".join(map(re.escape, table)) for field, table in _LOOKUPS.items()}
    groups.update(
        probability=_PROBABILITY,
        verdict="null|" + _regex(_VERDICT, {"accept": "|".join(_FLAGS), "reason": _REASON}),
    )
    return re.compile(_regex(_LAYOUT, groups))


def _branch_key(line: str, known: str) -> tuple[str, int | None] | None:
    """``line`` without its pair index token and schedule text ``known``, and that index; or None.

    The index token (:data:`_PAIR_INDEX`) follows the first
    ``"pair_index":``, and ``known`` the first ``"schedule":`` after
    it.  None when either is not there.
    """
    at = line.find(_INDEX_KEY) + len(_INDEX_KEY)
    token = _PAIR_INDEX.match(line, at) if at >= len(_INDEX_KEY) else None
    if token is None:
        return None
    end = token.end()
    schedule = line.find(_SCHEDULE_KEY, end) + len(_SCHEDULE_KEY)
    if schedule < len(_SCHEDULE_KEY) or not line.startswith(known, schedule):
        return None
    key = f"{line[:at]}{line[end:schedule]}{line[schedule + len(known):]}"
    return key, None if token[0] == "null" else int(token[0])


def _decoded(key: str, schedule: Schedule, pair_index: int | None) -> Transcript | None:
    """The transcript that ``key`` spells in :data:`_LAYOUT`, with ``schedule`` and ``pair_index``.

    None for any other key, and for one whose fields fail a check,
    which the full parse names.
    """
    spelled = _pattern().fullmatch(key)
    if spelled is None:
        return None
    reason = spelled["reason"]
    transcript = object.__new__(Transcript)
    transcript.__dict__.update(
        {field: table[spelled[field]] for field, table in _LOOKUPS.items()},
        probability=float(spelled["probability"]),
        schedule=schedule,
        pair_index=pair_index,
        verdict=None if reason is None else Verdict(
            _FLAGS[spelled["accept"]], json.loads(reason) if "\\" in reason else reason[1:-1]
        ),
    )
    try:
        transcript.__post_init__()  # ``__init__``'s checks, without its frozen assignments
        return _agreement(transcript)
    except ValueError:
        return None


def read_transcripts(stream: IO[str]) -> list[Transcript]:
    """Read a JSONL transcript stream, reporting the line of any error.

    Each line reads as :func:`parse_transcript` of it, stripped of JSON
    whitespace (blank lines are skipped), and fails with the same
    message.  Every line of a ``run`` file repeats one schedule, and
    most repeat a branch drawn before, so neither is parsed again.
    After a line parses in full, the canonical text ``K`` of its
    schedule is kept.  A later line's key is its text without its pair
    index token and ``K`` (see :func:`_branch_key`).  The first line of
    a key is decoded from the key by :func:`_decoded`: one pattern of
    the writer's layout must match the key whole, and each field reads
    by lookup in a table of the writer's own spellings.  Later lines of
    the key take its transcript with their own pair index (equal lines
    share one transcript).  That is sound:

    * a key the pattern accepts fixes every line cut to it but for the
      index token.  In the writer's layout only labels and keys come
      before ``"pair_index":``, and only fixed spellings lie between it
      and ``"schedule":``.  So a line's first ``"pair_index":``, where
      its key was cut, is the layout's, and so is the first
      ``"schedule":`` after the token, where ``K`` was found: the line
      is the encoder's spelling of exactly the fields the tables give,
      with its own index token and ``K`` in place, and
      ``json.loads(line)`` is that record;
    * each group is one JSON value and reads as ``json.loads`` reads
      it: a weight has a fraction or an exponent, so ``float`` of it is
      ``json.loads`` of it, and a reason with a backslash goes through
      ``json.loads``.  The schedule is ``json.loads(K)``, which parses
      to the kept schedule, and the index token is one complete value,
      a valid pair index, which no other check reads.  The transcript
      is then checked as :func:`transcript_from_json` checks it.

    Only keys whose transcript was decoded are kept, at most 1024, and
    none outlives the schedule it was read with.  Any other line, and
    any decoded line whose fields fail a check, is read by
    :func:`parse_transcript` itself.
    """
    out = []
    known, schedule = "", None  # the schedule of the last line parsed in full, as text and built
    branches: dict[str, Transcript] = {}  # the transcript of each key decoded with that schedule
    for line_number, line in enumerate(stream, start=1):
        line = line.strip(_JSON_SPACE)
        if not line:
            continue
        try:
            cut = None if schedule is None else _branch_key(line, known)
            if cut is not None:
                key, pair_index = cut
                transcript = branches.get(key)
                if transcript is None:
                    transcript = _decoded(key, schedule, pair_index)
                    if transcript is not None:
                        if len(branches) == _BODIES:
                            branches.clear()
                        branches[key] = transcript
                if transcript is not None:
                    if transcript.pair_index != pair_index:
                        transcript = _with_pair_index(transcript, pair_index)
                    out.append(transcript)
                    continue
            transcript = parse_transcript(line)
        except TranscriptParseError as exc:
            raise TranscriptParseError(f"line {line_number}: {exc}") from exc
        if transcript.schedule is not schedule:
            schedule = transcript.schedule
            known = dumps(schedule_to_json(schedule))
            branches.clear()
        out.append(transcript)
    return out


def strategy_from_json(doc: dict) -> Strategy:
    if not isinstance(doc, dict):
        raise TranscriptParseError("strategy must be an object")
    delta = doc.get("delta")
    try:
        return Strategy(
            role=_require(doc, "role"),
            kind=_require(doc, "kind"),
            delta=None if delta is None else _label_from_json(delta, "delta"),
            basis=_text(doc, "basis", nullable=True),
        )
    except ValueError as exc:
        raise TranscriptParseError(f"bad strategy document: {exc}") from exc


def _number(doc: dict, field: str, nullable: bool = False):
    value = _require(doc, field)
    if nullable and value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise TranscriptParseError(f"field {field!r} must be a finite number, got {value!r}")
    return value


def _choice(doc: dict, field: str, choices: tuple[str, ...]) -> str:
    value = _require(doc, field)
    if value not in choices:
        raise TranscriptParseError(f"field {field!r} must be one of {list(choices)}, got {value!r}")
    return value


def _flag(doc: dict, field: str, nullable: bool = False) -> bool | None:
    value = _require(doc, field)
    if isinstance(value, bool) or (nullable and value is None):
        return value
    kind = "true, false or null" if nullable else "true or false"
    raise TranscriptParseError(f"field {field!r} must be {kind}, got {value!r}")


def _rows(doc: dict, field: str) -> Iterable[dict]:
    rows = _require(doc, field)
    if not isinstance(rows, (list, tuple)) or not all(isinstance(row, dict) for row in rows):
        raise TranscriptParseError(f"field {field!r} must be a list of objects")
    return rows


def _scanned_params(doc: dict) -> SchemeParams:
    """The instance a scan header names, judged by :class:`SchemeParams` itself."""
    n_pairs = _require(doc, "n_pairs")
    if isinstance(n_pairs, bool) or not isinstance(n_pairs, int):
        raise TranscriptParseError(f"field 'n_pairs' must be an integer, got {n_pairs!r}")
    phi_policy = _choice(doc, "phi_policy", ("uniform", *map(str, BASIS_STATES)))
    try:
        return SchemeParams(
            scheme=_require(doc, "scheme"),
            n_pairs=n_pairs,
            phi_policy=parse_phi_policy(phi_policy),
            validation_mode=_require(doc, "mode"),
        )
    except ValueError as exc:
        raise TranscriptParseError(f"bad scan header: {exc}") from exc


def _row_strategy(row: dict, role: str) -> Strategy:
    strategy = strategy_from_json(_require(row, "strategy"))
    if strategy.role != role:
        raise TranscriptParseError(
            f"field 'strategy' must be a {role} strategy, got {strategy.describe()}"
        )
    return strategy


def report_from_json(doc: dict) -> SecurityReport:
    """Inverse of :func:`report_to_json`, checking every field's type.

    Takes the document in memory (rows as tuples) or parsed from JSON
    (rows as lists).  The header (``scheme``, ``mode``, ``phi_policy``
    and an integer ``n_pairs``) must describe an instance that
    :class:`~relcommit.protocol.SchemeParams` accepts.  Probabilities
    must be finite numbers; ``claimed_acceptance``, ``agrees`` and
    ``extraction_guess_probability`` may be null.  ``strategy_rows``
    must hold committer strategies and ``extraction_rows`` receiver
    strategies; an error names the row.
    """
    if not isinstance(doc, dict):
        raise TranscriptParseError("scan document must be an object")
    params = _scanned_params(doc)
    return SecurityReport(
        scheme=params.scheme,
        mode=params.validation_mode,
        phi_policy=str(params.phi_policy),
        n_pairs=params.n_pairs,
        strategy_rows=_each(doc, "strategy_rows", lambda row: StrategyRow(
            _row_strategy(row, "committer"),
            _number(row, "acceptance_probability"),
            _number(row, "worst_case_acceptance"),
            _number(row, "detection_probability"),
            _number(row, "claimed_acceptance", nullable=True),
            _flag(row, "agrees", nullable=True),
        )),
        extraction_rows=_each(doc, "extraction_rows", lambda row: ExtractionRow(
            _row_strategy(row, "receiver"),
            _number(row, "guess_probability"),
            _number(row, "claimed_guess"),
            _flag(row, "agrees", nullable=True),
        )),
        concealment_tv=_number(doc, "concealment_tv"),
        extraction_guess_probability=_number(doc, "extraction_guess_probability", nullable=True),
    )
