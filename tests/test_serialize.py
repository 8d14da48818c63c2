"""Wire format tests: lossless round trips and deterministic bytes."""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relcommit import serialize
from relcommit.adversary import _DEFAULT_COMMITTER, _DEFAULT_RECEIVER, Strategy, build_report
from relcommit.cli import cli_main
from relcommit.montecarlo import RunConfig, monte_carlo, sample_branches
from relcommit.protocol import SchemeParams, Transcript, Verdict, _with_pair_index, run_pairs
from relcommit.quantum import BASIS_STATES, BELL_LABELS, BellLabel
from relcommit.serialize import (
    TranscriptParseError,
    dumps,
    parse_transcript,
    read_transcripts,
    report_from_json,
    report_to_json,
    schedule_from_json,
    schedule_to_json,
    serialize_transcript,
    strategy_from_json,
    strategy_to_json,
    transcript_to_json,
)
from relcommit.spacetime import SCHEMES, audit, standard_schedule

import dataclasses


def sample_transcripts():
    single = run_pairs(SchemeParams("single"), [BellLabel(1, 0)])[0]
    multi = run_pairs(SchemeParams("multi", bob_label=BellLabel(1, 1)), [BellLabel(0, 1)])[0]
    string = [t for pair in run_pairs(SchemeParams("string", n_pairs=2), [BellLabel(0, 0)] * 2)
              for t in pair]
    return single + multi[:8] + string[:8]


class TestTranscriptRoundTrip:
    def test_lossless_for_every_scheme(self):
        for t in sample_transcripts():
            assert parse_transcript(serialize_transcript(t)) == t

    def test_round_trip_preserves_verdict(self):
        t = run_pairs(SchemeParams("single"), [BellLabel(0, 0)])[0][0]
        t = dataclasses.replace(t, verdict=Verdict.aborted("stored bit 1 != expected 0"))
        parsed = parse_transcript(serialize_transcript(t))
        assert parsed.verdict == t.verdict

    def test_bytes_are_deterministic(self):
        t = run_pairs(SchemeParams("single"), [BellLabel(1, 1)])[0][3]
        assert serialize_transcript(t) == serialize_transcript(t)
        # keys sorted at every level
        doc = json.loads(serialize_transcript(t))
        assert list(doc) == sorted(doc)

    def test_missing_field_is_named(self):
        t = run_pairs(SchemeParams("single"), [BellLabel(0, 0)])[0][0]
        doc = json.loads(serialize_transcript(t))
        del doc["swap_outcome"]
        with pytest.raises(TranscriptParseError, match="swap_outcome"):
            parse_transcript(dumps(doc))

    def test_bad_bit_rejected(self):
        t = run_pairs(SchemeParams("single"), [BellLabel(0, 0)])[0][0]
        doc = json.loads(serialize_transcript(t))
        doc["stored_bits"]["alice"] = 7
        with pytest.raises(TranscriptParseError):
            parse_transcript(dumps(doc))

    def test_bad_label_bits_rejected(self):
        t = run_pairs(SchemeParams("single"), [BellLabel(0, 0)])[0][0]
        doc = json.loads(serialize_transcript(t))
        doc["alice_label"] = {"i": 3, "j": 0}
        with pytest.raises(TranscriptParseError, match="alice_label"):
            parse_transcript(dumps(doc))

    def test_not_json(self):
        with pytest.raises(TranscriptParseError):
            parse_transcript("{nope")

    def test_nesting_too_deep_is_not_json(self):
        # json.loads raises RecursionError, not JSONDecodeError, on this
        with pytest.raises(TranscriptParseError, match="^not valid JSON: "):
            parse_transcript("[" * 100000)

    @pytest.mark.parametrize("path,value", [
        ("verdict.accept", "no"),
        ("verdict.accept", None),
        ("verdict.reason", 5),
        ("alice_label.i", True),
        ("swap_outcome.j", 1.0),
        ("announcements.alice_label.j", False),
        ("phi.value", True),
        ("stored_bits.alice", True),
        ("stored_bits.bob", True),
        ("stored_bits.alice_mid", "1"),
        ("probability", True),
        ("pair_index", "x"),
        ("pair_index", -1),
        ("pair_index", 1.0),
        ("scheme", "nonsense"),
        ("announcements", [1]),
        ("announcements", "x"),
        ("announcements", 5),
    ])
    def test_mistyped_field_named(self, path, value):
        t = run_pairs(SchemeParams("string", n_pairs=2), [BellLabel(0, 0)] * 2)[1][0]
        t = dataclasses.replace(t, announced_alice_label=BellLabel(0, 1),
                                verdict=Verdict.accepted())
        doc = json.loads(serialize_transcript(t))
        assert parse_transcript(dumps(doc)) == t
        *parents, field = path.split(".")
        container = doc
        for key in parents:
            container = container[key]
        container[field] = value
        with pytest.raises(TranscriptParseError, match=f"'{field}'"):
            parse_transcript(dumps(doc))


class TestSharedValues:
    def test_parsed_labels_and_probes_are_shared_members(self):
        stamped = [dataclasses.replace(t, announced_alice_label=BellLabel(1, 1))
                   for t in sample_transcripts()]
        labels = ("alice_label", "bob_label", "swap_outcome", "teleport_outcome",
                  "announced_alice_label", "announced_bob_label", "announced_teleport_outcome")
        for t in stamped:
            parsed = parse_transcript(serialize_transcript(t))
            assert parsed == t
            for field in labels:
                value = getattr(parsed, field)
                assert value is None or any(value is label for label in BELL_LABELS), field
            assert any(parsed.phi is spec for spec in BASIS_STATES)
        delta = strategy_from_json(strategy_to_json(Strategy.relabel_announce(BellLabel(0, 1))))
        assert delta.delta is BELL_LABELS[1]

    @pytest.mark.parametrize("value", [True, 1.0, 2], ids=["true", "1.0", "2"])
    @pytest.mark.parametrize("field,bit", [
        ("alice_label", "i"), ("swap_outcome", "j"), ("phi", "value"),
    ])
    def test_bits_still_refused(self, field, bit, value):
        doc = json.loads(serialize_transcript(sample_transcripts()[0]))
        doc[field][bit] = value
        with pytest.raises(TranscriptParseError) as caught:
            parse_transcript(dumps(doc))
        assert str(caught.value) == f"field {field!r}: field {bit!r} must be 0 or 1, got {value!r}"


class TestJsonl:
    def test_stream_round_trip(self):
        transcripts = sample_transcripts()
        buffer = io.StringIO("".join(serialize_transcript(t) + "\n" for t in transcripts))
        assert buffer.getvalue().count("\n") == len(transcripts)
        assert read_transcripts(buffer) == transcripts

    def test_blank_lines_skipped(self):
        t = run_pairs(SchemeParams("single"), [BellLabel(0, 0)])[0][0]
        payload = serialize_transcript(t) + "\n\n" + serialize_transcript(t) + "\n"
        assert len(read_transcripts(io.StringIO(payload))) == 2

    @pytest.mark.parametrize("space", ["\xa0", "\x0c", "\x1f", "\u2028"],
                             ids=["nbsp", "form-feed", "unit-separator", "line-separator"])
    def test_only_json_whitespace_stripped(self, space):
        # str.strip() takes these, json.loads does not
        line = serialize_transcript(sample_transcripts()[0])
        for payload in (f"{line}\n{space}{line}\n", f"{line}\n{space}\n"):
            with pytest.raises(TranscriptParseError, match="^line 2: not valid JSON"):
                read_transcripts(io.StringIO(payload))

    def test_nesting_too_deep_reports_line_number(self):
        line = serialize_transcript(sample_transcripts()[0])
        for payload, number in (("[" * 100000, 1), (f"{line}\n{'[' * 100000}\n", 2)):
            with pytest.raises(TranscriptParseError, match=f"^line {number}: not valid JSON: "):
                read_transcripts(io.StringIO(payload))

    def test_error_reports_line_number(self):
        t = run_pairs(SchemeParams("single"), [BellLabel(0, 0)])[0][0]
        payload = serialize_transcript(t) + "\n{\"scheme\": \"single\"}\n"
        with pytest.raises(TranscriptParseError, match="line 2"):
            read_transcripts(io.StringIO(payload))


# strings that stress a JSON string encoder: quotes, escapes, control
# characters, non-ASCII and the separators JavaScript refuses raw
REASONS = st.text(st.sampled_from('"\\/\0\1\x1f\x7f\u2028\u2029é€\U0001f600 a') | st.characters())


@st.composite
def table_transcripts(draw):
    """Transcripts of every shape a branch table holds, verdict and reason included."""
    scheme = draw(st.sampled_from(SCHEMES), label="scheme")
    labels = st.sampled_from(BELL_LABELS)
    optional_label = st.none() | labels
    optional_bit = st.none() | st.integers(0, 1)
    verdict = st.none() | st.builds(Verdict, st.booleans(), REASONS)
    return Transcript(
        scheme=scheme,
        alice_label=draw(labels), bob_label=draw(labels), swap_outcome=draw(labels),
        teleport_outcome=draw(labels), phi=draw(st.sampled_from(BASIS_STATES)),
        stored_alice_bit=draw(st.integers(0, 1)),
        probability=draw(st.floats(0.0, 1.0, exclude_min=True), label="probability"),
        schedule=standard_schedule(draw(st.sampled_from([1.0, 0.25])), 1.0, 10.0, scheme),
        stored_bob_bit=draw(optional_bit), alice_mid_measurement=draw(optional_bit),
        announced_alice_label=draw(optional_label), announced_bob_label=draw(optional_label),
        announced_teleport_outcome=draw(optional_label),
        verdict=draw(verdict, label="verdict"),
    )


# the property's shapes at their extremes: every optional field unset, then every one set
_BARE = Transcript(
    scheme="multi", alice_label=BELL_LABELS[0], bob_label=BELL_LABELS[1],
    swap_outcome=BELL_LABELS[2], teleport_outcome=BELL_LABELS[3], phi=BASIS_STATES[0],
    stored_alice_bit=0, probability=1.0, schedule=standard_schedule(1.0, 1.0, 10.0, "multi"))
_FULL = dataclasses.replace(
    _BARE, stored_bob_bit=1, alice_mid_measurement=0, announced_alice_label=BELL_LABELS[1],
    announced_bob_label=BELL_LABELS[2], announced_teleport_outcome=BELL_LABELS[3],
    verdict=Verdict.aborted('a "b" \\ \0 é \u2028'), probability=5e-324)


class TestLineTemplate:
    """``_template`` writes the bytes of ``dumps(transcript_to_json(t))``."""

    @settings(max_examples=300, deadline=None)
    @given(t=table_transcripts())
    @example(t=_BARE)
    @example(t=_FULL)
    def test_template_joins_to_the_json_encoding(self, t):
        head, middle, tail = serialize._template(t)
        schedule = dumps(schedule_to_json(t.schedule))
        for k in (None, 0, 10**6):
            expected = dumps(transcript_to_json(dataclasses.replace(t, pair_index=k)))
            assert f"{head}{'null' if k is None else k}{middle}{schedule}{tail}" == expected

    @settings(max_examples=300, deadline=None)
    @given(t=table_transcripts())
    @example(t=_BARE)
    @example(t=_FULL)
    def test_layout_reads_the_key_the_template_writes(self, t):
        # the key is the line less its pair index token and schedule text
        key = "".join(serialize._template(t))
        try:
            serialize._agreement(t)
            readable = t.verdict is None or all(c >= " " for c in t.verdict.reason)
        except TranscriptParseError:
            readable = False
        decoded = serialize._decoded(key, t.schedule, t.pair_index)
        assert decoded == (t if readable else None)
        for spaced in (key.replace('":', '": '), key.replace(",", ", ")):
            assert serialize._decoded(spaced, t.schedule, t.pair_index) is None


class WriteLog(io.StringIO):
    """A text stream that keeps the text of each ``write`` call."""

    def __init__(self):
        super().__init__()
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return super().write(text)


def reference_lines(table, draws) -> str:
    """The JSONL of ``draws`` of ``table``, one :func:`serialize_transcript` per line."""
    return "".join(serialize_transcript(_with_pair_index(table[branch], k)) + "\n"
                   for branch, k in draws)


class TestBlockWriter:
    """JSON lines reach the stream in blocks of about ``_BLOCK`` characters."""

    def test_run_writes_a_hundred_lines_in_three_blocks(self):
        table, draws = sample_branches(RunConfig(scheme="string", n_pairs=20, trials=5))
        draws = list(draws)
        stream = WriteLog()
        lines = serialize.write_draws(stream, table, draws)
        assert len(draws) == 100 and sum(lines) == 100
        assert stream.getvalue() == reference_lines(table, draws)
        assert len(stream.writes) <= 3
        assert all(len(text) >= serialize._BLOCK for text in stream.writes[:-1])

    def test_enumerate_writes_blocks_of_the_threshold(self, monkeypatch):
        stream = WriteLog()
        monkeypatch.setattr("sys.stdout", stream)
        assert cli_main(["enumerate", "--scheme", "string", "--n-pairs", "8",
                         "--phi", "uniform"]) == 0
        document = stream.getvalue()
        branches = json.loads(document)["branches"]
        assert len(branches) == 512
        # a block closes on the piece that reaches the threshold: at most one branch
        longest = max(len(dumps(branch)) for branch in branches)
        assert all(serialize._BLOCK <= len(text) < serialize._BLOCK + longest
                   for text in stream.writes[:-1])
        assert 1 < len(stream.writes) <= math.ceil(len(document) / serialize._BLOCK)

    @pytest.mark.parametrize("sizes,blocks", [
        ([2**16, 2**16, 1], [2**17, 1]),  # the threshold met exactly, then a new block
        ([2**16, 2**16], [2**17]),
        ([2**17 - 1, 1, 2**17 + 5, 3], [2**17, 2**17 + 5, 3]),
        ([5, 7], [12]),
        ([], []),
    ])
    def test_a_block_closes_at_the_threshold(self, sizes, blocks):
        pieces = [chr(ord("a") + n % 26) * size for n, size in enumerate(sizes)]
        stream = WriteLog()
        serialize._write_blocks(stream, iter(pieces))
        assert [len(text) for text in stream.writes] == blocks
        assert stream.getvalue() == "".join(pieces)

    def test_draw_lines_fill_a_block_exactly(self, monkeypatch):
        table, _ = sample_branches(RunConfig(scheme="single"))
        draws = [(0, None)] * 7
        line = reference_lines(table, draws[:1])
        monkeypatch.setattr(serialize, "_BLOCK", 3 * len(line))
        stream = WriteLog()
        assert serialize.write_draws(stream, table, draws)[0] == 7
        assert stream.writes == [3 * line, 3 * line, line]


@lru_cache(maxsize=None)
def run_file(*flags: str) -> str:
    """The JSONL that ``relcommit run`` prints for ``flags``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["run", *flags]) == 0
    return out.getvalue()


STRING_RUN = ("--scheme", "string", "--n-pairs", "20", "--trials", "5")


def read_line_by_line(stream) -> list:
    """The reference reader: :func:`parse_transcript` of every line."""
    out = []
    for line_number, line in enumerate(stream, start=1):
        line = line.strip(" \t\n\r")
        if not line:
            continue
        try:
            out.append(parse_transcript(line))
        except TranscriptParseError as exc:
            raise TranscriptParseError(f"line {line_number}: {exc}") from exc
    return out


def read_outcome(read, text: str):
    """What ``read`` returns for ``text``, or the text of its parse error."""
    try:
        return read(io.StringIO(text))
    except TranscriptParseError as exc:
        return str(exc)


def full_parses(monkeypatch) -> list:
    """Record the lines that ``read_transcripts`` hands to ``parse_transcript``."""
    calls = []
    parse = serialize.parse_transcript
    monkeypatch.setattr(serialize, "parse_transcript",
                        lambda line: calls.append(line) or parse(line))
    return calls


def index_as(token: str):
    """An edit of a line of pair index 1 to pair index text ``token``."""
    return lambda line, k: line.replace('"pair_index":1,', f'"pair_index":{token},')


def probability_as(token: str):
    """An edit of a line to probability text ``token``."""
    return lambda line, k: re.sub(r'"probability":[^,]*,', f'"probability":{token},', line)


def reason_as(text: str):
    """An edit of a line of reason ``""`` to reason text ``text``, as it stands in JSON."""
    return lambda line, k: line.replace('"reason":""', f'"reason":"{text}"')


def _crafted(scheme: str, edits: dict) -> str:
    """The first line of a ``scheme`` run, with top-level or ``stored_bits`` fields replaced."""
    doc = json.loads(run_file("--scheme", scheme, "--trials", "2").splitlines()[0])
    for field, value in edits.items():
        if field in doc["stored_bits"]:
            doc["stored_bits"][field] = value(doc["stored_bits"][field])
        else:
            doc[field] = value(doc[field])
    return dumps(doc)


class TestSchemeAgreement:
    """A record's scheme is its schedule's, and only a multi record stores two more bits."""

    @pytest.mark.parametrize("scheme,edits,error", [
        ("single", {"scheme": lambda _: "string"},
         "field 'scheme' is 'string' but its schedule is 'single'"),
        # a multi record, its second committer's bit flipped, relabelled single
        ("multi", {"scheme": lambda _: "single", "bob": lambda bit: 1 - bit},
         "field 'scheme' is 'single' but its schedule is 'multi'"),
        ("single", {"bob": lambda _: 1},
         "field 'stored_bits.bob' must be null in the single scheme, got 1"),
        ("string", {"alice_mid": lambda _: 0},
         "field 'stored_bits.alice_mid' must be null in the string scheme, got 0"),
        ("multi", {"bob": lambda _: None},
         "field 'stored_bits.bob' must be a bit in the multi scheme, got None"),
        ("multi", {"alice_mid": lambda _: None},
         "field 'stored_bits.alice_mid' must be a bit in the multi scheme, got None"),
        ("single", {"announcements": lambda a: {**a, "bob_label": {"i": 1, "j": 1}}},
         "field 'announcements.bob_label' must be null in the single scheme, got 11"),
        ("string", {"announcements": lambda a: {**a, "teleport_outcome": {"i": 1, "j": 0}}},
         "field 'announcements.teleport_outcome' must be null in the string scheme, got 10"),
    ], ids=["schedule", "multi-as-single", "single-bob", "string-mid", "multi-bob", "multi-mid",
            "single-announced-bob", "string-announced-teleport"])
    def test_both_readers_reject(self, scheme, edits, error):
        line = _crafted(scheme, edits)
        with pytest.raises(TranscriptParseError, match=f"^{re.escape(error)}$"):
            parse_transcript(line)
        first = run_file("--scheme", scheme, "--trials", "2").splitlines()[0]
        # alone, and after a line that settles the schedule the reader splices
        for text, number in ((f"{line}\n", 1), (f"{first}\n{line}\n", 2)):
            assert read_outcome(read_transcripts, text) == f"line {number}: {error}"
            assert read_outcome(read_line_by_line, text) == f"line {number}: {error}"


class TestScheduleSplice:
    """``read_transcripts`` reads a repeated schedule once, as the line-by-line parse would."""

    def test_schedule_parsed_once(self, monkeypatch):
        calls = []
        parse = serialize.schedule_from_json
        monkeypatch.setattr(serialize, "schedule_from_json",
                            lambda doc: calls.append(doc) or parse(doc))
        text = run_file(*STRING_RUN)
        assert len(read_transcripts(io.StringIO(text))) == text.count("\n") == 100
        assert len(calls) == 1

    @pytest.mark.parametrize("scheme", ["single", "multi", "string"])
    def test_run_files_read_as_line_by_line(self, scheme, monkeypatch):
        text = run_file("--scheme", scheme, "--n-pairs", "1" if scheme != "string" else "4",
                        "--trials", "30")
        expected = read_line_by_line(io.StringIO(text))
        assert len(expected) == text.count("\n")
        parsed = full_parses(monkeypatch)
        assert read_transcripts(io.StringIO(text)) == expected
        assert len(parsed) == 1

    def test_concatenated_runs(self, monkeypatch):
        runs = [run_file("--scheme", "string", "--n-pairs", "3", "--trials", "4", "--x", x)
                for x in ("1", "2", "1")]
        text = "".join(runs)
        parsed = full_parses(monkeypatch)
        transcripts = read_transcripts(io.StringIO(text))
        assert transcripts == read_line_by_line(io.StringIO(text))
        assert [t.schedule.x for t in transcripts[::12]] == [1.0, 2.0, 1.0]
        assert len(parsed) == 3

    def _edited(self, edit) -> tuple[str, str]:
        """The string run with its second line replaced by ``edit(line, K)``."""
        lines = run_file(*STRING_RUN).splitlines(keepends=True)
        edited = edit(lines[1].rstrip("\n"), dumps(json.loads(lines[0])["schedule"]))
        return "".join([lines[0], edited + "\n", *lines[2:]]), edited

    @pytest.mark.parametrize("edit,error", [
        (lambda line, k: json.dumps(json.loads(line), sort_keys=True), None),
        (lambda line, k: '{"a\\"schedule":' + k + ","
         + line[1:].replace('"schedule":' + k, '"schedule":null'),
         "line 2: schedule must be an object, got NoneType"),
        (lambda line, k: line[:-1] + ',"schedule":null}',
         "line 2: schedule must be an object, got NoneType"),
        (lambda line, k: line[:-1] + ',"schedule":"\\u0000"}',
         "line 2: schedule must be an object, got str"),
        (lambda line, k: line.replace('"schedule":' + k, '"schedule":[]')[:-1]
         + ',"schedule":' + k + "}", None),
        (lambda line, k: line.replace('"reason":"', '"reason":"\\u0000'), None),
        (lambda line, k: line.replace(k, k + "0"), "line 2: not valid JSON"),
        (lambda line, k: line.replace(k, k + "}"), "line 2: not valid JSON"),
        (lambda line, k: line + "x", "line 2: not valid JSON"),
    ], ids=["spaced-separators", "key-inside-earlier-key", "second-key-null",
            "second-key-sentinel", "first-key-not-schedule", "sentinel-in-reason",
            "trailing-digit", "trailing-brace", "trailing-garbage"])
    def test_crafted_line_takes_the_full_parse(self, edit, error, monkeypatch):
        text, edited = self._edited(edit)
        expected = read_outcome(read_line_by_line, text)
        if error is None:
            assert len(expected) == 100
        else:
            assert expected.startswith(error)
        parsed = full_parses(monkeypatch)
        assert read_outcome(read_transcripts, text) == expected
        assert parsed[1:] == [edited]

    def test_bad_bit_deep_in_file(self):
        lines = run_file(*STRING_RUN).splitlines(keepends=True)
        for bit in '"alice":0', '"alice":1':
            lines[49] = lines[49].replace(bit, '"alice":true')
        text = "".join(lines)
        message = "line 50: field 'alice' must be 0 or 1, got True"
        assert read_outcome(read_line_by_line, text) == message
        assert read_outcome(read_transcripts, text) == message

    def test_each_body_is_parsed_once(self, monkeypatch):
        # 4,000 lines of 20 pairs draw at most 64 distinct branches: each is
        # decoded once, and only the first line, which settles the schedule,
        # is parsed as JSON
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert cli_main(["run", "--scheme", "string", "--n-pairs", "20",
                             "--trials", "200"]) == 0
        text = text.getvalue()
        decoded, calls = [], []
        decode, loads = serialize._decoded, json.loads
        monkeypatch.setattr(serialize, "_decoded",
                            lambda line, *rest: decoded.append(line) or decode(line, *rest))
        monkeypatch.setattr(json, "loads", lambda doc: calls.append(doc) or loads(doc))
        transcripts = read_transcripts(io.StringIO(text))
        monkeypatch.undo()
        assert len(decoded) <= 64 and len(calls) <= 1
        assert len(decoded) + len(calls) <= 64 + 1
        assert transcripts == read_line_by_line(io.StringIO(text))
        assert len(transcripts) == 4000

    @pytest.mark.parametrize("edit,full", [
        *((index_as(token), True) for token in
          ("-1", "01", "1.0", "1e0", "true", '"3"', " 3", '"\\u0001"', "1234567890123456789")),
        (index_as("123456789012345678"), False),
        (index_as("null"), False),
        (lambda line, k: line[:-1] + ',"pair_index":5}', True),
        (lambda line, k: '{"pair_index":5,' + line[1:], True),
        (lambda line, k: '{"a\\"pair_index":7,' + line[1:], True),
        (lambda line, k: line.replace('"reason":"', '"reason":"\\"pair_index\\":7 '), False),
        # other canonical look-alikes: weights, reasons and labels the decoder
        # must read as the full parse does, or leave to it
        *((probability_as(token), full) for token, full in (
            ("1", True), ("0.0", True), ("-0.5", True), ("1e400", True),
            ("1.0000000001", True), ("1e-05", False))),
        *((reason_as(text), full) for text, full in (
            ('a \\"b\\"', False), ("a\\\\b", False), ("\\u0000", True),
            ("\\u00e9\\u2028\\ud83d\\ude00", False))),
        (lambda line, k: re.sub(r'"swap_outcome":\{[^}]*\}', '"swap_outcome":null', line), True),
    ], ids=["negative", "leading-zero", "float", "exponent", "true", "string", "spaced",
            "sentinel", "19-digits", "18-digits", "null", "second-key", "first-of-two-keys",
            "key-inside-earlier-key", "key-inside-reason",
            "probability-integer-one", "probability-zero", "probability-negative",
            "probability-overflow", "probability-above-one", "probability-exponent",
            "quote-in-reason", "backslash-in-reason", "nul-in-reason", "non-ascii-in-reason",
            "null-required-label"])
    def test_crafted_pair_index_reads_as_line_by_line(self, edit, full, monkeypatch):
        text, edited = self._edited(edit)
        assert edited != run_file(*STRING_RUN).splitlines()[1]
        expected = read_outcome(read_line_by_line, text)
        parsed = full_parses(monkeypatch)
        assert read_outcome(read_transcripts, text) == expected
        assert parsed[1:] == ([edited] if full else [])

    def test_bodies_kept_are_capped(self, monkeypatch):
        text = run_file(*STRING_RUN)
        monkeypatch.setattr(serialize, "_BODIES", 2)
        parsed = full_parses(monkeypatch)
        assert read_transcripts(io.StringIO(text)) == read_line_by_line(io.StringIO(text))
        assert len(parsed) == 1

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_edited_line_reads_as_line_by_line(self, data):
        # the 20-pair run repeats bodies, so an edited line may hit a body read before
        flags = data.draw(st.sampled_from([("--scheme", "string", "--n-pairs", "4", "--trials", "2"),
                                           STRING_RUN]), label="run")
        lines = run_file(*flags).splitlines()
        n = data.draw(st.integers(0, len(lines) - 1), label="line")
        line = lines[n]
        kind = data.draw(st.sampled_from(["insert", "delete", "replace", "space", "index"]),
                         label="edit")
        if kind == "space":
            # whitespace between tokens leaves the line valid JSON, but not canonical
            at = data.draw(st.sampled_from(
                [i for i in range(1, len(line)) if line[i - 1] in ",:{["]), label="at")
            piece = data.draw(st.text(" \t\r\n", min_size=1, max_size=3), label="space")
            line = line[:at] + piece + line[at:]
        elif kind == "index":
            # any span from the pair index key to just past its token, as any text
            key = line.index('"pair_index":')
            at = data.draw(st.integers(key, key + 16), label="at")
            end = data.draw(st.integers(at, key + 18), label="end")
            piece = data.draw(st.sampled_from(
                ["-1", "01", "1.0", "1e0", "true", '"3"', " 3", "null", "0", "12", "9" * 19,
                 '"\\u0001"', ',"pair_index":5', '"pair_index":']) | st.text('0129-.eEnul"\\u:, '),
                label="piece")
            line = line[:at] + piece + line[end:]
        else:
            at = data.draw(st.integers(0, len(line) - (kind != "insert")), label="at")
            piece = "" if kind == "delete" else data.draw(
                st.sampled_from('"\\u0{}[],: 1-.eEnul') | st.characters(), label="char")
            line = line[:at] + piece + line[at + (kind != "insert"):]
        text = "\n".join([*lines[:n], line, *lines[n + 1:]]) + "\n"
        assert read_outcome(read_transcripts, text) == read_outcome(read_line_by_line, text)


@st.composite
def run_configs(draw) -> RunConfig:
    """A ``run`` of any scheme, probe policy, label pair, announcement shift and mode."""
    scheme = draw(st.sampled_from(SCHEMES), label="scheme")
    labels = st.sampled_from(BELL_LABELS)
    delta = draw(st.none() | st.sampled_from(BELL_LABELS[1:]), label="delta")
    return RunConfig(
        scheme=scheme,
        phi=draw(st.sampled_from(["default", "uniform", "Z0", "Z1"]
                                 + (["X0", "X1"] if scheme == "string" else [])), label="phi"),
        validation_mode=draw(st.sampled_from(["R1", "R2"]), label="mode"),
        alice_label=draw(labels, label="alice"), bob_label=draw(labels, label="bob"),
        strategy=None if delta is None else Strategy.relabel_announce(delta),
    )


class TestDecoder:
    """A canonical line is decoded by lookup into what the full parse gives."""

    @settings(max_examples=300, deadline=None)
    @given(config=run_configs(), data=st.data())
    def test_decoded_line_is_the_full_parse(self, config, data):
        table, _ = sample_branches(config)
        t = data.draw(st.sampled_from(table), label="branch")
        k = data.draw(st.sampled_from([None, 0, 7, 10**18 - 1]) | st.integers(0, 10**18 - 1),
                      label="pair_index")
        line = serialize_transcript(_with_pair_index(t, k))
        # the first line settles the schedule; the second is decoded
        with mock.patch.object(serialize, "parse_transcript", wraps=parse_transcript) as parse:
            first, decoded = read_transcripts(io.StringIO(f"{serialize_transcript(table[0])}\n{line}\n"))
        assert parse.call_count == 1
        expected = parse_transcript(line)
        for field in dataclasses.fields(Transcript):
            assert getattr(decoded, field.name) == getattr(expected, field.name), field.name
        assert decoded.probability.hex() == expected.probability.hex()
        assert decoded.verdict.reason == expected.verdict.reason
        assert decoded.schedule is first.schedule


class TestScheduleRoundTrip:
    @pytest.mark.parametrize("scheme", ["single", "multi", "string"])
    def test_lossless(self, scheme):
        schedule = standard_schedule(2.0, 0.5, 100.0, scheme)
        assert schedule_from_json(schedule_to_json(schedule)) == schedule

    def test_bad_document(self):
        with pytest.raises(TranscriptParseError):
            schedule_from_json({"scheme": "single"})

    def test_documents_equal_under_eq_parse_apart(self):
        # parsed schedules are memoized; 1 == 1.0 == True and 0.0 == -0.0,
        # yet each document must parse (or fail) as if it came first
        doc = json.loads(dumps(schedule_to_json(standard_schedule(1.0, 1.0, 10.0, "single"))))
        for x in (1, 1.0):
            assert type(schedule_to_json(schedule_from_json(dict(doc, x=x)))["x"]) is type(x)
        with pytest.raises(TranscriptParseError, match="'x' must be a finite number, got True"):
            schedule_from_json(dict(doc, x=True))
        for commit in (0.0, -0.0):
            phases = dict(doc["phase_times"], commit=commit)
            parsed = schedule_from_json(dict(doc, phase_times=phases))
            assert math.copysign(1.0, parsed.phase_times.commit) == math.copysign(1.0, commit)

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: [1, 2], "schedule must be an object, got list"),
        (lambda doc: ["phase_times"], "schedule must be an object, got list"),
        (lambda doc: dict(doc, phase_times=["commit"]),
         "field 'phase_times' must be an object, got list"),
    ], ids=["list", "list-of-field-names", "phase_times-list"])
    def test_non_object_named(self, edit, message):
        doc = edit(schedule_to_json(standard_schedule(1.0, 1.0, 10.0, "single")))
        with pytest.raises(TranscriptParseError) as caught:
            schedule_from_json(doc)
        assert str(caught.value) == message
        line = json.loads(serialize_transcript(sample_transcripts()[0]))
        line["schedule"] = edit(line["schedule"])
        with pytest.raises(TranscriptParseError) as caught:
            parse_transcript(dumps(line))
        assert str(caught.value) == message

    def test_a_line_and_its_schedule_document_share_one_schedule(self):
        # the memo keys a document on its value, not on how many references
        # to its parts are alive: within ``parse_transcript`` the line's
        # dict still holds the schedule document, here nothing else does
        line = serialize_transcript(sample_transcripts()[0])
        serialize._schedule_from_marshal.cache_clear()
        assert parse_transcript(line).schedule is schedule_from_json(json.loads(line)["schedule"])
        assert serialize._schedule_from_marshal.cache_info().misses == 1

    def test_unmarshallable_document(self):
        doc = schedule_to_json(standard_schedule(1.0, 1.0, 10.0, "single"))
        with pytest.raises(TranscriptParseError, match="bad schedule document"):
            schedule_from_json(dict(doc, x=BellLabel(0, 0)))


class TestStrategyAndReport:
    def test_strategy_round_trip(self):
        for strategy in (
            Strategy.honest(),
            Strategy.relabel_announce(BellLabel(1, 1)),
            Strategy.early_extract("X"),
            Strategy.receiver_skip(),
        ):
            assert strategy_from_json(strategy_to_json(strategy)) == strategy

    def test_report_serializes_completely(self):
        report = build_report(SchemeParams("single"))
        doc = report_to_json(report)
        assert doc["scheme"] == "single"
        assert len(doc["strategy_rows"]) == len(report.strategy_rows)
        assert len(doc["extraction_rows"]) == len(report.extraction_rows)
        for row in doc["strategy_rows"]:
            assert set(row) == {
                "strategy",
                "acceptance_probability",
                "worst_case_acceptance",
                "detection_probability",
                "claimed_acceptance",
                "agrees",
            }
        dumps(doc)  # must be valid JSON (no NaN, no objects)

    @pytest.mark.parametrize("mode", ["R1", "R2"])
    @pytest.mark.parametrize("scheme", ["single", "multi", "string"])
    def test_report_document_is_its_asdict(self, scheme, mode):
        # the encoder lays a report out as ``asdict`` does, rows kept as
        # tuples, so renaming a field still fails here
        report = build_report(SchemeParams(scheme, validation_mode=mode))
        doc = report_to_json(report)
        assert doc == dataclasses.asdict(report)
        assert type(doc["strategy_rows"]) is type(doc["extraction_rows"]) is tuple


def _typed(doc):
    """``doc`` with the type of each node beside it, so ``==`` also tells
    tuples from lists, 1 from 1.0 and True, and one key order from another."""
    if isinstance(doc, dict):
        return "dict", [(key, _typed(value)) for key, value in doc.items()]
    if isinstance(doc, (list, tuple)):
        return type(doc).__name__, [_typed(item) for item in doc]
    return type(doc).__name__, doc


class TestDocumentEncoder:
    """One encoder lays out every dataclass document as ``asdict`` does."""

    @given(
        x=st.floats(min_value=0.0, max_value=1e6),
        c=st.floats(min_value=1e-3, max_value=1e3),
        slack=st.floats(min_value=0.0, max_value=1e6),
        scheme=st.sampled_from(SCHEMES),
    )
    @settings(max_examples=60, deadline=None)
    @example(x=1.0, c=1.0, slack=8.0, scheme="multi")
    def test_schedule(self, x, c, slack, scheme):
        schedule = standard_schedule(x, c, 2 * x / c + slack, scheme)
        assert _typed(schedule_to_json(schedule)) == _typed(dataclasses.asdict(schedule))

    @pytest.mark.parametrize("phi", ["default", "uniform"])
    @pytest.mark.parametrize("mode", ["R1", "R2"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_report(self, scheme, mode, phi):
        report = build_report(SchemeParams(scheme, phi_policy=phi, validation_mode=mode))
        assert _typed(report_to_json(report)) == _typed(dataclasses.asdict(report))

    @pytest.mark.parametrize("strategy", _DEFAULT_COMMITTER + _DEFAULT_RECEIVER,
                             ids=Strategy.describe)
    def test_menu_strategy(self, strategy):
        assert _typed(strategy_to_json(strategy)) == _typed(dataclasses.asdict(strategy))

    def test_stats_summary(self):
        summary = monte_carlo(RunConfig(scheme="multi", trials=200, seed=2))
        assert _typed(serialize._document(summary)) == _typed(dataclasses.asdict(summary))

    def test_violations_of_a_flagged_audit(self):
        schedule = standard_schedule(1.0, 1.0, 10.0, "single")
        hurried = dataclasses.replace(schedule.messages[0], arrival_time=0.25)
        report = audit(dataclasses.replace(schedule, messages=(hurried, *schedule.messages[1:])))
        assert report.violations
        assert (_typed(serialize._document(report.violations))
                == _typed(dataclasses.asdict(report)["violations"]))


@pytest.fixture(scope="module")
def single_scan() -> dict:
    return report_to_json(build_report(SchemeParams("single")))


class TestReportFromJson:
    @pytest.mark.parametrize(
        "params",
        [
            SchemeParams("single"),
            SchemeParams("multi", validation_mode="R1"),
            SchemeParams("string", n_pairs=3),
        ],
        ids=["single", "multi", "string"],
    )
    def test_round_trip(self, params):
        report = build_report(params)
        doc = report_to_json(report)  # rows are tuples in memory, lists once parsed
        assert report_from_json(doc) == report
        assert report_from_json(json.loads(dumps(doc))) == report

    def test_nullable_fields_accepted(self, single_scan):
        doc = json.loads(dumps(single_scan))
        doc["strategy_rows"][0]["claimed_acceptance"] = None
        doc["strategy_rows"][0]["agrees"] = None
        doc["extraction_rows"][0]["agrees"] = None
        doc["extraction_guess_probability"] = None
        report = report_from_json(doc)
        assert report.strategy_rows[0].claimed_acceptance is None
        assert report.strategy_rows[0].agrees is None
        assert report.extraction_guess_probability is None

    @pytest.mark.parametrize(
        "rows,field,value",
        [
            ("strategy_rows", "acceptance_probability", None),
            ("strategy_rows", "acceptance_probability", "0.5"),
            ("strategy_rows", "worst_case_acceptance", True),
            ("strategy_rows", "detection_probability", float("nan")),
            ("strategy_rows", "claimed_acceptance", "1"),
            ("strategy_rows", "agrees", "yes"),
            ("extraction_rows", "guess_probability", float("inf")),
            ("extraction_rows", "claimed_guess", None),
            ("extraction_rows", "claimed_guess", "0.5"),
            ("extraction_rows", "agrees", 1),
            (None, "concealment_tv", None),
            (None, "extraction_guess_probability", "0.5"),
            (None, "scheme", None),
            (None, "scheme", "pairwise"),
            (None, "mode", 7),
            (None, "mode", "R3"),
            (None, "phi_policy", [1]),
            (None, "phi_policy", "default"),
            (None, "n_pairs", "abc"),
            (None, "n_pairs", True),
            (None, "n_pairs", 0),
            (None, "n_pairs", 2.0),
        ],
    )
    def test_bad_field_named(self, single_scan, rows, field, value):
        doc = json.loads(dumps(single_scan))
        (doc if rows is None else doc[rows][0])[field] = value
        with pytest.raises(TranscriptParseError, match=field):
            report_from_json(doc)

    # Each field is valid on its own; SchemeParams rejects the combination.
    @pytest.mark.parametrize("header,message", [
        ({"n_pairs": 3, "phi_policy": "X1"}, "scheme 'single' uses exactly one pair"),
        ({"phi_policy": "X1"}, "scheme 'single' fixes the probe in the Z family, got X1"),
        ({"scheme": "multi", "phi_policy": "X0"},
         "scheme 'multi' fixes the probe in the Z family, got X0"),
        ({"scheme": "multi", "n_pairs": 2}, "scheme 'multi' uses exactly one pair"),
    ])
    def test_header_judged_by_scheme_params(self, single_scan, header, message):
        doc = {**json.loads(dumps(single_scan)), **header}
        with pytest.raises(TranscriptParseError, match=f"^bad scan header: {message}$"):
            report_from_json(doc)

    def test_string_header_with_any_probe_accepted(self, single_scan):
        doc = {**json.loads(dumps(single_scan)), "scheme": "string", "n_pairs": 3,
               "phi_policy": "X1"}
        report = report_from_json(doc)
        assert (report.scheme, report.n_pairs, report.phi_policy) == ("string", 3, "X1")

    # each edit leaves every field well typed on its own; the strategy
    # does not take the field, or the row list does not take the strategy
    @pytest.mark.parametrize("rows,edit,message", [
        ("strategy_rows", {"basis": ["x"]},
         r"^strategy_rows\[0\]: .*field 'basis' must be a string or null, got \['x'\]$"),
        ("strategy_rows", {"basis": "Z"},
         r"^strategy_rows\[0\]: .*committer strategies take no 'basis', got 'Z'$"),
        ("extraction_rows", {"delta": {"i": 0, "j": 1}},
         r"^extraction_rows\[0\]: .*receiver strategies take no 'delta', got "),
        ("strategy_rows", {"role": "receiver", "kind": "early_extract", "basis": "Z"},
         r"^strategy_rows\[0\]: field 'strategy' must be a committer strategy, "
         r"got early_extract\(Z\)$"),
        ("extraction_rows", {"role": "committer", "kind": "honest", "basis": None},
         r"^extraction_rows\[0\]: field 'strategy' must be a receiver strategy, got honest$"),
    ], ids=["basis-list", "basis-text", "delta", "receiver-row", "committer-row"])
    def test_misplaced_strategy_rejected(self, single_scan, rows, edit, message):
        doc = json.loads(dumps(single_scan))
        doc[rows][0]["strategy"].update(edit)
        with pytest.raises(TranscriptParseError, match=message):
            report_from_json(doc)

    @pytest.mark.parametrize("field", ["scheme", "strategy_rows", "extraction_rows"])
    def test_missing_field_named(self, single_scan, field):
        doc = json.loads(dumps(single_scan))
        del doc[field]
        with pytest.raises(TranscriptParseError, match=field):
            report_from_json(doc)

    @pytest.mark.parametrize("doc", [[], {"strategy_rows": 5}, {"strategy_rows": ["row"]}])
    def test_malformed_document_rejected(self, single_scan, doc):
        if isinstance(doc, dict):
            doc = {**json.loads(dumps(single_scan)), **doc}
        with pytest.raises(TranscriptParseError):
            report_from_json(doc)
