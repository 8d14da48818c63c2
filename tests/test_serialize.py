"""Wire format tests: lossless round trips and deterministic bytes."""

from __future__ import annotations

import io
import json
import math

import pytest

from relcommit.adversary import Strategy, build_report
from relcommit.protocol import SchemeParams, Verdict, run_pairs
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
)
from relcommit.spacetime import standard_schedule

import dataclasses


def sample_transcripts():
    single = run_pairs(SchemeParams("single"), [BellLabel(1, 0)], BellLabel(0, 0))[0]
    multi = run_pairs(SchemeParams("multi"), [BellLabel(0, 1)], BellLabel(1, 1))[0]
    string = [
        t
        for pair in run_pairs(
            SchemeParams("string", n_pairs=2), [BellLabel(0, 0)] * 2, BellLabel(0, 0)
        )
        for t in pair
    ]
    return single + multi[:8] + string[:8]


class TestTranscriptRoundTrip:
    def test_lossless_for_every_scheme(self):
        for t in sample_transcripts():
            assert parse_transcript(serialize_transcript(t)) == t

    def test_round_trip_preserves_verdict(self):
        t = run_pairs(SchemeParams("single"), [BellLabel(0, 0)], BellLabel(0, 0))[0][0]
        t = dataclasses.replace(t, verdict=Verdict.aborted("stored bit 1 != expected 0"))
        parsed = parse_transcript(serialize_transcript(t))
        assert parsed.verdict == t.verdict

    def test_bytes_are_deterministic(self):
        t = run_pairs(SchemeParams("single"), [BellLabel(1, 1)], BellLabel(0, 0))[0][3]
        assert serialize_transcript(t) == serialize_transcript(t)
        # keys sorted at every level
        doc = json.loads(serialize_transcript(t))
        assert list(doc) == sorted(doc)

    def test_missing_field_is_named(self):
        t = run_pairs(SchemeParams("single"), [BellLabel(0, 0)], BellLabel(0, 0))[0][0]
        doc = json.loads(serialize_transcript(t))
        del doc["swap_outcome"]
        with pytest.raises(TranscriptParseError, match="swap_outcome"):
            parse_transcript(dumps(doc))

    def test_bad_bit_rejected(self):
        t = run_pairs(SchemeParams("single"), [BellLabel(0, 0)], BellLabel(0, 0))[0][0]
        doc = json.loads(serialize_transcript(t))
        doc["stored_bits"]["alice"] = 7
        with pytest.raises(TranscriptParseError):
            parse_transcript(dumps(doc))

    def test_bad_label_bits_rejected(self):
        t = run_pairs(SchemeParams("single"), [BellLabel(0, 0)], BellLabel(0, 0))[0][0]
        doc = json.loads(serialize_transcript(t))
        doc["alice_label"] = {"i": 3, "j": 0}
        with pytest.raises(TranscriptParseError, match="alice_label"):
            parse_transcript(dumps(doc))

    def test_not_json(self):
        with pytest.raises(TranscriptParseError):
            parse_transcript("{nope")

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
        t = run_pairs(SchemeParams("string", n_pairs=2), [BellLabel(0, 0)] * 2,
                      BellLabel(0, 0))[1][0]
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
        t = run_pairs(SchemeParams("single"), [BellLabel(0, 0)], BellLabel(0, 0))[0][0]
        payload = serialize_transcript(t) + "\n\n" + serialize_transcript(t) + "\n"
        assert len(read_transcripts(io.StringIO(payload))) == 2

    def test_error_reports_line_number(self):
        t = run_pairs(SchemeParams("single"), [BellLabel(0, 0)], BellLabel(0, 0))[0][0]
        payload = serialize_transcript(t) + "\n{\"scheme\": \"single\"}\n"
        with pytest.raises(TranscriptParseError, match="line 2"):
            read_transcripts(io.StringIO(payload))


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
