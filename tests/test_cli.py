"""Command line harness tests, driven in-process plus a few subprocess runs."""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from relcommit import cli, serialize
from relcommit.adversary import Strategy, build_report
from relcommit.cli import cli_main, parse_label, render_report_table
from relcommit.montecarlo import RunConfig
from relcommit.protocol import (
    VALIDATION_MODES,
    SchemeParams,
    branches,
    parse_phi_policy,
    run_pairs,
)
from relcommit.quantum import BELL_LABELS, BellLabel
from relcommit.serialize import (
    dumps,
    parse_transcript,
    report_to_json,
    schedule_to_json,
    serialize_transcript,
    transcript_to_json,
)
from relcommit.spacetime import SCHEMES, standard_schedule

import dataclasses


# The flags each subcommand takes; every other flag is a usage error.
_EVERY = ("--scheme", "--x", "--c", "--T", "--output", "--config")
_PAIRS = ("--n-pairs", "--phi", "--bob-label")
_SAMPLING = (*_EVERY, *_PAIRS, "--mode", "--alice-label", "--seed", "--trials",
             "--announce-delta", "--strict")
SUBCOMMAND_FLAGS = {
    "run": _SAMPLING,
    "stats": _SAMPLING,
    "enumerate": (*_EVERY, *_PAIRS, "--alice-label"),
    "attack-scan": (*_EVERY, *_PAIRS, "--mode"),
    "report": (*_EVERY, *_PAIRS, "--mode", "--input"),
    "audit": (*_EVERY, "--input"),
}
ALL_FLAGS = sorted({flag for flags in SUBCOMMAND_FLAGS.values() for flag in flags})
FULL_CONFIG = {"scheme": "string", "x": 2, "c": 1, "T": 30, "n_pairs": 2, "phi": "X1",
               "bob_label": "01", "mode": "R1", "alice_label": "10", "seed": 4, "trials": 3,
               "announce_delta": "11"}


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseLabel:
    def test_accepts_two_bit_strings(self):
        assert parse_label("10") == BellLabel(1, 0)

    def test_rejects_garbage(self):
        for bad in ("2", "012", "ab", ""):
            with pytest.raises(ValueError):
                parse_label(bad)

    @pytest.mark.parametrize("flag", ["--alice-label", "--bob-label", "--announce-delta"])
    def test_bad_flag_names_the_label_rule(self, capsys, flag):
        assert run_cli(capsys, "run", flag, "2") == (
            1, "", f"error: argument {flag}: labels are two bits like '01', got '2'\n")

    def test_bad_config_label_names_the_label_rule(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"alice_label": "2"}))
        assert run_cli(capsys, "run", "--config", str(path)) == (
            1, "", "error: config key 'alice_label': argument --alice-label: "
                   "labels are two bits like '01', got '2'\n")


class TestEnumerate:
    def test_single_enumeration_shape(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--scheme", "single", "--phi", "Z0")
        assert code == 0
        doc = json.loads(out)
        assert doc["branch_count"] == 16
        total = sum(b["probability"] for b in doc["branches"])
        assert abs(total - 1.0) <= 1e-9

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "branches.json"
        code, out, _ = run_cli(
            capsys, "enumerate", "--scheme", "multi", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["branch_count"] == 16

    def test_string_enumeration_covers_pairs(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--scheme", "string", "--n-pairs", "2"
        )
        doc = json.loads(out)
        assert code == 0
        assert {b["pair_index"] for b in doc["branches"]} == {0, 1}

    @pytest.mark.parametrize("scheme,phi,n_pairs", [
        *((scheme, phi, 1) for scheme in ("single", "multi") for phi in ("default", "uniform")),
        *(("string", phi, n) for phi in ("default", "uniform", "X1") for n in (1, 2, 5)),
    ])
    def test_document_equals_the_per_transcript_encoding(self, capsys, tmp_path, scheme, phi,
                                                         n_pairs):
        # the reference builds every pair's transcripts and encodes each whole
        params = SchemeParams(scheme, n_pairs=n_pairs, phi_policy=parse_phi_policy(phi))
        target = tmp_path / "branches.json"
        for alice in BELL_LABELS:
            for bob in BELL_LABELS:
                pairs = run_pairs(dataclasses.replace(params, bob_label=bob), [alice] * n_pairs)
                listed = [t for pair in pairs for t in pair]
                expected = dumps({
                    "scheme": scheme, "alice_label": dataclasses.asdict(alice),
                    "bob_label": dataclasses.asdict(bob), "branch_count": len(listed),
                    "branches": [transcript_to_json(t) for t in listed],
                }) + "\n"
                args = ("enumerate", "--scheme", scheme, "--phi", phi, "--n-pairs", str(n_pairs),
                        "--alice-label", str(alice), "--bob-label", str(bob))
                assert run_cli(capsys, *args) == (0, expected, ""), (alice, bob)
                assert run_cli(capsys, *args, "--output", str(target)) == (0, "", "")
                assert target.read_text() == expected, (alice, bob)

    def test_memory_does_not_grow_with_pairs(self, capsys, tmp_path):
        # 200 pairs are a 35 MB document; it is written as it is encoded
        target = str(tmp_path / "branches.json")
        args = ["enumerate", "--scheme", "string", "--phi", "uniform", "--output", target]
        run_cli(capsys, *args, "--n-pairs", "1")  # the table and lazy imports settle first
        tracemalloc.start()
        try:
            code = cli_main([*args, "--n-pairs", "200"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2**20, peak


class TestRun:
    def test_jsonl_parses_and_validates(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--scheme", "single", "--trials", "5", "--seed", "42"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            transcript = parse_transcript(line)
            assert transcript.verdict is not None
            assert transcript.verdict.accept

    def test_bytes_deterministic_across_invocations(self, capsys):
        args = ("run", "--scheme", "string", "--n-pairs", "3", "--trials", "4", "--seed", "7")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_cheating_run_fails_strict(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--scheme", "single", "--phi", "Z0", "--trials", "3",
            "--announce-delta", "01", "--strict",
        )
        assert code == 2
        assert err == "3 transcript(s) failed validation\n"
        for line in out.strip().splitlines():
            assert not parse_transcript(line).verdict.accept
        # the count is of rejected lines, also where some lines are accepted
        code, out, err = run_cli(
            capsys, "run", "--scheme", "string", "--n-pairs", "3", "--phi", "uniform",
            "--trials", "5", "--announce-delta", "01", "--strict",
        )
        verdicts = [parse_transcript(line).verdict.accept for line in out.splitlines()]
        rejected = verdicts.count(False)
        assert code == 2 and 0 < rejected < len(verdicts)
        assert err == f"{rejected} transcript(s) failed validation\n"

    def test_cheating_run_without_strict_reports_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--scheme", "single", "--phi", "Z0", "--trials", "3",
            "--announce-delta", "01",
        )
        assert code == 0


    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_non_positive_trials_rejected(self, capsys, trials):
        code, out, err = run_cli(capsys, "run", "--trials", trials)
        assert code == 1
        assert out == ""
        assert "trials must be positive" in err

    @pytest.mark.parametrize("delta", [None, "01"])
    @pytest.mark.parametrize("mode", ["R1", "R2"])
    @pytest.mark.parametrize("scheme,n_pairs", [("single", 1), ("multi", 1), ("string", 3),
                                                ("string", 20)])
    def test_lines_are_the_sampled_transcripts(self, capsys, tmp_path, scheme, n_pairs, mode,
                                               delta, sampled_transcripts):
        target = tmp_path / "run.jsonl"
        args = ["run", "--scheme", scheme, "--n-pairs", str(n_pairs), "--mode", mode,
                "--trials", "4", "--seed", "7", "--alice-label", "10"]
        if delta is not None:
            args += ["--announce-delta", delta]
        _, out, _ = run_cli(capsys, *args)
        code, written, _ = run_cli(capsys, *args, "--output", str(target))
        strategy = None if delta is None else Strategy.relabel_announce(parse_label(delta))
        config = RunConfig(scheme=scheme, n_pairs=n_pairs, validation_mode=mode, trials=4,
                           seed=7, alice_label=BellLabel(1, 0), strategy=strategy)
        lines = [serialize_transcript(t) for t in sampled_transcripts(config)]
        assert code == 0 and written == ""
        assert out == target.read_text() == "\n".join(lines) + "\n"

    def test_each_branch_is_encoded_once(self, tmp_path, monkeypatch):
        calls, schedules = [], []
        encode, encode_schedule = serialize._template, serialize.schedule_to_json
        monkeypatch.setattr(serialize, "_template",
                            lambda t: calls.append(t) or encode(t))
        monkeypatch.setattr(serialize, "schedule_to_json",
                            lambda s: schedules.append(s) or encode_schedule(s))
        code = cli_main(["run", "--scheme", "string", "--n-pairs", "20", "--trials", "200",
                         "--output", str(tmp_path / "run.jsonl")])
        params = RunConfig(scheme="string", n_pairs=20).to_params()
        table = branches(params, BellLabel(0, 0))
        assert code == 0
        assert 0 < len(calls) <= len(table) <= 64
        assert len(schedules) == 1
        # and so is each branch of an enumeration, every pair's copy spliced
        calls.clear()
        schedules.clear()
        code = cli_main(["enumerate", "--scheme", "string", "--n-pairs", "20", "--phi", "uniform",
                         "--output", str(tmp_path / "branches.json")])
        assert code == 0
        assert 0 < len(calls) <= len(table)
        assert len(schedules) == 1

    def test_output_is_written_as_drawn(self, capsys, tmp_path):
        # joining 2000 lines of about 2.7 KB before writing peaks near 17 MB
        target = str(tmp_path / "run.jsonl")
        run_cli(capsys, "run", "--scheme", "single", "--trials", "1", "--output", target)
        tracemalloc.start()
        try:
            code = cli_main(["run", "--scheme", "single", "--trials", "2000", "--output", target])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2**20, peak


def _tallies(rows):
    return {(row["category"], row["outcome"]): row["count"] for row in rows}


def _run_tallies(out, n_pairs):
    tally = Counter()
    transcripts = [parse_transcript(line) for line in out.splitlines()]
    for t in transcripts:
        tally["swap_outcome", str(t.swap_outcome)] += 1
        tally["teleport_outcome", str(t.teleport_outcome)] += 1
        tally["stored_bit", str(t.stored_alice_bit)] += 1
    for start in range(0, len(transcripts), n_pairs):
        trial = transcripts[start:start + n_pairs]
        tally["acceptance", "accept"] += all(t.verdict.accept for t in trial)
    return tally


@pytest.mark.parametrize("delta", [None, "01"])
@pytest.mark.parametrize("scheme,n_pairs", [("single", 1), ("multi", 1), ("string", 3)])
def test_run_draws_what_stats_counts(capsys, tmp_path, scheme, n_pairs, delta):
    common = ["--scheme", scheme, "--n-pairs", str(n_pairs), "--trials", "300", "--seed", "11",
              "--phi", "uniform"]
    if delta is not None:
        common += ["--announce-delta", delta]
    code, out, _ = run_cli(capsys, "run", *common)
    assert code == 0
    drawn = _run_tallies(out, n_pairs)
    code, out, _ = run_cli(capsys, "stats", *common)
    assert code == 0
    counted = _tallies(json.loads(out)["rows"])
    assert counted == {key: drawn[key] for key in counted}
    assert sum(drawn.values()) == sum(counted.values())
    if delta is not None:
        assert counted["acceptance", "accept"] < 300  # the shift is applied by both


class TestAttackScanAndReport:
    def test_scan_flags_parity_flip(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack-scan", "--scheme", "single", "--mode", "R2", "--phi", "Z0"
        )
        assert code == 0
        doc = json.loads(out)
        rows = {
            (r["strategy"]["kind"], tuple(r["strategy"]["delta"].values())
             if r["strategy"]["delta"] else None): r
            for r in doc["strategy_rows"]
        }
        parity = rows[("relabel_announce", (0, 1))]
        assert parity["detection_probability"] == pytest.approx(1.0, abs=1e-12)
        assert doc["concealment_tv"] <= 1e-12

    def test_report_table_from_scan_file(self, capsys, tmp_path):
        scan = tmp_path / "scan.json"
        run_cli(capsys, "attack-scan", "--scheme", "single", "--output", str(scan))
        code, out, _ = run_cli(capsys, "report", "--input", str(scan))
        assert code == 0
        assert "committer strategy" in out
        assert "concealment TV distance" in out

    def test_report_computes_fresh_table(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--scheme", "multi", "--mode", "R1")
        assert code == 0
        assert "NO" in out  # R1 scan must flag disagreements with the claims

    @pytest.mark.parametrize(
        "rows,field,value",
        [
            ("strategy_rows", "acceptance_probability", None),
            ("strategy_rows", "acceptance_probability", "0.5"),
            ("extraction_rows", "claimed_guess", None),
            ("extraction_rows", "claimed_guess", "0.5"),
            (None, "scheme", None),
            (None, "mode", 7),
            (None, "phi_policy", [1]),
            (None, "n_pairs", "abc"),
        ],
    )
    def test_report_rejects_bad_scan_field(self, capsys, tmp_path, rows, field, value):
        scan = tmp_path / "scan.json"
        run_cli(capsys, "attack-scan", "--scheme", "single", "--output", str(scan))
        doc = json.loads(scan.read_text())
        (doc if rows is None else doc[rows][0])[field] = value
        scan.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "report", "--input", str(scan))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and field in err

    # each edit leaves every field well typed on its own; the strategy
    # does not take the field, or the row list does not take the strategy
    @pytest.mark.parametrize("rows,edit,named", [
        ("strategy_rows", {"basis": ["x"]}, "basis"),
        ("strategy_rows", {"basis": "Z"}, "basis"),
        ("extraction_rows", {"delta": {"i": 0, "j": 1}}, "delta"),
        ("strategy_rows", {"role": "receiver", "kind": "early_extract", "basis": "Z"},
         "strategy_rows"),
    ], ids=["basis-list", "basis-text", "delta", "receiver-row"])
    def test_report_rejects_misplaced_strategy(self, capsys, tmp_path, rows, edit, named):
        scan = tmp_path / "scan.json"
        run_cli(capsys, "attack-scan", "--scheme", "single", "--output", str(scan))
        doc = json.loads(scan.read_text())
        doc[rows][0]["strategy"].update(edit)
        scan.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "report", "--input", str(scan))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and named in err

    def test_report_rejects_basis_on_receiver_skip(self, capsys, tmp_path):
        scan = tmp_path / "scan.json"
        run_cli(capsys, "attack-scan", "--scheme", "single", "--output", str(scan))
        doc = json.loads(scan.read_text())
        [skip] = [row["strategy"] for row in doc["extraction_rows"]
                  if row["strategy"]["kind"] == "receiver_skip"]
        skip["basis"] = "Z"
        scan.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "report", "--input", str(scan))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "'basis'" in err

    @pytest.mark.parametrize("flags", [
        ("--scheme", "multi", "--mode", "R1"), ("--scheme", "single"), ("--x", "2"),
        ("--c", "1"), ("--T", "30"), ("--n-pairs", "1"), ("--phi", "Z0"),
        ("--bob-label", "01"), ("--mode", "R2"),
    ], ids=" ".join)
    def test_report_input_refuses_scan_flags(self, capsys, tmp_path, flags):
        scan = tmp_path / "scan.json"
        run_cli(capsys, "attack-scan", "--output", str(scan))
        code, out, err = run_cli(capsys, "report", "--input", str(scan), *flags)
        assert (code, out) == (1, "")
        named = ", ".join(flags[::2])
        assert err == f"error: {named} cannot be combined with --input, which fixes the scan\n"

    @pytest.mark.parametrize("command,document", [("report", "scan"), ("audit", "schedule")])
    def test_empty_input_path_is_read_not_skipped(self, capsys, command, document):
        code, out, err = run_cli(capsys, command, "--input", "")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {document} '': ")

    def test_report_input_takes_output_and_config(self, capsys, tmp_path):
        scan, table = tmp_path / "scan.json", tmp_path / "table.txt"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(FULL_CONFIG))  # defaults, not given flags
        run_cli(capsys, "attack-scan", "--output", str(scan))
        expected = run_cli(capsys, "report", "--input", str(scan))
        assert expected[0] == 0
        code, out, err = run_cli(capsys, "report", "--input", str(scan), "--config", str(config),
                                 "--output", str(table))
        assert (code, out, err) == (0, "", "")
        assert table.read_text() == expected[1]

    def test_report_null_extraction_agreement_prints_dash(self, capsys, tmp_path):
        scan = tmp_path / "scan.json"
        run_cli(capsys, "attack-scan", "--scheme", "single", "--output", str(scan))
        doc = json.loads(scan.read_text())
        for row in doc["extraction_rows"]:
            row["agrees"] = None
        scan.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "report", "--input", str(scan))
        assert code == 0
        lines = out.splitlines()
        start = lines.index(next(line for line in lines if line.startswith("receiver strategy")))
        rows = lines[start + 1:start + 1 + len(doc["extraction_rows"])]
        assert rows and all(line.endswith(" -") for line in rows), rows

    @pytest.mark.parametrize("n_pairs", [1, 8, 20])
    def test_report_rows_split_into_columns(self, capsys, n_pairs):
        # a claim longer than its column must not run into the detection column
        code, out, _ = run_cli(capsys, "report", "--scheme", "string", "--n-pairs", str(n_pairs))
        assert code == 0
        lines = out.splitlines()
        for header, columns in (("committer strategy", 6), ("receiver strategy", 4)):
            start = next(k for k, line in enumerate(lines) if line.startswith(header))
            rows = lines[start + 1:lines.index("", start)]
            assert rows and all(len(row.split()) == columns for row in rows), rows

    def test_render_table_smoke(self):
        from relcommit.adversary import build_report
        from relcommit.protocol import SchemeParams

        table = render_report_table(build_report(SchemeParams("single")))
        assert "honest" in table and "receiver" in table


def _agrees(capsys, n_pairs: int) -> dict:
    """``agrees`` of each committer row of a string scan, by ``(kind, delta bits)``."""
    code, out, _ = run_cli(capsys, "attack-scan", "--scheme", "string", "--n-pairs", str(n_pairs))
    assert code == 0
    agrees = {}
    for row in json.loads(out)["strategy_rows"]:
        kind, delta = row["strategy"]["kind"], row["strategy"]["delta"]
        agrees[kind, delta and f"{delta['i']}{delta['j']}"] = row["agrees"]
    return agrees


class TestFloatAgreement:
    """False ``agrees`` values that float sums at a 1e-12 tolerance print
    (ROADMAP item 1); each test passes once reported values are exact."""

    @pytest.mark.xfail(strict=True, reason="an exact 0 agrees with a claimed 2^-40 within 1e-12")
    def test_joint_flip_disagrees_at_forty_pairs(self, capsys):
        assert _agrees(capsys, 40)["relabel_announce", "11"] is False

    def test_honest_rows_agree_at_693_pairs(self, capsys):
        agrees = _agrees(capsys, 693)
        assert agrees["honest", None] is True
        assert agrees["delayed_rechoice", "01"] is True


class TestExactValues:
    """Every weight is dyadic, so these values print exactly."""

    def test_honest_rows_are_exactly_one_at_2000_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "attack-scan", "--scheme", "string", "--n-pairs", "2000")
        assert code == 0
        rows = [row for row in json.loads(out)["strategy_rows"]
                if row["strategy"]["kind"] in ("honest", "delayed_rechoice")]
        assert len(rows) == 2
        for row in rows:
            assert (row["acceptance_probability"], row["detection_probability"]) == (1.0, 0.0)
        assert out.count('"acceptance_probability":1.0,') == 2
        assert out.count('"detection_probability":0.0,') == 2

    def test_twenty_pair_shift_rows_are_two_to_the_minus_twenty(self, capsys):
        code, out, _ = run_cli(capsys, "attack-scan", "--scheme", "string", "--n-pairs", "20")
        assert code == 0
        rows = {f"{row['strategy']['delta']['i']}{row['strategy']['delta']['j']}":
                row["acceptance_probability"] for row in json.loads(out)["strategy_rows"]
                if row["strategy"]["kind"] == "relabel_announce"}
        assert rows["01"] == rows["10"] == 2.0 ** -20
        assert out.count('"acceptance_probability":9.5367431640625e-07,') == 2

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("mode", VALIDATION_MODES)
    def test_every_extraction_guess_is_one_half(self, capsys, scheme, mode):
        code, out, _ = run_cli(capsys, "attack-scan", "--scheme", scheme, "--mode", mode)
        assert code == 0
        report = json.loads(out)
        guesses = [row["guess_probability"] for row in report["extraction_rows"]]
        assert guesses == [0.5] * 4 and report["extraction_guess_probability"] == 0.5
        assert out.count('"guess_probability":0.5,') == 4

    def test_string_run_writes_exact_transcript_weights(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--scheme", "string", "--n-pairs", "20",
                               "--trials", "2", "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 40
        assert all('"probability":0.015625,' in line for line in lines)

    def test_single_enumeration_writes_exact_weights(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--scheme", "single")
        assert code == 0
        weights = [branch["probability"] for branch in json.loads(out)["branches"]]
        assert weights == [0.0625] * 16
        assert out.count('"probability":0.0625,') == 16


class TestAudit:
    def test_canonical_schedule_passes(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--x", "1", "--c", "1", "--T", "10")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_reveal_before_storage_rejected(self, capsys):
        code, out, err = run_cli(capsys, "audit", "--x", "1", "--c", "1", "--T", "1.5")
        assert code == 1  # exit 2 is kept for causality violations found in a schedule
        assert out == ""
        assert err == "error: reveal time 1.5 precedes storage phase 2.0\n"

    @pytest.mark.parametrize("flags", [
        ("--scheme", "single"), ("--x", "2", "--T", "30"), ("--c", "1"), ("--T", "10"),
    ], ids=" ".join)
    def test_input_refuses_geometry_flags(self, capsys, tmp_path, flags):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(schedule_to_json(standard_schedule(1.0, 1.0, 10.0, "multi"))))
        code, out, err = run_cli(capsys, "audit", "--input", str(path), *flags)
        assert (code, out) == (1, "")
        named = ", ".join(flags[::2])
        assert err == f"error: {named} cannot be combined with --input, which fixes the schedule\n"

    @pytest.mark.parametrize("edit,named", [
        (lambda doc: doc.update(c="a"), "field 'c' must be a finite number, got 'a'"),
        (lambda doc: doc.update(x=True), "field 'x' must be a finite number, got True"),
        (lambda doc: doc["events"][3].update(deps="alice_pair"),
         "events[3]: field 'deps' must be a list of strings, got 'alice_pair'"),
        (lambda doc: doc["events"][0].update(payload_ref=["alice_pair"]),
         "events[0]: field 'payload_ref' must be a string or null, got ['alice_pair']"),
        (lambda doc: doc["events"][2].update(actor=7), "events[2]: field 'actor' must be a string"),
        (lambda doc: doc["messages"][1].update(send_time=float("nan")),
         "messages[1]: field 'send_time' must be a finite number, got nan"),
        (lambda doc: doc["messages"][0].pop("receiver"), "messages[0]: missing field 'receiver'"),
    ], ids=["c", "x", "deps", "payload_ref", "actor", "send_time", "receiver"])
    def test_input_schedule_types_checked(self, capsys, tmp_path, edit, named):
        doc = schedule_to_json(standard_schedule(1.0, 1.0, 10.0, "single"))
        edit(doc)
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "audit", "--input", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read schedule {str(path)!r}: {named}"), err

    @pytest.mark.parametrize("doc,message", [
        ([1, 2], "schedule must be an object, got list"),
        (["phase_times"], "schedule must be an object, got list"),
        (dict(schedule_to_json(standard_schedule(1.0, 1.0, 10.0, "single")),
              phase_times=["commit"]), "field 'phase_times' must be an object, got list"),
    ], ids=["list", "list-of-field-names", "phase_times-list"])
    def test_input_not_an_object_named(self, capsys, tmp_path, doc, message):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "audit", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: cannot read schedule {str(path)!r}: {message}\n"

    def test_input_storage_phase_overflow_rejected(self, capsys, tmp_path):
        # 2x/c overflows, and an infinite slack would flag no violation
        doc = dict(schedule_to_json(standard_schedule(1.0, 1.0, 10.0, "single")), c=1e-320)
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "audit", "--input", str(path)) == (
            1, "", "error: storage phase 2x/c must be finite, got inf\n")

    def test_tampered_schedule_file_flagged(self, capsys, tmp_path):
        schedule = standard_schedule(1.0, 1.0, 10.0, "single")
        messages = list(schedule.messages)
        messages[0] = dataclasses.replace(messages[0], arrival_time=0.25)
        doc = schedule_to_json(dataclasses.replace(schedule, messages=tuple(messages)))
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "audit", "--input", str(path))
        assert code == 2
        parsed = json.loads(out)
        assert parsed["ok"] is False
        assert parsed["violations"][0]["kind"] == "superluminal"


class TestNumpyGeometry:
    def test_a_numpy_float_writes_the_bytes_of_its_python_float(self, capsys, monkeypatch):
        # ``SchemeParams("single", x=np.float64(2.0))`` puts numpy floats in
        # its schedule, which the document encoder passes through unchanged
        params = SchemeParams("single", x=np.float64(2.0))
        assert type(schedule_to_json(params.schedule)["x"]) is np.float64
        assert params == SchemeParams("single", x=2.0)
        commands = (("run", "--x", "2", "--trials", "6", "--seed", "3"),
                    ("audit", "--x", "2"))
        expected = [run_cli(capsys, *argv) for argv in commands]
        run_config, schedule = cli._run_config, cli.standard_schedule
        monkeypatch.setattr(cli, "_run_config",
                            lambda args: dataclasses.replace(run_config(args), x=np.float64(args.x)))
        monkeypatch.setattr(cli, "standard_schedule",
                            lambda x, c, T, scheme: schedule(np.float64(x), c, T, scheme))
        assert [run_cli(capsys, *argv) for argv in commands] == expected
        assert [code for code, _, _ in expected] == [0, 0]


class TestStats:
    def test_stats_emits_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "--scheme", "single", "--trials", "5000", "--seed", "5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 5000
        categories = {row["category"] for row in doc["rows"]}
        assert categories == {"swap_outcome", "teleport_outcome", "stored_bit", "acceptance"}


class TestFlagSets:
    @pytest.mark.parametrize("flag", ALL_FLAGS)
    @pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
    def test_subcommand_takes_exactly_its_flags(self, capsys, tmp_path, command, flag):
        (tmp_path / "config.json").write_text("{}")
        if flag == "--input" and command in ("audit", "report"):
            doc = (schedule_to_json(standard_schedule(1.0, 1.0, 10.0, "single"))
                   if command == "audit" else report_to_json(build_report(SchemeParams("single"))))
            (tmp_path / "input.json").write_text(json.dumps(doc))
        value = {"--scheme": "single", "--x": "1", "--c": "1", "--T": "10",
                 "--output": str(tmp_path / "out"), "--config": str(tmp_path / "config.json"),
                 "--n-pairs": "1", "--phi": "Z0", "--bob-label": "00", "--mode": "R2",
                 "--alice-label": "00", "--seed": "0", "--trials": "1",
                 "--announce-delta": "00", "--strict": None,
                 "--input": str(tmp_path / "input.json")}[flag]
        argv = [flag] if value is None else [flag, value]
        code, out, err = run_cli(capsys, command, *argv)
        if flag in SUBCOMMAND_FLAGS[command]:
            assert code == 0, err
        else:
            assert (code, out) == (1, "")
            assert err == f"error: unrecognized arguments: {' '.join(argv)}\n"

    @pytest.mark.parametrize("scheme,n_pairs,message", [
        ("single", "3", "scheme 'single' uses exactly one pair"),
        ("multi", "3", "scheme 'multi' uses exactly one pair"),
        ("string", "0", "n_pairs must be at least 1, got 0"),
        ("single", "0", "n_pairs must be at least 1, got 0"),
        ("string", "99999999999999999999",
         f"n_pairs must be at most {sys.maxsize}, got 99999999999999999999"),
    ])
    @pytest.mark.parametrize("command", ["run", "stats", "enumerate", "attack-scan", "report"])
    def test_n_pairs_is_checked_not_dropped(self, capsys, command, scheme, n_pairs, message):
        code, out, err = run_cli(capsys, command, "--scheme", scheme, "--n-pairs", n_pairs)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


class TestConfigAndErrors:
    def test_config_file_provides_defaults(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scheme": "string", "n_pairs": 2, "seed": 9}))
        code, out, _ = run_cli(capsys, "enumerate", "--config", str(config))
        assert code == 0
        assert {b["pair_index"] for b in json.loads(out)["branches"]} == {0, 1}

    @pytest.mark.parametrize("flag", ["--config", "--conf", "--co"])
    def test_config_flag_read_as_parsed(self, capsys, tmp_path, flag):
        # argparse takes an unambiguous prefix as the flag; so does the config
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trials": 3}))
        code, out, _ = run_cli(capsys, "run", flag, str(config))
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scheme": "string", "n_pairs": 3}))
        code, out, _ = run_cli(
            capsys, "enumerate", "--config", str(config), "--n-pairs", "1"
        )
        assert code == 0
        assert json.loads(out)["branch_count"] == 64

    def test_unknown_config_key(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"separation": 2.0}))
        code, _, err = run_cli(capsys, "enumerate", "--config", str(config))
        assert code == 1
        assert "separation" in err

    @pytest.mark.parametrize(
        "command,config,key",
        [
            ("run", {"seed": 1.5}, "seed"),
            ("enumerate", {"scheme": "string", "n_pairs": 2.7}, "n_pairs"),
            ("run", {"trials": True}, "trials"),
            ("audit", {"mode": "R3"}, "mode"),
            ("enumerate", {"scheme": "triple"}, "scheme"),
            ("run", {"alice_label": 1}, "alice_label"),
            ("enumerate", {"x": [1.0]}, "x"),
        ],
    )
    def test_config_value_checked_like_its_flag(self, capsys, tmp_path, command, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and repr(key) in err

    def test_config_values_convert_like_flag_text(self, capsys, tmp_path):
        # run takes every config key, and its verdicts read the mode
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scheme": "string", "n_pairs": 2, "x": 2,
                                    "alice_label": "10", "mode": "R1"}))
        from_config = run_cli(capsys, "run", "--trials", "3", "--config", str(path))
        from_flags = run_cli(capsys, "run", "--trials", "3", "--scheme", "string",
                             "--n-pairs", "2", "--x", "2", "--alice-label", "10", "--mode", "R1")
        assert from_config[0] == 0
        assert from_config == from_flags

    def test_stats_announce_delta_flag_matches_config_key(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"announce_delta": "01"}))
        common = ("stats", "--scheme", "string", "--n-pairs", "3", "--trials", "500")
        from_flag = run_cli(capsys, *common, "--announce-delta", "01")
        from_config = run_cli(capsys, *common, "--config", str(path))
        honest = run_cli(capsys, *common)
        assert from_flag[0] == 0
        assert from_flag == from_config
        assert from_flag != honest

    @pytest.mark.parametrize("command", ["attack-scan", "enumerate", "stats", "run"])
    @pytest.mark.parametrize("message,detail",
                             [("", ""), ("Unable to allocate", ": Unable to allocate")])
    def test_out_of_memory_is_an_error_line(self, capsys, monkeypatch, command, message, detail):
        def exhausted(args):
            raise MemoryError(message)

        monkeypatch.setitem(cli._COMMANDS, command, exhausted)
        code, out, err = run_cli(capsys, command, "--scheme", "string", "--n-pairs", "99999999999")
        assert (code, out, err) == (1, "", f"error: out of memory{detail}\n")

    @pytest.mark.parametrize("key", ["strict", "output", "config", "input", "command"])
    def test_non_setting_config_key_rejected(self, capsys, tmp_path, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: "x"}))
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: unknown config key {key!r}\n"

    @pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
    def test_one_config_serves_every_subcommand(self, capsys, tmp_path, command):
        # all twelve keys; a subcommand without the flag ignores the key
        path = tmp_path / "config.json"
        path.write_text(json.dumps(FULL_CONFIG))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, err) == (0, "")
        flags = [arg for key, value in FULL_CONFIG.items()
                 if f"--{key.replace('_', '-')}" in SUBCOMMAND_FLAGS[command]
                 for arg in (f"--{key.replace('_', '-')}", str(value))]
        assert run_cli(capsys, command, *flags) == (0, out, "")

    @pytest.mark.parametrize("argv,document", [
        (("run", "--config"), "config"),
        (("report", "--input"), "scan"),
        (("audit", "--input"), "schedule"),
    ], ids=["run-config", "report-input", "audit-input"])
    def test_file_that_is_not_utf8_is_named(self, capsys, tmp_path, argv, document):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (1, "")
        assert err == (f"error: cannot read {document} {str(path)!r}: 'utf-8' codec can't "
                       "decode byte 0xff in position 0: invalid start byte\n")

    @pytest.mark.parametrize("argv,document", [
        (("run", "--config"), "config"),
        (("report", "--input"), "scan"),
        (("audit", "--input"), "schedule"),
    ], ids=["run-config", "report-input", "audit-input"])
    def test_file_nested_too_deep_is_named(self, capsys, tmp_path, argv, document):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {document} {str(path)!r}: "
                              "maximum recursion depth exceeded"), err
        assert err.count("\n") == 1

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "fnord")
        assert code == 1
        assert "error" in err

    def test_bad_label_flag(self, capsys):
        code, _, err = run_cli(capsys, "run", "--alice-label", "xy")
        assert code == 1

    def test_bad_phi_flag(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--phi", "W3")
        assert code == 1
        assert "probe policy" in err

    # spacetime.standard_schedule owns the geometry rules; SchemeParams
    # applies them by building its schedule there, so every subcommand
    # rejects the same input with the same line.
    @pytest.mark.parametrize("flags,message", [
        pytest.param("--x nan", "half-separation must be finite and non-negative, got nan",
                     id="x=nan"),
        pytest.param("--x inf", "half-separation must be finite and non-negative, got inf",
                     id="x=inf"),
        pytest.param("--x -1", "half-separation must be finite and non-negative, got -1.0",
                     id="x=-1"),
        pytest.param("--c inf", "signal speed must be finite and positive, got inf", id="c=inf"),
        pytest.param("--c 0", "signal speed must be finite and positive, got 0.0", id="c=0"),
        pytest.param("--T nan", "reveal time must be finite, got nan", id="T=nan"),
        pytest.param("--T inf", "reveal time must be finite, got inf", id="T=inf"),
        pytest.param("--T 1.5", "reveal time 1.5 precedes storage phase 2.0", id="T=1.5"),
        pytest.param("--x 1e308 --c 1e-308", "storage phase 2x/c must be finite, got inf",
                     id="store=inf"),
        pytest.param("--x 1e308 --T 5", "storage phase 2x/c must be finite, got inf",
                     id="store=inf-T=5"),
        pytest.param("--x 5e307", "default reveal time 10x/c must be finite, got inf",
                     id="default-reveal=inf"),
        pytest.param("--x 1e307 --T 1.7e308", "validation time T + x/c must be finite, got inf",
                     id="validation=inf"),
    ])
    @pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
    def test_bad_geometry_is_a_usage_error(self, capsys, command, flags, message):
        code, out, err = run_cli(capsys, command, *flags.split())
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
    def test_colocated_geometry_is_valid(self, capsys, command):
        # only a printed schedule depends on x; the rest prints what x = 1 does
        code, out, err = run_cli(capsys, command, "--x", "0")
        assert (code, err) == (0, "")
        if command not in ("run", "enumerate", "audit"):  # these print the schedule
            assert out == run_cli(capsys, command)[1]

    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_negative_seed_names_the_flag(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("target", ["directory", "missing"])
    @pytest.mark.parametrize("command",
                             ["run", "enumerate", "attack-scan", "audit", "report", "stats"])
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, command, target):
        path = str(tmp_path if target == "directory" else tmp_path / "missing" / "out.json")
        reason = "Is a directory" if target == "directory" else "No such file or directory"
        code, out, err = run_cli(capsys, command, "--output", path)
        assert code == 1
        assert out == ""
        assert err == f"error: cannot write output {path!r}: {reason}\n"

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0


class TestParserBuild:
    """``cli_main`` builds only the invoked subcommand's subparser."""

    @pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
    def test_one_command_help_equals_full_build(self, command):
        alone = cli.build_parser((command,)).subcommands.choices
        assert list(alone) == [command]
        full = cli.build_parser().subcommands.choices[command]
        assert alone[command].format_help() == full.format_help()

    def test_run_builds_one_subparser(self, monkeypatch, tmp_path):
        # once per process: the second call parses with the parser the first built
        cli._parser.cache_clear()
        calls = []
        add_parser = argparse._SubParsersAction.add_parser
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                            lambda self, name, **kw: calls.append(name) or add_parser(self, name, **kw))
        for _ in range(2):
            assert cli_main(["run", "--output", str(tmp_path / "run.jsonl")]) == 0
        assert calls == ["run"]

    def test_help_width_is_read_when_help_is_printed(self, capsys, monkeypatch):
        helps = []
        for columns in ("40", "200", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            fresh = cli.build_parser(("run",)).subcommands.choices["run"].format_help()
            assert run_cli(capsys, "run", "-h") == (0, fresh, "")
            helps.append(fresh)
        assert helps[0] == helps[2] != helps[1]

    def test_config_defaults_stay_with_their_call(self, capsys, tmp_path):
        # a --config call's defaults land on a parser of its own, not the shared one
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 7}))
        configured = run_cli(capsys, "run", "--trials", "20", "--config", str(path))
        assert configured == run_cli(capsys, "run", "--trials", "20", "--seed", "7")
        plain = run_cli(capsys, "run", "--trials", "20")
        assert plain == run_cli(capsys, "run", "--trials", "20", "--seed", "0")
        assert plain != configured
        assert cli._parser(("run",)).parse_args(["run"]).seed == 0

    @pytest.mark.parametrize("argv", [["-h"], ["--help"]])
    def test_top_level_help_lists_every_subcommand(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == cli.build_parser().format_help()
        assert "{run,enumerate,attack-scan,audit,report,stats}" in out

    def test_choices_read_from_their_owners(self):
        for command in cli.build_parser().subcommands.choices.values():
            choices = {action.dest: action.choices for action in command._actions}
            assert choices["scheme"] is SCHEMES
            assert choices.get("mode", VALIDATION_MODES) is VALIDATION_MODES

    @pytest.mark.parametrize("argv", [["fnord"], ["ru"], []], ids=["typo", "prefix", "empty"])
    def test_no_subcommand_chooses_among_all(self, capsys, argv):
        with pytest.raises(cli._UsageError) as caught:
            cli.build_parser().parse_args(argv)
        assert run_cli(capsys, *argv) == (1, "", f"error: {caught.value}\n")
        if argv:
            assert str(caught.value).startswith(f"argument command: invalid choice: {argv[0]!r}")
            assert all(command in str(caught.value) for command in SUBCOMMAND_FLAGS)

    def test_extra_argument(self, capsys):
        assert run_cli(capsys, "run", "extra") == (1, "", "error: unrecognized arguments: extra\n")

    def test_audit_config_read_with_run_flags(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"x": 2, "trials": 5, "alice_label": "01"}))
        assert run_cli(capsys, "audit", "--config", str(path)) == run_cli(capsys, "audit", "--x", "2")
        path.write_text(json.dumps({"x": "abc"}))
        assert run_cli(capsys, "audit", "--config", str(path)) == (
            1, "", "error: config key 'x': argument --x: invalid float value: 'abc'\n")


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("relcommit ")]


def test_readme_command_line_runs(capsys, tmp_path, monkeypatch):
    # in order: the report line reads the scan the line before writes
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        expected = 2 if "--strict" in argv else 0
        assert code == expected, (argv, err)


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has left: ``write`` or ``flush`` fails."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def write(self, text: str) -> int:
        if self.failing == "write":
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return super().write(text)

    def flush(self) -> None:
        if self.failing == "flush":
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class TestClosedOutput:
    """A reader that leaves early gets one error line and exit 1, no traceback."""

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("command", ["run", "enumerate", "attack-scan", "audit", "stats"])
    def test_in_process_is_a_usage_error(self, capsys, monkeypatch, command, failing):
        duplicated = []
        monkeypatch.setattr(os, "dup2", lambda *fds: duplicated.append(fds))
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(failing))
        assert cli_main([command, "--trials", "1"] if command in ("run", "stats") else [command]) == 1
        assert capsys.readouterr().err == "error: cannot write output to stdout: Broken pipe\n"
        assert duplicated == []  # the caller's stdout is left as it was

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["run", "--scheme", "string", "--n-pairs", "20", "--trials", "50"],
        ["enumerate", "--scheme", "string", "--n-pairs", "200"],
    ], ids=["run", "enumerate"])
    def test_reader_leaving_after_one_byte(self, argv, buffered):
        # megabytes of output, so the writer is still writing when the pipe closes
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        with subprocess.Popen([sys.executable, "-W", "error", "-m", "relcommit", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as process:
            assert process.stdout.read(1) == b"{"
            process.stdout.close()
            err = process.stderr.read()
            code = process.wait(timeout=120)
        # nor an "Exception ignored" line from the flush at interpreter exit
        assert (code, err) == (1, b"error: cannot write output to stdout: Broken pipe\n")

    def test_help_into_a_closed_pipe(self):
        # help text is flushed by ``main``, after ``cli_main`` returns
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run([sys.executable, "-W", "error", "-m", "relcommit", "--help"],
                                    stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (
            1, b"error: cannot write output to stdout: Broken pipe\n")

    # buffered ``--help`` is the test above
    @pytest.mark.parametrize("argv,buffered", [
        (["--help"], False), (["run", "-h"], True), (["run", "-h"], False),
    ], ids=["help-unbuffered", "run-h-buffered", "run-h-unbuffered"])
    def test_help_into_a_closed_pipe_either_buffering(self, argv, buffered):
        # unbuffered, the help text's own write fails, inside argparse
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run([sys.executable, "-W", "error", "-m", "relcommit", *argv],
                                    stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (
            1, b"error: cannot write output to stdout: Broken pipe\n")


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "relcommit", "enumerate", "--scheme", "single"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["branch_count"] == 16
