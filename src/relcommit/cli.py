"""Command line harness.

Subcommands:

* ``run``: sample transcripts, validate them, emit JSONL line by line.
* ``enumerate``: exact branch enumeration of one configuration as JSON.
* ``attack-scan``: full security report as JSON.
* ``audit``: causality-check a canonical or serialized schedule.
* ``report``: human-readable table for a scan (fresh or from JSON).
* ``stats``: sampled outcome counts against exact probabilities as JSON.

``run`` and ``stats`` build the same sampling campaign from their flags
and read the same seeded stream, so at equal flags ``run`` writes out
exactly the draws that ``stats`` counts.  ``--announce-delta`` (other
than ``00``) makes the committer relabel her announcement by it.

Exit codes: 0 success; 1 usage or configuration error; 2 causality
violations from ``audit``, or validation failures under ``--strict``.

A JSON config file (``--config``) may predefine any long flag by its
argparse destination name (``x``, ``c``, ``T``, ``n_pairs``, ``phi``,
``mode``, ``seed``, ``scheme``, ``trials``, ``alice_label``,
``bob_label``, ``announce_delta``); each value is converted and checked
exactly as the flag's text would be, and explicit flags win over the
file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Sequence

from .adversary import SecurityReport, Strategy, build_report
from .montecarlo import (
    RunConfig,
    monte_carlo,
    parse_phi_policy,
    sample_transcripts,
    stats_to_json,
)
from .protocol import SchemeParams, run_pairs
from .quantum import BellLabel
from .serialize import (
    dumps,
    report_from_json,
    report_to_json,
    schedule_from_json,
    schedule_to_json,
    serialize_transcript,
)
from .spacetime import CausalOrderError, standard_schedule
from .spacetime import audit as run_audit

__all__ = ["cli_main", "main", "render_report_table"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


def parse_label(text: str) -> BellLabel:
    text = text.strip()
    if len(text) != 2 or any(ch not in "01" for ch in text):
        raise ValueError(f"labels are two bits like '01', got {text!r}")
    return BellLabel(int(text[0]), int(text[1]))


_CONFIG_KEYS = (
    "x", "c", "T", "n_pairs", "phi", "mode", "seed", "scheme", "trials",
    "alice_label", "bob_label", "announce_delta",
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", choices=("single", "multi", "string"), default="single")
    parser.add_argument("--x", type=float, default=1.0, help="half-separation")
    parser.add_argument("--c", type=float, default=1.0, help="signal speed")
    parser.add_argument("--T", type=float, default=None, help="reveal time (default 10 x/c)")
    parser.add_argument("--n-pairs", type=int, default=1, dest="n_pairs")
    parser.add_argument("--phi", default="default", help="probe policy: Z0 Z1 X0 X1 uniform")
    parser.add_argument("--mode", choices=("R1", "R2"), default="R2", help="validation mode")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alice-label", type=parse_label, default=BellLabel(0, 0))
    parser.add_argument("--bob-label", type=parse_label, default=BellLabel(0, 0))
    parser.add_argument("--output", default=None, help="write to file instead of stdout")
    parser.add_argument("--config", default=None, help="JSON file of default flag values")
    parser.add_argument("--strict", action="store_true",
                        help="exit 2 when any sampled transcript fails validation")


def build_parser() -> _Parser:
    parser = _Parser(prog="relcommit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="sample transcripts to JSONL")
    _add_common(run)
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--announce-delta", type=parse_label, default=None, dest="announce_delta",
                     help="shift announced labels by this label (cheating committer)")

    enum = sub.add_parser("enumerate", help="exact branch enumeration as JSON")
    _add_common(enum)

    scan = sub.add_parser("attack-scan", help="security report as JSON")
    _add_common(scan)

    aud = sub.add_parser("audit", help="causality-check a schedule")
    _add_common(aud)
    aud.add_argument("--input", default=None, help="schedule JSON to audit instead of canonical")

    rep = sub.add_parser("report", help="render a scan as a table")
    _add_common(rep)
    rep.add_argument("--input", default=None, help="scan JSON produced by attack-scan")

    stats = sub.add_parser("stats", help="mass sampling statistics as JSON")
    _add_common(stats)
    stats.add_argument("--trials", type=int, default=10000)

    # Config defaults must land on the subparsers: each subcommand parses
    # into a fresh namespace, so top-level set_defaults would be shadowed
    # by the subparser's own argument defaults.
    parser.command_parsers = {
        "run": run,
        "enumerate": enum,
        "attack-scan": scan,
        "audit": aud,
        "report": rep,
        "stats": stats,
    }
    return parser


def _apply_config(parser: _Parser, argv: list[str]) -> None:
    # allow_abbrev would otherwise swallow flags like --c as --config.
    probe = _Parser(add_help=False, allow_abbrev=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return
    try:
        with open(known.config, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config {known.config!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise _UsageError(f"config {known.config!r} must be a JSON object")
    flags = parser.command_parsers["run"]  # the one subcommand with every config key
    defaults = {}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise _UsageError(f"unknown config key {key!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise _UsageError(f"config key {key!r}: expected a string or number, got {value!r}")
        try:
            parsed = flags.parse_args([f"--{key.replace('_', '-')}={value}"])
        except _UsageError as exc:
            raise _UsageError(f"config key {key!r}: {exc}") from exc
        defaults[key] = getattr(parsed, key)
    for command in parser.command_parsers.values():
        command.set_defaults(**defaults)


def _scheme_params(args) -> SchemeParams:
    return SchemeParams(
        scheme=args.scheme,
        x=args.x,
        c=args.c,
        T=args.T,
        n_pairs=args.n_pairs if args.scheme == "string" else 1,
        phi_policy=parse_phi_policy(args.phi),
        bob_label=args.bob_label,
        validation_mode=args.mode,
    )


def _run_config(args) -> RunConfig:
    """The sampling campaign of ``run`` and ``stats``."""
    delta = getattr(args, "announce_delta", None)  # a config key for ``stats``
    honest = delta in (None, BellLabel(0, 0))
    return RunConfig(
        scheme=args.scheme,
        x=args.x,
        c=args.c,
        T=args.T,
        n_pairs=args.n_pairs if args.scheme == "string" else 1,
        phi=args.phi,
        validation_mode=args.mode,
        seed=args.seed,
        trials=args.trials,
        alice_label=args.alice_label,
        bob_label=args.bob_label,
        strategy=None if honest else Strategy.relabel_announce(delta),
    )


@contextlib.contextmanager
def _output(args):
    """``--output`` opened for writing, or stdout; a failed write is a usage error."""
    if not args.output:
        yield sys.stdout
        return
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        reason = exc.strerror or exc
        raise _UsageError(f"cannot write output {args.output!r}: {reason}") from exc


def _emit(args, text: str) -> None:
    with _output(args) as out:
        out.write(text if text.endswith("\n") else text + "\n")


def _cmd_run(args) -> int:
    transcripts = sample_transcripts(_run_config(args))
    failures = 0
    with _output(args) as out:
        for t in transcripts:
            failures += not t.verdict.accept
            out.write(serialize_transcript(t) + "\n")
    if args.strict and failures:
        print(f"{failures} transcript(s) failed validation", file=sys.stderr)
        return 2
    return 0


def _cmd_enumerate(args) -> int:
    params = _scheme_params(args)
    per_pair = run_pairs(params, [args.alice_label] * params.n_pairs, args.bob_label)
    branches = [t for pair in per_pair for t in pair]
    doc = {
        "scheme": args.scheme,
        "alice_label": {"i": args.alice_label.i, "j": args.alice_label.j},
        "bob_label": {"i": args.bob_label.i, "j": args.bob_label.j},
        "branch_count": len(branches),
        "branches": [json.loads(serialize_transcript(t)) for t in branches],
    }
    _emit(args, dumps(doc))
    return 0


def _cmd_attack_scan(args) -> int:
    report = build_report(_scheme_params(args))
    _emit(args, dumps(report_to_json(report)))
    return 0


def render_report_table(report: SecurityReport) -> str:
    lines = [
        f"security scan: scheme={report.scheme} mode={report.mode} "
        f"probe={report.phi_policy} pairs={report.n_pairs}",
        "",
    ]
    if report.strategy_rows:
        lines.append(f"{'committer strategy':<28}{'acceptance':>12}{'worst':>12}"
                     f"{'detection':>12}{'claimed':>10}{'agrees':>8}")
        for row in report.strategy_rows:
            claimed = "-" if row.claimed_acceptance is None else f"{row.claimed_acceptance:.6g}"
            agrees = "-" if row.agrees is None else ("yes" if row.agrees else "NO")
            lines.append(
                f"{row.strategy.describe():<28}{row.acceptance_probability:>12.6f}"
                f"{row.worst_case_acceptance:>12.6f}"
                f"{row.detection_probability:>12.6f}{claimed:>10}{agrees:>8}"
            )
        lines.append("")
    if report.extraction_rows:
        lines.append(f"{'receiver strategy':<28}{'guess':>12}{'claimed':>10}{'agrees':>8}")
        for row in report.extraction_rows:
            agrees = "-" if row.agrees is None else ("yes" if row.agrees else "NO")
            lines.append(
                f"{row.strategy.describe():<28}{row.guess_probability:>12.6f}"
                f"{row.claimed_guess:>10.6g}{agrees:>8}"
            )
        lines.append("")
    lines.append(f"concealment TV distance: {report.concealment_tv:.6g}")
    if report.extraction_guess_probability is not None:
        lines.append(f"best extraction guess:  {report.extraction_guess_probability:.6g}")
    return "\n".join(lines)


def _cmd_report(args) -> int:
    if args.input:
        try:
            with open(args.input, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read scan {args.input!r}: {exc}") from exc
        report = report_from_json(doc)
    else:
        report = build_report(_scheme_params(args))
    _emit(args, render_report_table(report))
    return 0


def _cmd_audit(args) -> int:
    if args.input:
        try:
            with open(args.input, encoding="utf-8") as handle:
                schedule = schedule_from_json(json.load(handle))
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            raise _UsageError(f"cannot read schedule {args.input!r}: {exc}") from exc
    else:
        try:
            schedule = standard_schedule(args.x, args.c, args.T, args.scheme)
        except CausalOrderError as exc:
            print(f"schedule rejected: {exc}", file=sys.stderr)
            return 2
    report = run_audit(schedule)
    doc = {
        "schedule": schedule_to_json(schedule),
        "ok": report.ok,
        "violations": [
            {"kind": v.kind, "subject": v.subject, "detail": v.detail}
            for v in report.violations
        ],
    }
    _emit(args, dumps(doc))
    return 0 if report.ok else 2


def _cmd_stats(args) -> int:
    summary = monte_carlo(_run_config(args))
    _emit(args, dumps(stats_to_json(summary)))
    if args.strict and any(not row.agrees for row in summary.rows):
        print("sampled frequencies deviate beyond 5 standard errors", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "enumerate": _cmd_enumerate,
    "attack-scan": _cmd_attack_scan,
    "audit": _cmd_audit,
    "report": _cmd_report,
    "stats": _cmd_stats,
}


def cli_main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse -h
        code = exc.code
        return 0 if code is None else int(code)


def main() -> int:
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
