"""Command line harness.

Subcommands:

* ``run``: sample transcripts, validate them, emit JSONL line by line.
* ``enumerate``: exact branch enumeration of one configuration as JSON,
  streamed: one table's branches, each encoded once, written pair by pair.
* ``attack-scan``: full security report as JSON.
* ``audit``: causality-check a canonical or serialized schedule.
* ``report``: human-readable table for a scan (fresh or from JSON).
* ``stats``: sampled outcome counts against exact probabilities as JSON.

Each subcommand takes exactly the flags it reads (see
:func:`build_parser`); any other flag is a usage error.  A call parses
with only the subparser of the subcommand it names; ``-h``, an unknown
command or no command takes all six, to list or to choose from.  Each
such parser is built once per process; a ``--config`` call builds its
own, to carry the file's defaults.

``run`` and ``stats`` take the same flags, differing only in the
``--trials`` default (1 and 10000), build the same sampling campaign
from them and read the same seeded stream, so at equal flags ``run``
writes out exactly the draws that ``stats`` counts.
``--announce-delta`` (other than ``00``) makes the committer relabel
her announcement by it.

``report --input`` and ``audit --input`` take the scan or schedule
from the file, so any scan or geometry flag given beside ``--input`` on
the command line is a usage error rather than silently ignored.

Exit codes: 0 success; 1 usage or configuration error, bad geometry
included, alike on every subcommand, and an output closed before it is
written in full (a reader of stdout that exits early); 2 only for
causality violations from ``audit`` and validation failures under
``--strict``.

A JSON config file (``--config``) may predefine any flag of ``run``
but ``--strict``, ``--output`` and ``--config`` by its argparse
destination name (``x``, ``c``, ``T``, ``n_pairs``, ``phi``, ``mode``,
``seed``, ``scheme``, ``trials``, ``alice_label``, ``bob_label``,
``announce_delta``); each value is converted and checked exactly as the
flag's text would be, a subcommand without the flag ignores the key, so
one file serves every subcommand, and explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict
from functools import lru_cache
from typing import Sequence

from .adversary import SecurityReport, Strategy, build_report
from .montecarlo import (
    RunConfig,
    monte_carlo,
    sample_branches,
    stats_to_json,
)
from .protocol import VALIDATION_MODES, SchemeParams, _pair_indices, branches, parse_phi_policy
from .quantum import BellLabel
from .serialize import (
    _lines,
    _write_blocks,
    dumps,
    report_from_json,
    report_to_json,
    schedule_from_json,
    schedule_to_json,
    write_draws,
)
from .spacetime import SCHEMES, standard_schedule
from .spacetime import audit as run_audit

__all__ = ["cli_main", "main", "render_report_table"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)

    def print_help(self, file=None):  # argparse's own writer swallows a failed write
        try:
            (file or sys.stdout).write(self.format_help())
        except OSError as exc:
            raise _write_error("to stdout", exc) from exc


def parse_label(text: str) -> BellLabel:
    text = text.strip()
    if len(text) != 2 or any(ch not in "01" for ch in text):
        raise ValueError(f"labels are two bits like '01', got {text!r}")
    return BellLabel(int(text[0]), int(text[1]))


# Every subcommand with its help line, in the order ``relcommit -h`` lists them.
_HELP = {
    "run": "sample transcripts to JSONL",
    "enumerate": "exact branch enumeration as JSON",
    "attack-scan": "security report as JSON",
    "audit": "causality-check a schedule",
    "report": "render a scan as a table",
    "stats": "mass sampling statistics as JSON",
}


def build_parser(commands: Sequence[str] = tuple(_HELP)) -> _Parser:
    """The ``relcommit`` parser with the subparsers of ``commands`` only.

    Each subparser takes the same flags, in the same order, whichever
    others are built beside it.
    """
    parser = _Parser(prog="relcommit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    built = {name: sub.add_parser(name, help=_HELP[name]) for name in commands}

    def each(*names: str) -> list[_Parser]:
        return [built[name] for name in names if name in built]

    for command in built.values():
        command.add_argument("--scheme", choices=SCHEMES, default="single")
        command.add_argument("--x", type=float, default=1.0, help="half-separation")
        command.add_argument("--c", type=float, default=1.0, help="signal speed")
        command.add_argument("--T", type=float, default=None, help="reveal time (default 10 x/c)")
        command.add_argument("--output", default=None, help="write to file instead of stdout")
        command.add_argument("--config", default=None, help="JSON file of default flag values")
    for command in each("run", "enumerate", "attack-scan", "report", "stats"):
        command.add_argument("--n-pairs", type=int, default=1, dest="n_pairs",
                             help="committed pairs (string scheme only)")
        command.add_argument("--phi", default="default", help="probe policy: Z0 Z1 X0 X1 uniform")
        command.add_argument("--bob-label", type=parse_label, default=BellLabel(0, 0))
    for command in each("run", "attack-scan", "report", "stats"):
        command.add_argument("--mode", choices=VALIDATION_MODES, default="R2",
                             help="validation mode")
    for command in each("run", "enumerate", "stats"):
        command.add_argument("--alice-label", type=parse_label, default=BellLabel(0, 0))
    for name, trials, strict in (
        ("run", 1, "exit 2 when any sampled transcript fails validation"),
        ("stats", 10000, "exit 2 when any frequency deviates beyond 5 standard errors"),
    ):
        for command in each(name):
            command.add_argument("--seed", type=int, default=0)
            command.add_argument("--trials", type=int, default=trials)
            command.add_argument("--announce-delta", type=parse_label, default=None,
                                 dest="announce_delta",
                                 help="shift announced labels by this label (cheating committer)")
            command.add_argument("--strict", action="store_true", help=strict)
    for name, text in (
        ("audit", "schedule JSON to audit instead of canonical"),
        ("report", "scan JSON produced by attack-scan"),
    ):
        for command in each(name):
            command.add_argument("--input", default=None, help=text)
    parser.subcommands = sub
    return parser


@lru_cache(maxsize=None)
def _parser(commands: tuple[str, ...]) -> _Parser:
    """:func:`build_parser` of ``commands``, built once per process.

    Parsing leaves a parser as it was, so calls share it; a parser
    that takes a config's defaults is built afresh.
    """
    return build_parser(commands)


def _read_json(what: str, path: str, parse=lambda doc: doc):
    """``parse`` of file ``path``'s JSON; a read or parse error names the file as ``what``.

    Nesting too deep for the decoder is a parse error too.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return parse(json.load(handle))
    except (OSError, ValueError, RecursionError) as exc:
        raise _UsageError(f"cannot read {what} {path!r}: {exc}") from exc


def _apply_config(parser: _Parser, path: str) -> None:
    raw = _read_json("config", path)
    if not isinstance(raw, dict):
        raise _UsageError(f"config {path!r} must be a JSON object")
    # ``run`` is the one subcommand with every config key
    flags = _parser(("run",)).subcommands.choices["run"]
    keys = set(vars(flags.parse_args([]))) - {"strict", "output", "config"}
    defaults = {}
    for key, value in raw.items():
        if key not in keys:
            raise _UsageError(f"unknown config key {key!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise _UsageError(f"config key {key!r}: expected a string or number, got {value!r}")
        try:
            parsed = flags.parse_args([f"--{key.replace('_', '-')}={value}"])
        except _UsageError as exc:
            raise _UsageError(f"config key {key!r}: {exc}") from exc
        defaults[key] = getattr(parsed, key)
    # Defaults must land on the subparsers: each subcommand parses into a
    # fresh namespace, so top-level set_defaults would be shadowed by the
    # subparser's own argument defaults.  A subcommand without the flag
    # never reads the key.
    for command in parser.subcommands.choices.values():
        command.set_defaults(**defaults)


def _reject_flags_beside_input(parser: _Parser, argv: list[str], args) -> None:
    """``--input`` fixes the scan or schedule, so a scan or geometry flag
    given on the command line beside it would be ignored: refuse it.
    Values from ``--config`` are defaults, not given flags."""
    command = parser.subcommands.choices[args.command]
    unset = object()
    given = argparse.Namespace(**{dest: unset for dest in vars(args)})
    command.parse_args(argv[argv.index(args.command) + 1:], namespace=given)
    flags = [f"--{dest.replace('_', '-')}" for dest, value in vars(given).items()
             if value is not unset and dest not in ("input", "output", "config")]
    if flags:
        raise _UsageError(
            f"{', '.join(flags)} cannot be combined with --input, which fixes the "
            f"{'scan' if args.command == 'report' else 'schedule'}"
        )


def _scheme_params(args, **mode) -> SchemeParams:
    """The scanned instance; ``mode`` is ``validation_mode=`` where ``--mode`` is taken."""
    return SchemeParams(
        scheme=args.scheme,
        x=args.x,
        c=args.c,
        T=args.T,
        n_pairs=args.n_pairs,
        phi_policy=parse_phi_policy(args.phi),
        bob_label=args.bob_label,
        **mode,
    )


def _run_config(args) -> RunConfig:
    """The sampling campaign of ``run`` and ``stats``."""
    delta = args.announce_delta
    return RunConfig(
        scheme=args.scheme,
        x=args.x,
        c=args.c,
        T=args.T,
        n_pairs=args.n_pairs,
        phi=args.phi,
        validation_mode=args.mode,
        seed=args.seed,
        trials=args.trials,
        alice_label=args.alice_label,
        bob_label=args.bob_label,
        strategy=None if delta in (None, BellLabel(0, 0)) else Strategy.relabel_announce(delta),
    )


def _write_error(name: str, exc: OSError) -> _UsageError:
    return _UsageError(f"cannot write output {name}: {exc.strerror or exc}")


@contextlib.contextmanager
def _output(args):
    """``--output`` opened for writing, or stdout, flushed on leaving; a
    failed write is a usage error, a closed pipe included."""
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                yield handle
        else:
            yield sys.stdout
            sys.stdout.flush()
    except OSError as exc:
        raise _write_error(repr(args.output) if args.output else "to stdout", exc) from exc


def _emit(args, text: str) -> None:
    with _output(args) as out:
        out.write(text if text.endswith("\n") else text + "\n")


def _cmd_run(args) -> int:
    table, draws = sample_branches(_run_config(args))
    with _output(args) as out:
        lines = write_draws(out, table, draws)
    failures = sum(n for n, t in zip(lines, table) if not t.verdict.accept)
    if args.strict and failures:
        print(f"{failures} transcript(s) failed validation", file=sys.stderr)
        return 2
    return 0


def _cmd_enumerate(args) -> int:
    params = _scheme_params(args)
    table = branches(params, args.alice_label)
    pairs = _pair_indices(params)
    head, tail = dumps({
        "scheme": args.scheme,
        "alice_label": asdict(args.alice_label),
        "bob_label": asdict(args.bob_label),
        "branch_count": len(pairs) * len(table),
        "branches": [],
    }).split("[]")
    lines = _lines(table, ((branch, k) for k in pairs for branch in range(len(table))))

    def pieces():
        yield f"{head}["
        for n, (_, text) in enumerate(lines):
            if n:
                yield ","
            yield text
        yield f"]{tail}\n"

    with _output(args) as out:
        _write_blocks(out, pieces())
    return 0


def _cmd_attack_scan(args) -> int:
    report = build_report(_scheme_params(args, validation_mode=args.mode))
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
                f"{row.detection_probability:>12.6f} {claimed:>9}{agrees:>8}"
            )
        lines.append("")
    if report.extraction_rows:
        lines.append(f"{'receiver strategy':<28}{'guess':>12}{'claimed':>10}{'agrees':>8}")
        for row in report.extraction_rows:
            agrees = "-" if row.agrees is None else ("yes" if row.agrees else "NO")
            lines.append(
                f"{row.strategy.describe():<28}{row.guess_probability:>12.6f}"
                f" {row.claimed_guess:>9.6g}{agrees:>8}"
            )
        lines.append("")
    lines.append(f"concealment TV distance: {report.concealment_tv:.6g}")
    if report.extraction_guess_probability is not None:
        lines.append(f"best extraction guess:  {report.extraction_guess_probability:.6g}")
    return "\n".join(lines)


def _cmd_report(args) -> int:
    if args.input is not None:
        report = report_from_json(_read_json("scan", args.input))  # its errors print unwrapped
    else:
        report = build_report(_scheme_params(args, validation_mode=args.mode))
    _emit(args, render_report_table(report))
    return 0


def _cmd_audit(args) -> int:
    if args.input is not None:
        schedule = _read_json("schedule", args.input, schedule_from_json)
    else:
        schedule = standard_schedule(args.x, args.c, args.T, args.scheme)
    report = run_audit(schedule)
    doc = {
        "schedule": schedule_to_json(schedule),
        "ok": report.ok,
        "violations": [asdict(v) for v in report.violations],
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
    # a subcommand's name takes its subparser alone; anything else (``-h``,
    # a typo, nothing) needs every subcommand, to list or to choose from
    commands = tuple(argv[:1]) if argv and argv[0] in _HELP else tuple(_HELP)
    parser = _parser(commands)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:  # parsed as every flag is, abbreviations included
            parser = build_parser(commands)  # the shared parser keeps its own defaults
            _apply_config(parser, args.config)
            args = parser.parse_args(argv)
        if getattr(args, "input", None) is not None:
            _reject_flags_beside_input(parser, argv, args)
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # memory still grows with --n-pairs
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse -h
        code = exc.code
        return 0 if code is None else int(code)


def main() -> int:
    code = cli_main()
    try:
        sys.stdout.flush()  # help text is the one output ``cli_main`` leaves unflushed
    except BrokenPipeError as exc:
        if code == 0:
            print(f"error: {_write_error('to stdout', exc)}", file=sys.stderr)
            code = 1
        # the reader has left: what stdout still holds goes to the null
        # device, so that the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
