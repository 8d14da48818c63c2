"""Print a sha256 of the stdout of fixed CLI invocations and every demo.

Run from the repository root, with only the standard library:

    python3 tools/stdout_digests.py [--values] [--against REV | --kernels]

Each line is ``<sha256>  <command>``.  Run it on two commits and diff
the outputs to see which commands changed their stdout, or pass
``--against REV``: that extracts REV's ``src/`` and ``demos/`` (``git
archive REV src demos | tar -x``) into a temporary directory, runs the
same list on both trees, and prints only the lines that differ, REV's
prefixed ``-`` and this tree's ``+``.  It exits 1 if any line differs,
and writes nothing in the repository.  ``--kernels`` runs the list on
this tree instead: once with the default kernels, then under
``OPENBLAS_CORETYPE=Prescott``, OpenBLAS's generic SSE3 kernel, and
under numpy's baseline SIMD dispatch, each set for the child processes
only.  The baseline run disables every target numpy dispatches to above
its build's baseline, read from a child's ``__cpu_dispatch__``: numpy
refuses to import if told to disable an unknown or a baseline target.
Each is compared with the default run, and printed and exited on the
same way, so the stdout it checks is shown not to depend on the BLAS
kernel or on numpy's SIMD loops.  With
``--values`` each line is ``<command>:`` followed by every number the
command printed, in order, so the diff shows which numbers moved.  Commands and
demos run under ``python -W error`` with ``PYTHONPATH=src`` and
``COLUMNS=80`` (so help text wraps alike in any terminal), with no
``OPENBLAS_CORETYPE`` or ``NPY_*_CPU_FEATURES`` but the one ``--kernels``
sets, in a fresh temporary directory, in list order, so ``report
--input`` reads the scan an earlier line saved.  Exits 1 if a command exits with a code
other than the one expected for it (a warning is an error, so it
counts), or writes a traceback to stderr.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (arguments after ``relcommit``, expected exit code, file to save stdout to)
CLI_INVOCATIONS = [
    ("attack-scan --scheme single --mode R1", 0, None),
    ("attack-scan --scheme single --mode R2", 0, None),
    ("attack-scan --scheme multi --mode R1", 0, None),
    ("attack-scan --scheme multi --mode R2", 0, None),
    ("attack-scan --scheme string --n-pairs 5 --phi uniform", 0, "scan.json"),
    ("attack-scan --scheme string --n-pairs 20", 0, None),
    ("attack-scan --scheme string --n-pairs 2 --phi X0", 0, None),
    ("report --scheme multi --mode R1", 0, None),
    ("report --input scan.json", 0, None),
    ("stats --seed 3 --trials 2000", 0, None),
    ("stats --scheme string --n-pairs 4 --seed 5 --trials 500 --announce-delta 01", 0, None),
    ("enumerate --scheme single --phi Z0", 0, None),
    ("enumerate --scheme multi --alice-label 10", 0, None),
    ("enumerate --scheme string --n-pairs 2 --bob-label 01", 0, None),
    ("audit --scheme single --x 1 --c 1 --T 10", 0, None),
    ("audit --scheme multi --x 2 --c 1", 0, None),
    ("audit --T 1.5", 1, None),
    ("run --scheme string --n-pairs 3 --trials 4 --seed 7", 0, None),
    ("run --x 0", 0, None),
    ("attack-scan --x 1e308 --c 1e-308", 1, None),
    ("attack-scan --scheme multi --phi uniform", 0, None),
    ("enumerate --scheme multi --phi uniform --alice-label 11", 0, None),
    ("enumerate --scheme string --n-pairs 1 --phi X1", 0, None),
    ("report --input scan.json --scheme multi", 1, None),
    ("report --scheme string --n-pairs 20", 0, None),
    ("run --scheme string --n-pairs 20 --trials 3 --mode R1 --announce-delta 11 --seed 5", 0, None),
    ("run --scheme multi --trials 5 --announce-delta 01", 0, None),
    ("enumerate --scheme single --phi uniform --alice-label 01 --bob-label 11", 0, None),
    ("enumerate --scheme string --n-pairs 1 --phi Z1 --alice-label 11", 0, None),
    ("attack-scan --scheme single --phi uniform --mode R1", 0, None),
    ("attack-scan --scheme string --n-pairs 3 --phi Z1 --mode R1", 0, None),
    ("stats --scheme multi --mode R1 --trials 1000 --seed 2", 0, None),
    ("stats --scheme string --n-pairs 3 --phi X1 --trials 300 --seed 4", 0, None),
    ("attack-scan --scheme multi --phi uniform --mode R1", 0, None),
    ("enumerate --scheme multi --phi Z1 --alice-label 01 --bob-label 10", 0, None),
    ("stats --trials 70000 --seed 8", 0, None),
    ("stats --scheme string --n-pairs 256 --trials 2000 --seed 6 --announce-delta 11", 0, None),
    ("stats --scheme string --n-pairs 2 --trials 70000 --seed 9 --announce-delta 10", 0, None),
    ("stats --scheme multi --phi uniform --trials 70001 --seed 12 --announce-delta 01", 0, None),
    # one full 127-word row block, then one full 255-byte row block
    ("stats --scheme string --n-pairs 254 --phi uniform --trials 1100 --seed 14", 0, None),
    ("stats --scheme string --n-pairs 255 --phi uniform --trials 1100 --seed 15 --announce-delta 10", 0, None),
    ("stats --scheme string --n-pairs 99999999999 --trials 1", 1, None),
    ("run --scheme string --n-pairs 4 --trials 3 --seed 11 --alice-label 11 --bob-label 10", 0, None),
    ("enumerate --scheme string --n-pairs 20 --phi uniform", 0, None),
    ("run --scheme multi --phi uniform --trials 4 --seed 13 --alice-label 10 --bob-label 11", 0, None),
    ("attack-scan --scheme single --phi Z1", 0, None),
    # every branch template drawn again, under one- and two-digit pair indices
    ("run --scheme string --n-pairs 20 --trials 20 --seed 21", 0, None),
    # rejected verdicts, with their reason text, drawn again and again
    ("run --scheme single --trials 200 --seed 22 --announce-delta 01", 0, None),
    # a receiver label other than 00, read through the sampler, the run and a scan
    ("stats --scheme multi --alice-label 10 --bob-label 11 --trials 3000 --seed 16", 0, None),
    ("stats --scheme single --bob-label 01 --trials 5000 --seed 17", 0, None),
    ("run --scheme single --bob-label 01 --trials 20 --seed 18", 0, None),
    ("attack-scan --scheme string --n-pairs 2 --bob-label 11", 0, None),
    # a pair scheme's concealment, read from the rows of a receiver label other than 00
    ("attack-scan --scheme single --phi uniform --bob-label 10", 0, None),
    # output of several 128 KiB write blocks, for run and for enumerate
    ("run --scheme string --n-pairs 20 --trials 10 --seed 11", 0, None),
    ("enumerate --scheme string --n-pairs 8 --phi uniform", 0, None),
    ("--help", 0, None),
    *((f"{command} -h", 0, None)
      for command in ("run", "enumerate", "attack-scan", "audit", "report", "stats")),
]


# a decimal number standing alone, not part of a word such as ``R2`` or ``Phi+``
_NUMBER = re.compile(rb"(?<![\w.])[-+]?(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][-+]?\d+)?(?!\w|\.\d)|[-+]?\b(?:nan|inf)\b")


def _print(line: str) -> None:
    print(line, flush=True)


def _digest(
    argv: list[str], label: str, expected: int, cwd: str, env: dict, values: bool, emit=_print
) -> tuple[bool, bytes]:
    result = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=600)
    ok = result.returncode == expected and b"Traceback" not in result.stderr
    if values:
        numbers = b" ".join(_NUMBER.findall(result.stdout)).decode()
        emit(f"{label}: {numbers}")
    else:
        emit(f"{hashlib.sha256(result.stdout).hexdigest()}  {label}")
    if not ok:
        print(f"  exit {result.returncode}, expected {expected}:", file=sys.stderr)
        sys.stderr.write(result.stderr.decode(errors="replace"))
    return ok, result.stdout


# the variables that pick a BLAS kernel or numpy's SIMD loops
_KERNEL_SETTINGS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")

_DISPATCH_CODE = """\
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__
print(" ".join(__cpu_dispatch__))
"""


def _env(root: Path, setting: dict | None = None) -> dict:
    """The child processes' environment for the tree at ``root``: default
    kernels, or the ones ``setting`` picks."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), COLUMNS="80")
    for name in _KERNEL_SETTINGS:
        env.pop(name, None)
    env.update(setting or {})
    return env


def _baseline_dispatch(root: Path) -> dict:
    """The setting that confines numpy to its build's baseline SIMD loops."""
    dispatched = subprocess.run([sys.executable, "-c", _DISPATCH_CODE], env=_env(root),
                                capture_output=True, text=True, check=True)
    return {"NPY_DISABLE_CPU_FEATURES": dispatched.stdout.strip()}


def _run_all(root: Path, values: bool, emit, setting: dict | None = None) -> int:
    """Run every invocation and demo of the tree at ``root``, under the
    kernels ``setting`` picks or the default; the number that failed."""
    env = _env(root, setting)
    python = [sys.executable, "-W", "error"]
    failures = 0
    with tempfile.TemporaryDirectory() as cwd:
        for args, expected, save_as in CLI_INVOCATIONS:
            argv = [*python, "-m", "relcommit", *args.split()]
            ok, stdout = _digest(argv, f"relcommit {args}", expected, cwd, env, values, emit)
            failures += not ok
            if save_as:
                Path(cwd, save_as).write_bytes(stdout)
        for demo in sorted((root / "demos").glob("*.py")):
            label = demo.relative_to(root).as_posix()
            ok, _ = _digest([*python, str(demo)], label, 0, cwd, env, values, emit)
            failures += not ok
    return failures


def _compare(before: list[str], after: list[str]) -> int:
    """Print the lines that differ, ``before``'s as ``- line`` and ``after``'s as ``+ line``; 1 if any."""
    changed = [line for line in difflib.ndiff(before, after) if line[:1] in "-+"]
    for line in changed:
        _print(line)
    return 1 if changed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Digest the stdout of fixed CLI invocations and demos.")
    parser.add_argument("--values", action="store_true",
                        help="print each invocation's numbers instead of a hash of its stdout")
    pair = parser.add_mutually_exclusive_group()
    pair.add_argument("--against", metavar="REV",
                      help="run REV's src/ and demos/ too, and print only the lines that differ")
    pair.add_argument("--kernels", action="store_true",
                      help="run under the default kernels, the Prescott OpenBLAS kernel and "
                           "numpy's baseline SIMD, and print only the lines that differ")
    args = parser.parse_args()
    if args.against is None and not args.kernels:
        return 1 if _run_all(ROOT, args.values, _print) else 0
    before: list[str] = []
    if args.kernels:
        failures = _run_all(ROOT, args.values, before.append)
        settings = [{"OPENBLAS_CORETYPE": "Prescott"}, _baseline_dispatch(ROOT)]
    else:
        with tempfile.TemporaryDirectory() as tree:
            archive = subprocess.run(["git", "archive", args.against, "src", "demos"],
                                     cwd=ROOT, capture_output=True, check=True)
            subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout, check=True)
            failures = _run_all(Path(tree), args.values, before.append)
        settings = [None]
    changed = 0
    for setting in settings:
        after: list[str] = []
        failures += _run_all(ROOT, args.values, after.append, setting)
        changed |= _compare(before, after)
    return max(changed, 1 if failures else 0)


if __name__ == "__main__":
    sys.exit(main())
