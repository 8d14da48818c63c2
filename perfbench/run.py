"""relcommit benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload scan-pair --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced pass (and writes its spans under
``.bench_build/perfbench/``).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
hold the provenance and the workload's own named metrics.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# Single-threaded BLAS for this process and the set-up probes it starts;
# set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


def _import_package():
    """Import ``relcommit`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "relcommit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no relcommit sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import relcommit

    if Path(relcommit.__file__).resolve().parent != SRC / "relcommit":
        raise SystemExit(f"perfbench: imported relcommit from {relcommit.__file__}, not {SRC}")
    return relcommit


relcommit = _import_package()

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, cpu: int | None) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "relcommit": relcommit.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "pinned_cpu": cpu,
        "blas_env": {k: os.environ[k] for k in sorted(os.environ) if k.endswith("_THREADS")},
    }


def setup_seconds(args) -> float:
    """Median time for a fresh interpreter to import and build the inputs,
    each probe rescaled by the interpreter kernel clocked around it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        kernel_before = reference.clock("interpreter")
        start = perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            try:
                line = probe.stdout.readline()
                ready = perf_counter()
                probe.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if probe.poll() is None:
                    probe.kill()
                    probe.wait()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
        kernel_s = (kernel_before + reference.clock("interpreter")) / 2.0
        times.append(reference.rescale(ready - start, kernel_s, "interpreter"))
    return statistics.median(times)


def measure(workload, seconds: float, tracer=None):
    """Closed loop, one client: run whole rounds of ops for ``seconds``.

    Another round starts only while it is expected to end in time, and
    at least one round runs.  The workload's reference kernel
    runs just before each op.  Returns the ``Sample`` list and the
    number of failed ops; outputs are dropped once checked, so memory
    does not grow with the op count.
    """
    samples = []
    failed = 0
    problems_shown = 0
    index = 0
    rounds = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if rounds and elapsed + elapsed / rounds > seconds:
            break
        for _ in range(workload.round_ops):
            op = workload.op_input(index)
            output = None
            problems = []
            kernel_s = reference.clock(workload.kernel)
            if tracer is not None:
                tracer.begin_op(index)
            began = perf_counter()
            try:
                output = workload.run(op)
            except Exception:
                problems = ["op raised:\n" + traceback.format_exc()]
            finally:
                took = perf_counter() - began
                if tracer is not None:
                    tracer.end_op()
            if output is not None:
                try:
                    problems = workload.check(op, output)
                except Exception:
                    problems = ["check raised:\n" + traceback.format_exc()]
            if problems:
                failed += 1
                for problem in problems[: max(0, 5 - problems_shown)]:
                    print(f"perfbench: op {index} failed: {problem}", file=sys.stderr)
                problems_shown += len(problems)
            phases = None if output is None else workload.phases(output)
            samples.append(workloads.Sample(op, took, phases, kernel_s))
            index += 1
        rounds += 1
    return samples, failed


def end_to_end(args, workload, samples) -> dict:
    return {
        "setup_s": {"value": setup_seconds(args), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "op_p50_s": {"value": workload.op_p50_s(samples), "unit": "s"},
    }


def per_layer(args, workload):
    """An untraced pass, then a traced pass over the same inputs."""
    plain, plain_failed = measure(workload, args.seconds / 2.0)
    spans = tracer.Tracer()
    spans.install()
    try:
        traced, traced_failed = measure(workload, args.seconds / 2.0, tracer=spans)
    finally:
        spans.uninstall()
    matched = min(len(plain), len(traced))
    plain_s = workload.op_p50_s(plain[:matched])
    traced_s = workload.op_p50_s(traced[:matched])
    values = spans.metrics()
    values["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    detail = workload.detail(plain)
    for name in ("run_transcripts_per_s", "read_transcripts_per_s"):
        values[f"transcripts.{name}"] = (detail[name]["value"] if name in detail else 0.0, "1/s")
    WORKDIR.mkdir(parents=True, exist_ok=True)
    spans.write(WORKDIR / f"spans-{args.workload}.tsv")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return plain + traced, plain_failed + traced_failed, metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> int | None:
    """Keep this process, its probes and the reference kernel on one CPU,
    so the kernel clocks the same core the ops run on."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = pin_to_one_cpu()
    workload = workloads.build(args.workload, args.seed, WORKDIR, args.smoke)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            samples, failed, metrics = per_layer(args, workload)
            detail = {}
        else:
            samples, failed = measure(workload, args.seconds)
            metrics = end_to_end(args, workload, samples)
            detail = workload.detail(samples)
    finally:
        workload.close()
    attempted = len(samples)
    detail["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    detail["ops"] = {"value": attempted, "unit": "count"}
    print(json.dumps({"provenance": provenance(args, cpu)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
