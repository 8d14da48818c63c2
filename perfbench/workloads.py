"""The four benchmark workloads: seeded inputs, one op, and its correctness gate.

Each workload turns a seed into a list of op inputs and runs one op at a
time (closed loop, one client).  Every op's output is checked against
values held here, not against another run of the program:

* ``scan-pair``: cold ``build_report`` plus its JSON, cycling over the
  eight configs {single, multi} x {R1, R2} x {default, uniform} probe.
* ``scan-string``: the same for string, uniform probe, R2, 4 pairs.
* ``sample``: a 20-pair campaign of 10**6 trials and a 200-pair campaign
  of 10**5 trials of ``relabel_announce(10)`` on string, each with its
  stats JSON.
* ``transcripts``: in-process ``relcommit run`` of string, 20 pairs,
  ``K`` trials to a JSONL file, then ``read_transcripts`` of that file.

Package functions are looked up on their modules at call time so that
the tracer's wrappers, once installed, see every call.
"""

from __future__ import annotations

import json
import math
import statistics
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

import reference
from relcommit import adversary, cli, montecarlo, protocol, serialize
from relcommit.quantum import BELL_LABELS, BellLabel

VALUE_ATOL = 1e-12  # the package's own dual-route agreement tolerance
VALUE_RTOL = 1e-9
Z_LIMIT = 5.0
# two-sided normal tail beyond 5 standard errors, the z gate's false-alarm rate
FIVE_SIGMA_TAIL = math.erfc(Z_LIMIT / math.sqrt(2.0))
# below this expected count a binomial count is too skewed for the z gate
NORMAL_MIN_EXPECTED = 25.0

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

# Default committer menu of build_report, in report order: (kind, delta bits).
COMMITTER_MENU = (
    ("honest", None),
    ("relabel_announce", (0, 1)),
    ("relabel_announce", (1, 0)),
    ("relabel_announce", (1, 1)),
    ("delayed_rechoice", (0, 1)),
)
RECEIVER_MENU = (
    ("early_extract", "Z"),
    ("early_extract", "X"),
    ("early_extract", "pair"),
    ("receiver_skip", None),
)

# Exact per-pair acceptance of an announcement shifted by delta, mode R2.
# A Z-family probe catches every parity flip and misses every sign flip;
# the four-state string probe catches any shift half the time, except
# shift 11, which it always catches (the paper claims 1/2 there too).
R2_PAIR_ACCEPTANCE_Z = {(0, 0): Fraction(1), (0, 1): Fraction(0),
                        (1, 0): Fraction(1), (1, 1): Fraction(0)}
R2_PAIR_ACCEPTANCE_FOUR_STATE = {(0, 0): Fraction(1), (0, 1): HALF,
                                 (1, 0): HALF, (1, 1): Fraction(0)}

STRING_SCAN_PAIRS = 4
# distinct seeded inputs per workload; a run cycles through them
INPUT_ROUNDS = 64

PAIR_CONFIGS = tuple(
    (scheme, mode, phi)
    for scheme in ("single", "multi")
    for mode in ("R1", "R2")
    for phi in ("default", "uniform")
)


def close_to(value, exact: Fraction) -> bool:
    """``value`` matches the exact rational within the package tolerance."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    target = float(exact)
    if abs(value - target) > VALUE_ATOL:
        return False
    return target == 0.0 or abs(value / target - 1.0) <= VALUE_RTOL


def _label(rng: np.random.Generator) -> BellLabel:
    return BELL_LABELS[int(rng.integers(len(BELL_LABELS)))]


def _label_bits(label: BellLabel) -> str:
    return f"{label.i}{label.j}"


class Sample(NamedTuple):
    """One measured op: its input, wall seconds, timed parts, and the
    reference kernel's seconds just before it."""

    op: object
    seconds: float
    phases: dict | None
    kernel_s: float


class Workload:
    """Seeded op inputs plus the op and its check.

    ``round_ops`` ops form one round; the measurement loop only stops
    between rounds, so every run measures the same mix of inputs.  Ops
    of one ``shape`` do the same amount of work.  ``kernel`` names the
    reference kernel whose character matches the op's (see
    ``reference.py``).
    """

    name = ""
    item_name = ""
    kernel = "interpreter"
    round_ops = 1

    def op_input(self, index: int):
        return self.inputs[index % len(self.inputs)]

    def shape(self, op) -> str:
        return self.name

    def run(self, op):
        raise NotImplementedError

    def check(self, op, output) -> list[str]:
        raise NotImplementedError

    def items(self, op) -> int:
        raise NotImplementedError

    def phases(self, output) -> dict:
        """Seconds spent in named parts of an op, kept after its output is dropped."""
        return {}

    def close(self) -> None:
        """Remove whatever the ops left behind."""

    def by_shape(self, samples, rescaled: bool) -> dict:
        """Op latencies grouped by shape, raw or rescaled to the nominal host speed."""
        out: dict[str, list[float]] = {}
        for sample in samples:
            seconds = sample.seconds
            if rescaled:
                seconds = reference.rescale(seconds, sample.kernel_s, self.kernel)
            out.setdefault(self.shape(sample.op), []).append(seconds)
        return out

    def op_p50_s(self, samples, rescaled: bool = True) -> float:
        """Median op latency, averaged over the shapes of a round."""
        groups = self.by_shape(samples, rescaled).values()
        return math.fsum(statistics.median(times) for times in groups) / len(groups)

    def detail(self, samples) -> dict:
        """The workload's own named metrics in raw wall time, with the host's speed."""
        times = [sample.seconds for sample in samples]
        items = sum(self.items(sample.op) for sample in samples)
        return {
            f"{self.item_name}_per_s": _metric(items / math.fsum(times), "1/s"),
            "wall_op_p50_s": _metric(self.op_p50_s(samples, rescaled=False), "s"),
            "wall_op_tail_s": tail_metric(times),
            "kernel_p50_s": _metric(statistics.median(s.kernel_s for s in samples), "s"),
            "kernel_nominal_s": _metric(reference.NOMINAL_S[self.kernel], "s"),
        }


# --------------------------------------------------------------------------
# scans
# --------------------------------------------------------------------------


def expected_report(params: protocol.SchemeParams) -> dict:
    """Exact security numbers of a default-menu scan, from the paper's tables.

    Mode R1 accepts every announcement.  Mode R2 multiplies the per-pair
    acceptances of the probe family across pairs.  Views carry no
    information (TV 0, guess 1/2) in every configuration.
    """
    four_state = params.scheme == "string"
    n = params.n_pairs
    rows = []
    for kind, delta in COMMITTER_MENU:
        shift = (0, 0) if kind in ("honest", "delayed_rechoice") else delta
        if params.validation_mode == "R1":
            acceptance = Fraction(1)
        elif four_state:
            acceptance = R2_PAIR_ACCEPTANCE_FOUR_STATE[shift] ** n
        else:
            acceptance = R2_PAIR_ACCEPTANCE_Z[shift]
        if shift == (0, 0):
            claimed = Fraction(1)
        elif four_state:
            claimed = HALF ** n
        else:
            claimed = Fraction(1) if shift[1] == 0 else Fraction(0)
        rows.append((kind, delta, acceptance, claimed, acceptance == claimed))
    return {
        "scheme": params.scheme,
        "mode": params.validation_mode,
        "phi_policy": "uniform" if params.phi_policy == "uniform" or four_state else "Z0",
        "n_pairs": n,
        "strategy_rows": rows,
    }


def check_report_doc(doc: dict, expected: dict) -> list[str]:
    """Compare one ``attack-scan`` JSON document with its exact values."""
    problems = []
    for key in ("scheme", "mode", "phi_policy", "n_pairs"):
        if doc.get(key) != expected[key]:
            problems.append(f"{key} is {doc.get(key)!r}, expected {expected[key]!r}")
    rows = doc.get("strategy_rows", [])
    if len(rows) != len(expected["strategy_rows"]):
        problems.append(f"{len(rows)} strategy rows, expected {len(expected['strategy_rows'])}")
    for row, (kind, delta, acceptance, claimed, agrees) in zip(rows, expected["strategy_rows"]):
        strategy = row["strategy"]
        got_delta = strategy["delta"] and (strategy["delta"]["i"], strategy["delta"]["j"])
        name = f"{kind}({delta})"
        if strategy["kind"] != kind or got_delta != delta:
            problems.append(f"row {strategy} out of menu order, expected {name}")
            continue
        for field, exact in (
            ("acceptance_probability", acceptance),
            ("worst_case_acceptance", acceptance),
            ("detection_probability", 1 - acceptance),
            ("claimed_acceptance", claimed),
        ):
            if not close_to(row[field], exact):
                problems.append(f"{name} {field} {row[field]!r} != {exact}")
        if row["agrees"] is not agrees:
            problems.append(f"{name} agrees is {row['agrees']!r}, expected {agrees}")
    extraction = doc.get("extraction_rows", [])
    if len(extraction) != len(RECEIVER_MENU):
        problems.append(f"{len(extraction)} extraction rows, expected {len(RECEIVER_MENU)}")
    for row, (kind, basis) in zip(extraction, RECEIVER_MENU):
        strategy = row["strategy"]
        if strategy["kind"] != kind or strategy["basis"] != basis:
            problems.append(f"extraction row {strategy} out of menu order")
        if not close_to(row["guess_probability"], HALF) or not close_to(row["claimed_guess"], HALF):
            problems.append(f"{kind}({basis}) guess {row['guess_probability']!r} != 1/2")
        if row["agrees"] is not True:
            problems.append(f"{kind}({basis}) agrees is {row['agrees']!r}, expected True")
    if not close_to(doc.get("concealment_tv"), Fraction(0)):
        problems.append(f"concealment_tv {doc.get('concealment_tv')!r} != 0")
    if not close_to(doc.get("extraction_guess_probability"), HALF):
        problems.append(
            f"extraction_guess_probability {doc.get('extraction_guess_probability')!r} != 1/2"
        )
    return problems


class ScanWorkload(Workload):
    """Cold security scans: ``clear_caches`` then ``build_report`` and its JSON."""

    item_name = "reports"

    def __init__(self, configs, seed: int):
        rng = np.random.default_rng(seed)
        bob = _label(rng)
        x = float(rng.choice((0.5, 1.0, 2.0, 5.0)))
        order = rng.permutation(len(configs))
        self.inputs = []
        for k in order:
            scheme, mode, phi, n_pairs = configs[k]
            params = protocol.SchemeParams(
                scheme=scheme,
                x=x,
                n_pairs=n_pairs,
                phi_policy=montecarlo.parse_phi_policy(phi),
                bob_label=bob,
                validation_mode=mode,
            )
            name = f"{scheme}/{mode}/{phi}/n{n_pairs}"
            self.inputs.append((name, params, expected_report(params)))
        self.round_ops = len(self.inputs)
        self._first_bytes: dict[str, str] = {}

    def run(self, op):
        _, params, _ = op
        adversary.clear_caches()
        report = adversary.build_report(params)
        return serialize.dumps(serialize.report_to_json(report))

    def check(self, op, output: str) -> list[str]:
        name, _, expected = op
        first = self._first_bytes.setdefault(name, output)
        problems = [] if first == output else [f"{name}: report bytes differ from the first op"]
        try:
            doc = json.loads(output)
        except json.JSONDecodeError as exc:
            return problems + [f"{name}: report is not JSON: {exc}"]
        return problems + [f"{name}: {p}" for p in check_report_doc(doc, expected)]

    def shape(self, op) -> str:
        return op[0]

    def items(self, op) -> int:
        return 1


def scan_pair(seed: int, smoke: bool = False) -> ScanWorkload:
    configs = [(scheme, mode, phi, 1) for scheme, mode, phi in PAIR_CONFIGS]
    workload = ScanWorkload(configs, seed)
    if smoke:
        workload.inputs = workload.inputs[:2]
        workload.round_ops = 2
    workload.name = "scan-pair"
    return workload


def scan_string(seed: int, smoke: bool = False) -> ScanWorkload:
    n_pairs = 2 if smoke else STRING_SCAN_PAIRS
    workload = ScanWorkload([("string", "R2", "uniform", n_pairs)], seed)
    workload.name = "scan-string"
    return workload


# --------------------------------------------------------------------------
# sampling campaigns
# --------------------------------------------------------------------------


def _binomial_upper_tail(count: int, draws: int, p: float) -> float:
    """P(X >= count) for X ~ Binomial(draws, p), for small expected counts."""
    log_p, log_q = math.log(p), math.log1p(-p)
    below = math.fsum(
        math.exp(
            math.lgamma(draws + 1) - math.lgamma(k + 1) - math.lgamma(draws - k + 1)
            + k * log_p + (draws - k) * log_q
        )
        for k in range(count)
    )
    return max(0.0, 1.0 - below)


def count_plausible(count: int, draws: int, p: float, z: float) -> bool:
    """A sampled count is within 5 standard errors of its exact mean.

    Where the expected count is too small for the normal approximation,
    the same false-alarm rate is applied to the exact binomial tail.
    """
    if abs(z) <= Z_LIMIT:
        return True
    expected = draws * p
    if 0.0 < p < 1.0 and expected < NORMAL_MIN_EXPECTED and count > expected:
        return _binomial_upper_tail(count, draws, p) >= FIVE_SIGMA_TAIL / 2.0
    return False


def check_stats_doc(doc: dict, config: montecarlo.RunConfig) -> list[str]:
    """Compare one ``stats`` JSON document with the exact distribution."""
    n = config.n_pairs
    pair_draws = config.trials * n
    exact = {
        "swap_outcome": QUARTER,
        "teleport_outcome": QUARTER,
        "stored_bit": HALF,
        "acceptance": HALF ** n,
    }
    problems = []
    if doc.get("trials") != config.trials or doc.get("seed") != config.seed:
        problems.append(f"header trials={doc.get('trials')} seed={doc.get('seed')}")
    totals: dict[str, int] = {}
    for row in doc.get("rows", []):
        category = row["category"]
        totals[category] = totals.get(category, 0) + row["count"]
        draws = config.trials if category == "acceptance" else pair_draws
        where = f"n={n} {category}/{row['outcome']}"
        if category not in exact or not close_to(row["exact_probability"], exact[category]):
            problems.append(f"{where}: exact probability {row['exact_probability']!r}")
            continue
        if row["frequency"] != row["count"] / draws:
            problems.append(f"{where}: frequency {row['frequency']!r} != count/draws")
        p = float(exact[category])
        stderr = math.sqrt(p * (1.0 - p) / draws)
        z = (row["count"] / draws - p) / stderr
        if not (math.isclose(row["stderr"], stderr, rel_tol=VALUE_RTOL, abs_tol=VALUE_ATOL)
                and math.isclose(row["z"], z, rel_tol=VALUE_RTOL, abs_tol=VALUE_RTOL)):
            problems.append(f"{where}: stderr {row['stderr']!r} and z {row['z']!r},"
                            f" expected {stderr!r} and {z!r}")
        if row["agrees"] is not (abs(z) <= Z_LIMIT):
            problems.append(f"{where}: agrees is {row['agrees']!r} for z {z:.2f}")
        if not count_plausible(row["count"], draws, p, z):
            problems.append(f"{where}: count {row['count']} has z {z:.2f}")
    for category, total in (("swap_outcome", pair_draws), ("teleport_outcome", pair_draws),
                            ("stored_bit", pair_draws)):
        if totals.get(category) != total:
            problems.append(f"n={n} {category}: counts sum to {totals.get(category)}, not {total}")
    if not 0 <= totals.get("acceptance", -1) <= config.trials:
        problems.append(f"n={n}: acceptance count {totals.get('acceptance')} out of range")
    return problems


class SampleWorkload(Workload):
    """Seeded ``monte_carlo`` campaigns of ``relabel_announce(10)`` on string.

    A round is one 20-pair campaign (the shape of acceptance criterion
    06) and one 200-pair campaign, whose sampling chunk is far larger
    than the last-level cache.  Both draw 2 * 10**7 pairs.
    """

    name = "sample"
    item_name = "pair_draws"
    kernel = "memory"
    round_ops = 2

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng(seed)
        shapes = ((20, 2_000), (200, 200)) if smoke else ((20, 10**6), (200, 10**5))
        strategy = adversary.Strategy.relabel_announce(BellLabel(1, 0))
        self.inputs = [
            montecarlo.RunConfig(
                scheme="string",
                n_pairs=n_pairs,
                trials=trials,
                seed=int(rng.integers(2**31)),
                alice_label=_label(rng),
                bob_label=_label(rng),
                strategy=strategy,
            )
            for _ in range(INPUT_ROUNDS)
            for n_pairs, trials in shapes
        ]

    def shape(self, op) -> str:
        return f"n{op.n_pairs}"

    def run(self, op):
        return serialize.dumps(montecarlo.stats_to_json(montecarlo.monte_carlo(op)))

    def check(self, op, output) -> list[str]:
        return check_stats_doc(json.loads(output), op)

    def items(self, op) -> int:
        return op.trials * op.n_pairs


# --------------------------------------------------------------------------
# CLI transcripts
# --------------------------------------------------------------------------


def check_transcript_lines(lines: list[str], transcripts, label: BellLabel, trials: int,
                           n_pairs: int) -> list[str]:
    """JSONL written by ``run`` against what ``read_transcripts`` parsed."""
    expected_lines = trials * n_pairs
    problems = []
    if len(lines) != expected_lines:
        problems.append(f"{len(lines)} lines, expected {expected_lines}")
    if len(transcripts) != len(lines):
        problems.append(f"read {len(transcripts)} transcripts from {len(lines)} lines")
    for k, (line, t) in enumerate(zip(lines, transcripts)):
        if t.verdict is None or not t.verdict.accept:
            problems.append(f"line {k + 1}: honest transcript not accepted ({t.verdict})")
        if t.scheme != "string" or t.alice_label != label or t.pair_index != k % n_pairs:
            problems.append(f"line {k + 1}: scheme/label/pair index do not match the run")
        if serialize.serialize_transcript(t) != line:
            problems.append(f"line {k + 1}: read then re-serialize changes the bytes")
        if len(problems) > 5:
            break
    return problems


class TranscriptsWorkload(Workload):
    """``relcommit run`` to a JSONL file, then ``read_transcripts`` of it."""

    name = "transcripts"
    item_name = "transcripts"
    n_pairs = 20

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        rng = np.random.default_rng(seed)
        self.trials = 1 if smoke else 5
        self.path = workdir / f"transcripts-{seed}.jsonl"
        self.inputs = []
        for _ in range(INPUT_ROUNDS):
            label = _label(rng)
            argv = ["run", "--scheme", "string", "--n-pairs", str(self.n_pairs),
                    "--trials", str(self.trials), "--seed", str(int(rng.integers(2**31))),
                    "--alice-label", _label_bits(label), "--output", str(self.path)]
            self.inputs.append((argv, label))

    def run(self, op):
        argv, _ = op
        start = perf_counter()
        code = cli.cli_main(argv)
        wrote = perf_counter()
        with open(self.path, encoding="utf-8") as handle:
            transcripts = serialize.read_transcripts(handle)
        read = perf_counter()
        return code, transcripts, wrote - start, read - wrote

    def check(self, op, output) -> list[str]:
        code, transcripts, _, _ = output
        if code != 0:
            return [f"relcommit run exited {code}"]
        lines = self.path.read_text(encoding="utf-8").splitlines()
        return check_transcript_lines(lines, transcripts, op[1], self.trials, self.n_pairs)

    def items(self, op) -> int:
        return self.trials * self.n_pairs

    def detail(self, samples) -> dict:
        """Adds the write and read halves of the op as throughputs."""
        out = super().detail(samples)
        done = [sample.phases for sample in samples if sample.phases is not None]
        lines = self.trials * self.n_pairs * len(done)
        for name in ("run", "read"):
            seconds = math.fsum(phases[name] for phases in done)
            out[f"{name}_transcripts_per_s"] = _metric(lines / seconds if seconds else 0.0, "1/s")
        return out

    def phases(self, output) -> dict:
        return {"run": output[2], "read": output[3]}

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail_metric(times: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it, with counts."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return {"value": None, "unit": "s", "samples": n, "samples_beyond": None,
                "percentile": None}
    return {"value": ordered[n - 11], "unit": "s", "samples": n, "samples_beyond": 10,
            "percentile": 100.0 * (n - 10) / n}


BUILDERS = {
    "scan-pair": lambda seed, workdir, smoke: scan_pair(seed, smoke),
    "scan-string": lambda seed, workdir, smoke: scan_string(seed, smoke),
    "sample": lambda seed, workdir, smoke: SampleWorkload(seed, smoke),
    "transcripts": lambda seed, workdir, smoke: TranscriptsWorkload(seed, workdir, smoke),
}


def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    return BUILDERS[name](seed, workdir, smoke)
