"""Seeded sampling against exact references: the package's one sampler.

A campaign reads its configuration's cached branch table through a
:func:`slot_table` of ``SLOTS = 256`` equiprobable slots and draws one
random byte per pair, so it samples the exact dyadic distribution.
Trials are drawn in chunks of ``CHUNK_TRIALS``, or of
``CHUNK_DRAWS // n_pairs`` when that is fewer, so a chunk holds at most
``CHUNK_DRAWS`` pair draws and memory stays near 2.5 MB at any
``n_pairs`` up to ``CHUNK_DRAWS``.  Chunk ``k`` draws from its own
generator derived from ``(seed, k)``, so every draw is reproducible bit
for bit at a fixed seed and trial budget.  The chunk size depends only
on ``n_pairs``, so at one seed the draws of a smaller budget are a
prefix of a larger budget's draws.  Every call starts at chunk 0, so
two campaigns with the same seed repeat draws rather than splitting a
budget between them; use distinct seeds for independent campaigns.

Two functions read that one stream.  :func:`monte_carlo` tallies it:
every reported frequency sits next to its exact probability (a count of
slots over 256), a binomial standard error and a z-score; ``agrees``
flags deviations beyond five standard errors.
:func:`sample_transcripts` maps each drawn slot to its validated
transcript, so at one configuration it yields exactly the draws that
:func:`monte_carlo` counts.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .adversary import Strategy, _committer_labels
from .protocol import SchemeParams, Transcript, Verdict, branches, validate_transcript
from .quantum import BASIS_STATES, BELL_LABELS, PROB_ATOL, BasisStateSpec, BellLabel

__all__ = [
    "CHUNK_DRAWS",
    "CHUNK_TRIALS",
    "SLOTS",
    "RunConfig",
    "StatsRow",
    "StatsSummary",
    "monte_carlo",
    "parse_phi_policy",
    "sample_transcripts",
    "slot_table",
    "stats_to_json",
]

CHUNK_TRIALS = 1 << 16
CHUNK_DRAWS = 1 << 18
SLOTS = 256  # one sampling slot per value of a random byte

_PHI_NAMES = {str(spec): spec for spec in BASIS_STATES}


def parse_phi_policy(name: str) -> BasisStateSpec | str:
    """CLI/config probe policy names: Z0, Z1, X0, X1, uniform, default."""
    if name in ("uniform", "default"):
        return name
    try:
        return _PHI_NAMES[name]
    except KeyError:
        raise ValueError(
            f"probe policy must be one of {sorted(_PHI_NAMES)} or 'uniform', got {name!r}"
        ) from None


@dataclass(frozen=True)
class RunConfig:
    """One sampling campaign: scheme parameters plus trial budget."""

    scheme: str = "single"
    x: float = 1.0
    c: float = 1.0
    T: float | None = None
    n_pairs: int = 1
    phi: str = "default"
    validation_mode: str = "R2"
    seed: int = 0
    trials: int = 1
    alice_label: BellLabel = BellLabel(0, 0)
    bob_label: BellLabel = BellLabel(0, 0)
    strategy: Strategy | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.strategy is not None and self.strategy.role != "committer":
            raise ValueError("sampling campaigns model committer strategies only")

    def to_params(self) -> SchemeParams:
        return SchemeParams(
            scheme=self.scheme,
            x=self.x,
            c=self.c,
            T=self.T,
            n_pairs=self.n_pairs,
            phi_policy=parse_phi_policy(self.phi),
            bob_label=self.bob_label,
            validation_mode=self.validation_mode,
        )


@dataclass(frozen=True)
class StatsRow:
    """Observed vs exact for one outcome of one category."""

    category: str
    outcome: str
    count: int
    frequency: float
    exact_probability: float
    stderr: float
    z: float
    agrees: bool


@dataclass(frozen=True)
class StatsSummary:
    trials: int
    seed: int
    rows: tuple[StatsRow, ...]

    def row(self, category: str, outcome: str) -> StatsRow:
        for row in self.rows:
            if row.category == category and row.outcome == outcome:
                return row
        raise KeyError(f"no row for {category!r}/{outcome!r}")


def _make_row(category, outcome, count, draws, exact) -> StatsRow:
    count = int(count)
    frequency = count / draws
    stderr = math.sqrt(exact * (1.0 - exact) / draws)
    if stderr == 0.0:
        z = 0.0 if abs(frequency - exact) <= 1e-12 else math.inf
    else:
        z = (frequency - exact) / stderr
    return StatsRow(
        category=category,
        outcome=str(outcome),
        count=count,
        frequency=frequency,
        exact_probability=exact,
        stderr=stderr,
        z=z,
        agrees=abs(z) <= 5.0,
    )


def slot_table(table: Sequence[Transcript]) -> np.ndarray:
    """Branch index of each of ``SLOTS`` equiprobable slots, in table order.

    Raises ``ValueError`` unless each branch fills at least one whole
    slot (within ``PROB_ATOL * SLOTS``) and the slots add up to ``SLOTS``.
    """
    scaled = np.array([t.probability for t in table]) * SLOTS
    counts = np.rint(scaled)
    if counts.min() < 1 or counts.sum() != SLOTS or np.abs(scaled - counts).max() > PROB_ATOL * SLOTS:
        raise ValueError(f"branch weights are not whole multiples of 1/{SLOTS}")
    return np.repeat(np.arange(len(table), dtype=np.uint8), counts.astype(np.intp))


def _campaign(
    config: RunConfig,
) -> tuple[SchemeParams, tuple[Transcript, ...], np.ndarray, list[Verdict], BellLabel]:
    """Params, branch table, slot table, per-branch verdicts and the announced label."""
    params = config.to_params()
    strategy = config.strategy or Strategy.honest()
    committed, announced = _committer_labels(strategy, config.alice_label)
    table = branches(params, committed, config.bob_label)
    verdicts = [validate_transcript(t, announced, params.validation_mode) for t in table]
    return params, table, slot_table(table), verdicts, announced


def _slot_chunks(config: RunConfig) -> Iterator[np.ndarray]:
    """The campaign's drawn slots, one ``(trials, n_pairs)`` uint8 chunk at a time."""
    n_pairs = config.n_pairs
    chunk = max(1, min(CHUNK_TRIALS, CHUNK_DRAWS // n_pairs))
    for index, start in enumerate(range(0, config.trials, chunk)):
        rng = np.random.default_rng((config.seed, index))
        size = min(chunk, config.trials - start)
        yield rng.integers(SLOTS, size=(size, n_pairs), dtype=np.uint8)


def monte_carlo(config: RunConfig) -> StatsSummary:
    """Sample ``config.trials`` runs and collate outcome statistics.

    Reported categories: swap and teleport outcome marginals, stored
    confirmation bit, and reveal acceptance under the configured
    strategy and validation mode (string acceptance requires all pairs
    to pass).  Counts for per-pair categories aggregate over pairs.
    """
    params, table, slots, verdicts, _ = _campaign(config)
    n_pairs = params.n_pairs

    # per-slot outcomes, read through each slot's branch
    swap_ids = np.array([BELL_LABELS.index(t.swap_outcome) for t in table])[slots]
    tele_ids = np.array([BELL_LABELS.index(t.teleport_outcome) for t in table])[slots]
    bits = np.array([t.stored_alice_bit for t in table])[slots]
    accepts = np.array([v.accept for v in verdicts])[slots]

    slot_counts = np.zeros(SLOTS, dtype=np.int64)
    accept_count = 0
    for drawn in _slot_chunks(config):
        slot_counts += np.bincount(drawn.ravel(), minlength=SLOTS)
        accept_count += int(np.take(accepts, drawn).all(axis=1).sum())

    pair_draws = config.trials * n_pairs
    rows = []
    for category, ids, outcomes in (
        ("swap_outcome", swap_ids, BELL_LABELS),
        ("teleport_outcome", tele_ids, BELL_LABELS),
        ("stored_bit", bits, (0, 1)),
    ):
        for k, outcome in enumerate(outcomes):
            hits = ids == k
            rows.append(_make_row(category, outcome, slot_counts[hits].sum(), pair_draws,
                                  int(np.count_nonzero(hits)) / SLOTS))
    pair_acceptance = int(np.count_nonzero(accepts)) / SLOTS
    rows.append(
        _make_row("acceptance", "accept", accept_count, config.trials, pair_acceptance**n_pairs)
    )
    return StatsSummary(trials=config.trials, seed=config.seed, rows=tuple(rows))


def sample_transcripts(config: RunConfig) -> Iterator[Transcript]:
    """The campaign's drawn transcripts, validated, one per pair per trial.

    Each transcript carries the announced label and its verdict; string
    transcripts carry ``pair_index=k``.  The draws are exactly those
    :func:`monte_carlo` counts at the same configuration.  Set-up (and
    any configuration error) happens at the call; transcripts are drawn
    lazily, one chunk at a time.
    """
    params, table, slots, verdicts, announced = _campaign(config)
    validated = [
        dataclasses.replace(t, announced_alice_label=announced, verdict=verdict)
        for t, verdict in zip(table, verdicts)
    ]
    indexed = params.scheme == "string"
    return (
        dataclasses.replace(validated[branch], pair_index=k) if indexed else validated[branch]
        for drawn in _slot_chunks(config)
        for row in slots[drawn]
        for k, branch in enumerate(row.tolist())
    )


def stats_to_json(summary: StatsSummary) -> dict:
    return {
        "trials": summary.trials,
        "seed": summary.seed,
        "rows": [
            {
                "category": r.category,
                "outcome": r.outcome,
                "count": r.count,
                "frequency": r.frequency,
                "exact_probability": r.exact_probability,
                "stderr": r.stderr,
                "z": r.z,
                "agrees": r.agrees,
            }
            for r in summary.rows
        ],
    }
