"""Mass sampling against exact references.

The runner reads a configuration's cached branch table through its
:func:`~relcommit.protocol.slot_table` and draws one random byte per
pair, so it samples the exact dyadic distribution.  Trials are drawn in
chunks of ``CHUNK_TRIALS``, or of ``CHUNK_DRAWS // n_pairs`` when that
is fewer, so a chunk holds at most ``CHUNK_DRAWS`` pair draws and
memory stays near 2.5 MB at any ``n_pairs`` up to ``CHUNK_DRAWS``.
Chunk ``k`` draws from its own generator derived from ``(seed, k)``, so
every count is reproducible bit for bit at a fixed seed and trial
budget.  The chunk size depends only on ``n_pairs``, so at one seed the
draws of a smaller budget are a prefix of a larger budget's draws.
Every call starts at chunk 0, so two campaigns with the same seed
repeat draws rather than splitting a budget between them; use distinct
seeds for independent campaigns.

Every reported frequency sits next to its exact probability (a count of
slots over 256), a binomial standard error and a z-score; ``agrees``
flags deviations beyond five standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import Strategy, _committer_labels
from .protocol import SLOTS, SchemeParams, _draw_slots, branches, slot_table, validate_transcript
from .quantum import BELL_LABELS, BasisStateSpec, BellLabel

__all__ = [
    "CHUNK_DRAWS",
    "CHUNK_TRIALS",
    "RunConfig",
    "StatsRow",
    "StatsSummary",
    "monte_carlo",
    "parse_phi_policy",
    "stats_to_json",
]

CHUNK_TRIALS = 1 << 16
CHUNK_DRAWS = 1 << 18

_PHI_NAMES = {
    "Z0": BasisStateSpec("Z", 0),
    "Z1": BasisStateSpec("Z", 1),
    "X0": BasisStateSpec("X", 0),
    "X1": BasisStateSpec("X", 1),
}


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


def monte_carlo(config: RunConfig) -> StatsSummary:
    """Sample ``config.trials`` runs and collate outcome statistics.

    Reported categories: swap and teleport outcome marginals, stored
    confirmation bit, and reveal acceptance under the configured
    strategy and validation mode (string acceptance requires all pairs
    to pass).  Counts for per-pair categories aggregate over pairs.
    """
    strategy = config.strategy or Strategy.honest()
    committed, announced = _committer_labels(strategy, config.alice_label)
    table = branches(config.to_params(), committed, config.bob_label)
    mode = config.validation_mode
    n_pairs = config.n_pairs if config.scheme == "string" else 1

    # per-slot outcomes, read through each slot's branch
    slots = slot_table(table)
    swap_ids = np.array([BELL_LABELS.index(t.swap_outcome) for t in table])[slots]
    tele_ids = np.array([BELL_LABELS.index(t.teleport_outcome) for t in table])[slots]
    bits = np.array([t.stored_alice_bit for t in table])[slots]
    accepts = np.array([validate_transcript(t, announced, mode).accept for t in table])[slots]

    slot_counts = np.zeros(SLOTS, dtype=np.int64)
    accept_count = 0
    chunk = max(1, min(CHUNK_TRIALS, CHUNK_DRAWS // n_pairs))
    remaining = config.trials
    chunk_index = 0
    while remaining > 0:
        size = min(chunk, remaining)
        rng = np.random.default_rng((config.seed, chunk_index))
        drawn = _draw_slots(rng, size * n_pairs)
        slot_counts += np.bincount(drawn, minlength=SLOTS)
        accept_count += int(np.take(accepts, drawn.reshape(size, n_pairs)).all(axis=1).sum())
        remaining -= size
        chunk_index += 1

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
