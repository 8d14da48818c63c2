"""Mass sampling against exact references.

The runner takes a configuration's cached branch table, then draws
branch indices from the exact distribution in vectorized chunks, so
tens of millions of trials cost seconds.  Chunk ``k`` holds trials
``k * CHUNK_TRIALS`` onward and draws from its own generator derived
from ``(seed, k)``, so every count is reproducible bit for bit at a
fixed seed and trial budget.  At one seed the draws of a smaller
budget are a prefix of a larger budget's draws.  Every call starts at
chunk 0, so two campaigns with the same seed repeat draws rather than
splitting a budget between them; use distinct seeds for independent
campaigns.

Every reported frequency sits next to its exact enumerated probability,
a binomial standard error and a z-score; ``agrees`` flags deviations
beyond five standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import Strategy, _committer_labels
from .protocol import SchemeParams, branches, validate_transcript
from .quantum import BELL_LABELS, BasisStateSpec, BellLabel

__all__ = [
    "CHUNK_TRIALS",
    "RunConfig",
    "StatsRow",
    "StatsSummary",
    "monte_carlo",
    "parse_phi_policy",
    "stats_to_json",
]

CHUNK_TRIALS = 1 << 16

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
    output: str | None = None

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

    probs = np.array([t.probability for t in table])
    edges = np.cumsum(probs)
    swap_ids = np.array([BELL_LABELS.index(t.swap_outcome) for t in table])
    tele_ids = np.array([BELL_LABELS.index(t.teleport_outcome) for t in table])
    bits = np.array([t.stored_alice_bit for t in table])
    accepts = np.array([validate_transcript(t, announced, mode).accept for t in table])

    swap_counts = np.zeros(4, dtype=np.int64)
    tele_counts = np.zeros(4, dtype=np.int64)
    bit_counts = np.zeros(2, dtype=np.int64)
    accept_count = 0

    remaining = config.trials
    chunk_index = 0
    while remaining > 0:
        size = min(CHUNK_TRIALS, remaining)
        rng = np.random.default_rng((config.seed, chunk_index))
        uniforms = rng.random((size, n_pairs))
        idx = np.searchsorted(edges, uniforms * edges[-1], side="right")
        np.clip(idx, 0, len(table) - 1, out=idx)
        flat = idx.reshape(-1)
        swap_counts += np.bincount(swap_ids[flat], minlength=4)
        tele_counts += np.bincount(tele_ids[flat], minlength=4)
        bit_counts += np.bincount(bits[flat], minlength=2)
        accept_count += int(accepts[idx].all(axis=1).sum())
        remaining -= size
        chunk_index += 1

    def marginal(ids: np.ndarray, which: int) -> float:
        return math.fsum(p for p, k in zip(probs, ids) if k == which)

    pair_draws = config.trials * n_pairs
    rows = []
    for k, label in enumerate(BELL_LABELS):
        rows.append(_make_row("swap_outcome", label, swap_counts[k], pair_draws, marginal(swap_ids, k)))
    for k, label in enumerate(BELL_LABELS):
        rows.append(_make_row("teleport_outcome", label, tele_counts[k], pair_draws, marginal(tele_ids, k)))
    for bit in (0, 1):
        rows.append(_make_row("stored_bit", bit, bit_counts[bit], pair_draws, marginal(bits, bit)))
    pair_acceptance = math.fsum(p for p, ok in zip(probs, accepts) if ok)
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
