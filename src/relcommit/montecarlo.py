"""Seeded sampling against exact references: the package's one sampler.

A campaign checks its configuration's memoized code columns with one
verifier call, lays their probabilities out as a :func:`slot_table` of
``SLOTS = 256`` equiprobable slots and draws one random byte per pair,
so it samples the exact dyadic distribution.
Trials are drawn in chunks of ``CHUNK_TRIALS``, or of
``CHUNK_DRAWS // n_pairs`` when that is fewer, so a chunk holds at most
``CHUNK_DRAWS`` pair draws and memory stays near 3 MB at any
``n_pairs`` up to ``CHUNK_DRAWS``.  Chunk ``k``'s bytes are the raw
64-bit words of a generator derived from ``(seed, k)``, read as
little-endian bytes: the stream ``integers(256, dtype=np.uint8)`` draws,
at a third of its cost.  So every draw is reproducible bit for bit at a
fixed seed and trial budget, and since the chunk size depends only on
``n_pairs``, the draws of a smaller budget are a prefix of a larger
budget's draws at one seed.  Every call starts at chunk 0, so two
campaigns with the same seed repeat draws rather than splitting a
budget between them; use distinct seeds for independent campaigns.

Two functions read that one stream.  :func:`monte_carlo` tallies it on
the columns alone, one pass per chunk.  At an even pair count it reads
each row as little-endian 16-bit words, two draws per word; at an odd
count, one byte per draw.  One cast of those words to indices feeds
both a word histogram, folded to slot counts once per campaign, and a
lookup of each word's reject bit (set when either of its draws
rejects).  A trial accepts when its row sums to no rejects (summed in
uint8 over blocks of at most 255 words, so no sum wraps).  Either width
reads the same stream and gives the same counts.  Every reported
frequency sits next to its exact probability (a count of slots over
256), a binomial standard error and a z-score; ``agrees`` flags
deviations beyond five standard errors.  :func:`sample_branches` builds
the validated branch table, each branch once per campaign, and maps
each drawn slot to ``(branch index, pair index)``, so it yields exactly
the draws that :func:`monte_carlo` counts; ``relcommit run`` hands
table and draws to :func:`~relcommit.serialize.write_draws`, which
encodes each drawn branch once.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .adversary import Strategy
from .protocol import (
    SchemeParams,
    Transcript,
    _Check,
    _Columns,
    _pair_columns,
    _pair_indices,
    _scalar_rows,
    _transcript,
    _verdict,
    _verify,
    parse_phi_policy,
)
from .quantum import BELL_LABELS, PROB_ATOL, BellLabel

__all__ = [
    "CHUNK_DRAWS",
    "CHUNK_TRIALS",
    "SLOTS",
    "RunConfig",
    "StatsRow",
    "StatsSummary",
    "monte_carlo",
    "sample_branches",
    "slot_table",
    "stats_to_json",
]

CHUNK_TRIALS = 1 << 16
CHUNK_DRAWS = 1 << 18
SLOTS = 256  # one sampling slot per value of a random byte
_SUM_COLUMNS = 255  # most 0/1 columns whose uint8 row sum cannot wrap


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


def slot_table(probabilities: Sequence[float] | np.ndarray) -> np.ndarray:
    """Branch index of each of ``SLOTS`` equiprobable slots, in table order.

    Takes a branch table's probabilities.  Raises ``ValueError`` unless
    each branch fills at least one whole slot (within
    ``PROB_ATOL * SLOTS``) and the slots add up to ``SLOTS``.
    """
    scaled = np.asarray(probabilities) * SLOTS
    counts = np.rint(scaled)
    if counts.min() < 1 or counts.sum() != SLOTS or np.abs(scaled - counts).max() > PROB_ATOL * SLOTS:
        raise ValueError(f"branch weights are not whole multiples of 1/{SLOTS}")
    return np.repeat(np.arange(len(scaled), dtype=np.uint8), counts.astype(np.intp))


def _campaign(
    config: RunConfig,
) -> tuple[SchemeParams, BellLabel, BellLabel, _Columns, _Check, np.ndarray]:
    """Params, committed and announced label, the table's columns, its check and slot table."""
    params = config.to_params()
    strategy = config.strategy or Strategy.honest()
    committed, announced = strategy.committer_labels(config.alice_label)
    columns = _pair_columns(params, committed, config.bob_label)
    check = _verify(columns, announced, params.validation_mode)
    return params, committed, announced, columns, check, slot_table(columns.probability)


def _slot_chunks(config: RunConfig) -> Iterator[np.ndarray]:
    """The campaign's drawn slots, one ``(trials, n_pairs)`` uint8 chunk at a time.

    These are the bytes ``integers(SLOTS, dtype=np.uint8)`` draws: it fills
    from 32-bit outputs low byte first, and PCG64 gives each raw 64-bit
    word's low half first.
    """
    n_pairs = config.n_pairs
    chunk = max(1, min(CHUNK_TRIALS, CHUNK_DRAWS // n_pairs))
    for index, start in enumerate(range(0, config.trials, chunk)):
        draws = min(chunk, config.trials - start) * n_pairs
        rng = np.random.default_rng((config.seed, index))
        words = rng.bit_generator.random_raw(-(-draws // 8))
        yield words.astype("<u8", copy=False).view(np.uint8)[:draws].reshape(-1, n_pairs)


def monte_carlo(config: RunConfig) -> StatsSummary:
    """Sample ``config.trials`` runs and collate outcome statistics.

    Reported categories: swap and teleport outcome marginals, stored
    confirmation bit, and reveal acceptance under the configured
    strategy and validation mode (string acceptance requires all pairs
    to pass).  Counts for per-pair categories aggregate over pairs.
    """
    params, _, _, columns, check, slots = _campaign(config)
    n_pairs = params.n_pairs
    accepts = check.accept[slots]  # each slot's verdict, read through its branch
    rejects = (~accepts).view(np.uint8)
    # an even row is read as whole 16-bit words, two pairs each; a word
    # rejects when either of its bytes does, so it adds 0 or 1 to its row
    width = 2 if n_pairs % 2 == 0 else 1
    words = SLOTS**width
    word_rejects = rejects if width == 1 else (rejects[:, None] | rejects[None, :]).reshape(-1)

    word_counts = np.zeros(words, dtype=np.int64)
    accept_count = 0
    # one index buffer, as large as any chunk: a fresh one per chunk costs page faults
    draws = min(config.trials * n_pairs, max(CHUNK_DRAWS, n_pairs))
    buffer = np.empty(draws // width, dtype=np.intp)
    for drawn in _slot_chunks(config):
        drawn = drawn.view(f"<u{width}")  # low byte first: a row never straddles a word
        index = buffer[:drawn.size].reshape(drawn.shape)
        index[...] = drawn  # the one cast, read by both passes
        word_counts += np.bincount(index.ravel(), minlength=words)
        rejected = np.take(word_rejects, index)
        row_rejects = np.zeros(len(drawn), dtype=np.intp)
        for start in range(0, drawn.shape[1], _SUM_COLUMNS):
            row_rejects += np.einsum("ij->i", rejected[:, start:start + _SUM_COLUMNS])
        accept_count += int(np.count_nonzero(row_rejects == 0))
    # a word's count goes to both of its slots: high byte by row, low by column
    grid = word_counts.reshape(-1, SLOTS)
    slot_counts = grid.sum(1) + grid.sum(0) if width == 2 else word_counts

    pair_draws = config.trials * n_pairs
    rows = []
    for category, ids, outcomes in (
        ("swap_outcome", columns.swap[slots], BELL_LABELS),
        ("teleport_outcome", columns.tele[slots], BELL_LABELS),
        ("stored_bit", columns.stored_alice[slots], (0, 1)),
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


def sample_branches(
    config: RunConfig,
) -> tuple[tuple[Transcript, ...], Iterator[tuple[int, int | None]]]:
    """The campaign's validated branch table and its draws, one per pair per trial.

    Each branch of the table carries the announced label and its
    verdict.  Each draw is ``(branch, pair_index)``: the index of the
    drawn branch in the table, and the pair's position ``k`` for the
    string scheme or ``None`` for the one-pair schemes.  The draws are
    exactly those :func:`monte_carlo` counts at the same configuration.
    Set-up (and any configuration error) happens at the call; draws are
    made lazily, one chunk at a time.
    """
    params, committed, announced, columns, check, slots = _campaign(config)
    validated = tuple(
        _transcript(params, committed, config.bob_label, row, announced,
                    _verdict(row, announced, *checked))
        for row, checked in zip(_scalar_rows(columns), _scalar_rows(check))
    )
    indices = _pair_indices(params)
    return validated, (
        draw
        for drawn in _slot_chunks(config)
        for row in slots[drawn]
        for draw in zip(row.tolist(), indices)
    )


def stats_to_json(summary: StatsSummary) -> dict:
    return dataclasses.asdict(summary)
