"""Sampling harness tests: determinism, bookkeeping, statistical sanity."""

from __future__ import annotations

import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcommit import montecarlo
from relcommit.adversary import Strategy
from relcommit.montecarlo import (
    CHUNK_DRAWS,
    CHUNK_TRIALS,
    SLOTS,
    RunConfig,
    _SLICE_WORDS,
    _campaign,
    _slices,
    _slot_chunks,
    monte_carlo,
    parse_phi_policy,
    sample_branches,
)
from relcommit.protocol import Transcript, branches, validate_transcript
from relcommit.quantum import BELL_LABELS, BasisStateSpec, BellLabel


def _assert_budgets_nest(n_pairs):
    chunk = min(CHUNK_TRIALS, CHUNK_DRAWS // n_pairs)

    def campaign(trials):
        return monte_carlo(RunConfig(
            scheme="string", n_pairs=n_pairs, phi="uniform", trials=trials, seed=5,
            strategy=Strategy.relabel_announce(BellLabel(1, 0)),
        ))

    budgets = (chunk - 1, chunk, chunk + 1, chunk + 1000)
    summaries = [campaign(trials) for trials in budgets]
    for k in range(len(budgets) - 1):
        small, large = summaries[k], summaries[k + 1]
        for before, after in zip(small.rows, large.rows):
            assert (before.category, before.outcome) == (after.category, after.outcome)
            assert before.count <= after.count, (budgets[k], before.category, before.outcome)
        extra = sum(after.count - before.count for before, after
                    in zip(small.rows, large.rows) if before.category == "swap_outcome")
        assert extra == (budgets[k + 1] - budgets[k]) * n_pairs


def _tally(config):
    """Every count of ``monte_carlo(config)``, tallied one drawn byte at a time."""
    _, _, columns, check, slots = _campaign(config)
    accepts = check.accept[slots]
    slot_counts = np.zeros(SLOTS, dtype=np.int64)
    accepted = 0
    for drawn in montecarlo._slot_chunks(config):
        slot_counts += np.bincount(drawn.ravel(), minlength=SLOTS)
        accepted += int(np.count_nonzero(accepts[drawn].all(axis=1)))
    assert sum(slot_counts) == config.trials * config.n_pairs
    expected = {("acceptance", "accept"): accepted}
    for category, ids, outcomes in (("swap_outcome", columns.swap[slots], BELL_LABELS),
                                    ("teleport_outcome", columns.tele[slots], BELL_LABELS),
                                    ("stored_bit", columns.stored_alice[slots], (0, 1))):
        for k, outcome in enumerate(outcomes):
            expected[category, str(outcome)] = int(slot_counts[ids == k].sum())
    return expected


def _counts(config):
    return {(r.category, r.outcome): r.count for r in monte_carlo(config).rows}


class TestRunConfig:
    def test_phi_names(self):
        assert parse_phi_policy("Z1") == BasisStateSpec("Z", 1)
        assert parse_phi_policy("uniform") == "uniform"
        with pytest.raises(ValueError):
            parse_phi_policy("W0")

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            RunConfig(trials=0)

    def test_seed_non_negative(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            RunConfig(seed=-1)

    def test_receiver_strategy_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(strategy=Strategy.receiver_skip())


class TestMonteCarlo:
    def test_counts_are_consistent(self):
        summary = monte_carlo(RunConfig(scheme="single", trials=4096, seed=3))
        for category, total in (("swap_outcome", 4096), ("teleport_outcome", 4096),
                                ("stored_bit", 4096)):
            counts = [r.count for r in summary.rows if r.category == category]
            assert sum(counts) == total

    def test_determinism_is_bitwise(self):
        config = RunConfig(scheme="single", trials=100_000, seed=11)
        assert monte_carlo(config) == monte_carlo(config)

    def test_larger_budget_extends_smaller_one(self):
        # chunk streams are prefixes: a larger budget draws a smaller
        # budget's trials first, so no count can fall.  Budgets end inside
        # the first chunk, on its boundary, and in the next chunk; a
        # one-trial step leaves no room for reshuffled draws to hide.
        _assert_budgets_nest(n_pairs=2)

    def test_draw_sized_chunks_extend_too(self):
        # at 64 pairs a chunk is cut short by CHUNK_DRAWS, not CHUNK_TRIALS
        _assert_budgets_nest(n_pairs=64)

    @pytest.mark.parametrize("n_pairs", [1, 3, 7, 64, 300])
    def test_chunks_are_the_integers_stream(self, n_pairs):
        # the raw little-endian words are the bytes integers(256, uint8)
        # draws; budgets end inside the first chunk and 3 trials into the
        # second, which leaves 3 * n_pairs bytes (no multiple of 8 but at 64)
        chunk = min(CHUNK_TRIALS, CHUNK_DRAWS // n_pairs)
        for trials in (1, chunk + 3):
            chunks = list(_slot_chunks(RunConfig(scheme="string", n_pairs=n_pairs,
                                                 trials=trials, seed=9)))
            sizes = [min(chunk, trials - start) for start in range(0, trials, chunk)]
            assert len(chunks) == len(sizes)
            for k, (drawn, size) in enumerate(zip(chunks, sizes)):
                reference = np.random.default_rng((9, k)).integers(
                    SLOTS, size=(size, n_pairs), dtype=np.uint8)
                assert drawn.dtype == np.uint8 and drawn.shape == reference.shape
                assert np.array_equal(drawn, reference), (trials, k)

    @pytest.mark.parametrize("n_pairs", [1, 2, 3, 4, 20, 200, 512, 513])
    def test_counts_equal_a_per_byte_tally(self, n_pairs):
        # even rows are counted two draws per 16-bit word; tally the same
        # bytes one at a time.  A sign flip on the four-state probe rejects
        # half the slots, and the budget ends 3 trials into the second chunk.
        chunk = min(CHUNK_TRIALS, CHUNK_DRAWS // n_pairs)
        config = RunConfig(scheme="string", n_pairs=n_pairs, phi="uniform", trials=chunk + 3,
                           seed=10, strategy=Strategy.relabel_announce(BellLabel(1, 0)))
        _, _, _, check, slots = _campaign(config)
        assert np.count_nonzero(check.accept[slots]) == SLOTS // 2
        assert _counts(config) == _tally(config)

    @pytest.mark.parametrize("n_pairs,sizes", [(20, [4369] * 3), (200, [655] * 2)])
    def test_full_chunks_cut_into_equal_slices(self, n_pairs, sizes):
        # a 20-pair chunk is 13,107 rows of 10 words, at most 6,553 rows a
        # slice: three of 4,369, not 6,553 + 6,553 + 1.  A 200-pair chunk is
        # 1,310 rows of 100 words, two slices of the most (655) rows.
        rows = min(CHUNK_TRIALS, CHUNK_DRAWS // n_pairs)
        step = _SLICE_WORDS // (n_pairs // 2)  # even rows are read two pairs a word
        slices = list(_slices(rows, step))
        assert [s.stop - s.start for s in slices] == sizes
        assert [s.start for s in slices] == [sum(sizes[:k]) for k in range(len(sizes))]

    @settings(deadline=None)
    @given(rows=st.integers(1, CHUNK_TRIALS), step=st.integers(1, _SLICE_WORDS))
    def test_slices_cover_rows_with_the_fewest_passes(self, rows, step):
        slices = list(_slices(rows, step))
        assert len(slices) == -(-rows // step)
        assert slices[0].start == 0 and slices[-1].stop == rows
        assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
        sizes = {s.stop - s.start for s in slices}
        assert max(sizes) <= step and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("n_pairs", [253, 254, 255, 256, 509, 510, 511, 512])
    def test_full_lanes_never_carry(self, monkeypatch, n_pairs):
        # crafted draws: every draw of a campaign is slot s, so each lane the
        # slot sets is full in every block.  254 pairs fill one 127-word row
        # block (each lane at 254) and 255 pairs one 255-byte block; the
        # others spill a word or byte into a next block, and three rows make
        # the flat total blocks straddle rows
        config = RunConfig(scheme="string", n_pairs=n_pairs, phi="uniform", trials=3,
                           strategy=Strategy.relabel_announce(BellLabel(1, 0)))
        lanes_hit = set()
        for s in range(SLOTS):
            drawn = np.full((config.trials, n_pairs), s, dtype=np.uint8)
            monkeypatch.setattr(montecarlo, "_slot_chunks", lambda config: iter([drawn]))
            expected = _tally(config)
            assert _counts(config) == expected, s
            lanes_hit |= {key for key, count in expected.items() if count}
        assert len(lanes_hit) == 11  # every outcome of every category is some slot's

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_campaign_equals_a_per_byte_tally(self, data):
        scheme = data.draw(st.sampled_from(["single", "multi", "string"]), label="scheme")
        string = scheme == "string"
        n_pairs = data.draw(st.integers(1, 600), label="n_pairs") if string else 1
        probes = ["default", "uniform", "Z0", "Z1"] + (["X0", "X1"] if string else [])
        delta = data.draw(st.sampled_from(BELL_LABELS), label="delta")
        chunk = min(CHUNK_TRIALS, CHUNK_DRAWS // n_pairs)
        config = RunConfig(
            scheme=scheme, n_pairs=n_pairs,
            phi=data.draw(st.sampled_from(probes), label="phi"),
            validation_mode=data.draw(st.sampled_from(["R1", "R2"]), label="mode"),
            seed=data.draw(st.integers(0, 2**32), label="seed"),
            trials=chunk + data.draw(st.integers(1, 600), label="extra trials"),
            alice_label=data.draw(st.sampled_from(BELL_LABELS), label="alice"),
            bob_label=data.draw(st.sampled_from(BELL_LABELS), label="bob"),
            strategy=None if delta == BellLabel(0, 0) else Strategy.relabel_announce(delta),
        )
        assert _counts(config) == _tally(config)

    @pytest.mark.parametrize("n_pairs,delta,accepted", [
        (256, BellLabel(1, 1), 0), (510, BellLabel(1, 1), 0), (512, BellLabel(1, 1), 0),
        (514, BellLabel(1, 1), 0), (256, None, 1500), (514, None, 1500),
    ])
    def test_row_reject_count_cannot_wrap(self, n_pairs, delta, accepted):
        # relabel 11 rejects every pair, so each row holds n_pairs rejects, or
        # n_pairs / 2 rejecting words: a plain uint8 row sum wraps 256 of them
        # to 0 and would accept every trial.  510 pairs fill exactly one
        # 255-word block, 514 pairs spill two words into a second.  1500
        # trials cross the chunk boundary (1024 trials at 256 pairs, 510 at 514).
        strategy = None if delta is None else Strategy.relabel_announce(delta)
        config = RunConfig(scheme="string", n_pairs=n_pairs, trials=1500, seed=6,
                           strategy=strategy)
        row = monte_carlo(config).row("acceptance", "accept")
        assert row.exact_probability == (1.0 if delta is None else 0.0)
        assert row.count == accepted

    @pytest.mark.parametrize("n_pairs", [3, 4, 510, 511, 512, 514])
    def test_one_reject_anywhere_rejects_its_trial(self, monkeypatch, n_pairs):
        # crafted draws: row i rejects at pair positions[i] alone (first and
        # last column, each side of the 255-word and 255-byte block edges),
        # and a last row accepts throughout
        config = RunConfig(scheme="string", n_pairs=n_pairs, phi="uniform", trials=1,
                           strategy=Strategy.relabel_announce(BellLabel(1, 0)))
        _, _, _, check, slots = _campaign(config)
        accepts = check.accept[slots]
        accept, reject = int(np.argmax(accepts)), int(np.argmin(accepts))
        positions = sorted({0, 1, 253, 254, 255, 256, 509, 510, 511, n_pairs - 1} & set(range(n_pairs)))
        drawn = np.full((len(positions) + 1, n_pairs), accept, dtype=np.uint8)
        drawn[np.arange(len(positions)), positions] = reject
        monkeypatch.setattr(montecarlo, "_slot_chunks", lambda config: iter([drawn]))
        config = dataclasses.replace(config, trials=len(drawn))
        assert monte_carlo(config).row("acceptance", "accept").count == 1

    @pytest.mark.parametrize("n_pairs", [1, 20, 64, 200])
    def test_memory_stays_bounded(self, n_pairs):
        # 65536 trials of n_pairs held at once would take 65536 * n_pairs draws
        config = RunConfig(scheme="string", n_pairs=n_pairs, trials=CHUNK_TRIALS, seed=8)
        monte_carlo(dataclasses.replace(config, trials=1))  # fill the branch cache
        tracemalloc.start()
        try:
            monte_carlo(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_marginals_track_exact_references(self):
        summary = monte_carlo(RunConfig(scheme="single", trials=200_000, seed=1))
        for row in summary.rows:
            assert row.agrees, (row.category, row.outcome, row.z)
        # slot counts over 256 give the dyadic values exactly, not fsum residues
        expected = {"swap_outcome": 0.25, "teleport_outcome": 0.25, "stored_bit": 0.5,
                    "acceptance": 1.0}
        assert len(summary.rows) == 11
        for row in summary.rows:
            assert row.exact_probability == expected[row.category], (row.category, row.outcome)

    def test_honest_acceptance_is_certain(self):
        summary = monte_carlo(RunConfig(scheme="multi", trials=2000, seed=9))
        row = summary.row("acceptance", "accept")
        assert row.count == 2000
        assert abs(row.exact_probability - 1.0) <= 1e-12
        assert row.agrees

    def test_relabel_acceptance_matches_exact_value(self):
        config = RunConfig(
            scheme="single",
            phi="Z0",
            trials=50_000,
            seed=2,
            strategy=Strategy.relabel_announce(BellLabel(0, 1)),
        )
        row = monte_carlo(config).row("acceptance", "accept")
        assert row.exact_probability <= 1e-12
        assert row.count == 0

    def test_string_acceptance_uses_all_pairs(self):
        config = RunConfig(
            scheme="string",
            n_pairs=4,
            trials=30_000,
            seed=13,
            strategy=Strategy.relabel_announce(BellLabel(1, 0)),
        )
        summary = monte_carlo(config)
        row = summary.row("acceptance", "accept")
        assert row.exact_probability == 0.5**4
        assert row.agrees, row.z
        # per-pair categories aggregate over pairs
        swap_total = sum(r.count for r in summary.rows if r.category == "swap_outcome")
        assert swap_total == 30_000 * 4

    @pytest.mark.parametrize("n_pairs", [1, 4])
    def test_sampled_transcripts_are_the_counted_draws(self, n_pairs):
        # one more chunk than fills, at one pair (counted byte by byte) and at
        # four (two draws per word); a sign flip on a uniform string probe is
        # accepted half the time per pair, and a trial when all its pairs are
        chunk = min(CHUNK_TRIALS, CHUNK_DRAWS // n_pairs)
        config = RunConfig(scheme="string", n_pairs=n_pairs, phi="uniform", trials=chunk + 1000,
                           seed=4, strategy=Strategy.relabel_announce(BellLabel(1, 0)))
        table, draws = sample_branches(config)
        drawn = list(draws)
        assert [k for _, k in drawn] == list(range(n_pairs)) * config.trials
        rows = np.array([branch for branch, _ in drawn]).reshape(config.trials, n_pairs)
        tally = Counter()
        for t, uses in zip(table, np.bincount(rows.ravel(), minlength=len(table)).tolist()):
            assert t.announced_alice_label == BellLabel(1, 0)
            tally["swap_outcome", str(t.swap_outcome)] += uses
            tally["teleport_outcome", str(t.teleport_outcome)] += uses
            tally["stored_bit", str(t.stored_alice_bit)] += uses
        verdicts = np.array([t.verdict.accept for t in table])
        tally["acceptance", "accept"] = int(np.count_nonzero(verdicts[rows].all(axis=1)))
        counted = {(r.category, r.outcome): r.count for r in monte_carlo(config).rows}
        assert counted == {key: tally[key] for key in counted}
        assert sum(tally.values()) == sum(counted.values())
        assert 0 < counted["acceptance", "accept"] < config.trials

    @pytest.mark.parametrize("mode", ["R1", "R2"])
    @pytest.mark.parametrize("scheme,n_pairs", [("single", 1), ("multi", 1), ("string", 3)])
    def test_table_equals_stamped_branches(self, scheme, n_pairs, mode):
        # each branch is built once with its announced label and verdict: the
        # same transcript as a plain branch stamped with both afterwards
        aborted = []
        for delta in BELL_LABELS:
            config = RunConfig(scheme=scheme, n_pairs=n_pairs, phi="uniform", validation_mode=mode,
                               alice_label=BellLabel(1, 0), bob_label=BellLabel(0, 1),
                               strategy=None if delta == BellLabel(0, 0)
                               else Strategy.relabel_announce(delta))
            announced = delta ^ config.alice_label
            reference = [
                dataclasses.replace(t, announced_alice_label=announced,
                                    verdict=validate_transcript(t, announced, mode))
                for t in branches(config.to_params(), config.alice_label)
            ]
            table, _ = sample_branches(config)
            assert len(table) == len(reference)
            for built, expected in zip(table, reference):
                for field in dataclasses.fields(Transcript):
                    assert getattr(built, field.name) == getattr(expected, field.name), field.name
            aborted += [t.verdict.reason for t in table if not t.verdict.accept]
        if mode == "R2":  # a parity flip is caught in R2 only
            prefix = "alice: stored bit " if scheme == "multi" else "stored bit "
            assert aborted and all(reason.startswith(prefix) for reason in aborted)
        else:
            assert aborted == []

    def test_missing_row_lookup(self):
        summary = monte_carlo(RunConfig(trials=10))
        with pytest.raises(KeyError):
            summary.row("acceptance", "nope")
