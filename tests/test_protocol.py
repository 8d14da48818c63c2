"""Scheme state machine tests.

The central oracle here is parity bookkeeping: for a probe drawn from a
basis family, the stored confirmation bit must equal the probe's value
XORed with the relevant exponent bit of the net Pauli picked up on the
way (receiver label ^ swap outcome ^ teleport outcome).  Every
enumerated quantum branch is checked against that closed form, and the
validation semantics are checked branch by branch.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import math
import os
import pathlib
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relcommit import adversary, montecarlo, protocol, quantum
from relcommit.montecarlo import SLOTS, RunConfig, slot_table
from relcommit.protocol import (
    FULL_FAMILY,
    SchemeParams,
    Transcript,
    Verdict,
    _columns,
    _pair_columns,
    _verifier_tables,
    _verify,
    _with_pair_index,
    branches,
    clear_caches,
    committed_bit,
    committed_string,
    parse_phi_policy,
    run_pairs,
    validate_multiparty,
    validate_transcript,
)
from relcommit.quantum import (
    BELL_LABELS,
    PAULI_OPS,
    BasisStateSpec,
    BellLabel,
    PauliOp,
    apply_pauli,
    basis_measure,
    bell_measure,
    make_basis_state,
    make_bell,
    swapped_label,
    teleport_correction,
    tensor,
)
from relcommit.spacetime import SCHEMES, standard_schedule

Z0 = BasisStateSpec("Z", 0)
Z1 = BasisStateSpec("Z", 1)
X0 = BasisStateSpec("X", 0)
X1 = BasisStateSpec("X", 1)

# geometry inputs: small and arbitrary floats plus the edge values
_GEOMETRY = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(),
    st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, 1e-308]),
)


def stored_bit_oracle(transcript: Transcript) -> int:
    """Closed-form prediction of the stored confirmation bit."""
    net = transcript.bob_label ^ transcript.swap_outcome ^ transcript.teleport_outcome
    flip = net.j if transcript.phi.basis == "Z" else net.i
    return transcript.phi.value ^ flip


class TestCommittedCode:
    def test_bit_is_parity(self):
        assert committed_bit(BellLabel(0, 0)) == 0
        assert committed_bit(BellLabel(1, 0)) == 0
        assert committed_bit(BellLabel(0, 1)) == 1
        assert committed_bit(BellLabel(1, 1)) == 1

    def test_string_collects_parity_bits(self):
        assert committed_string(BELL_LABELS) == "0101"
        assert committed_string([BellLabel(1, 1), BellLabel(1, 0)]) == "10"
        assert committed_string([]) == ""


class TestSchemeParams:
    def test_defaults(self):
        params = SchemeParams("single")
        assert params.T == 10.0
        assert params.schedule == standard_schedule(1.0, 1.0, 10.0, "single")
        assert params.phi_policy == Z0
        assert params.phi_choices() == ((Z0, 1.0),)

    def test_string_default_policy_covers_all_four(self):
        params = SchemeParams("string", n_pairs=3)
        assert params.phi_policy == "uniform"
        choices = params.phi_choices()
        assert [spec for spec, _ in choices] == [Z0, Z1, X0, X1]
        assert all(w == 0.25 for _, w in choices)

    def test_uniform_policy_for_single_is_z_family(self):
        choices = SchemeParams("single", phi_policy="uniform").phi_choices()
        assert [spec for spec, _ in choices] == [Z0, Z1]
        assert all(w == 0.5 for _, w in choices)

    def test_single_rejects_diagonal_probe(self):
        with pytest.raises(ValueError):
            SchemeParams("single", phi_policy=X0)

    def test_string_accepts_diagonal_probe(self):
        params = SchemeParams("string", phi_policy=X1)
        assert params.phi_choices() == ((X1, 1.0),)

    def test_early_reveal_rejected(self):
        with pytest.raises(ValueError):
            SchemeParams("single", x=1.0, c=1.0, T=1.5)

    def test_pair_count_bounds(self):
        with pytest.raises(ValueError):
            SchemeParams("string", n_pairs=0)
        with pytest.raises(ValueError):
            SchemeParams("single", n_pairs=2)

    def test_physical_parameters_must_be_positive(self):
        with pytest.raises(ValueError, match="half-separation must be finite and non-negative"):
            SchemeParams("single", x=-1.0)
        with pytest.raises(ValueError, match="signal speed must be finite and positive"):
            SchemeParams("single", c=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["x", "c", "T"])
    def test_non_finite_parameters_rejected(self, field, value):
        name = {"x": "half-separation", "c": "signal speed", "T": "reveal time"}[field]
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SchemeParams("single", **{field: value})

    @given(
        scheme=st.sampled_from(SCHEMES),
        x=_GEOMETRY,
        c=_GEOMETRY,
        T=st.none() | _GEOMETRY,
    )
    @settings(max_examples=200, deadline=None, report_multiple_bugs=False)
    @example(scheme="single", x=0.0, c=1.0, T=None)  # colocated: valid
    @example(scheme="single", x=1.0, c=1.0, T=1.5)  # reveal before storage
    @example(scheme="multi", x=1e308, c=1e-308, T=None)  # storage phase overflows
    def test_geometry_rules_are_the_schedules(self, scheme, x, c, T):
        try:
            schedule = standard_schedule(x, c, T, scheme)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                SchemeParams(scheme, x=x, c=c, T=T)
            assert str(raised.value) == str(exc)
        else:
            params = SchemeParams(scheme, x=x, c=c, T=T)
            assert params.schedule == schedule
            assert params.T == schedule.phase_times.reveal

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            SchemeParams("pairwise")


class TestRunSingle:
    def test_enumeration_is_exhaustive_and_normalized(self):
        params = SchemeParams("single")
        for a in BELL_LABELS:
            branches = run_pairs(params, [a])[0]
            assert len(branches) == 16
            total = math.fsum(t.probability for t in branches)
            assert abs(total - 1.0) <= 1e-12

    def test_outcome_marginals_are_uniform(self):
        params = SchemeParams("single", bob_label=BellLabel(1, 1))
        swap = defaultdict(float)
        tele = defaultdict(float)
        for t in run_pairs(params, [BellLabel(0, 1)])[0]:
            swap[t.swap_outcome] += t.probability
            tele[t.teleport_outcome] += t.probability
        for dist in (swap, tele):
            assert len(dist) == 4
            for p in dist.values():
                assert abs(p - 0.25) <= 1e-12

    @pytest.mark.parametrize("phi", [Z0, Z1], ids=str)
    def test_stored_bit_matches_parity_oracle(self, phi):
        for a in BELL_LABELS:
            for b in BELL_LABELS:
                params = SchemeParams("single", bob_label=b, phi_policy=phi)
                for t in run_pairs(params, [a])[0]:
                    assert t.stored_alice_bit == stored_bit_oracle(t)

    def test_committer_label_is_invisible_in_stored_bit(self):
        # the oracle has no alice term; double-check by direct comparison
        params = SchemeParams("single")
        reference = None
        for a in BELL_LABELS:
            dist = defaultdict(float)
            for t in run_pairs(params, [a])[0]:
                dist[(t.swap_outcome, t.teleport_outcome, t.stored_alice_bit)] += t.probability
            if reference is None:
                reference = dist
            else:
                assert set(dist) == set(reference)
                for key in dist:
                    assert abs(dist[key] - reference[key]) <= 1e-12

    def test_sample_is_deterministic(self, sampled_transcripts):
        config = RunConfig(scheme="single", alice_label=BellLabel(1, 0), seed=42)
        first = sampled_transcripts(config)
        second = sampled_transcripts(config)
        assert first == second
        assert len(first) == 1

    def test_distinct_seeds_eventually_differ(self, sampled_transcripts):
        draws = {
            (t.swap_outcome, t.teleport_outcome)
            for seed in range(12)
            for t in sampled_transcripts(RunConfig(scheme="single", seed=seed))
        }
        assert len(draws) > 1

    def test_measurement_order_does_not_matter(self):
        # the two confirmation-phase joint measurements commute
        for a in BELL_LABELS:
            for b in BELL_LABELS:
                register = tensor([make_bell(a), make_bell(b), make_basis_state(Z0)])
                forward = defaultdict(float)
                for swap in bell_measure(register, 1, 2):
                    for tele in bell_measure(swap.post_state, 4, 3):
                        forward[(swap.outcome, tele.outcome)] += (
                            swap.probability * tele.probability
                        )
                backward = defaultdict(float)
                for tele in bell_measure(register, 4, 3):
                    for swap in bell_measure(tele.post_state, 1, 2):
                        backward[(swap.outcome, tele.outcome)] += (
                            tele.probability * swap.probability
                        )
                assert set(forward) == set(backward)
                for key in forward:
                    assert abs(forward[key] - backward[key]) <= 1e-12


class TestValidateSingle:
    @pytest.mark.parametrize("mode", ["R1", "R2"])
    def test_honest_reveal_always_accepted(self, mode):
        for a in BELL_LABELS:
            for b in BELL_LABELS:
                params = SchemeParams("single", bob_label=b)
                for t in run_pairs(params, [a])[0]:
                    assert validate_transcript(t, a, mode).accept

    def test_parity_flip_rejected_under_r2(self):
        params = SchemeParams("single")
        delta = BellLabel(0, 1)
        for a in BELL_LABELS:
            for t in run_pairs(params, [a])[0]:
                verdict = validate_transcript(t, a ^ delta, "R2")
                assert not verdict.accept
                assert "stored bit" in verdict.reason

    def test_sign_flip_accepted_under_r2(self):
        # announcement stays in the committed bit's class
        params = SchemeParams("single")
        delta = BellLabel(1, 0)
        for a in BELL_LABELS:
            for t in run_pairs(params, [a])[0]:
                announced = a ^ delta
                assert committed_bit(announced) == committed_bit(a)
                assert validate_transcript(t, announced, "R2").accept

    def test_r1_accepts_every_announcement(self):
        # announcement-derived frame cancels out of the recomputation
        params = SchemeParams("single")
        for a in BELL_LABELS:
            for t in run_pairs(params, [a])[0]:
                for announced in BELL_LABELS:
                    assert validate_transcript(t, announced, "R1").accept

    def test_unknown_mode(self):
        params = SchemeParams("single")
        t = run_pairs(params, [BellLabel(0, 0)])[0][0]
        with pytest.raises(ValueError):
            validate_transcript(t, BellLabel(0, 0), "R3")


class TestRunMultiparty:
    def test_enumeration_weights_sum_to_one(self):
        params = SchemeParams("multi")
        for a in BELL_LABELS:
            for b in BELL_LABELS:
                branches = run_pairs(dataclasses.replace(params, bob_label=b), [a])[0]
                assert abs(math.fsum(t.probability for t in branches) - 1.0) <= 1e-12

    def test_stored_bits_match_parity_oracles(self):
        params = SchemeParams("multi", phi_policy=Z1)
        for a in BELL_LABELS:
            for b in BELL_LABELS:
                for t in run_pairs(dataclasses.replace(params, bob_label=b), [a])[0]:
                    assert t.stored_alice_bit == stored_bit_oracle(t)
                    copy_net = t.bob_label ^ t.teleport_outcome
                    assert t.stored_bob_bit == t.phi.value ^ copy_net.j

    def test_mid_measurement_recorded_and_consistent(self):
        params = SchemeParams("multi", bob_label=BellLabel(0, 1))
        for t in run_pairs(params, [BellLabel(1, 1)])[0]:
            assert t.alice_mid_measurement in (0, 1)
            # frame applied after the mid measurement flips the stored bit by a_j
            assert t.stored_alice_bit == t.alice_mid_measurement ^ t.alice_label.j

    @pytest.mark.parametrize("mode", ["R1", "R2"])
    def test_honest_reveal_accepted(self, mode):
        params = SchemeParams("multi")
        for a in BELL_LABELS:
            for b in BELL_LABELS:
                for t in run_pairs(dataclasses.replace(params, bob_label=b), [a])[0]:
                    verdict = validate_multiparty(t, a, (b, t.teleport_outcome), mode)
                    assert verdict.accept, verdict.reason

    def test_second_committer_parity_flip_rejected(self):
        params = SchemeParams("multi")
        a, b = BellLabel(0, 0), BellLabel(1, 0)
        for t in run_pairs(dataclasses.replace(params, bob_label=b), [a])[0]:
            verdict = validate_multiparty(
                t, a, (b ^ BellLabel(0, 1), t.teleport_outcome), "R2"
            )
            assert not verdict.accept
            assert "bob" in verdict.reason

    def test_joint_flip_of_label_and_outcome_passes_probe_check(self):
        # flipping both announced labels' parity cancels in the probe copy
        # recomputation; the analyzer records this as a finding
        params = SchemeParams("multi")
        a, b = BellLabel(0, 0), BellLabel(1, 0)
        flip = BellLabel(0, 1)
        for t in run_pairs(dataclasses.replace(params, bob_label=b), [a])[0]:
            verdict = validate_multiparty(
                t, a, (b ^ flip, t.teleport_outcome ^ flip), "R2"
            )
            assert verdict.accept

    def test_first_committer_parity_flip_rejected_under_r2_only(self):
        params = SchemeParams("multi")
        a, b = BellLabel(1, 0), BellLabel(0, 0)
        for t in run_pairs(dataclasses.replace(params, bob_label=b), [a])[0]:
            announced = a ^ BellLabel(0, 1)
            assert not validate_multiparty(t, announced, (b, t.teleport_outcome), "R2").accept
            assert validate_multiparty(t, announced, (b, t.teleport_outcome), "R1").accept

    def test_missing_bob_bit_rejected(self):
        single_t = run_pairs(SchemeParams("single"), [BellLabel(0, 0)])[0][0]
        with pytest.raises(ValueError):
            validate_multiparty(single_t, BellLabel(0, 0), (BellLabel(0, 0), BellLabel(0, 0)))


class TestRunString:
    def test_enumerate_returns_per_pair_branches(self):
        params = SchemeParams("string", n_pairs=3)
        labels = [BellLabel(0, 0), BellLabel(1, 1), BellLabel(0, 1)]
        per_pair = run_pairs(params, labels)
        assert len(per_pair) == 3
        for k, branches in enumerate(per_pair):
            assert abs(math.fsum(t.probability for t in branches) - 1.0) <= 1e-12
            assert all(t.pair_index == k for t in branches)
            assert all(t.scheme == "string" for t in branches)
            # default string probe policy covers all four basis states
            probes = {t.phi for t in branches}
            assert probes == {Z0, Z1, X0, X1}

    def test_stored_bit_oracle_holds_for_diagonal_probes(self):
        params = SchemeParams("string", n_pairs=1, phi_policy=X1, bob_label=BellLabel(1, 0))
        for a in BELL_LABELS:
            for t in run_pairs(params, [a])[0]:
                assert t.stored_alice_bit == stored_bit_oracle(t)

    def test_sample_is_deterministic_per_pair(self, sampled_transcripts):
        config = RunConfig(scheme="string", n_pairs=4, alice_label=BellLabel(0, 1), seed=7)
        first = sampled_transcripts(config)
        second = sampled_transcripts(config)
        assert first == second
        assert [t.pair_index for t in first] == [0, 1, 2, 3]

    def test_runs_match_direct_pair_enumeration(self, sampled_transcripts):
        clear_caches()
        params = SchemeParams("string", n_pairs=3, bob_label=BellLabel(1, 1))
        labels = [BellLabel(0, 1), BellLabel(1, 0), BellLabel(0, 1)]
        enumerated = run_pairs(params, labels)
        for k, label in enumerate(labels):
            clear_caches()
            direct = branches(params, label)
            assert enumerated[k] == [dataclasses.replace(t, pair_index=k) for t in direct]
        # sampled transcripts are the drawn slots read through the same branches
        config = RunConfig(scheme="string", n_pairs=3, bob_label=BellLabel(1, 1),
                           alice_label=labels[0], seed=7, trials=2)
        clear_caches()
        direct = branches(params, labels[0])
        slots = slot_table([t.probability for t in direct])
        drawn = np.concatenate(list(montecarlo._slot_chunks(config))).ravel()
        sampled = sampled_transcripts(config)
        assert len(sampled) == len(drawn) == 6
        for n, (t, slot) in enumerate(zip(sampled, drawn)):
            expected = direct[slots[slot]]
            assert t == dataclasses.replace(expected, pair_index=n % 3, verdict=Verdict.accepted())
        # the shared table itself stays unindexed
        assert all(t.pair_index is None for t in branches(params, labels[0]))

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            run_pairs(SchemeParams("string", n_pairs=2), [BellLabel(0, 0)])

    @pytest.mark.parametrize("mode", ["R1", "R2"])
    def test_honest_string_reveal_accepted(self, mode):
        params = SchemeParams("string", n_pairs=2)
        labels = [BellLabel(1, 0), BellLabel(0, 1)]
        per_pair = run_pairs(params, labels)
        for t0 in per_pair[0]:
            for t1 in per_pair[1]:
                assert all(validate_transcript(t, a, mode).accept
                           for t, a in zip((t0, t1), labels))

    def test_parity_flip_on_any_pair_rejected_under_r2(self):
        params = SchemeParams("string", n_pairs=2, phi_policy=Z0)
        labels = [BellLabel(0, 0), BellLabel(0, 0)]
        per_pair = run_pairs(params, labels)
        for flipped_pair in (0, 1):
            announced = list(labels)
            announced[flipped_pair] = announced[flipped_pair] ^ BellLabel(0, 1)
            for t0 in per_pair[0]:
                for t1 in per_pair[1]:
                    rejected = [k for k, (t, a) in enumerate(zip((t0, t1), announced))
                                if not validate_transcript(t, a, "R2").accept]
                    assert rejected
                    assert rejected[0] == flipped_pair


def _fresh_bit(phi: BasisStateSpec, first: PauliOp, second: PauliOp) -> int:
    """Uncached state-vector prediction: rotate the probe twice, measure."""
    state = apply_pauli(apply_pauli(make_basis_state(phi), 0, first), 0, second)
    (branch,) = basis_measure(state, 0, phi.basis)
    return int(branch.outcome)


def _pauli(label: BellLabel) -> PauliOp:
    return PauliOp(label.i, label.j)


def _code(label: BellLabel) -> int:
    return BELL_LABELS.index(label)


class TestMemoizedVerifier:
    def test_expected_bit_matches_fresh_state_vectors(self):
        clear_caches()
        prediction = _verifier_tables().prediction
        assert prediction.shape == (4, 4, 4)
        for p, phi in enumerate(FULL_FAMILY):
            for frame in BELL_LABELS:
                for c, correction in enumerate(PAULI_OPS):
                    assert prediction[p, _code(frame), c] == _fresh_bit(
                        phi, correction, _pauli(frame)
                    )
        assert _verifier_tables() is _verifier_tables()
        assert _verifier_tables.cache_info().currsize == 1

    def test_probe_copy_bit_matches_fresh_state_vectors(self):
        # the second committer's copy reads the frame axis with his
        # teleportation outcome and the correction axis with his label
        clear_caches()
        prediction = _verifier_tables().prediction
        for p, phi in enumerate(FULL_FAMILY):
            for label in BELL_LABELS:
                for tele in BELL_LABELS:
                    assert prediction[p, _code(tele), _code(label)] == _fresh_bit(
                        phi, _pauli(label), _pauli(tele)
                    )

    def test_predictions_equal_one_pauli_stack_per_rotation(self):
        # two signed gathers, one per axis, give the bytes of rotating each
        # probe by its correction and then its frame, one Pauli at a time
        clear_caches()
        tables = _verifier_tables()

        def turned(amplitudes: np.ndarray, op: PauliOp) -> np.ndarray:
            return quantum._framed(amplitudes[None], 0, [PAULI_OPS.index(op)])[0]

        for p, phi in enumerate(FULL_FAMILY):
            rotated = np.stack([turned(turned(protocol._PROBE_KETS[p], correction), frame)
                                for frame in PAULI_OPS for correction in PAULI_OPS])
            measured = quantum._measure_stack(rotated, (0,), phi.basis)
            assert measured.codes.tolist() == tables.prediction[p].ravel().tolist()

    def test_label_lookups_match_the_certified_algebra(self):
        tables = _verifier_tables()
        for a in BELL_LABELS:
            for b in BELL_LABELS:
                assert PAULI_OPS[tables.correction[_code(a), _code(b)]] == teleport_correction(a, b)
                for s in BELL_LABELS:
                    assert BELL_LABELS[tables.swap[_code(a), _code(b), _code(s)]] == swapped_label(
                        a, b, s
                    )
        for table in tables:
            assert not table.flags.writeable


# the reference verifier predicts each of its 64 inputs once, on state vectors
_reference_bit = functools.cache(_fresh_bit)


def _reference_verdict(t: Transcript, announced: BellLabel, mode: str, bob_claim=None) -> Verdict:
    """The per-branch verifier on label objects and fresh state vectors.

    Rebuilds the correction from the certified label algebra, predicts
    each stored bit on state vectors, and words the reason as the
    verifier always has.
    """
    if t.scheme == "multi" and bob_claim is None:
        bob_claim = (t.bob_label, t.teleport_outcome)
    alice, bob, tele = t.alice_label, t.bob_label, t.teleport_outcome
    if mode == "R1":
        alice = announced
        bob, tele = bob_claim or (bob, tele)
    correction = teleport_correction(swapped_label(alice, bob, t.swap_outcome), tele)
    expected = _reference_bit(t.phi, correction, _pauli(announced))
    if bob_claim is None:
        if expected == t.stored_alice_bit:
            return Verdict.accepted()
        return Verdict.aborted(
            f"stored bit {t.stored_alice_bit} != expected {expected} "
            f"for announced label {announced}"
        )
    claim_label, claim_tele = bob_claim
    bob_expected = _reference_bit(t.phi, _pauli(claim_label), _pauli(claim_tele))
    failures = []
    if bob_expected != t.stored_bob_bit:
        failures.append(f"bob: stored probe copy bit {t.stored_bob_bit} != expected {bob_expected}")
    if expected != t.stored_alice_bit:
        failures.append(f"alice: stored bit {t.stored_alice_bit} != expected {expected}")
    return Verdict.aborted("; ".join(failures)) if failures else Verdict.accepted()


_CLAIMS = [(label, tele) for label in BELL_LABELS for tele in BELL_LABELS]


_POLICIES = {
    "single": ("default", "uniform", Z0, Z1),
    "multi": ("default", "uniform", Z0, Z1),
    "string": ("default", "uniform", Z0, Z1, X0, X1),
}


class TestTableVerifier:
    @pytest.mark.parametrize(
        "scheme,policy,mode",
        # "default" is left out: it resolves to Z0 or "uniform"
        [(s, p, m) for s in ("single", "multi", "string")
         for p in ("uniform", Z0, Z1) + ((X0, X1) if s == "string" else ())
         for m in ("R1", "R2")],
        ids=str,
    )
    def test_table_call_equals_the_one_row_wrappers(self, scheme, policy, mode):
        params = SchemeParams(scheme, phi_policy=policy)
        for alice in BELL_LABELS:
            for bob in BELL_LABELS:
                table = branches(dataclasses.replace(params, bob_label=bob), alice)
                columns = _pair_columns(dataclasses.replace(params, bob_label=bob), alice)
                for announced in BELL_LABELS:
                    accept = _verify(columns, announced, mode).accept
                    assert accept.shape == (len(table),)
                    for t, bit in zip(table, accept.tolist()):
                        verdict = validate_transcript(t, announced, mode)
                        assert verdict == _reference_verdict(t, announced, mode)
                        assert verdict.accept is bit
                    if scheme != "multi":
                        continue
                    for claim in _CLAIMS:
                        accept = _verify(columns, announced, mode, claim).accept
                        for t, bit in zip(table, accept.tolist()):
                            verdict = validate_multiparty(t, announced, claim, mode)
                            assert verdict == _reference_verdict(t, announced, mode, claim)
                            assert verdict.accept is bit

    @given(
        scheme=st.sampled_from(SCHEMES),
        policy=st.sampled_from(["uniform", Z0, Z1]),
        mode=st.sampled_from(["R1", "R2"]),
        alice=st.sampled_from(BELL_LABELS),
        codes=st.lists(st.integers(0, 3), min_size=4, max_size=4),
        claim=st.none() | st.sampled_from(_CLAIMS),
        branch=st.integers(min_value=0),
    )
    @settings(max_examples=150, deadline=None)
    def test_code_column_equals_one_call_per_announced_label(
        self, scheme, policy, mode, alice, codes, claim, branch
    ):
        columns = _columns(SchemeParams(scheme, phi_policy=policy), alice)
        claim = claim if scheme == "multi" else None
        check = _verify(columns, np.array(codes)[:, None], mode, claim)
        assert check.accept.shape == check.alice_expected.shape == (4, len(columns.probe))
        row = list(protocol._scalar_rows(columns))[branch % len(columns.probe)]
        for k, code in enumerate(codes):
            one = _verify(columns, BELL_LABELS[code], mode, claim)
            assert check.accept[k].tolist() == one.accept.tolist()
            assert check.alice_expected[k].tolist() == one.alice_expected.tolist()
            if scheme == "multi":
                assert check.bob_expected.tolist() == one.bob_expected.tolist()
            else:
                assert check.bob_expected is one.bob_expected is None
            scalar = _verify(row, BELL_LABELS[code], mode, claim)
            assert scalar.accept == check.accept[k, branch % len(columns.probe)]

    def test_columns_read_the_table_in_order(self):
        params = SchemeParams("multi", phi_policy="uniform", bob_label=BellLabel(0, 1))
        table = branches(params, BellLabel(1, 0))
        columns = _pair_columns(params, BellLabel(1, 0))
        assert columns.probability.tolist() == [t.probability for t in table]
        assert columns.stored_bob.tolist() == [t.stored_bob_bit for t in table]
        assert columns.swap.tolist() == [_code(t.swap_outcome) for t in table]
        assert _columns(SchemeParams("single"), BellLabel(1, 0)).stored_bob is None

    @pytest.mark.parametrize("scheme,policy", [(s, p) for s, policies in _POLICIES.items()
                                               for p in policies], ids=str)
    def test_committed_label_table_is_its_pair_tables_receiver_major(self, scheme, policy):
        params = SchemeParams(scheme, phi_policy=policy)
        for alice in BELL_LABELS:
            columns = _columns(params, alice)
            rows = [t for bob in BELL_LABELS
                    for t in branches(dataclasses.replace(params, bob_label=bob), alice)]
            assert columns.bob.tolist() == [_code(t.bob_label) for t in rows]
            assert columns.probability.tolist() == [t.probability for t in rows]
            assert columns.tele.tolist() == [_code(t.teleport_outcome) for t in rows]
            assert columns.probability.flags.writeable is False

    @pytest.mark.parametrize("scheme,policy", [(s, p) for s, policies in _POLICIES.items()
                                               for p in policies], ids=str)
    def test_branches_are_the_table_rows_of_the_params_label_pair(self, scheme, policy):
        params = SchemeParams(scheme, phi_policy=policy)
        table = list(protocol._scalar_rows(protocol._params_table(params)))
        for alice in BELL_LABELS:
            for bob in BELL_LABELS:
                # fresh copies: each transcript holds the shared member instead
                got = branches(dataclasses.replace(params, bob_label=BellLabel(bob.i, bob.j)),
                               BellLabel(alice.i, alice.j))
                rows = [row for row in table if (row.alice, row.bob) == (_code(alice), _code(bob))]
                assert [(protocol.BASIS_STATES.index(t.phi), _code(t.alice_label),
                         _code(t.bob_label), _code(t.swap_outcome), _code(t.teleport_outcome),
                         t.stored_alice_bit, t.stored_bob_bit, t.alice_mid_measurement,
                         t.probability) for t in got] == [tuple(row) for row in rows]
                assert all(t.alice_label is alice and t.bob_label is bob for t in got)

    @pytest.mark.parametrize("scheme,policy", [(s, p) for s, policies in _POLICIES.items()
                                               for p in policies], ids=str)
    def test_table_transcripts_are_what_the_constructor_builds(self, scheme, policy):
        # ``_transcript`` skips ``__init__``: the constructor takes each row as it stands
        params = SchemeParams(scheme, phi_policy=policy)
        multi = scheme == "multi"
        for row in protocol._scalar_rows(protocol._params_table(params)):
            probe, alice, bob, swap, tele, stored, stored_bob, mid, probability = row
            for announced, verdict in ((BELL_LABELS[alice], None),
                                       (BELL_LABELS[3 - alice], Verdict.aborted("no"))):
                t = protocol._transcript(params, row, announced, verdict)
                expected = Transcript(
                    scheme=scheme, alice_label=BELL_LABELS[alice], bob_label=BELL_LABELS[bob],
                    swap_outcome=BELL_LABELS[swap], teleport_outcome=BELL_LABELS[tele],
                    phi=protocol.BASIS_STATES[probe], stored_alice_bit=stored,
                    probability=probability, schedule=params.schedule,
                    stored_bob_bit=stored_bob, alice_mid_measurement=mid,
                    announced_alice_label=announced,
                    announced_bob_label=BELL_LABELS[bob] if multi else None,
                    announced_teleport_outcome=BELL_LABELS[tele] if multi else None,
                    verdict=verdict,
                )
                assert type(t) is Transcript and t == expected and hash(t) == hash(expected)
                assert list(vars(t).items()) == list(vars(expected).items())

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sampled_transcripts_share_the_label_members(self, scheme):
        config = RunConfig(scheme=scheme, alice_label=BellLabel(1, 0), bob_label=BellLabel(0, 1))
        table, _ = montecarlo.sample_branches(config)
        assert all(t.alice_label is BELL_LABELS[2] and t.bob_label is BELL_LABELS[1]
                   for t in table)


class TestTableChecks:
    # one row of a freshly enumerated table breaks a rule every branch keeps
    @pytest.mark.parametrize("scheme,column,value", [
        ("single", "probability", 0.0),
        ("single", "probability", 1.5),
        ("string", "stored_alice", 2),
        ("multi", "probability", 0.0),
        ("multi", "stored_alice", 2),
        ("multi", "stored_bob", 2),
    ])
    def test_bad_enumerated_row_rejected(self, monkeypatch, scheme, column, value):
        real = protocol._enumerate

        def broken(*args):
            columns = real(*args)
            values = getattr(columns, column).copy()
            values[3] = value
            return columns._replace(**{column: values})

        monkeypatch.setattr(protocol, "_enumerate", broken)
        clear_caches()
        message = "branch probability" if column == "probability" else "stored bit"
        with pytest.raises(ValueError, match=f"^{message}.*{value}"):
            _columns(SchemeParams(scheme), BellLabel(0, 1))
        with pytest.raises(ValueError, match=f"^{message}"):
            branches(SchemeParams(scheme, bob_label=BellLabel(1, 0)), BellLabel(0, 1))


class TestSlotTable:
    @pytest.mark.parametrize("scheme,policy",
                             [(s, p) for s, policies in _POLICIES.items() for p in policies])
    def test_slots_reproduce_every_branch_weight(self, scheme, policy):
        params = SchemeParams(scheme, phi_policy=policy)
        for alice in BELL_LABELS:
            for bob in BELL_LABELS:
                table = branches(dataclasses.replace(params, bob_label=bob), alice)
                slots = slot_table([t.probability for t in table])
                assert slots.dtype == np.uint8 and len(slots) == SLOTS
                filled = np.bincount(slots, minlength=len(table)) / SLOTS
                assert [t.probability for t in table] == filled.tolist()

    @pytest.mark.parametrize("weights", [
        (1 / 3, 2 / 3),  # not dyadic
        (0.5, 0.25),  # short of one
        (0.5, 0.5, 1e-13),  # a branch too light for one slot
        (1 / 512, 1 - 1 / 512),  # dyadic, finer than a byte
    ])
    def test_non_dyadic_table_rejected(self, weights):
        template = branches(SchemeParams("single"), BellLabel(0, 0))[0]
        table = [dataclasses.replace(template, probability=w) for w in weights]
        with pytest.raises(ValueError):
            slot_table([t.probability for t in table])


# Every table of every scheme and probe policy, hashed field by field
# with each probability's exact bits, so a one-ulp drift fails.  These
# policies form every memo key, and the digest was taken from tables
# that pass the integer oracle (TestOnePass), every weight exact.
_GOLDEN_POLICIES = (
    ("single", (Z0, Z1, "uniform")),
    ("multi", (Z0, Z1, "uniform")),
    ("string", ("uniform", Z0, Z1, X0, X1)),
)
_GOLDEN_DIGEST = "df34fcce13bffb650c942d755a22af99a039129fd7f18048b2ba1cd5adc14808"


def _field_text(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def branch_tables_digest() -> str:
    digest = hashlib.sha256()
    for scheme, policies in _GOLDEN_POLICIES:
        for policy in policies:
            params = SchemeParams(scheme, phi_policy=policy)
            for alice in BELL_LABELS:
                for bob in BELL_LABELS:
                    for t in branches(dataclasses.replace(params, bob_label=bob), alice):
                        for f in dataclasses.fields(t):
                            text = _field_text(getattr(t, f.name))
                            digest.update(f"{f.name}={text};".encode())
                    digest.update(b"|")
    return digest.hexdigest()


class TestGoldenTables:
    def test_every_table_is_bit_identical(self):
        clear_caches()
        assert branch_tables_digest() == _GOLDEN_DIGEST

    def test_tables_do_not_depend_on_the_blas_kernel(self):
        # OpenBLAS reads its kernel at load, so a fresh process takes the
        # generic SSE3 one; other BLAS builds ignore the variable
        tests = pathlib.Path(__file__).resolve().parent
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from test_protocol import branch_tables_digest; print(branch_tables_digest())")
        env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(tests.parent / "src"),
                                                             os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code, str(tests)], env=env,
                                capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stdout.strip()) == (0, _GOLDEN_DIGEST), result.stderr

    def test_tables_do_not_depend_on_numpy_simd_dispatch(self):
        # numpy reads its dispatch at import, so a fresh process with every
        # target above its build's baseline disabled runs the baseline loops;
        # float64 einsum's rounding may depend on those
        try:
            from numpy._core._multiarray_umath import __cpu_dispatch__
        except ImportError:  # numpy 1.x
            from numpy.core._multiarray_umath import __cpu_dispatch__
        tests = pathlib.Path(__file__).resolve().parent
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from test_protocol import branch_tables_digest; print(branch_tables_digest())")
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__),
                   PYTHONPATH=os.pathsep.join(filter(None, [str(tests.parent / "src"),
                                                             os.environ.get("PYTHONPATH")])))
        env.pop("NPY_ENABLE_CPU_FEATURES", None)
        result = subprocess.run([sys.executable, "-c", code, str(tests)], env=env,
                                capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stdout.strip()) == (0, _GOLDEN_DIGEST), result.stderr


def _per_probe_pass(multi: bool, probe: BasisStateSpec, prior: float) -> protocol._Columns:
    """One probe state's branches of every label pair, enumerated alone:
    the construction that one pass over all probe states replaced."""
    probe_code = quantum.BASIS_STATES.index(probe)
    stack = protocol._registers(protocol._PROBE_KETS[probe_code])
    steps = []
    plan = [((1, 2), "bell"), ((4, 3), "bell")] + ([((0,), "Z")] if multi else [])
    for qubits, basis in plan:
        measured = quantum._measure_stack(stack, qubits, basis)
        steps.append(measured._replace(residuals=None))
        frame = (0, protocol._lineage(steps)[0] // 4) if len(steps) == len(plan) else None
        stack = quantum._collapsed(measured, qubits, basis, frame)
    steps.append(quantum._measure_stack(stack, (0,), probe.basis)._replace(residuals=None))
    if multi:
        register, _, t, *_ = protocol._lineage(steps)
        tables = _verifier_tables()
        at = (probe_code, steps[1].codes[t], register % 4)
        parents = np.arange(len(register))
        steps.append(quantum._Projection(parents, np.ones(len(register)), tables.prediction[at], None))
    register, *rows = protocol._lineage(steps)
    probability = prior
    for step, row in zip(steps, rows):
        probability = probability * step.probabilities[row]
    swap_codes, tele_codes, *rest = (step.codes[row] for step, row in zip(steps, rows))
    mid, stored_alice, stored_bob = rest if multi else (None, *rest, None)
    return protocol._Columns(
        np.full(len(register), probe_code), register // 4, register % 4,
        swap_codes, tele_codes, stored_alice, stored_bob, mid, probability,
    )


def _per_probe_table(multi: bool, probes: tuple[BasisStateSpec, ...]) -> protocol._Columns:
    """One pass per probe state, concatenated and then stably sorted by label pair."""
    passes = [_per_probe_pass(multi, probe, 1.0 / len(probes)) for probe in probes]
    enumerated = protocol._Columns._make(
        None if parts[0] is None else np.concatenate(parts) for parts in zip(*passes)
    )
    order = np.argsort(4 * enumerated.alice + enumerated.bob, kind="stable")
    return protocol._Columns._make(None if column is None else column[order] for column in enumerated)


class TestOnePass:
    # every memo key that some SchemeParams forms: multi or not, and its probe states
    _KEYS = sorted({(scheme == "multi", tuple(spec for spec, _ in
                                                SchemeParams(scheme, phi_policy=policy).phi_choices()))
                    for scheme, policies in _POLICIES.items() for policy in policies},
                   key=repr)

    def test_memo_keys_are_each_probe_and_both_families(self):
        singles = {(False, (spec,)) for spec in quantum.BASIS_STATES}
        singles |= {(True, (spec,)) for spec in protocol.Z_FAMILY}
        families = {(False, protocol.Z_FAMILY), (False, FULL_FAMILY), (True, protocol.Z_FAMILY)}
        assert set(self._KEYS) == singles | families

    @pytest.mark.parametrize("multi,probes", _KEYS, ids=[
        "-".join(["multi" if multi else "pair", *map(str, probes)]) for multi, probes in _KEYS])
    def test_table_equals_the_per_probe_construction(self, multi, probes):
        clear_caches()
        table = protocol._table(multi, probes)
        oracle = _per_probe_table(multi, probes)
        for name, got, want in zip(protocol._Columns._fields, table, oracle):
            if want is None:
                assert got is None, name
            else:
                assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name


    @pytest.mark.parametrize("multi,probes", _KEYS, ids=[
        "-".join(["multi" if multi else "pair", *map(str, probes)]) for multi, probes in _KEYS])
    def test_table_equals_the_integer_oracle(self, multi, probes):
        clear_caches()
        table = protocol._table(multi, probes)
        oracle = _oracle_table(multi, [(spec.basis, spec.value) for spec in probes])
        for name, got in zip(protocol._Columns._fields, table):
            want = oracle[name]
            if name == "probability":
                assert got.tolist() == [float(weight) for weight in want]
            elif want is None:
                assert got is None, name
            else:
                assert got.tolist() == want, name

    @pytest.mark.parametrize("multi,probes", _KEYS, ids=[
        "-".join(["multi" if multi else "pair", *map(str, probes)]) for multi, probes in _KEYS])
    def test_protocol_stacks_conserve_weight_exactly(self, monkeypatch, multi, probes):
        # integer rows: with no tolerance, every row's total is its ket
        # scale times its squared norm, and no branch is dropped but zeros
        clear_caches()
        expected = protocol._table(multi, probes)
        monkeypatch.setattr(quantum, "PROB_ATOL", 0.0)
        clear_caches()
        try:
            table = protocol._table(multi, probes)
        finally:
            clear_caches()
        for got, want in zip(table, expected):
            assert (got is None and want is None) or got.tobytes() == want.tobytes()


# An independent oracle of the branch tables, in pure Python: integer
# amplitudes, with the pair and X kets scaled by sqrt(2) so every entry
# is 0 or +-1, literal 2x2 Pauli matrices, and each step's weight the
# Fraction |residual|^2 / (ket scale * |state|^2).  No numpy.
_QUBITS = 5


def _bit(index: int, qubit: int) -> int:
    return (index >> (_QUBITS - 1 - qubit)) & 1


def _pair_ket(code: int):
    i, j = code >> 1, code & 1
    return lambda x0, x1: 0 if x0 ^ x1 != j else (-1) ** (i & x0)


def _basis_ket(basis: str, value: int):
    return (lambda x: int(x == value)) if basis == "Z" else (lambda x: (-1) ** (value & x))


_PAULI_MATRICES = ((1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, -1), (0, 1, -1, 0))  # I X Z ZX, row-major


def _oracle_measure(state: list, qubits: tuple, kets: list):
    """(outcome, Fraction weight, collapsed integer state) of each outcome of nonzero weight."""
    mask = sum(1 << (_QUBITS - 1 - q) for q in qubits)
    norm = sum(a * a for a in state)
    for outcome, ket in enumerate(kets):
        scale = sum(ket(*bits) ** 2 for bits in itertools.product((0, 1), repeat=len(qubits)))
        residual = defaultdict(int)
        for x, amplitude in enumerate(state):
            residual[x & ~mask] += ket(*(_bit(x, q) for q in qubits)) * amplitude
        weight = Fraction(sum(r * r for r in residual.values()), scale * norm)
        if weight:
            yield outcome, weight, [ket(*(_bit(x, q) for q in qubits)) * residual[x & ~mask]
                                    for x in range(1 << _QUBITS)]


def _oracle_frame(state: list, code: int) -> list:
    """Pauli ``code`` (a label's) on qubit 0, as its literal matrix."""
    m = _PAULI_MATRICES[code]
    top = 1 << (_QUBITS - 1)
    return [m[2 * _bit(x, 0)] * state[x & ~top] + m[2 * _bit(x, 0) + 1] * state[x | top]
            for x in range(1 << _QUBITS)]


def _oracle_copy_bit(basis: str, value: int, first: int, second: int) -> int:
    """The one outcome of a probe turned by Pauli ``first``, then ``second``, measured in its basis."""
    ket = [_basis_ket(basis, value)(x) for x in (0, 1)]
    for code in (first, second):
        m = _PAULI_MATRICES[code]
        ket = [m[0] * ket[0] + m[1] * ket[1], m[2] * ket[0] + m[3] * ket[1]]
    (bit,) = [v for v in (0, 1) if sum(_basis_ket(basis, v)(x) * ket[x] for x in (0, 1))]
    return bit


def _oracle_table(multi: bool, probes: list) -> dict:
    """Every branch of every label pair, sorted as :func:`protocol._table` sorts them."""
    columns = defaultdict(list)
    pair_kets = [_pair_ket(code) for code in range(4)]
    z_kets = [_basis_ket("Z", 0), _basis_ket("Z", 1)]
    for a, b, (basis, value) in itertools.product(range(4), range(4), probes):
        probe = _basis_ket(basis, value)
        confirm = [_basis_ket(basis, 0), _basis_ket(basis, 1)]
        register = [pair_kets[a](_bit(x, 0), _bit(x, 1)) * pair_kets[b](_bit(x, 2), _bit(x, 3))
                    * probe(_bit(x, 4)) for x in range(1 << _QUBITS)]
        for swap, w_swap, state in _oracle_measure(register, (1, 2), pair_kets):
            for tele, w_tele, state in _oracle_measure(state, (4, 3), pair_kets):
                mids = _oracle_measure(state, (0,), z_kets) if multi else [(None, 1, state)]
                for mid, w_mid, state in mids:
                    framed = _oracle_frame(state, a)
                    for stored, w_stored, _ in _oracle_measure(framed, (0,), confirm):
                        row = dict(
                            probe=("Z0", "Z1", "X0", "X1").index(f"{basis}{value}"),
                            alice=a, bob=b, swap=swap, tele=tele, stored_alice=stored,
                            stored_bob=_oracle_copy_bit(basis, value, b, tele) if multi else None,
                            mid=mid,
                            probability=w_swap * w_tele * w_mid * w_stored / len(probes),
                        )
                        for name, v in row.items():
                            columns[name].append(v)
    if not multi:
        columns["stored_bob"] = columns["mid"] = None
    return columns


# Every ordered tuple of distinct probe states: 4 + 12 + 24 + 24 = 64
_PROBE_TUPLES = [probes for size in range(1, 5)
                 for probes in itertools.permutations(quantum.BASIS_STATES, size)]


def _real_route_tables():
    """Every parameter-free table, as bytes: each :func:`protocol._table`
    over both ``multi`` values and all 64 probe tuples, the verifier's and
    the extraction views."""
    clear_caches()
    try:
        tables = [protocol._table(multi, probes)
                  for multi in (False, True) for probes in _PROBE_TUPLES]
        tables.append(_verifier_tables())
        views = [adversary._extraction_views_enumerated(measurement).tobytes()
                 for measurement in ("Z", "X", "pair")]
    finally:
        clear_caches()  # no table of a patched route outlives it
    encoded = [b"".join(column.tobytes() for column in table if column is not None)
               for table in tables]
    return encoded, views


class TestRealTables:
    """The protocol's kets, frames and registers are real, so its stacks are
    float64.  Real and complex sums may round differently on arbitrary
    input; on the protocol's own tables they must not."""

    def test_every_table_equals_the_complex_route_bit_for_bit(self, monkeypatch):
        dtypes = set()

        def spy(measure):
            def measure_stack(stack, qubits, basis):
                dtypes.add(stack.dtype)
                return measure(stack, qubits, basis)
            return measure_stack

        for module in (protocol, adversary):
            monkeypatch.setattr(module, "_measure_stack", spy(module._measure_stack))
        real = _real_route_tables()
        assert dtypes == {np.dtype(np.float64)}  # no silent fall-back to complex
        registers = protocol._registers
        monkeypatch.setattr(protocol, "_registers",
                            lambda probe: registers(probe).astype(np.complex128))
        monkeypatch.setattr(protocol, "_PROBE_KETS", protocol._PROBE_KETS.astype(np.complex128))
        monkeypatch.setattr(adversary, "_BELL_KETS", adversary._BELL_KETS.astype(np.complex128))
        dtypes.clear()
        complex_route = _real_route_tables()
        assert dtypes == {np.dtype(np.complex128)}
        assert complex_route == real

    @pytest.mark.parametrize("probe", quantum.BASIS_STATES, ids=str)
    def test_registers_are_the_real_parts_of_tensor_products(self, probe):
        # integer registers: each is the tensor product times its own norm
        registers = protocol._registers(protocol._PROBE_KETS[quantum.BASIS_STATES.index(probe)])
        assert registers.dtype == np.float64
        assert np.isin(registers, (-1.0, 0.0, 1.0)).all()
        for a, alice in enumerate(BELL_LABELS):
            for b, bob in enumerate(BELL_LABELS):
                state = quantum.tensor([make_bell(alice), make_bell(bob), make_basis_state(probe)])
                assert (state.amplitudes.imag == 0).all()
                register = registers[4 * a + b]
                np.testing.assert_allclose(state.amplitudes.real * np.linalg.norm(register),
                                           register, rtol=0, atol=1e-15)


def _module_caches():
    return {
        (module.__name__, name): value
        for module in (quantum, protocol, adversary)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }


class TestCaches:
    def test_clear_caches_empties_every_cache(self):
        caches = _module_caches()
        assert {("relcommit.protocol", "_table"),
                ("relcommit.protocol", "_verifier_tables"),
                ("relcommit.quantum", "_pauli_frames"),
                ("relcommit.quantum", "_measured_first")} <= set(caches)
        for scheme, n_pairs in (("multi", 1), ("string", 2)):
            adversary.build_report(SchemeParams(scheme, n_pairs=n_pairs))
        for key, cache in caches.items():
            assert cache.cache_info().currsize > 0, key
        adversary.clear_caches()
        for key, cache in caches.items():
            assert cache.cache_info().currsize == 0, key

    def test_one_table_per_scheme_family_probe_set_and_label(self):
        # pair count, receiver label, geometry and mode leave a table unchanged
        clear_caches()
        for n_pairs, bob in ((4, BellLabel(0, 0)), (4, BellLabel(0, 1)), (5, BellLabel(0, 0))):
            adversary.build_report(SchemeParams("string", n_pairs=n_pairs, bob_label=bob))
        # and one table holds every committed label
        assert protocol._table.cache_info().misses == 1
        z0 = (SchemeParams("single"), SchemeParams("single", x=2.0, validation_mode="R1"),
              SchemeParams("string", phi_policy=Z0))
        for params in z0:
            adversary.build_report(params)
        assert protocol._table.cache_info().misses == 2
        assert len({params.schedule for params in z0}) == 3
        for params in z0:
            for t in branches(dataclasses.replace(params, bob_label=BellLabel(0, 1)),
                              BellLabel(1, 0)):
                assert (t.scheme, t.schedule) == (params.scheme, params.schedule)
        assert protocol._table.cache_info().misses == 2

    def test_callers_cannot_mutate_the_cached_table(self):
        params = SchemeParams("single")
        run_pairs(params, [BellLabel(1, 1)])[0].clear()
        run_pairs(SchemeParams("string"), [BellLabel(1, 1)])[0].clear()
        assert len(run_pairs(params, [BellLabel(1, 1)])[0]) == 16
        assert len(branches(SchemeParams("string"), BellLabel(1, 1))) == 64


class TestEnumerationWork:
    @pytest.mark.parametrize(
        "scheme,policy", [(s, p) for s, policies in _GOLDEN_POLICIES for p in policies], ids=str
    )
    def test_cold_table_builds_only_the_register(self, monkeypatch, scheme, policy):
        # the registers come from the engine's ket arrays and measured
        # branches stay rows of a stack, so no state vector is built
        made = []
        state_vector = quantum.StateVector
        monkeypatch.setattr(quantum, "StateVector",
                            lambda amplitudes: made.append(amplitudes) or state_vector(amplitudes))
        params = SchemeParams(scheme, phi_policy=policy, bob_label=BellLabel(0, 1))
        clear_caches()
        assert branches(params, BellLabel(1, 0))
        assert made == []


class TestTranscript:
    def test_rejects_bad_bit(self):
        t = run_pairs(SchemeParams("single"), [BellLabel(0, 0)])[0][0]
        with pytest.raises(ValueError):
            Transcript(
                scheme="single",
                alice_label=t.alice_label,
                bob_label=t.bob_label,
                swap_outcome=t.swap_outcome,
                teleport_outcome=t.teleport_outcome,
                phi=t.phi,
                stored_alice_bit=2,
                probability=t.probability,
                schedule=t.schedule,
            )

    @pytest.mark.parametrize("scheme", ["single", "multi", "string"])
    def test_pair_index_copy_is_replace(self, scheme):
        params = SchemeParams(scheme, phi_policy=parse_phi_policy("uniform"),
                              bob_label=BellLabel(0, 1))
        table = branches(params, BellLabel(1, 0))
        # one branch with a verdict and an index already, as the reader copies it
        table += (dataclasses.replace(table[0], pair_index=3, verdict=Verdict.aborted("no")),)
        for t in table:
            before = vars(t).copy()
            for k in (None, 0, 7, 10**6):
                copy = _with_pair_index(t, k)
                expected = dataclasses.replace(t, pair_index=k)
                assert type(copy) is Transcript and copy == expected
                assert vars(copy) == vars(expected) and copy.pair_index == k
                assert hash(copy) == hash(expected)
            assert vars(t) == before

    def test_verdict_constructors(self):
        assert Verdict.accepted().accept
        bad = Verdict.aborted("because")
        assert not bad.accept and bad.reason == "because"
