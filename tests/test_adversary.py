"""Security analyzer tests.

Expected values below are frozen from closed-form analysis of the label
algebra (worked out independently of the implementation) and certified
inside the package itself by the dual enumeration/algebra routes:

* R2 acceptance with a uniform four-state probe per pair:
  honest 1, sign flip 1/2, parity flip 1/2, joint flip 0.
* R2 acceptance with a fixed computational probe:
  sign flip 1, parity flip 0, joint flip 0.
* R1 acceptance: 1 for every announcement (the announced frame cancels).
* Concealment TV distance: exactly 0 in every scheme.
* Extraction guess probability: exactly 1/2 for every receiver attack.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcommit import adversary, montecarlo, protocol, quantum
from relcommit.adversary import (
    SecurityReport,
    SelfCheckError,
    Strategy,
    _acceptance_by_label_algebraic,
    _acceptance_by_label_enumerated,
    build_report,
    concealment_tv,
    detection_probability,
    extraction_guess_probability,
    string_cheat_acceptance,
)
from relcommit.montecarlo import RunConfig, monte_carlo
from relcommit.protocol import SchemeParams, Transcript, branches
from relcommit.quantum import BELL_LABELS, BasisStateSpec, BellLabel

Z0 = BasisStateSpec("Z", 0)
Z1 = BasisStateSpec("Z", 1)
X0 = BasisStateSpec("X", 0)
X1 = BasisStateSpec("X", 1)
DELTAS = [BellLabel(0, 1), BellLabel(1, 0), BellLabel(1, 1)]


class TestStrategyValidation:
    def test_relabel_requires_nonzero_shift(self):
        with pytest.raises(ValueError):
            Strategy.relabel_announce(BellLabel(0, 0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Strategy("committer", "forge")
        with pytest.raises(ValueError):
            Strategy("eavesdropper", "honest")

    def test_extract_basis_required(self):
        with pytest.raises(ValueError):
            Strategy("receiver", "early_extract", basis="Y")

    @pytest.mark.parametrize("basis", ["Z", "X", "pair"])
    def test_receiver_skip_takes_no_basis(self, basis):
        with pytest.raises(ValueError, match="receiver_skip takes no 'basis'"):
            Strategy("receiver", "receiver_skip", basis=basis)

    @pytest.mark.parametrize("kind", ["honest", "relabel_announce", "delayed_rechoice"])
    def test_committer_takes_no_basis(self, kind):
        delta = None if kind == "honest" else BellLabel(0, 1)
        with pytest.raises(ValueError, match="'basis'"):
            Strategy("committer", kind, delta=delta, basis="Z")

    @pytest.mark.parametrize("kind,basis", [("early_extract", "X"), ("receiver_skip", None)])
    def test_receiver_takes_no_delta(self, kind, basis):
        with pytest.raises(ValueError, match="'delta'"):
            Strategy("receiver", kind, delta=BellLabel(0, 1), basis=basis)

    def test_role_mismatch_rejected(self):
        with pytest.raises(ValueError):
            detection_probability(SchemeParams("single"), Strategy.receiver_skip())
        with pytest.raises(ValueError):
            extraction_guess_probability(Strategy.honest())


class TestCommitterLabels:
    @pytest.mark.parametrize("delta", DELTAS, ids=str)
    def test_labels_committed_and_announced(self, delta):
        for chosen in BELL_LABELS:
            assert Strategy.honest().committer_labels(chosen) == (chosen, chosen)
            assert Strategy.relabel_announce(delta).committer_labels(chosen) == (
                chosen, chosen ^ delta)
            assert Strategy.delayed_rechoice(delta).committer_labels(chosen) == (
                chosen ^ delta, chosen ^ delta)

    def test_analyzer_shift_is_committed_xor_announced(self):
        # only a relabel moves the announcement off the committed label
        params = SchemeParams("single", phi_policy=Z0)
        assert detection_probability(params, Strategy.relabel_announce(BellLabel(0, 1))) == 1.0
        honest = detection_probability(params, Strategy.honest())
        assert detection_probability(params, Strategy.delayed_rechoice(BellLabel(0, 1))) == honest
        assert honest <= 1e-12

    def test_receiver_strategies_have_no_labels(self):
        with pytest.raises(ValueError):
            Strategy.receiver_skip().committer_labels(BellLabel(0, 0))


class TestDualRouteAgreement:
    @pytest.mark.parametrize("mode", ["R1", "R2"])
    @pytest.mark.parametrize("policy", [Z0, "uniform"], ids=["Z0", "uniform"])
    @pytest.mark.parametrize("delta", DELTAS, ids=str)
    def test_routes_agree_on_single(self, mode, policy, delta):
        params = SchemeParams("single", phi_policy=policy, validation_mode=mode)
        shift = BELL_LABELS.index(delta)
        enum = _acceptance_by_label_enumerated(params)[shift]
        alg = _acceptance_by_label_algebraic(params)[shift]
        for label in range(len(BELL_LABELS)):
            assert abs(enum[label] - alg[label]) <= 1e-12

    @pytest.mark.parametrize("mode", ["R1", "R2"])
    @pytest.mark.parametrize("delta", DELTAS, ids=str)
    def test_routes_agree_on_multi(self, mode, delta):
        params = SchemeParams("multi", validation_mode=mode)
        shift = BELL_LABELS.index(delta)
        enum = _acceptance_by_label_enumerated(params)[shift]
        alg = _acceptance_by_label_algebraic(params)[shift]
        for label in range(len(BELL_LABELS)):
            assert abs(enum[label] - alg[label]) <= 1e-12


    def test_disagreement_names_the_shift(self, monkeypatch):
        real = adversary._acceptance_by_label_algebraic

        def skewed(params):
            table = real(params)
            table[BELL_LABELS.index(DELTAS[0])] += 1e-9  # that shift's row only
            return table

        monkeypatch.setattr(adversary, "_acceptance_by_label_algebraic", skewed)
        with pytest.raises(SelfCheckError, match=r"^acceptance\[shift=01, label=00\]: "):
            detection_probability(SchemeParams("single"), Strategy.relabel_announce(DELTAS[0]))


def _flipped(array: np.ndarray, index: tuple, value: int) -> np.ndarray:
    broken = array.copy()
    broken[index] = value
    return broken


class TestDualRouteGuard:
    # An R2 scan with the Z0 probe reads every verifier entry of the
    # probe at the zero shift, so one broken entry is caught there.

    def _scan_with_tables(self, monkeypatch, **broken):
        tables = protocol._verifier_tables()
        monkeypatch.setattr(protocol, "_verifier_tables", lambda: tables._replace(**broken))
        build_report(SchemeParams("single", phi_policy=Z0))

    def test_flipped_prediction_entry_is_caught(self, monkeypatch):
        # probe Z0, frame 01, no correction: the true bit is 1
        prediction = protocol._verifier_tables().prediction
        assert prediction[0, 1, 0] == 1
        with pytest.raises(SelfCheckError, match=r"^acceptance\[shift=00, label=01\]: "):
            self._scan_with_tables(monkeypatch, prediction=_flipped(prediction, (0, 1, 0), 0))

    def test_flipped_swapped_label_entry_is_caught(self, monkeypatch):
        # labels 01 and 00 with swap outcome 00 leave the outer pair in 01
        swap = protocol._verifier_tables().swap
        assert swap[1, 0, 0] == 1
        with pytest.raises(SelfCheckError, match=r"^acceptance\[shift=00, label=01\]: "):
            self._scan_with_tables(monkeypatch, swap=_flipped(swap, (1, 0, 0), 0))

    def test_broken_flip_bit_in_the_grid_is_caught(self, monkeypatch):
        # reading the sign bit for Z probes hides a parity flip
        monkeypatch.setattr(adversary, "_FLIP_SHIFT", {"Z": 1, "X": 0})
        with pytest.raises(SelfCheckError, match=r"^acceptance\[shift=01, label=00\]: "):
            build_report(SchemeParams("single", phi_policy=Z0))


def _counted(monkeypatch, owner, name: str) -> list:
    """Count calls to ``owner.name`` in every module namespace that holds it."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for namespace in (owner, protocol, adversary, montecarlo):
        if vars(namespace).get(name) is real:
            monkeypatch.setattr(namespace, name, counting)
    return calls


class TestVerifierWork:
    @pytest.mark.parametrize("params", [
        SchemeParams("single", phi_policy="uniform"),
        SchemeParams("multi", validation_mode="R1"),
        SchemeParams("string", n_pairs=4),
    ], ids=["single", "multi", "string"])
    def test_cold_report_verifies_whole_tables(self, monkeypatch, params):
        per_branch = [_counted(monkeypatch, protocol, name)
                      for name in ("validate_transcript", "validate_multiparty")]
        table_calls = _counted(monkeypatch, protocol, "_verify")
        adversary.clear_caches()
        build_report(params)
        assert per_branch == [[], []]
        # each committed label's table, against all four receiver labels,
        # checked whole, once, under a column of all four announced labels
        assert [int(columns.alice[0]) for columns, _, _ in table_calls] == [0, 1, 2, 3]
        for columns, announced, mode in table_calls:
            alice = BELL_LABELS[columns.alice[0]]
            assert announced.tolist() == [[BELL_LABELS.index(alice ^ shift)] for shift in BELL_LABELS]
            rows = [t for bob in BELL_LABELS
                    for t in branches(dataclasses.replace(params, bob_label=bob), alice)]
            assert (columns.alice == columns.alice[0]).all()
            assert columns.probability.tolist() == [t.probability for t in rows]
            assert columns.bob.tolist() == [BELL_LABELS.index(t.bob_label) for t in rows]
            assert mode == params.validation_mode

    @pytest.mark.parametrize("params", [
        SchemeParams("single", phi_policy="uniform"),
        SchemeParams("multi", validation_mode="R1"),
        SchemeParams("multi", phi_policy="uniform"),
        SchemeParams("string", n_pairs=4),
        SchemeParams("string", phi_policy=X1),
    ], ids=["single", "multi", "multi-uniform", "string", "string-X1"])
    def test_cold_report_measures_a_stack_per_step_and_probe_state(self, monkeypatch, params):
        # one table for all committed labels, a stack per step and probe
        # state, the 16 (committed, receiver) label pairs being the first
        # stack's rows: 3 steps, or in the multi scheme 4, the second
        # committer's probe copies being read off the verifier's table
        adversary.clear_caches()
        protocol._verifier_tables()  # measures its predictions once per process
        stacks = []
        real = protocol._measure_stack
        monkeypatch.setattr(protocol, "_measure_stack",
                            lambda *args: stacks.append(args[1:]) or real(*args))
        build_report(params)
        steps = 4 if params.scheme == "multi" else 3
        assert len(stacks) == steps * len(params.phi_choices())

    @pytest.mark.parametrize("params,steps", [
        (SchemeParams("single"), 2),
        (SchemeParams("multi", phi_policy="uniform"), 3),
        (SchemeParams("string", n_pairs=4), 2),
    ], ids=["single", "multi", "string"])
    def test_only_steps_measured_again_build_collapsed_states(self, monkeypatch, params, steps):
        # the swap and teleport steps (and multi's recorded Z) are measured
        # again, once per probe state; the confirmation and probe-copy
        # steps, the verifier's predictions and the extraction route read
        # weights and codes only, and the other labels read the same table
        adversary.clear_caches()
        collapsed = _counted(monkeypatch, quantum, "_collapsed")
        protocol._verifier_tables()
        for strategy in adversary._DEFAULT_RECEIVER:
            extraction_guess_probability(strategy)
        assert collapsed == []
        protocol._columns(params, BellLabel(1, 0))
        assert len(collapsed) == steps * len(params.phi_choices())
        for alice in BELL_LABELS:
            protocol._columns(params, alice)
        assert len(collapsed) == steps * len(params.phi_choices())

    def test_cold_string_report_frames_no_whole_register(self, monkeypatch):
        # Alice's frame turns the 8-amplitude residual of the teleportation
        # step, so no 32-amplitude (5-qubit) register is gathered, and each
        # qubit's frame table is built at most once
        built = []
        frames = quantum._pauli_frames.__wrapped__
        counted = lru_cache(maxsize=None)(lambda *key: built.append(key) or frames(*key))
        for module in (quantum, protocol):
            monkeypatch.setattr(module, "_pauli_frames", counted)
        framed = _counted(monkeypatch, quantum, "_framed")
        adversary.clear_caches()
        build_report(SchemeParams("string", n_pairs=4))
        assert built and len(built) == len(set(built))
        assert max(n for n, *_ in built) < 5
        assert framed and max(stack.shape[1] for stack, _, _ in framed) < 32

    @pytest.mark.parametrize("params", [
        SchemeParams("single", phi_policy="uniform"),
        SchemeParams("multi", phi_policy="uniform"),
        SchemeParams("string", n_pairs=4),
    ], ids=["single", "multi", "string"])
    def test_cold_report_builds_no_state_vector(self, monkeypatch, params):
        # tables, the verifier's predictions and the extraction route all
        # start from the engine's ket arrays
        made = []
        state_vector = quantum.StateVector
        monkeypatch.setattr(quantum, "StateVector",
                            lambda amplitudes: made.append(amplitudes) or state_vector(amplitudes))
        adversary.clear_caches()
        build_report(params)
        assert made == []

    def test_cold_string_report_memory_is_bounded(self):
        params = SchemeParams("string", n_pairs=20)
        build_report(params)  # lazy imports and interned tables settle first
        adversary.clear_caches()
        tracemalloc.start()
        try:
            build_report(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_committer_profile_memory_does_not_grow_with_pairs(self):
        # every pair takes the same shift, so no per-pair list is built
        params = SchemeParams("string", n_pairs=50_000)
        strategy = Strategy.relabel_announce(BellLabel(0, 1))
        detection_probability(params, strategy)  # the acceptance profiles are cached
        tracemalloc.start()
        try:
            detection_probability(params, strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, peak

    @pytest.mark.parametrize("run", [
        lambda: build_report(SchemeParams("single", phi_policy="uniform")),
        lambda: build_report(SchemeParams("multi", validation_mode="R1")),
        lambda: build_report(SchemeParams("string", n_pairs=4)),
        lambda: monte_carlo(RunConfig(scheme="multi", validation_mode="R1", trials=100)),
        lambda: monte_carlo(RunConfig(scheme="string", n_pairs=3, phi="X1", trials=100,
                                      strategy=Strategy.relabel_announce(BellLabel(1, 0)))),
    ], ids=["report-single", "report-multi", "report-string", "stats-multi", "stats-string"])
    def test_cold_analysis_builds_no_transcript(self, monkeypatch, run):
        # the analyzer and the tally read code columns; transcripts and
        # verdict reasons are built only for output that shows them
        built = _counted(monkeypatch, Transcript, "__post_init__")
        verdicts = _counted(monkeypatch, protocol, "_verdict")
        adversary.clear_caches()
        run()
        assert built == [] and verdicts == []

    @pytest.mark.parametrize("mode", ["R1", "R2"])
    @pytest.mark.parametrize("scheme", ["single", "multi", "string"])
    def test_algebra_route_makes_no_label_object_xor(self, monkeypatch, scheme, mode):
        params = SchemeParams(scheme, phi_policy="uniform", validation_mode=mode)
        xors = _counted(monkeypatch, BellLabel, "__xor__")
        _acceptance_by_label_algebraic(params)
        for upto in ("confirmation", "storage"):
            concealment_tv(params, upto)
        assert xors == []


# R2 acceptance of one pair announced XOR shift 00, 01, 10, 11: a Z probe
# catches parity flips, an X probe sign flips, the four-state family half of each.
_R2_PER_PAIR = {
    "Z": (1, 0, 1, 0),
    "X": (1, 1, 0, 0),
    "four-state": (1, Fraction(1, 2), Fraction(1, 2), 0),
}


def _family(params: SchemeParams) -> str:
    bases = {spec.basis for spec, _ in params.phi_choices()}
    return bases.pop() if len(bases) == 1 else "four-state"


class TestAlgebraCounts:
    @pytest.mark.parametrize("mode", ["R1", "R2"])
    @pytest.mark.parametrize("scheme,policy", [
        (s, p) for s in ("single", "multi", "string")
        for p in ("default", "uniform", Z0, Z1) + ((X0, X1) if s == "string" else ())
    ], ids=str)
    def test_acceptance_is_an_exact_count(self, scheme, policy, mode):
        params = SchemeParams(scheme, phi_policy=policy, validation_mode=mode)
        cells = 64 * len(params.phi_choices())
        table = _acceptance_by_label_algebraic(params)
        assert table.shape == (len(BELL_LABELS), len(BELL_LABELS))  # [shift, committed label]
        for k, row in enumerate(table.tolist()):
            expected = 1 if mode == "R1" else _R2_PER_PAIR[_family(params)][k]
            for label, value in zip(BELL_LABELS, row):
                count = value * cells
                assert count == int(count), (label, value)
                assert Fraction(int(count), cells) == expected


class TestBindingR2:
    def test_fixed_probe_table(self):
        params = SchemeParams("single", phi_policy=Z0)
        table = {
            BellLabel(1, 0): 0.0,
            BellLabel(0, 1): 1.0,
            BellLabel(1, 1): 1.0,
        }
        for delta, expected in table.items():
            computed = detection_probability(params, Strategy.relabel_announce(delta))
            assert abs(computed - expected) <= 1e-12

    def test_four_state_probe_table(self):
        params = SchemeParams("string", n_pairs=1)
        expected = {
            BellLabel(1, 0): 0.5,
            BellLabel(0, 1): 0.5,
            BellLabel(1, 1): 0.0,
        }
        for delta, acceptance in expected.items():
            computed = string_cheat_acceptance(params, [delta])
            assert abs(computed - acceptance) <= 1e-12

    def test_honest_and_rechoice_never_detected(self):
        for scheme in ("single", "multi"):
            params = SchemeParams(scheme)
            assert abs(detection_probability(params, Strategy.honest())) <= 1e-12
            rechoice = Strategy.delayed_rechoice(BellLabel(1, 1))
            assert abs(detection_probability(params, rechoice)) <= 1e-12

    def test_multi_first_committer_parity_flip_detected(self):
        params = SchemeParams("multi")
        parity = detection_probability(params, Strategy.relabel_announce(BellLabel(0, 1)))
        sign = detection_probability(params, Strategy.relabel_announce(BellLabel(1, 0)))
        assert abs(parity - 1.0) <= 1e-12
        assert abs(sign) <= 1e-12


class TestBindingR1:
    @pytest.mark.parametrize("scheme", ["single", "multi"])
    @pytest.mark.parametrize("delta", DELTAS, ids=str)
    def test_any_announcement_accepted(self, scheme, delta):
        params = SchemeParams(scheme, validation_mode="R1")
        strategy = Strategy.relabel_announce(delta)
        assert abs(detection_probability(params, strategy)) <= 1e-12


class TestStringCheating:
    def test_single_pair_sign_flip(self):
        params = SchemeParams("string", n_pairs=1)
        assert abs(string_cheat_acceptance(params, [BellLabel(1, 0)]) - 0.5) <= 1e-12

    def test_twenty_pair_exponent(self):
        params = SchemeParams("string", n_pairs=20)
        deltas = [BellLabel(1, 0)] * 20
        assert abs(string_cheat_acceptance(params, deltas) - 0.5**20) <= 1e-12

    def test_honest_pairs_do_not_dilute(self):
        params = SchemeParams("string", n_pairs=3)
        deltas = [BellLabel(0, 0), BellLabel(1, 0), BellLabel(0, 0)]
        assert abs(string_cheat_acceptance(params, deltas) - 0.5) <= 1e-12

    def test_joint_flip_kills_acceptance(self):
        params = SchemeParams("string", n_pairs=2)
        deltas = [BellLabel(1, 1), BellLabel(1, 0)]
        assert string_cheat_acceptance(params, deltas) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            string_cheat_acceptance(SchemeParams("string", n_pairs=2), [BellLabel(1, 0)])

    def test_wrong_scheme(self):
        with pytest.raises(ValueError):
            string_cheat_acceptance(SchemeParams("single"), [BellLabel(1, 0)])


class TestConcealment:
    @pytest.mark.parametrize(
        "params",
        [
            SchemeParams("single"),
            SchemeParams("single", phi_policy="uniform", bob_label=BellLabel(1, 1)),
            SchemeParams("multi"),
            SchemeParams("string", n_pairs=1),
        ],
        ids=["single-Z0", "single-uniform", "multi", "string"],
    )
    @pytest.mark.parametrize("upto", ["confirmation", "storage"])
    def test_views_are_identical_across_bit_classes(self, params, upto):
        assert concealment_tv(params, upto) <= 1e-12

    def test_bad_upto(self):
        with pytest.raises(ValueError):
            concealment_tv(SchemeParams("single"), upto="reveal")


def _running_views(params: SchemeParams, upto: str) -> dict:
    """Each bit class's receiver views as a running sum over branch rows, label by label."""
    dists = {0: {}, 1: {}}
    multi = params.scheme == "multi"
    for alice in BELL_LABELS:
        c = (protocol._columns(params, alice) if multi
             else protocol._pair_columns(params, alice))
        view = [c.swap] if multi else [c.probe, c.swap, c.tele]
        if upto == "storage":
            view += [c.stored_alice, c.stored_bob] if multi else [c.stored_alice]
        dist = dists[alice.j]
        for key, probability in zip(zip(*(column.tolist() for column in view)),
                                    c.probability.tolist()):
            dist[key] = dist.get(key, 0.0) + probability / (8.0 if multi else 2.0)
    return dists


def _view_bins(views: dict) -> list[list[float]]:
    """``views`` keyed by view tuple as a ``[bit, view]`` table of base-4 view codes."""
    length = len(next(iter(views[0])))  # columns in a view
    bins = [[0.0] * 4**length for _ in (0, 1)]
    for bit in (0, 1):
        for key, weight in views[bit].items():
            code = 0
            for value in key:
                code = 4 * code + value
            bins[bit][code] = weight
    return bins


# Every configuration the views read: each scheme's probe policies, by
# receiver label and phase; 2 * 4 * 4 * 2 + 6 * 4 * 2 = 112
_ALL_VIEW_CONFIGS = [
    pytest.param(SchemeParams(scheme, phi_policy=policy, bob_label=bob), upto,
                 id=f"{scheme}-{policy}-{bob}-{upto}")
    for scheme in ("single", "multi", "string")
    for policy in ("default", "uniform", Z0, Z1) + ((X0, X1) if scheme == "string" else ())
    for bob in BELL_LABELS
    for upto in ("confirmation", "storage")
]


class TestEnumeratedViews:
    @pytest.mark.parametrize("params", [
        SchemeParams("single"),
        SchemeParams("single", phi_policy="uniform", bob_label=BellLabel(1, 1)),
        SchemeParams("multi", phi_policy="uniform"),
        SchemeParams("string", n_pairs=3, bob_label=BellLabel(0, 1)),
        SchemeParams("string", phi_policy=X1),
    ], ids=["single", "single-uniform-11", "multi", "string-01", "string-X1"])
    @pytest.mark.parametrize("upto", ["confirmation", "storage"])
    def test_views_equal_a_running_sum_in_table_order(self, params, upto):
        # each view's bin holds the running sum's float bits; every
        # view the table never reaches holds 0.0
        want = _view_bins(_running_views(params, upto))
        got = adversary._views_enumerated(params, upto)
        assert got.shape == (2, len(want[0])) and got.dtype == np.float64
        assert [[v.hex() for v in row] for row in got.tolist()] == [
            [v.hex() for v in row] for row in want]

    def test_every_configuration_is_counted(self):
        assert len(_ALL_VIEW_CONFIGS) == 112

    @pytest.mark.parametrize("params,upto", _ALL_VIEW_CONFIGS)
    def test_both_routes_conceal_exactly(self, params, upto):
        assert adversary._tv(adversary._views_enumerated(params, upto)) == 0.0
        assert adversary._tv(adversary._views_algebraic(params, upto)) == 0.0


def _dyadic_weights(size: int):
    """``[bit, view]`` tables of dyadic weights of mixed scales, and a view permutation."""
    weight = st.builds(lambda m, e: m * 2.0**e, st.integers(0, 2**53 - 1), st.integers(-80, 10))
    row = st.lists(weight, min_size=size, max_size=size)
    return st.tuples(row, row, st.permutations(range(size)))


class TestOrderFreeReductions:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(_dyadic_weights))
    def test_tv_and_map_guess_ignore_view_order(self, drawn):
        zero, one, order = drawn
        weights = np.array([zero, one])
        permuted = weights[:, order]
        assert adversary._tv(permuted).hex() == adversary._tv(weights).hex()
        assert adversary._map_guess(permuted).hex() == adversary._map_guess(weights).hex()


class TestExtraction:
    @pytest.mark.parametrize(
        "strategy",
        [
            Strategy.early_extract("Z"),
            Strategy.early_extract("X"),
            Strategy.early_extract("pair"),
            Strategy.receiver_skip(),
        ],
        ids=lambda s: s.describe(),
    )
    def test_guessing_is_a_coin_toss(self, strategy):
        assert abs(extraction_guess_probability(strategy) - 0.5) <= 1e-12

    def test_report_measures_the_returned_pairs_once(self, monkeypatch):
        # early_extract(pair) and receiver_skip measure the same stack
        stacks = _counted(monkeypatch, adversary, "_measure_stack")
        report = build_report(SchemeParams("single"))
        assert [basis for _, _, basis in stacks] == ["Z", "X", "bell"]
        guesses = [row.guess_probability for row in report.extraction_rows]
        assert guesses == [extraction_guess_probability(s) for s in adversary._DEFAULT_RECEIVER]

    def test_four_committed_pairs_are_one_stack(self, monkeypatch):
        stacks = _counted(monkeypatch, adversary, "_measure_stack")
        for strategy in adversary._DEFAULT_RECEIVER:
            extraction_guess_probability(strategy)
        assert [len(stack) for stack, _, _ in stacks] == [4] * len(adversary._DEFAULT_RECEIVER)


class TestSecurityReport:
    def test_r2_fixed_probe_scan_agrees_with_claims(self):
        report = build_report(SchemeParams("single", phi_policy=Z0))
        assert isinstance(report, SecurityReport)
        assert report.strategy_rows
        for row in report.strategy_rows:
            assert row.agrees is True, (row.strategy.describe(), row.acceptance_probability)
            assert row.acceptance_probability + row.detection_probability == 1.0
        for row in report.extraction_rows:
            assert row.agrees is True
        assert report.concealment_tv <= 1e-12
        assert abs(report.extraction_guess_probability - 0.5) <= 1e-12

    def test_r1_scan_flags_binding_failures(self):
        report = build_report(SchemeParams("single", phi_policy=Z0, validation_mode="R1"))
        flagged = {
            row.strategy.delta
            for row in report.strategy_rows
            if row.agrees is False
        }
        # every announcement shift the argument claims catchable goes undetected
        assert flagged == {BellLabel(0, 1), BellLabel(1, 1)}
        for row in report.strategy_rows:
            assert abs(row.acceptance_probability - 1.0) <= 1e-12

    def test_string_scan_flags_joint_flip_claim(self):
        report = build_report(SchemeParams("string", n_pairs=1))
        by_delta = {
            row.strategy.delta: row
            for row in report.strategy_rows
            if row.strategy.kind == "relabel_announce"
        }
        assert by_delta[BellLabel(1, 0)].agrees is True
        assert by_delta[BellLabel(0, 1)].agrees is True
        joint = by_delta[BellLabel(1, 1)]
        assert joint.acceptance_probability <= 1e-12
        assert joint.claimed_acceptance == 0.5
        assert joint.agrees is False

    @pytest.mark.parametrize("phi", [BasisStateSpec("X", 0), BasisStateSpec("X", 1)], ids=str)
    def test_fixed_x_probe_has_no_shift_claim(self, phi):
        # the published argument claims nothing for a fixed diagonal probe
        for row in build_report(SchemeParams("string", n_pairs=2, phi_policy=phi)).strategy_rows:
            if row.strategy.kind == "relabel_announce":
                assert (row.claimed_acceptance, row.agrees) == (None, None)
            else:
                assert row.claimed_acceptance == 1.0 and row.agrees is True

    def test_worst_case_matches_average_by_label_cancellation(self):
        # the committer's own label cancels out of the validation algebra,
        # so the conditional acceptance is flat across chosen labels and
        # the worst case coincides with the prior-averaged figure
        for scheme, n_pairs in (("single", 1), ("multi", 1), ("string", 3)):
            params = SchemeParams(scheme, n_pairs=n_pairs)
            for mode in ("R1", "R2"):
                report = build_report(dataclasses.replace(params, validation_mode=mode))
                for row in report.strategy_rows:
                    assert 0.0 <= row.worst_case_acceptance <= 1.0 + 1e-12
                    assert abs(row.worst_case_acceptance - row.acceptance_probability) <= 1e-12

    def test_empty_strategy_list_scans_leakage_only(self):
        report = build_report(SchemeParams("single"), strategies=())
        assert report.strategy_rows == ()
        assert report.extraction_rows
        assert report.concealment_tv <= 1e-12

    def test_custom_strategy_list_respected(self):
        strategies = [Strategy.relabel_announce(BellLabel(0, 1))]
        report = build_report(SchemeParams("single"), strategies=strategies)
        assert len(report.strategy_rows) == 1
        assert abs(report.strategy_rows[0].detection_probability - 1.0) <= 1e-12
        assert report.extraction_rows == ()
        assert report.extraction_guess_probability is None

    @pytest.mark.parametrize("scheme,n_pairs", [("single", 1), ("multi", 1), ("string", 3)])
    def test_report_analyzes_each_distinct_shift_once(self, monkeypatch, scheme, n_pairs):
        # one profile table holds all four shifts; honest and delayed
        # re-choice both read its zero shift
        calls = _counted(monkeypatch, adversary, "_acceptance_profiles")
        report = build_report(SchemeParams(scheme, n_pairs=n_pairs, phi_policy="uniform"))
        assert len(calls) == 1
        assert build_report(SchemeParams(scheme, n_pairs=n_pairs), strategies=()).strategy_rows == ()
        assert len(calls) == 1  # a scan with no committer strategy computes none
        honest, rechoice = report.strategy_rows[0], report.strategy_rows[-1]
        assert honest.acceptance_probability == rechoice.acceptance_probability

    @pytest.mark.parametrize("mode", ["R1", "R2"])
    def test_report_mode_is_the_params_mode(self, mode):
        params = SchemeParams("single", validation_mode=mode)
        assert build_report(params).mode == params.validation_mode
        other = "R1" if mode == "R2" else "R2"
        with pytest.raises(TypeError):
            build_report(params, mode=other)
