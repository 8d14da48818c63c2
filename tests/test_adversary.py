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

import pytest

from relcommit import adversary
from relcommit.adversary import (
    SecurityReport,
    Strategy,
    _acceptance_by_label_algebraic,
    _acceptance_by_label_enumerated,
    build_report,
    concealment_tv,
    detection_probability,
    extraction_guess_probability,
    string_cheat_acceptance,
)
from relcommit.protocol import SchemeParams
from relcommit.quantum import BELL_LABELS, BasisStateSpec, BellLabel

Z0 = BasisStateSpec("Z", 0)
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

    def test_role_mismatch_rejected(self):
        with pytest.raises(ValueError):
            detection_probability(SchemeParams("single"), Strategy.receiver_skip())
        with pytest.raises(ValueError):
            extraction_guess_probability(Strategy.honest())


class TestDualRouteAgreement:
    @pytest.mark.parametrize("mode", ["R1", "R2"])
    @pytest.mark.parametrize("policy", [Z0, "uniform"], ids=["Z0", "uniform"])
    @pytest.mark.parametrize("delta", DELTAS, ids=str)
    def test_routes_agree_on_single(self, mode, policy, delta):
        params = SchemeParams("single", phi_policy=policy, validation_mode=mode)
        strategy = Strategy.relabel_announce(delta)
        enum = _acceptance_by_label_enumerated(params, strategy)
        alg = _acceptance_by_label_algebraic(params, strategy)
        for label in BELL_LABELS:
            assert abs(enum[label] - alg[label]) <= 1e-12

    @pytest.mark.parametrize("mode", ["R1", "R2"])
    @pytest.mark.parametrize("delta", DELTAS, ids=str)
    def test_routes_agree_on_multi(self, mode, delta):
        params = SchemeParams("multi", validation_mode=mode)
        strategy = Strategy.relabel_announce(delta)
        enum = _acceptance_by_label_enumerated(params, strategy)
        alg = _acceptance_by_label_algebraic(params, strategy)
        for label in BELL_LABELS:
            assert abs(enum[label] - alg[label]) <= 1e-12


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

    def test_string_report_analyzes_each_distinct_shift_once(self, monkeypatch):
        # honest and delayed re-choice both announce the zero shift; with
        # the three relabel shifts that is 4 distinct profiles
        calls = []
        real = adversary._acceptance_profile

        def counting(params, strategy):
            calls.append(strategy)
            return real(params, strategy)

        monkeypatch.setattr(adversary, "_acceptance_profile", counting)
        report = build_report(SchemeParams("string", n_pairs=3, phi_policy="uniform"))
        assert len(calls) == 4
        assert len({s.delta for s in calls}) == 4
        honest, rechoice = report.strategy_rows[0], report.strategy_rows[-1]
        assert honest.acceptance_probability == rechoice.acceptance_probability

    @pytest.mark.parametrize("mode", ["R1", "R2"])
    def test_report_mode_is_the_params_mode(self, mode):
        params = SchemeParams("single", validation_mode=mode)
        assert build_report(params).mode == params.validation_mode
        other = "R1" if mode == "R2" else "R2"
        with pytest.raises(TypeError):
            build_report(params, mode=other)
