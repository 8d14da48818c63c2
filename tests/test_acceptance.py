"""Top-level acceptance gate: ten numbered end-to-end checks.

Each test prints one ``criterion NN PASS/FAIL`` line (run with ``-s`` to
see them all) and then asserts, so the suite doubles as a checklist of
the quantitative guarantees the package makes:

01  Bell pair construction is amplitude-exact.
02  Entanglement swapping: uniform outcomes, label algebra certified.
03  Teleportation: correction table restores the input on all branches.
04  Honest runs are always accepted (all schemes, labels, modes).
05  Binding table under mode R2 (uniform and fixed probe policies).
06  Twenty-pair string cheating: exact 0.5**20 plus Monte Carlo check.
07  Perfect concealment and 0.5-bounded extraction before reveal.
08  Mode R1 accepts every relabeling; the scan flags the discrepancy.
09  Causality audit: long commitments pass, early arrivals are flagged.
10  Performance envelope: enumeration, mass sampling, full scan.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from relcommit.adversary import (
    Strategy,
    build_report,
    clear_caches,
    concealment_tv,
    detection_probability,
    extraction_guess_probability,
    string_cheat_acceptance,
)
from relcommit.montecarlo import RunConfig, monte_carlo, parse_phi_policy
from relcommit.protocol import (
    SchemeParams,
    run_pairs,
    validate_multiparty,
    validate_transcript,
)
from relcommit.quantum import (
    BASIS_STATES,
    BELL_LABELS,
    BellLabel,
    StateVector,
    apply_pauli,
    bell_measure,
    fidelity,
    make_basis_state,
    make_bell,
    states_equal_up_to_phase,
    swapped_label,
    teleport_correction,
    tensor,
)
from relcommit.spacetime import audit, standard_schedule

ATOL = 1e-12
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _verdict(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"criterion {number:02d} {status} - {description}{suffix}")
    assert ok, f"criterion {number:02d} failed: {description} {detail}".rstrip()


def _contract(state: StateVector, qubit_a: int, qubit_b: int, label: BellLabel) -> StateVector:
    """Amplitudes left on the remaining qubits after projecting the given
    pair onto a Bell state, computed independently of the engine."""
    psi = state.amplitudes.reshape((2,) * state.n_qubits)
    bell = make_bell(label).amplitudes.reshape(2, 2)
    residual = np.tensordot(bell.conj(), psi, axes=([0, 1], [qubit_a, qubit_b]))
    residual = residual.reshape(-1)
    return StateVector(residual / np.linalg.norm(residual))


def test_criterion_01_bell_construction():
    expected = {
        (0, 0): [INV_SQRT2, 0.0, 0.0, INV_SQRT2],
        (0, 1): [0.0, INV_SQRT2, INV_SQRT2, 0.0],
        (1, 0): [INV_SQRT2, 0.0, 0.0, -INV_SQRT2],
        (1, 1): [0.0, INV_SQRT2, -INV_SQRT2, 0.0],
    }
    worst = max(
        float(np.max(np.abs(make_bell(label).amplitudes - np.array(expected[label.bits]))))
        for label in BELL_LABELS
    )
    _verdict(1, "Bell pairs amplitude-exact", worst <= ATOL, f"worst deviation {worst:.3e}")


def test_criterion_02_swapping_uniformity_and_labels():
    worst_prob = 0.0
    mismatches = 0
    for a in BELL_LABELS:
        for b in BELL_LABELS:
            register = tensor([make_bell(a), make_bell(b)])
            branches = bell_measure(register, 1, 2)
            for branch in branches:
                worst_prob = max(worst_prob, abs(branch.probability - 0.25))
                outer = _contract(branch.post_state, 1, 2, branch.outcome)
                predicted = make_bell(swapped_label(a, b, branch.outcome))
                if not states_equal_up_to_phase(outer, predicted):
                    mismatches += 1
    ok = worst_prob <= ATOL and mismatches == 0
    _verdict(
        2,
        "swapping outcomes uniform and swapped_label exact on all 64 triples",
        ok,
        f"worst probability deviation {worst_prob:.3e}, {mismatches} label mismatches",
    )


def test_criterion_03_teleportation_table():
    worst_prob = 0.0
    worst_fid = 0.0
    for shared in BELL_LABELS:
        for spec in BASIS_STATES:
            source = make_basis_state(spec)
            register = tensor([source, make_bell(shared)])
            for branch in bell_measure(register, 0, 1):
                worst_prob = max(worst_prob, abs(branch.probability - 0.25))
                remote = _contract(branch.post_state, 0, 1, branch.outcome)
                corrected = apply_pauli(remote, 0, teleport_correction(shared, branch.outcome))
                worst_fid = max(worst_fid, abs(fidelity(corrected, source) - 1.0))
    ok = worst_prob <= ATOL and worst_fid <= ATOL
    _verdict(
        3,
        "teleportation corrections restore the input on all 64 combinations",
        ok,
        f"worst marginal deviation {worst_prob:.3e}, worst fidelity gap {worst_fid:.3e}",
    )


def test_criterion_04_honest_completeness():
    rejected = 0
    worst_mass = 0.0
    for mode in ("R1", "R2"):
        for a in BELL_LABELS:
            for b in BELL_LABELS:
                single = SchemeParams("single", bob_label=b, validation_mode=mode)
                multi = SchemeParams("multi", bob_label=b, validation_mode=mode)
                string = SchemeParams("string", n_pairs=1, bob_label=b, validation_mode=mode)
                batches = [
                    [
                        (t, validate_transcript(t, a, mode))
                        for t in run_pairs(dataclasses.replace(single, bob_label=b), [a])[0]
                    ],
                    [
                        (t, validate_multiparty(t, a, (t.bob_label, t.teleport_outcome), mode))
                        for t in run_pairs(dataclasses.replace(multi, bob_label=b), [a])[0]
                    ],
                    [
                        (t, validate_transcript(t, a, mode))
                        for t in run_pairs(dataclasses.replace(string, bob_label=b), [a])[0]
                    ],
                ]
                for batch in batches:
                    rejected += sum(1 for _, verdict in batch if not verdict.accept)
                    mass = math.fsum(t.probability for t, _ in batch)
                    worst_mass = max(worst_mass, abs(mass - 1.0))
    ok = rejected == 0 and worst_mass <= ATOL
    _verdict(
        4,
        "honest runs accepted on every branch, all schemes/labels/modes",
        ok,
        f"{rejected} rejected branches, worst total mass deviation {worst_mass:.3e}",
    )


def test_criterion_05_binding_table_mode_r2():
    uniform = SchemeParams("string", n_pairs=1, validation_mode="R2")
    expected_uniform = {
        (0, 0): 1.0,
        (1, 0): 0.5,
        (0, 1): 0.5,
        (1, 1): 0.0,
    }
    worst = 0.0
    for bits, target in expected_uniform.items():
        acceptance = string_cheat_acceptance(uniform, [BellLabel(*bits)])
        worst = max(worst, abs(acceptance - target))
    for phi in ("Z0", "Z1"):
        fixed = SchemeParams("single", phi_policy=parse_phi_policy(phi), validation_mode="R2")
        benign = 1.0 - detection_probability(fixed, Strategy.relabel_announce(BellLabel(1, 0)))
        caught = 1.0 - detection_probability(fixed, Strategy.relabel_announce(BellLabel(0, 1)))
        worst = max(worst, abs(benign - 1.0), abs(caught - 0.0))
    _verdict(
        5,
        "mode R2 binding: acceptance 1, 1/2, 1/2, 0 uniform; 1 and 0 fixed-probe",
        worst <= ATOL,
        f"worst deviation {worst:.3e}",
    )


def test_criterion_06_string_scaling_exact_and_sampled():
    params = SchemeParams("string", n_pairs=20, validation_mode="R2")
    delta = BellLabel(1, 0)
    exact = string_cheat_acceptance(params, [delta] * 20)
    exact_gap = abs(exact - 0.5**20)

    config = RunConfig(
        scheme="string",
        n_pairs=20,
        validation_mode="R2",
        seed=7,
        trials=10**7,
        strategy=Strategy.relabel_announce(delta),
    )
    row = monte_carlo(config).row("acceptance", "accept")
    ok = exact_gap <= ATOL and abs(row.exact_probability - 0.5**20) <= ATOL and row.agrees
    _verdict(
        6,
        "20-pair relabeling: exact acceptance 0.5**20, 1e7-trial sample within 5 SE",
        ok,
        f"exact gap {exact_gap:.3e}, sampled count {row.count}, z {row.z:.2f}",
    )


def test_criterion_07_concealment_and_extraction():
    worst_tv = 0.0
    for scheme, n_pairs in (("single", 1), ("multi", 1), ("string", 2)):
        params = SchemeParams(scheme, n_pairs=n_pairs)
        for upto in ("storage", "confirmation"):
            worst_tv = max(worst_tv, concealment_tv(params, upto=upto))
    worst_guess = 0.0
    for strategy in (
        Strategy.early_extract("Z"),
        Strategy.early_extract("X"),
        Strategy.early_extract("pair"),
        Strategy.receiver_skip(),
    ):
        guess = extraction_guess_probability(strategy)
        worst_guess = max(worst_guess, abs(guess - 0.5))
    ok = worst_tv <= ATOL and worst_guess <= ATOL
    _verdict(
        7,
        "pre-reveal views carry zero committed-bit information",
        ok,
        f"worst TV {worst_tv:.3e}, worst guess deviation {worst_guess:.3e}",
    )


def test_criterion_08_mode_r1_accepts_everything():
    worst = 0.0
    for scheme in ("single", "multi"):
        params = SchemeParams(scheme, validation_mode="R1")
        for delta in (BellLabel(0, 1), BellLabel(1, 0), BellLabel(1, 1)):
            detection = detection_probability(params, Strategy.relabel_announce(delta))
            worst = max(worst, detection)
    report = build_report(SchemeParams("single", validation_mode="R1"))
    flagged = {
        row.strategy.delta.bits
        for row in report.strategy_rows
        if row.strategy.kind == "relabel_announce" and row.agrees is False
    }
    ok = worst <= ATOL and flagged == {(0, 1), (1, 1)}
    _verdict(
        8,
        "mode R1 accepts every relabeling and the scan flags the claim mismatch",
        ok,
        f"worst detection {worst:.3e}, flagged {sorted(flagged)}",
    )


def test_criterion_09_causality_audit():
    clean = True
    for factor in (2.0, 1e3, 1e9):
        for scheme in ("single", "multi", "string"):
            report = audit(standard_schedule(1.0, 1.0, factor, scheme))
            clean = clean and report.ok

    schedule = standard_schedule(1.0, 1.0, 10.0, "single")
    unflagged_tampers = 0
    tamper_count = 0
    for k, message in enumerate(schedule.messages):
        span = message.arrival_time - message.send_time
        if span <= 0.0:
            continue
        tamper_count += 1
        messages = list(schedule.messages)
        messages[k] = dataclasses.replace(
            message, arrival_time=message.send_time + 0.6 * span
        )
        tampered = dataclasses.replace(schedule, messages=tuple(messages))
        report = audit(tampered)
        if report.ok or not any(v.kind == "superluminal" for v in report.violations):
            unflagged_tampers += 1

    try:
        standard_schedule(1.0, 1.0, 1.5, "single")
        early_reveal_rejected = False
    except ValueError:
        early_reveal_rejected = True

    ok = clean and tamper_count > 0 and unflagged_tampers == 0 and early_reveal_rejected
    _verdict(
        9,
        "long schedules pass, early arrivals flagged, reveal before 2x/c rejected",
        ok,
        f"clean={clean}, unflagged tampers {unflagged_tampers}/{tamper_count}, "
        f"early reveal rejected={early_reveal_rejected}",
    )


def test_criterion_10_performance_envelope():
    params = SchemeParams("single")
    enum_times = []
    for _ in range(5):
        start = time.perf_counter()
        run_pairs(params, [BellLabel(0, 0)])
        enum_times.append(time.perf_counter() - start)
    enum_ms = min(enum_times) * 1e3

    start = time.perf_counter()
    monte_carlo(RunConfig(scheme="single", seed=3, trials=10**6))
    sample_s = time.perf_counter() - start

    clear_caches()
    start = time.perf_counter()
    for mode in ("R1", "R2"):
        for policy in ("default", "uniform"):
            scan_params = SchemeParams("single", phi_policy=policy, validation_mode=mode)
            build_report(scan_params)
    scan_s = time.perf_counter() - start

    ok = enum_ms < 10.0 and sample_s < 10.0 and scan_s < 1.0
    _verdict(
        10,
        "enumeration <10 ms, 1e6 trials <10 s, full scan <1 s",
        ok,
        f"enumeration {enum_ms:.2f} ms, sampling {sample_s:.2f} s, scan {scan_s:.2f} s",
    )
