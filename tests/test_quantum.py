"""Unit tests for the exact state-vector engine.

The label-algebra operations (compose_pauli, teleport_correction,
swapped_label) are certified against independent oracles: literal 2x2
matrix products and brute-force enumeration of measurement branches.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relcommit import quantum
from relcommit.quantum import (
    BASIS_STATES,
    BELL_LABELS,
    PAULI_OPS,
    BasisStateSpec,
    BellLabel,
    PauliOp,
    StateVector,
    apply_pauli,
    basis_measure,
    bell_measure,
    compose_pauli,
    fidelity,
    make_basis_state,
    make_bell,
    states_equal_up_to_phase,
    swapped_label,
    teleport_correction,
    tensor,
)
from relcommit.quantum import _measure_stack

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def contract_pair(state: StateVector, qubit_a: int, qubit_b: int, label: BellLabel) -> np.ndarray:
    """Oracle helper: amplitudes left on the other qubits after projecting
    (qubit_a, qubit_b) onto the given pair state.  Independent of the
    package's own post-state bookkeeping."""
    n = state.n_qubits
    psi = state.amplitudes.reshape((2,) * n)
    bell = make_bell(label).amplitudes.reshape(2, 2)
    residual = np.tensordot(bell.conj(), psi, axes=([0, 1], [qubit_a, qubit_b]))
    return residual.reshape(-1)


def random_state(n: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(raw / np.linalg.norm(raw))


def project_reference(state: StateVector, qubits: tuple[int, ...], ket: np.ndarray):
    """Oracle: probability and collapsed amplitudes of one outcome ket,
    from a tensordot residual per projector and the ket placed back on
    the measured axes."""
    n = state.n_qubits
    m = len(qubits)
    psi = state.amplitudes.reshape((2,) * n)
    residual = np.tensordot(ket.reshape((2,) * m).conj(), psi, axes=(list(range(m)), list(qubits)))
    prob = float(np.vdot(residual, residual).real)
    if prob <= 1e-12:
        return prob, None
    post = np.multiply.outer(ket.reshape((2,) * m), residual / math.sqrt(prob))
    return prob, np.moveaxis(post, list(range(m)), list(qubits)).reshape(-1)


def assert_matches_reference(branches, state, qubits, kets):
    expected = {}
    for outcome, ket in kets:
        prob, post = project_reference(state, qubits, ket)
        if post is not None:
            expected[outcome] = (prob, post)
    assert [b.outcome for b in branches] == list(expected)
    for branch in branches:
        prob, post = expected[branch.outcome]
        np.testing.assert_allclose(branch.probability, prob, rtol=0, atol=1e-14)
        np.testing.assert_allclose(branch.post_state.amplitudes, post, rtol=0, atol=1e-13)


class TestBellStates:
    def test_exact_amplitudes(self):
        expected = {
            (0, 0): [INV_SQRT2, 0, 0, INV_SQRT2],
            (0, 1): [0, INV_SQRT2, INV_SQRT2, 0],
            (1, 0): [INV_SQRT2, 0, 0, -INV_SQRT2],
            (1, 1): [0, INV_SQRT2, -INV_SQRT2, 0],
        }
        for label in BELL_LABELS:
            np.testing.assert_allclose(
                make_bell(label).amplitudes, expected[label.bits], atol=1e-12
            )

    def test_pauli_on_first_qubit_generates_all_four(self):
        # B(i,j) = (Z^i X^j x I) B(0,0), exactly
        base = make_bell(BellLabel(0, 0))
        for label in BELL_LABELS:
            rotated = apply_pauli(base, 0, PauliOp(label.i, label.j))
            np.testing.assert_allclose(
                rotated.amplitudes, make_bell(label).amplitudes, atol=1e-12
            )

    def test_orthonormal(self):
        for a in BELL_LABELS:
            for b in BELL_LABELS:
                overlap = np.vdot(make_bell(a).amplitudes, make_bell(b).amplitudes)
                np.testing.assert_allclose(overlap, 1.0 if a == b else 0.0, atol=1e-12)

    def test_symbols(self):
        assert [lbl.symbol for lbl in BELL_LABELS] == ["Phi+", "Psi+", "Phi-", "Psi-"]

    def test_label_validation(self):
        with pytest.raises(ValueError):
            BellLabel(2, 0)
        with pytest.raises(ValueError):
            BellLabel(0, -1)


class TestBasisStates:
    def test_amplitudes(self):
        expected = {
            ("Z", 0): [1, 0],
            ("Z", 1): [0, 1],
            ("X", 0): [INV_SQRT2, INV_SQRT2],
            ("X", 1): [INV_SQRT2, -INV_SQRT2],
        }
        for spec in BASIS_STATES:
            np.testing.assert_allclose(
                make_basis_state(spec).amplitudes, expected[(spec.basis, spec.value)], atol=1e-12
            )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BasisStateSpec("Y", 0)
        with pytest.raises(ValueError):
            BasisStateSpec("Z", 2)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0, 0.0]))

    def test_amplitudes_are_frozen(self):
        state = make_basis_state(BasisStateSpec("Z", 0))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_construction_copies_input(self):
        raw = np.array([1.0, 0.0], dtype=np.complex128)
        state = StateVector(raw)
        raw[0] = 5.0
        np.testing.assert_allclose(state.amplitudes, [1.0, 0.0])


class TestTensor:
    def test_two_qubit_product(self):
        zero = make_basis_state(BasisStateSpec("Z", 0))
        one = make_basis_state(BasisStateSpec("Z", 1))
        np.testing.assert_allclose(tensor([zero, one]).amplitudes, [0, 1, 0, 0], atol=1e-12)

    def test_qubit_order_is_left_to_right(self):
        zero = make_basis_state(BasisStateSpec("Z", 0))
        one = make_basis_state(BasisStateSpec("Z", 1))
        state = tensor([one, zero])  # |10>
        np.testing.assert_allclose(state.amplitudes, [0, 0, 1, 0], atol=1e-12)

    def test_five_qubit_register_shape(self):
        reg = tensor([
            make_bell(BellLabel(0, 0)),
            make_bell(BellLabel(1, 1)),
            make_basis_state(BasisStateSpec("Z", 0)),
        ])
        assert reg.n_qubits == 5
        assert reg.dim == 32

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tensor([])


class TestApplyPauli:
    @pytest.mark.parametrize("op", PAULI_OPS, ids=lambda op: op.name)
    @pytest.mark.parametrize("spec", BASIS_STATES, ids=str)
    def test_matches_matrix_oracle(self, op, spec):
        state = make_basis_state(spec)
        expected = op.matrix @ state.amplitudes
        np.testing.assert_allclose(
            apply_pauli(state, 0, op).amplitudes, expected, atol=1e-12
        )

    def test_acts_on_named_qubit_only(self):
        zero = make_basis_state(BasisStateSpec("Z", 0))
        state = tensor([zero, zero, zero])
        flipped = apply_pauli(state, 1, PauliOp(0, 1))
        expected = np.zeros(8)
        expected[0b010] = 1.0
        np.testing.assert_allclose(flipped.amplitudes, expected, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            apply_pauli(make_basis_state(BasisStateSpec("Z", 0)), 1, PauliOp(0, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_kronecker_matrix_on_every_qubit(self, n):
        state = random_state(n, seed=n)
        for qubit in range(n):
            for op in PAULI_OPS:
                factors = [np.eye(2)] * n
                factors[qubit] = op.matrix
                full = factors[0]
                for factor in factors[1:]:
                    full = np.kron(full, factor)
                np.testing.assert_allclose(
                    apply_pauli(state, qubit, op).amplitudes, full @ state.amplitudes,
                    rtol=0, atol=1e-15,
                )

    def test_involution(self):
        # Z^z X^x applied twice is identity up to phase
        state = make_bell(BellLabel(0, 1))
        for op in PAULI_OPS:
            twice = apply_pauli(apply_pauli(state, 0, op), 0, op)
            assert states_equal_up_to_phase(twice, state, tol=1e-12)


def _literal_pauli(n: int, qubit: int, op: PauliOp) -> tuple[np.ndarray, np.ndarray]:
    """Source index and sign of each output amplitude of ``op`` on ``qubit``,
    read off the one nonzero entry in each row of its literal matrix."""
    matrix = op.matrix
    index = np.arange(1 << n)
    shift = n - 1 - qubit
    row = (index >> shift) & 1
    col = np.argmax(matrix != 0, axis=1)[row]
    return index ^ ((row ^ col) << shift), matrix[row, col]


class TestPauliFrames:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_equal_the_literal_matrices(self, n):
        for qubit in range(n):
            sources, signs = quantum._pauli_frames.__wrapped__(n, qubit)
            assert sources.shape == signs.shape == (len(PAULI_OPS), 1 << n)
            for code, op in enumerate(PAULI_OPS):
                source, sign = _literal_pauli(n, qubit, op)
                # every Pauli frame is a signed permutation: real signs
                assert (sign.imag == 0).all()
                assert (sources[code].dtype, signs[code].dtype) == (source.dtype, sign.real.dtype)
                assert sources[code].tobytes() == source.tobytes()
                assert signs[code].tobytes() == sign.real.tobytes()


class TestComposePauli:
    @pytest.mark.parametrize("first", PAULI_OPS, ids=lambda op: op.name)
    @pytest.mark.parametrize("second", PAULI_OPS, ids=lambda op: op.name)
    def test_matches_matrix_product_up_to_phase(self, first, second):
        fused = compose_pauli(first, second)
        product = first.matrix @ second.matrix
        # product must equal the fused matrix times a unit phase
        ratio = None
        for idx in np.ndindex(2, 2):
            if abs(fused.matrix[idx]) > 1e-12:
                ratio = product[idx] / fused.matrix[idx]
                break
        assert ratio is not None
        np.testing.assert_allclose(abs(ratio), 1.0, atol=1e-12)
        np.testing.assert_allclose(product, ratio * fused.matrix, atol=1e-12)

    def test_exponent_bits_xor(self):
        assert compose_pauli(PauliOp(1, 0), PauliOp(0, 1)) == PauliOp(1, 1)
        assert compose_pauli(PauliOp(1, 1), PauliOp(1, 1)) == PauliOp(0, 0)

    def test_returns_interned_ops(self):
        for first in PAULI_OPS:
            for second in PAULI_OPS:
                fused = compose_pauli(first, second)
                assert any(fused is op for op in PAULI_OPS)
                assert (fused.z, fused.x) == (first.z ^ second.z, first.x ^ second.x)


class TestLabelXor:
    def test_all_16_pairs_are_interned_labels(self):
        for a in BELL_LABELS:
            for b in BELL_LABELS:
                fused = a ^ b
                assert any(fused is label for label in BELL_LABELS)
                assert fused.bits == (a.i ^ b.i, a.j ^ b.j)


class TestBasisMeasure:
    def test_z_on_plus_is_uniform(self):
        branches = basis_measure(make_basis_state(BasisStateSpec("X", 0)), 0, "Z")
        probs = branches.probabilities()
        np.testing.assert_allclose([probs[0], probs[1]], [0.5, 0.5], atol=1e-12)

    def test_deterministic_branch_is_pruned(self):
        branches = basis_measure(make_basis_state(BasisStateSpec("Z", 1)), 0, "Z")
        assert len(branches) == 1
        assert branches[0].outcome == 1
        np.testing.assert_allclose(branches[0].probability, 1.0, atol=1e-12)

    def test_x_measurement(self):
        branches = basis_measure(make_basis_state(BasisStateSpec("X", 1)), 0, "X")
        assert len(branches) == 1
        assert branches[0].outcome == 1

    def test_collapse_state(self):
        plus_pair = tensor([
            make_basis_state(BasisStateSpec("X", 0)),
            make_basis_state(BasisStateSpec("Z", 0)),
        ])
        branches = basis_measure(plus_pair, 0, "Z")
        for branch in branches:
            expected = tensor([
                make_basis_state(BasisStateSpec("Z", branch.outcome)),
                make_basis_state(BasisStateSpec("Z", 0)),
            ])
            assert states_equal_up_to_phase(branch.post_state, expected, tol=1e-12)

    def test_bad_basis(self):
        with pytest.raises(ValueError):
            basis_measure(make_basis_state(BasisStateSpec("Z", 0)), 0, "Y")

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_matches_per_projector_reference(self, basis):
        state = random_state(5, seed=7)
        kets = [(value, make_basis_state(BasisStateSpec(basis, value)).amplitudes)
                for value in (0, 1)]
        for qubit in range(5):
            assert_matches_reference(basis_measure(state, qubit, basis), state, (qubit,), kets)

    def test_reference_drops_empty_outcome(self):
        # |1> on qubit 2 of a product state: outcome 0 has no weight
        state = tensor([make_bell(BellLabel(0, 1)), make_basis_state(BasisStateSpec("Z", 1))])
        kets = [(value, make_basis_state(BasisStateSpec("Z", value)).amplitudes)
                for value in (0, 1)]
        assert_matches_reference(basis_measure(state, 2, "Z"), state, (2,), kets)


class TestBellMeasure:
    @pytest.mark.parametrize("label", BELL_LABELS, ids=str)
    def test_projects_own_state_deterministically(self, label):
        branches = bell_measure(make_bell(label), 0, 1)
        assert len(branches) == 1
        assert branches[0].outcome == label
        np.testing.assert_allclose(branches[0].probability, 1.0, atol=1e-12)

    def test_product_state_splits_into_sign_pair(self):
        zero = make_basis_state(BasisStateSpec("Z", 0))
        branches = bell_measure(tensor([zero, zero]), 0, 1)
        probs = branches.probabilities()
        assert set(probs) == {BellLabel(0, 0), BellLabel(1, 0)}
        np.testing.assert_allclose(list(probs.values()), [0.5, 0.5], atol=1e-12)

    def test_exchange_symmetric(self):
        # projector basis is symmetric under qubit swap, singlet included
        reg = tensor([make_bell(BellLabel(1, 1)), make_bell(BellLabel(0, 1))])
        forward = bell_measure(reg, 1, 2).probabilities()
        backward = bell_measure(reg, 2, 1).probabilities()
        for label in BELL_LABELS:
            np.testing.assert_allclose(forward[label], backward[label], atol=1e-12)

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            bell_measure(make_bell(BellLabel(0, 0)), 0, 0)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            bell_measure(make_bell(BellLabel(0, 0)), 0, 2)

    def test_matches_per_projector_reference_on_every_qubit_pair(self):
        state = random_state(5, seed=5)
        kets = [(label, make_bell(label).amplitudes) for label in BELL_LABELS]
        for qubit_a in range(5):
            for qubit_b in range(5):
                if qubit_a != qubit_b:
                    branches = bell_measure(state, qubit_a, qubit_b)
                    assert_matches_reference(branches, state, (qubit_a, qubit_b), kets)


class TestEntanglementSwapping:
    """Joint measurement of the inner qubits of two pairs."""

    def test_all_16_pairs_give_uniform_outcomes(self):
        for a in BELL_LABELS:
            for b in BELL_LABELS:
                reg = tensor([make_bell(a), make_bell(b)])
                probs = bell_measure(reg, 1, 2).probabilities()
                assert len(probs) == 4
                for p in probs.values():
                    np.testing.assert_allclose(p, 0.25, atol=1e-12)

    def test_swapped_label_matches_enumeration_for_all_64(self):
        for a in BELL_LABELS:
            for b in BELL_LABELS:
                reg = tensor([make_bell(a), make_bell(b)])
                for branch in bell_measure(reg, 1, 2):
                    outer = StateVector(contract_pair(branch.post_state, 1, 2, branch.outcome))
                    predicted = make_bell(swapped_label(a, b, branch.outcome))
                    assert states_equal_up_to_phase(outer, predicted, tol=1e-9)

    def test_documented_example(self):
        # pairs Psi-(1,1) and Phi-(1,0), outcome Psi+(0,1)
        a, b = BellLabel(1, 1), BellLabel(1, 0)
        reg = tensor([make_bell(a), make_bell(b)])
        target = None
        for branch in bell_measure(reg, 1, 2):
            if branch.outcome == BellLabel(0, 1):
                target = StateVector(contract_pair(branch.post_state, 1, 2, branch.outcome))
        assert target is not None
        assert swapped_label(a, b, BellLabel(0, 1)) == BellLabel(0, 0)
        assert states_equal_up_to_phase(target, make_bell(BellLabel(0, 0)), tol=1e-9)


class TestTeleportation:
    """Fresh qubit jointly measured with one half of a shared pair."""

    @pytest.mark.parametrize("shared", BELL_LABELS, ids=str)
    @pytest.mark.parametrize("spec", BASIS_STATES, ids=str)
    def test_correction_restores_input_for_all_64(self, shared, spec):
        source = make_basis_state(spec)
        reg = tensor([source, make_bell(shared)])  # qubits: src, near, far
        branches = bell_measure(reg, 0, 1)
        assert len(branches) == 4
        for branch in branches:
            np.testing.assert_allclose(branch.probability, 0.25, atol=1e-12)
            remote = StateVector(contract_pair(branch.post_state, 0, 1, branch.outcome))
            correction = teleport_correction(shared, branch.outcome)
            # remote half equals correction applied to the input...
            assert states_equal_up_to_phase(
                remote, apply_pauli(source, 0, correction), tol=1e-9
            )
            # ...so applying it once more restores the input exactly
            restored = apply_pauli(remote, 0, correction)
            np.testing.assert_allclose(fidelity(restored, source), 1.0, atol=1e-12)

    def test_correction_label_is_xor(self):
        assert teleport_correction(BellLabel(1, 0), BellLabel(0, 1)) == PauliOp(1, 1)
        assert teleport_correction(BellLabel(1, 1), BellLabel(1, 1)) == PauliOp(0, 0)

    def test_correction_is_an_interned_op(self):
        for shared in BELL_LABELS:
            for outcome in BELL_LABELS:
                correction = teleport_correction(shared, outcome)
                assert any(correction is op for op in PAULI_OPS)


class TestStateComparison:
    def test_global_phase_ignored(self):
        state = make_bell(BellLabel(0, 1))
        rotated = StateVector(np.exp(1j * 0.7321) * state.amplitudes)
        assert states_equal_up_to_phase(state, rotated, tol=1e-12)

    def test_orthogonal_states_differ(self):
        assert not states_equal_up_to_phase(
            make_bell(BellLabel(0, 0)), make_bell(BellLabel(1, 0))
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            states_equal_up_to_phase(
                make_bell(BellLabel(0, 0)), make_basis_state(BasisStateSpec("Z", 0))
            )

    @given(phase=st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_phase_invariance_property(self, phase):
        state = make_bell(BellLabel(1, 1))
        rotated = StateVector(np.exp(1j * phase) * state.amplitudes)
        assert states_equal_up_to_phase(state, rotated, tol=1e-9)


@given(
    amps=st.lists(
        st.tuples(
            st.floats(min_value=-1, max_value=1, allow_nan=False),
            st.floats(min_value=-1, max_value=1, allow_nan=False),
        ),
        min_size=4,
        max_size=4,
    ).filter(lambda vals: sum(re * re + im * im for re, im in vals) > 1e-3)
)
@settings(max_examples=50, deadline=None)
def test_measurement_branches_always_sum_to_one(amps):
    raw = np.array([complex(re, im) for re, im in amps])
    state = StateVector(raw / np.linalg.norm(raw))
    for branches in (bell_measure(state, 0, 1), basis_measure(state, 0, "Z"),
                     basis_measure(state, 1, "X")):
        total = sum(b.probability for b in branches)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)
        for branch in branches:
            np.testing.assert_allclose(
                np.vdot(branch.post_state.amplitudes, branch.post_state.amplitudes).real,
                1.0,
                atol=1e-12,
            )


_PART = st.floats(min_value=-1, max_value=1, allow_nan=False)


@st.composite
def state_stacks(draw, max_qubits):
    """A stack of 1-5 normalized states of 1 to ``max_qubits`` qubits."""
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        amps = draw(
            st.lists(st.tuples(_PART, _PART), min_size=1 << n, max_size=1 << n)
            .filter(lambda vals: sum(re * re + im * im for re, im in vals) > 1e-3)
        )
        raw = np.array([complex(re, im) for re, im in amps])
        rows.append(raw / np.linalg.norm(raw))
    return np.array(rows)


@st.composite
def real_state_stacks(draw):
    """A float64 stack of 1-5 normalized states of 1-5 qubits, some
    amplitudes exactly zero, as in the protocol's registers."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        amps = draw(
            st.lists(st.one_of(st.just(0.0), _PART), min_size=1 << n, max_size=1 << n)
            .filter(lambda vals: sum(v * v for v in vals) > 1e-3)
        )
        raw = np.array(amps)
        rows.append(raw / np.linalg.norm(raw))
    return np.array(rows)


@st.composite
def measured_stacks(draw, stacks=state_stacks(4)):
    """A stack of normalized states and a measurement valid on them."""
    stack = draw(stacks)
    n = stack.shape[1].bit_length() - 1
    basis = draw(st.sampled_from(("bell", "Z", "X") if n > 1 else ("Z", "X")))
    qubits = tuple(draw(st.permutations(range(n)))[:2 if basis == "bell" else 1])
    return stack, qubits, basis


def _normalized_rows(*rows: Sequence[complex]) -> np.ndarray:
    """A stack of the given rows, each normalized as :func:`measured_stacks` does."""
    raws = [np.array(row, dtype=np.complex128) for row in rows]
    return np.array([raw / np.linalg.norm(raw) for raw in raws])


class TestMeasureStack:
    # One product over the whole batch, rather than one per row, rounds
    # the second row's X weights of this stack differently
    @example((_normalized_rows([0.5 + 0.1j, -0.3 + 0.6j], [-0.4 - 0.1j, -0.7 - 0.2j]), (0,), "X"))
    @given(measured_stacks())
    @settings(max_examples=100, deadline=None)
    def test_stack_equals_per_row_measurements_bit_for_bit(self, case):
        stack, qubits, basis = case
        rows = _measure_stack(stack, qubits, basis)
        named = quantum._MEASUREMENTS[basis][1]  # the outcome each ket row names
        expected = []
        for parent, amps in enumerate(stack):
            state = StateVector(amps)
            measured = (bell_measure(state, *qubits) if basis == "bell"
                        else basis_measure(state, qubits[0], basis))
            expected += [(parent, b.outcome, b.probability, b.post_state.amplitudes.tobytes())
                         for b in measured]
        # the kernel leaves collapsed rows unnormalized; a branch normalizes its own
        posts = [post / np.linalg.norm(post) for post in quantum._collapsed(rows, qubits, basis)]
        assert list(zip(rows.parents, [named[code] for code in rows.codes], rows.probabilities,
                        [post.tobytes() for post in posts])) == expected

    # one product over the whole batch rounds this stack's second row differently
    @example((_normalized_rows([0, 0, 0, 1], [0, 1, 8, 0]).real, (0, 1), "bell"))
    @given(measured_stacks(real_state_stacks()))
    @settings(max_examples=100, deadline=None)
    def test_real_stack_equals_its_rows_measured_alone_bit_for_bit(self, case):
        # real sums may round apart from complex ones, so each row is
        # measured alone as a one-row float64 stack, not as a StateVector
        stack, qubits, basis = case
        rows = _measure_stack(stack, qubits, basis)
        posts = quantum._collapsed(rows, qubits, basis)
        assert posts.dtype == np.float64
        alone = [_measure_stack(row[None], qubits, basis) for row in stack]
        assert rows.parents.tolist() == [k for k, m in enumerate(alone) for _ in m.parents]
        assert rows.codes.tolist() == [code for m in alone for code in m.codes.tolist()]
        assert rows.probabilities.tobytes() == b"".join(m.probabilities.tobytes() for m in alone)
        assert posts.tobytes() == b"".join(quantum._collapsed(m, qubits, basis).tobytes()
                                           for m in alone)

    @given(state_stacks(5))
    @settings(max_examples=100, deadline=None)
    def test_z_measurement_equals_contracting_the_z_kets(self, stack):
        # Z takes the reordered stack as its residual: the same weights,
        # each a squared norm over its row's total, bit for bit, and the
        # same residuals up to the signs of zeros
        count, dim = stack.shape
        n = dim.bit_length() - 1
        kets = quantum._MEASUREMENTS["Z"][0]
        for qubit in range(n):
            view = np.moveaxis(stack.reshape((count,) + (2,) * n), 1 + qubit, 1).reshape(count, 2, -1)
            residuals = kets.conj() @ view
            norms = np.einsum("bkr,bkr->bk", residuals.conj(), residuals).real
            totals = norms.sum(axis=1)
            parents, codes = np.nonzero(norms > quantum.PROB_ATOL * totals[:, None])
            measured = _measure_stack(stack, (qubit,), "Z")
            assert measured.parents.tobytes() == parents.tobytes()
            assert measured.codes.tobytes() == codes.tobytes()
            weights = norms[parents, codes] / totals[parents]
            assert measured.probabilities.tobytes() == weights.tobytes()
            assert np.array_equal(measured.residuals, residuals)

    @given(measured_stacks(), st.lists(st.integers(0, 40), min_size=5, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_unnormalized_row_measures_as_its_normalized_self(self, case, exponents):
        # a power of two scales a row's norms and total alike, exactly;
        # scaling up keeps every subnormal amplitude's bits
        stack, qubits, basis = case
        factors = np.ldexp(1.0, exponents[:len(stack)])[:, None]
        unit = _measure_stack(stack, qubits, basis)
        scaled = _measure_stack(stack * factors, qubits, basis)
        assert scaled.parents.tolist() == unit.parents.tolist()
        assert scaled.codes.tolist() == unit.codes.tolist()
        assert scaled.probabilities.tobytes() == unit.probabilities.tobytes()
        assert np.array_equal(quantum._collapsed(scaled, qubits, basis),
                              quantum._collapsed(unit, qubits, basis) * factors[unit.parents])

    def test_integer_rows_give_exact_weights(self):
        # 3|+>, 2|0> and |0> + 3|1> in X: integer residuals, correctly rounded ratios
        stack = np.array([[3.0, 3.0], [2.0, 0.0], [1.0, 3.0]])
        measured = _measure_stack(stack, (0,), "X")
        assert measured.parents.tolist() == [0, 1, 1, 2, 2]
        assert measured.probabilities.tolist() == [1.0, 0.5, 0.5, 0.8, 0.2]
        assert quantum._collapsed(measured, (0,), "X").tolist() == [
            [6.0, 6.0], [2.0, 2.0], [2.0, -2.0], [4.0, 4.0], [-2.0, 2.0]]

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_row_of_zero_or_non_finite_norm_rejected(self, bad):
        stack = np.array([[1.0, 0.0], [bad, 0.0]], dtype=np.complex128)
        with pytest.raises(ValueError, match="zero or non-finite norm"):
            _measure_stack(stack, (0,), "Z")

    @pytest.mark.parametrize("basis,qubits", [("X", (0,)), ("bell", (0, 1))])
    @pytest.mark.parametrize("excess,ok", [(0.5e-12, True), (1.9e-12, True),
                                           (2.1e-12, False), (0.5, False)])
    def test_skewed_kets_fail_the_conservation_check(self, monkeypatch, basis, qubits, excess, ok):
        # the second outcome ket lengthened: the totals of a row that
        # weighs it by 1/2 miss the ket scale by excess / 2 of the row,
        # whatever the row's own scale; Z takes the stack as its own
        # residual, so it has no ket to skew
        kets, outcomes = quantum._MEASUREMENTS[basis]
        skewed = kets * np.sqrt([[1.0], [1.0 + excess]] + [[1.0]] * (len(kets) - 2))
        monkeypatch.setitem(quantum._MEASUREMENTS, basis, (skewed, outcomes))
        row = (kets[0] + kets[1]) * 2.0 ** 40  # half on each of the first two outcomes
        if ok:
            assert len(_measure_stack(row[None], qubits, basis).parents) == 2
        else:
            with pytest.raises(ValueError, match="does not conserve weight"):
                _measure_stack(row[None], qubits, basis)

    @pytest.mark.parametrize("basis", sorted(quantum._MEASUREMENTS))
    def test_each_ket_set_is_a_scaled_orthonormal_basis(self, basis):
        # K K^T = s I exactly, with every entry 0 or +-1
        kets = quantum._MEASUREMENTS[basis][0]
        scale = kets[0] @ kets[0]
        assert scale in (1.0, 2.0)
        assert np.isin(kets, (-1.0, 0.0, 1.0)).all()
        assert np.array_equal(kets @ kets.T, scale * np.eye(len(kets)))

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_amplitude_count_must_be_a_power_of_two(self, dim):
        with pytest.raises(ValueError, match="power of two"):
            _measure_stack(np.ones((2, dim), dtype=np.complex128) / math.sqrt(dim), (0,), "Z")

    # qubit 0, as the enumerator turns it: measured, on the ket; and not
    # measured, on the residual
    @example((_normalized_rows([1, 1j, 0, -1, 0, 0.5, 0.5j, 0], [0.5, 0, 0.5j, 0.7, -1, 0, 0, 1j]),
              (2, 0), "bell"), [1, 2, 3, 0] * 5, 0, "X")
    @example((_normalized_rows([0.6, 0, 0.8j, 0, 0, 1, 0, 1]), (2,), "X"), [3, 1, 2, 0] * 5, 0, "Z")
    @given(measured_stacks(), st.lists(st.integers(0, 3), min_size=20, max_size=20),
           st.integers(0, 3), st.sampled_from(("Z", "X")))
    @settings(max_examples=100, deadline=None)
    def test_framed_collapse_equals_turning_each_collapsed_row(self, case, codes, qubit, basis_after):
        stack, qubits, basis = case
        qubit %= stack.shape[1].bit_length() - 1  # any qubit of the register
        measured = _measure_stack(stack, qubits, basis)
        frames = np.array(codes[:len(measured.parents)])  # one Pauli code per kept branch
        framed = quantum._collapsed(measured, qubits, basis, (qubit, frames))
        turned = quantum._framed(quantum._collapsed(measured, qubits, basis), qubit, frames)
        assert np.array_equal(framed, turned)  # equal up to the signs of zeros
        after = [_measure_stack(rows, (qubit,), basis_after) for rows in (framed, turned)]
        assert after[0].probabilities.tobytes() == after[1].probabilities.tobytes()
        assert after[0].codes.tolist() == after[1].codes.tolist()
