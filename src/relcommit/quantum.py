"""Exact state-vector engine for the commitment protocol's quantum layer.

Everything here is deliberately small and exhaustive: registers hold at
most a handful of qubits, and measurements return the complete set of
outcome branches (outcome, probability, collapsed state) instead of a
sampled result, so higher layers can enumerate protocol executions
exactly rather than estimate them.

Conventions
-----------
* Qubit ``k`` of an ``n``-qubit register is bit ``k`` of the amplitude
  index read most-significant-first: amplitude index ``0b01`` of a
  two-qubit register is ``|01>`` with qubit 0 in ``|0>``.  ``tensor``
  assigns qubit indices left to right.
* Maximally entangled pair states carry two-bit labels ``(i, j)``:
  ``i`` is the relative sign, ``j`` the parity.

  ====== =======================  ========
  label  state                    symbol
  ====== =======================  ========
  (0,0)  (|00> + |11>) / sqrt(2)  Phi+
  (0,1)  (|01> + |10>) / sqrt(2)  Psi+
  (1,0)  (|00> - |11>) / sqrt(2)  Phi-
  (1,1)  (|01> - |10>) / sqrt(2)  Psi-
  ====== =======================  ========

  With this labelling ``B(i,j) = (Z^i X^j x I) B(0,0)`` holds exactly,
  so label arithmetic is XOR arithmetic.
* Pauli operators are labelled by exponent bits ``(z, x)`` meaning
  ``Z^z X^x``.  Composition XORs the exponents; the accumulated global
  phase is dropped, which is why all state comparisons in this package
  are up to phase.
* The engine stores the pair and X kets scaled by sqrt(2), so every
  entry is 0 or +-1; :func:`make_bell` and :func:`make_basis_state`
  normalize them.
* Every ket, Pauli frame and register built here is real float64.  A
  stack's dtype follows its input by numpy's promotion: protocol stacks
  stay real, and a complex128 :class:`StateVector` is measured complex.
* One kernel measures a stack of states, amplitudes of shape
  ``(B, 2**n)``, with one contraction against the stacked outcome kets
  (none in Z, whose kets are the identity), checks every row and
  returns each kept branch's outcome code and weight: its squared norm
  over its row's total, so rows need not be normalized and integer
  rows give exact weights.  Collapsed states are built only where read,
  each one broadcast product of its outcome ket and residual, in qubit
  order, and never normalized.  :func:`bell_measure` and
  :func:`basis_measure` wrap one state's rows as :class:`Branch`
  objects, normalizing each state once.  ``PROB_ATOL`` bounds only
  float rounding: branches dropped relative to their row, the kernel's
  conservation check, and the public classes' norm and sum checks.  A
  Pauli is a signed permutation of the amplitudes, one gather; all four
  on a qubit form one table, which turns each row of a stack, or
  either factor of a collapse, by its own Pauli.
  :func:`clear_caches` drops the memoized index tables.  Label and
  frame algebra return members of ``BELL_LABELS``/``PAULI_OPS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "PROB_ATOL",
    "STATE_ATOL",
    "BellLabel",
    "PauliOp",
    "BasisStateSpec",
    "StateVector",
    "Branch",
    "BranchSet",
    "BELL_LABELS",
    "PAULI_OPS",
    "BASIS_STATES",
    "make_bell",
    "make_basis_state",
    "tensor",
    "apply_pauli",
    "bell_measure",
    "basis_measure",
    "compose_pauli",
    "teleport_correction",
    "swapped_label",
    "states_equal_up_to_phase",
    "fidelity",
    "clear_caches",
]

PROB_ATOL = 1e-12
STATE_ATOL = 1e-9

_BIT_ERR = "label bits must be 0 or 1, got {!r}"


def _check_bit(value: int) -> int:
    if value not in (0, 1):
        raise ValueError(_BIT_ERR.format(value))
    return value


@dataclass(frozen=True)
class BellLabel:
    """Two-bit name ``(i, j)`` of a maximally entangled pair state.

    ``i`` is the sign bit, ``j`` the parity bit.  XOR of labels tracks
    both entanglement swapping and teleportation corrections, so the
    class supports ``^`` directly.
    """

    i: int
    j: int

    def __post_init__(self) -> None:
        _check_bit(self.i)
        _check_bit(self.j)

    def __xor__(self, other: "BellLabel") -> "BellLabel":
        return BELL_LABELS[2 * (self.i ^ other.i) + (self.j ^ other.j)]

    @property
    def bits(self) -> tuple[int, int]:
        return (self.i, self.j)

    @property
    def symbol(self) -> str:
        """Conventional state symbol: Phi+/Psi+/Phi-/Psi-."""
        return ("Phi+", "Psi+", "Phi-", "Psi-")[2 * self.i + self.j]

    def __str__(self) -> str:
        return f"{self.i}{self.j}"


BELL_LABELS: tuple[BellLabel, ...] = (
    BellLabel(0, 0),
    BellLabel(0, 1),
    BellLabel(1, 0),
    BellLabel(1, 1),
)


@dataclass(frozen=True)
class PauliOp:
    """Single-qubit Pauli with exponent bits ``(z, x)`` meaning ``Z^z X^x``.

    Only the exponents are tracked; composition discards the global
    phase that distinguishes ``ZX`` from ``XZ``.
    """

    z: int
    x: int

    def __post_init__(self) -> None:
        _check_bit(self.z)
        _check_bit(self.x)

    @property
    def matrix(self) -> np.ndarray:
        return _PAULI_MATRICES[(self.z, self.x)].copy()

    @property
    def name(self) -> str:
        return ("I", "X", "Z", "ZX")[2 * self.z + self.x]

    def __str__(self) -> str:
        return self.name


_PAULI_MATRICES = {
    (0, 0): np.eye(2, dtype=np.complex128),
    (0, 1): np.array([[0, 1], [1, 0]], dtype=np.complex128),
    (1, 0): np.array([[1, 0], [0, -1]], dtype=np.complex128),
    (1, 1): np.array([[0, 1], [-1, 0]], dtype=np.complex128),
}

PAULI_OPS: tuple[PauliOp, ...] = (
    PauliOp(0, 0),
    PauliOp(0, 1),
    PauliOp(1, 0),
    PauliOp(1, 1),
)


@dataclass(frozen=True)
class BasisStateSpec:
    """Named single-qubit basis state: ``basis`` in {Z, X}, ``value`` in {0, 1}.

    ``("Z", 0)`` is ``|0>``, ``("Z", 1)`` is ``|1>``, ``("X", 0)`` is
    ``|+>`` and ``("X", 1)`` is ``|->``.
    """

    basis: str
    value: int

    def __post_init__(self) -> None:
        if self.basis not in ("Z", "X"):
            raise ValueError(f"basis must be 'Z' or 'X', got {self.basis!r}")
        _check_bit(self.value)

    def __str__(self) -> str:
        return f"{self.basis}{self.value}"


BASIS_STATES: tuple[BasisStateSpec, ...] = (
    BasisStateSpec("Z", 0),
    BasisStateSpec("Z", 1),
    BasisStateSpec("X", 0),
    BasisStateSpec("X", 1),
)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of ``n`` qubits as a complex amplitude vector.

    The amplitude array is copied on construction and frozen.  Equality
    of states is physical, not structural: use
    :func:`states_equal_up_to_phase`.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True).reshape(-1)
        if amps.size < 2 or amps.size & (amps.size - 1):
            raise ValueError(f"amplitude count must be a power of two >= 2, got {amps.size}")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > PROB_ATOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class Branch:
    """One measurement outcome: its label, weight, and collapsed state."""

    outcome: "BellLabel | int"
    probability: float
    post_state: StateVector

    def __post_init__(self) -> None:
        if not PROB_ATOL < self.probability <= 1.0 + PROB_ATOL:
            raise ValueError(f"branch probability out of range: {self.probability!r}")


@dataclass(frozen=True, eq=False)
class BranchSet:
    """Exhaustive, order-stable set of measurement branches.

    Branch probabilities must sum to 1 within ``PROB_ATOL``; branches of
    numerically zero weight are dropped before construction.
    """

    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        total = math.fsum(b.probability for b in self.branches)
        if abs(total - 1.0) > PROB_ATOL:
            raise ValueError(f"branch probabilities sum to {total!r}, expected 1")

    def __iter__(self) -> Iterator[Branch]:
        return iter(self.branches)

    def __len__(self) -> int:
        return len(self.branches)

    def __getitem__(self, idx: int) -> Branch:
        return self.branches[idx]

    def probabilities(self) -> dict:
        return {b.outcome: b.probability for b in self.branches}


# Outcome kets, one row per outcome, scaled by sqrt(2) where a ket has two
# nonzero entries: pair labels in BELL_LABELS order, basis values 0 and 1.
_BELL_KETS = np.array([
    [1.0, 0.0, 0.0, 1.0],
    [0.0, 1.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, -1.0],
    [0.0, 1.0, -1.0, 0.0],
])
_BASIS_KETS = {
    "Z": np.array([[1.0, 0.0], [0.0, 1.0]]),
    "X": np.array([[1.0, 1.0], [1.0, -1.0]]),
}


def make_bell(label: BellLabel) -> StateVector:
    """Two-qubit maximally entangled state named by ``label``."""
    ket = _BELL_KETS[2 * label.i + label.j]
    return StateVector(ket / np.linalg.norm(ket))


def make_basis_state(spec: BasisStateSpec) -> StateVector:
    """Single-qubit computational or diagonal basis state."""
    ket = _BASIS_KETS[spec.basis][spec.value]
    return StateVector(ket / np.linalg.norm(ket))


def tensor(parts: Sequence[StateVector]) -> StateVector:
    """Tensor product of ``parts``; qubit indices grow left to right."""
    if not parts:
        raise ValueError("tensor requires at least one state")
    amps = parts[0].amplitudes
    for part in parts[1:]:
        amps = np.kron(amps, part.amplitudes)
    return StateVector(amps)


@lru_cache(maxsize=None)
def _pauli_frames(n: int, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Sources and signs of ``Z^z X^x`` on ``qubit``, a row per code ``2z + x``:
    output ``i`` reads ``i ^ (x << shift)``, negated where ``z`` and its qubit bit are 1."""
    codes = np.arange(len(PAULI_OPS))[:, None]
    index = np.arange(1 << n)
    shift = n - 1 - qubit
    signs = 1 - 2 * ((codes >> 1) & (index >> shift))
    return index ^ ((codes & 1) << shift), signs.astype(np.float64)


def _framed(stack: np.ndarray, qubit: int, codes: np.ndarray) -> np.ndarray:
    """Each row of a ``(B, 2**n)`` stack with the Pauli its code names on ``qubit``."""
    count, dim = stack.shape
    sources, signs = _pauli_frames(dim.bit_length() - 1, qubit)
    flat = sources.take(codes, axis=0) + dim * np.arange(count)[:, None]  # into the raveled stack
    return stack.take(flat) * signs.take(codes, axis=0)


def apply_pauli(state: StateVector, qubit: int, op: PauliOp) -> StateVector:
    """Apply ``op`` to one qubit of ``state``."""
    n = state.n_qubits
    if not 0 <= qubit < n:
        raise IndexError(f"qubit {qubit} out of range for {n}-qubit state")
    return StateVector(_framed(state.amplitudes[None], qubit, [2 * op.z + op.x])[0])


class _Layout(NamedTuple):
    """Where a measurement of ``qubits`` puts each qubit of an ``n``-qubit stack."""

    perm: tuple[int, ...]  # stack axes, measured qubits first: what is contracted
    ket_columns: np.ndarray  # an outcome ket's columns, reordered so its qubits ascend
    ket_shape: tuple[int, ...]  # a ket row's axes at its qubits, size 1 elsewhere
    rest_shape: tuple[int, ...]  # a residual's axes at the other qubits, ascending


@lru_cache(maxsize=None)
def _measured_first(n: int, qubits: tuple[int, ...]) -> _Layout:
    """The axis layout of measuring ``qubits`` of a stack of ``n``-qubit states."""
    ket_axes = tuple(qubits.index(q) for q in sorted(qubits))
    columns = np.arange(1 << len(qubits)).reshape((2,) * len(qubits)).transpose(ket_axes)
    return _Layout(
        (0, *(1 + ax for ax in qubits), *(1 + ax for ax in range(n) if ax not in qubits)),
        columns.reshape(-1),
        tuple(2 if ax in qubits else 1 for ax in range(n)),
        tuple(1 if ax in qubits else 2 for ax in range(n)),
    )


# Measurement name -> (outcome kets, one row per outcome; the outcome each row names).
_MEASUREMENTS = {
    "bell": (_BELL_KETS, BELL_LABELS),
    "Z": (_BASIS_KETS["Z"], (0, 1)),
    "X": (_BASIS_KETS["X"], (0, 1)),
}


class _Projection(NamedTuple):
    """Kept branches of a measured stack, in (parent row, outcome) order."""

    parents: np.ndarray  # each kept branch's row of the measured stack
    probabilities: np.ndarray
    codes: np.ndarray  # each outcome's row of the outcome kets: a label's code, or the bit
    residuals: np.ndarray | None  # [row, outcome, rest]: what :func:`_collapsed` scales


def _measure_stack(stack: np.ndarray, qubits: tuple[int, ...], basis: str) -> _Projection:
    """Exhaustive projective measurement of every row of a ``(B, 2**n)`` stack.

    ``basis`` is ``"bell"`` (the pair basis on two qubits) or ``"Z"`` or
    ``"X"`` (on one).  One contraction (none in Z) gives every row's
    residual per outcome.  A branch's weight is its residual's squared
    norm over its row's total, so a row measures as its normalized self,
    and on integer rows each weight is an exact ratio.  Each row needs a
    finite nonzero norm, and its total must equal the ket scale (an
    outcome ket's squared norm) times that norm squared within a relative
    ``PROB_ATOL``, exactly on integer rows; otherwise ``ValueError``.
    Branches at or below ``PROB_ATOL`` of their row's total are dropped.
    :func:`_collapsed` builds the collapsed states.
    """
    kets = _MEASUREMENTS[basis][0]
    count, dim = stack.shape
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"amplitude count must be a power of two >= 2, got {dim}")
    n = dim.bit_length() - 1
    perm = _measured_first(n, qubits).perm
    view = stack.reshape((count,) + (2,) * n).transpose(perm).reshape(count, kets.shape[1], -1)
    # A batched matmul, one product per row, gives a row the same residuals
    # alone or in any stack; one flattened product may round apart.  Real
    # kets are their own conjugates, so a real stack stays real.  Z's kets
    # are the identity: a Z view is its own residual, up to zero signs.
    residuals = view if basis == "Z" else kets @ view
    norms = np.einsum("bkr,bkr->bk", residuals.conj(), residuals).real
    totals = norms.sum(axis=1)
    expected = (kets[0] @ kets[0]) * np.einsum("bi,bi->b", stack.conj(), stack).real
    if not (np.isfinite(expected) & (expected > 0.0)).all():
        raise ValueError("cannot measure a row of zero or non-finite norm")
    if not (abs(totals - expected) <= PROB_ATOL * expected).all():
        raise ValueError(f"measurement does not conserve weight: row totals {totals.tolist()!r}, "
                         f"expected {expected.tolist()!r}")
    parents, picked = np.nonzero(norms > PROB_ATOL * totals[:, None])
    return _Projection(parents, norms[parents, picked] / totals[parents], picked, residuals)


def _collapsed(
    measured: _Projection,
    qubits: tuple[int, ...],
    basis: str,
    frame: tuple[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Each kept branch's collapsed amplitudes, a row each, of ``measured`` on ``qubits``.

    A row is the product of two factors: its outcome's ket on the
    measured qubits and its residual on the others, each laid out at its
    qubits' axes, so one broadcast multiply writes the stack in qubit
    order.  Rows are not normalized, so integer rows stay integer; a
    later :func:`_measure_stack` weighs each row against its own total.
    ``frame``, a qubit and one Pauli code per kept branch
    (a code indexes ``PAULI_OPS``), turns each row by its Pauli on that
    qubit, on whichever factor holds it; a signed permutation only
    negates and moves amplitudes, so each equals that of the unturned
    row turned afterwards, up to the sign of a zero.
    """
    kets = _MEASUREMENTS[basis][0]
    parents, _, picked, residuals = measured
    count = len(parents)
    n = (kets.shape[1] * residuals.shape[2]).bit_length() - 1
    layout = _measured_first(n, qubits)
    ket = kets[:, layout.ket_columns].take(picked, axis=0)
    rest = residuals[parents, picked]
    if frame is not None:
        qubit, codes = frame
        below = sum(q < qubit for q in qubits)  # a factor's qubits ascend
        if qubit in qubits:
            ket = _framed(ket, below, codes)
        else:
            rest = _framed(rest, qubit - below, codes)
    return (ket.reshape(count, *layout.ket_shape)
            * rest.reshape(count, *layout.rest_shape)).reshape(count, -1)


def _branch_set(state: StateVector, qubits: tuple[int, ...], basis: str) -> BranchSet:
    """One state's measurement: the stack kernel on a single row."""
    rows = _measure_stack(state.amplitudes[None], qubits, basis)
    return BranchSet(tuple(
        Branch(_MEASUREMENTS[basis][1][code], prob, StateVector(post / np.linalg.norm(post)))
        for code, prob, post in
        zip(rows.codes.tolist(), rows.probabilities.tolist(), _collapsed(rows, qubits, basis))
    ))


def bell_measure(state: StateVector, qubit_a: int, qubit_b: int) -> BranchSet:
    """Measure two qubits in the entangled-pair basis.

    Returns all four possible labelled outcomes (minus numerically empty
    ones) with collapsed post-measurement states.  The projectors are
    symmetric under qubit exchange, so the order of ``qubit_a`` and
    ``qubit_b`` never changes the outcome statistics.
    """
    n = state.n_qubits
    if qubit_a == qubit_b:
        raise ValueError("bell_measure requires two distinct qubits")
    for q in (qubit_a, qubit_b):
        if not 0 <= q < n:
            raise IndexError(f"qubit {q} out of range for {n}-qubit state")
    return _branch_set(state, (qubit_a, qubit_b), "bell")


def basis_measure(state: StateVector, qubit: int, basis: str) -> BranchSet:
    """Measure one qubit in the Z or X basis; outcomes are bits 0/1."""
    if basis not in ("Z", "X"):
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    n = state.n_qubits
    if not 0 <= qubit < n:
        raise IndexError(f"qubit {qubit} out of range for {n}-qubit state")
    return _branch_set(state, (qubit,), basis)


def compose_pauli(first: PauliOp, second: PauliOp) -> PauliOp:
    """Product of two Pauli frames, up to global phase.

    The exponent bits XOR; the resulting matrix equals the literal
    product ``first.matrix @ second.matrix`` up to a phase.
    """
    return PAULI_OPS[2 * (first.z ^ second.z) + (first.x ^ second.x)]


def teleport_correction(shared: BellLabel, outcome: BellLabel) -> PauliOp:
    """Pauli the teleportation receiver's half picked up, as a frame label.

    When a fresh qubit is jointly measured with one half of a ``shared``
    pair and the pair-basis outcome is ``outcome``, the remote half holds
    the input state rotated by this Pauli (up to phase).  Applying the
    same operator again therefore restores the input exactly.  The table
    coincides with XOR of the two labels; the test suite certifies that
    against direct state-vector enumeration rather than assuming it.
    """
    fused = shared ^ outcome
    return PAULI_OPS[2 * fused.i + fused.j]


def swapped_label(label_a: BellLabel, label_b: BellLabel, outcome: BellLabel) -> BellLabel:
    """Label of the outer pair after entanglement swapping.

    Two pairs labelled ``label_a`` and ``label_b`` share a joint
    pair-basis measurement on their inner qubits; outcome ``outcome``
    leaves the two outer qubits entangled with this label.  Pure XOR,
    certified against enumeration by the test suite.
    """
    return label_a ^ label_b ^ outcome


def states_equal_up_to_phase(state_a: StateVector, state_b: StateVector, tol: float = STATE_ATOL) -> bool:
    """Whether two states coincide after removing a global phase.

    The phase is fixed by aligning the largest amplitude of ``state_a``
    with the corresponding amplitude of ``state_b``; the states are equal
    when the aligned l2 distance is at most ``tol``.  Alignment keeps the
    residual at machine precision for true phase multiples, unlike overlap
    based metrics which amplify rounding near zero.
    """
    if state_a.dim != state_b.dim:
        raise ValueError(f"dimension mismatch: {state_a.dim} vs {state_b.dim}")
    a = state_a.amplitudes
    b = state_b.amplitudes
    pivot = int(np.argmax(np.abs(a)))
    ratio = complex(b[pivot] / a[pivot])
    if abs(ratio) > PROB_ATOL:
        a = a * (ratio / abs(ratio))
    return float(np.linalg.norm(a - b)) <= tol


def fidelity(state_a: StateVector, state_b: StateVector) -> float:
    """Squared overlap ``|<a|b>|^2`` of two pure states."""
    if state_a.dim != state_b.dim:
        raise ValueError(f"dimension mismatch: {state_a.dim} vs {state_b.dim}")
    return abs(complex(np.vdot(state_a.amplitudes, state_b.amplitudes))) ** 2


def clear_caches() -> None:
    """Drop the memoized Pauli frame tables and measurement axis layouts."""
    for cached in (_pauli_frames, _measured_first):
        cached.cache_clear()
