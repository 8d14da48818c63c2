"""Security analyzer: cheating strategies, detection odds, and leakage.

Every probability this module reports is computed twice, by two routes
that share no code past the label arithmetic itself:

1. **enumeration**: run the full state-vector protocol, validate each
   committed label's branch table under every announcement in one
   verifier call, and sum the accepted weights;
2. **algebra**: fold the same scenario into XOR bookkeeping over 2-bit
   label codes and count the accepted cells of the grid, with no
   amplitudes anywhere.

Both routes are exact, since every weight is dyadic, so the two must be
equal or the analyzer raises :class:`SelfCheckError` instead of
returning a number.  This guards the simulator and the closed-form
analysis against each other.

The verifier model (``R1`` or ``R2``, see :mod:`relcommit.protocol`) is
``params.validation_mode`` and nothing else; to analyze the other model,
pass ``dataclasses.replace(params, validation_mode="R1")``.

Strategies
----------
Committer side (affect acceptance at reveal):

* ``honest``: announce the committed label.
* ``relabel_announce``: commit to a label, announce it XOR ``delta``.
* ``delayed_rechoice``: decide the label only at the confirmation
  phase.  The scheme is *designed* to allow this (it is the delayed
  choice), so acceptance is 1 and the effective label is the binding
  commitment.

Receiver side (attempt to learn the committed bit before reveal):

* ``early_extract``: measure the committer's flying half in Z, X, or
  jointly with the retained half in the pair basis.
* ``receiver_skip``: keep the flying half idle instead of forwarding
  it, then measure it jointly with the confirmation qubit at storage
  time.  Equivalent to the pair-basis extraction: the returned qubit
  arrives rotated by the very label that names the pair, so the joint
  outcome is the same fixed state for every commitment.

Reported numbers carry the protocol designers' claimed values where
the published security argument states one, with an ``agrees`` flag;
disagreements are findings, never silently reconciled.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .protocol import (
    SchemeParams,
    _code,
    _columns,
    _params_table,
    _verify,
    clear_caches,
    committed_bit,
)
from .quantum import (
    BELL_LABELS,
    BellLabel,
    _BELL_KETS,
    _framed,
    _measure_stack,
)

__all__ = [
    "AGREEMENT_ATOL",
    "COMMITTER_KINDS",
    "RECEIVER_KINDS",
    "SelfCheckError",
    "Strategy",
    "StrategyRow",
    "ExtractionRow",
    "SecurityReport",
    "detection_probability",
    "string_cheat_acceptance",
    "concealment_tv",
    "extraction_guess_probability",
    "build_report",
    "clear_caches",
]

# How far a reported value may sit from its claim and still agree; the
# routes themselves must be equal (see _checked).
AGREEMENT_ATOL = 1e-12

COMMITTER_KINDS = ("honest", "relabel_announce", "delayed_rechoice")
RECEIVER_KINDS = ("early_extract", "receiver_skip")

_ZERO = BellLabel(0, 0)


class SelfCheckError(RuntimeError):
    """The enumeration and algebra routes gave different values."""


@dataclass(frozen=True)
class Strategy:
    """One adversarial (or honest) behaviour, by role and kind."""

    role: str
    kind: str
    delta: BellLabel | None = None
    basis: str | None = None

    def __post_init__(self) -> None:
        if self.role == "committer":
            if self.kind not in COMMITTER_KINDS:
                raise ValueError(f"unknown committer strategy {self.kind!r}")
            if self.basis is not None:
                raise ValueError(f"committer strategies take no 'basis', got {self.basis!r}")
            if self.kind == "honest" and self.delta not in (None, _ZERO):
                raise ValueError("honest strategy takes no announcement shift")
            if self.kind != "honest" and (self.delta is None or self.delta == _ZERO):
                raise ValueError(f"{self.kind} requires a non-zero label shift")
        elif self.role == "receiver":
            if self.kind not in RECEIVER_KINDS:
                raise ValueError(f"unknown receiver strategy {self.kind!r}")
            if self.delta is not None:
                raise ValueError(f"receiver strategies take no 'delta', got {self.delta!r}")
            if self.kind == "early_extract" and self.basis not in ("Z", "X", "pair"):
                raise ValueError("early_extract requires basis 'Z', 'X' or 'pair'")
            if self.kind == "receiver_skip" and self.basis is not None:
                raise ValueError(f"receiver_skip takes no 'basis', got {self.basis!r}")
        else:
            raise ValueError(f"role must be committer or receiver, got {self.role!r}")

    @classmethod
    def honest(cls) -> "Strategy":
        return cls("committer", "honest")

    @classmethod
    def relabel_announce(cls, delta: BellLabel) -> "Strategy":
        return cls("committer", "relabel_announce", delta=delta)

    @classmethod
    def delayed_rechoice(cls, delta: BellLabel) -> "Strategy":
        return cls("committer", "delayed_rechoice", delta=delta)

    @classmethod
    def early_extract(cls, basis: str) -> "Strategy":
        return cls("receiver", "early_extract", basis=basis)

    @classmethod
    def receiver_skip(cls) -> "Strategy":
        return cls("receiver", "receiver_skip")

    def committer_labels(self, chosen: BellLabel) -> tuple[BellLabel, BellLabel]:
        """(label committed, label announced) when the committer picks ``chosen``."""
        if self.role != "committer":
            raise ValueError("only committer strategies commit and announce labels")
        if self.kind == "honest":
            return chosen, chosen
        if self.kind == "relabel_announce":
            return chosen, chosen ^ self.delta
        # delayed_rechoice: the late pick is the binding commitment
        return chosen ^ self.delta, chosen ^ self.delta

    def describe(self) -> str:
        if self.role == "committer":
            if self.kind == "honest":
                return "honest"
            return f"{self.kind}(delta={self.delta})"
        if self.kind == "receiver_skip":
            return "receiver_skip"
        return f"early_extract({self.basis})"


# --------------------------------------------------------------------------
# acceptance, route 1: state-vector enumeration
# --------------------------------------------------------------------------


def _acceptance_by_label_enumerated(params: SchemeParams) -> np.ndarray:
    """Acceptance conditioned on each committed label, announced XOR each shift.

    A ``[shift, committed label]`` matrix, both axes by label code.  One
    verifier call per committed label's table, which holds its branches
    against every receiver label, checks it under all four announced
    labels; each cell is the correctly rounded sum of its accepted
    weights.
    """
    shifts = np.arange(4)[:, None]
    conditional = np.empty((4, 4))
    for code, committed in enumerate(BELL_LABELS):
        columns = _columns(params, committed)
        accept = _verify(columns, code ^ shifts, params.validation_mode).accept
        weights = columns.probability / 4.0
        for shift, accepted in enumerate(accept):
            conditional[shift, code] = math.fsum(weights[accepted].tolist())
    return conditional


# --------------------------------------------------------------------------
# acceptance, route 2: XOR label algebra, no amplitudes
# --------------------------------------------------------------------------


# Which exponent of a Pauli frame flips a basis family's value, as a bit
# of the 2-bit code ``2 * i + j`` of a label.
_FLIP_SHIFT = {"Z": 0, "X": 1}


def _acceptance_by_label_algebraic(params: SchemeParams) -> np.ndarray:
    """Count the accepted cells of a grid of 2-bit label codes.

    Axes: announcement shift, committed label, receiver label, swap and
    teleport outcome, each a code ``2 * i + j`` and every cell of a
    shift equally likely; probe states are summed one by one.  Returns
    the ``[shift, committed label]`` matrix of acceptances, each a count
    times the weight of one cell, so exactly dyadic.
    """
    shift, committed, bob, swap, tele = np.ix_(*[np.arange(4)] * 5)
    announced = committed ^ shift
    net = bob ^ swap ^ tele
    # verifier's recomputation
    if params.validation_mode == "R1":
        correction = announced ^ bob ^ swap ^ tele
    else:
        correction = committed ^ bob ^ swap ^ tele
    recomputed = announced ^ correction
    choices = params.phi_choices()
    counts = 0
    for phi, _ in choices:
        # stored bit: probe value xor the net frame picked up
        stored = phi.value ^ ((net >> _FLIP_SHIFT[phi.basis]) & 1)
        expected = phi.value ^ ((recomputed >> _FLIP_SHIFT[phi.basis]) & 1)
        counts = counts + (stored == expected).sum(axis=(2, 3, 4))
    weight = 1.0 / (64 * len(choices))  # probe states are equally likely
    return counts * weight


def _checked(value_enum: float, value_alg: float, what: str) -> float:
    if value_enum != value_alg:
        raise SelfCheckError(
            f"{what}: enumeration gives {value_enum!r}, label algebra {value_alg!r}"
        )
    return value_enum


def _acceptance_profiles(params: SchemeParams) -> dict[BellLabel, tuple[float, float]]:
    """(prior-averaged, worst-case) acceptance of one pair announced XOR each shift.

    The worst case is the committed label most favourable to the shift;
    binding claims should hold without leaning on the uniform label
    prior.  Each conditional value is dual-route checked, shift by
    shift.
    """
    enumerated = _acceptance_by_label_enumerated(params).tolist()
    algebraic = _acceptance_by_label_algebraic(params).tolist()
    profiles = {}
    for shift, enumerated_row, algebraic_row in zip(BELL_LABELS, enumerated, algebraic):
        conditional = [
            _checked(value_enum, value_alg, f"acceptance[shift={shift}, label={label}]")
            for label, value_enum, value_alg in zip(BELL_LABELS, enumerated_row, algebraic_row)
        ]
        profiles[shift] = (math.fsum(conditional) / 4.0, max(conditional))
    return profiles


def _committer_profile(
    params: SchemeParams, strategy: Strategy, profiles: dict
) -> tuple[float, float]:
    """(averaged, worst-case) acceptance of a committer strategy on every pair.

    Each pair's announcement is its committed label XOR the shift
    ``committed ^ announced`` of :meth:`Strategy.committer_labels`, the
    same for every chosen label.  ``profiles`` are
    :func:`_acceptance_profiles` of ``params``.
    """
    committed, announced = strategy.committer_labels(_ZERO)
    return _shift_profile(profiles, {committed ^ announced: params.n_pairs})


def detection_probability(params: SchemeParams, strategy: Strategy) -> float:
    """Probability the reveal-phase check catches a committer strategy.

    Averages over uniformly chosen committer and receiver labels and the
    probe policy in ``params``, under its mode.  Exactly ``1 - acceptance``.
    """
    return 1.0 - _committer_profile(params, strategy, _acceptance_profiles(params))[0]


def string_cheat_acceptance(params: SchemeParams, per_pair_delta: Sequence[BellLabel]) -> float:
    """Acceptance odds when pair k's announcement is shifted by delta_k.

    Pairs are independent, so the result is the product of per-pair
    acceptances; each factor is dual-route checked.
    """
    if params.scheme != "string":
        raise ValueError("string_cheat_acceptance requires the string scheme")
    if len(per_pair_delta) != params.n_pairs:
        raise ValueError(
            f"expected {params.n_pairs} per-pair shifts, got {len(per_pair_delta)}"
        )
    return _shift_profile(_acceptance_profiles(params), Counter(per_pair_delta))[0]


def _shift_profile(profiles: dict, shift_counts: Mapping[BellLabel, int]) -> tuple[float, float]:
    """Joint (averaged, worst-case) acceptance over independent pairs.

    ``profiles`` maps each shift to its per-pair profile and
    ``shift_counts`` each shift to its number of pairs, so a profile
    costs the same at any pair count.  Every per-pair factor is 0, 1/2
    or 1, so each power, and the product of the powers, is the float
    that multiplying pair by pair gives, underflow to 0.0 included.
    """
    average = 1.0
    worst = 1.0
    for shift, count in shift_counts.items():
        pair_average, pair_worst = profiles[shift]
        average *= pair_average ** count
        worst *= pair_worst ** count
    return average, worst


# --------------------------------------------------------------------------
# concealment: the receiver's pre-reveal view
# --------------------------------------------------------------------------


def _views_enumerated(params: SchemeParams, upto: str) -> np.ndarray:
    """Each bit class's receiver views, summed over its labels' branch rows.

    A ``[bit, view]`` array of weights.  A view is the base-4 code of
    the receiver side's columns, and each bin is summed row by row in
    table order, as a running sum per row would give it.  Outside the
    multi scheme, rows of other receiver labels weigh 0.
    """
    multi = params.scheme == "multi"
    c = _params_table(params)
    view = [c.swap] if multi else [c.probe, c.swap, c.tele]
    if upto == "storage":
        view += [c.stored_alice, c.stored_bob] if multi else [c.stored_alice]
    codes = c.alice & 1  # a label's code ends in its parity bit, the committed bit
    for column in view:  # every view column holds codes below 4
        codes = 4 * codes + column
    if multi:  # the other committer's label is private too
        weights = c.probability / 8.0
    else:
        weights = c.probability / 2.0 * (c.bob == _code(params.bob_label))
    return np.bincount(codes, weights, minlength=2 * 4 ** len(view)).reshape(2, -1)


def _views_algebraic(params: SchemeParams, upto: str) -> np.ndarray:
    """Count each bit class's receiver views on a grid of 2-bit label codes.

    Axes: committed label, receiver label (all four in the multi scheme,
    else ``params.bob_label``), swap and teleport outcome, each a code
    ``2 * i + j`` and every cell equally likely; probe states are
    counted one by one.  Returns a ``[bit, view]`` array of weights:
    each view's count over the cells of its bit class, so exactly dyadic.
    """
    multi = params.scheme == "multi"
    bobs = np.arange(4) if multi else np.array([_code(params.bob_label)])
    alice, bob, swap, tele = np.ix_(np.arange(4), bobs, np.arange(4), np.arange(4))
    bit = np.broadcast_to(alice & 1, (4, len(bobs), 4, 4))  # a label's parity bit
    choices = params.phi_choices()
    counts = np.zeros((2, 64 * len(choices)), dtype=np.intp)  # [bit, view]
    for index, (phi, _) in enumerate(choices):
        flip = _FLIP_SHIFT[phi.basis]
        # stored bit: probe value xor the net frame picked up
        stored = phi.value ^ (((bob ^ swap ^ tele) >> flip) & 1)
        if multi:  # the center sees the swap outcome and the stored bits only
            copy_bit = phi.value ^ (((bob ^ tele) >> flip) & 1)
            view = 4 * swap + (2 * stored + copy_bit if upto == "storage" else 0)
        else:
            view = 2 * (16 * index + 4 * swap + tele) + (stored if upto == "storage" else 0)
        cells = (bit * counts.shape[1] + view).ravel()
        counts += np.bincount(cells, minlength=counts.size).reshape(counts.shape)
    return counts / (2 * len(bobs) * 16 * len(choices))  # probe states are equally likely


def _tv(weights: np.ndarray) -> float:
    """Total variation distance between the rows of ``[bit, view]`` weights, correctly rounded."""
    return 0.5 * math.fsum(np.abs(weights[0] - weights[1]).tolist())


def concealment_tv(params: SchemeParams, upto: str = "storage") -> float:
    """Total variation distance between the receiver views of the two bits.

    The view is everything receiver-side parties hold before reveal:
    probe choice, swap outcome, teleport outcome and (for
    ``upto="storage"``) the stored confirmation bits; the multi scheme
    center sees only the swap outcome and the stored bits.  Committed
    labels are drawn uniformly within each bit class.  0 means perfect
    concealment.  Each route gives its views as a ``[bit, view]`` array,
    and the distance is a correctly rounded sum over its views, so no
    order of views can move it.
    """
    if upto not in ("confirmation", "storage"):
        raise ValueError(f"upto must be 'confirmation' or 'storage', got {upto!r}")
    return _checked(
        _tv(_views_enumerated(params, upto)),
        _tv(_views_algebraic(params, upto)),
        f"concealment[{params.scheme}, upto={upto}]",
    )


# --------------------------------------------------------------------------
# extraction: receiver measurements on the committer's pair
# --------------------------------------------------------------------------


def _extraction_measurement(strategy: Strategy) -> str:
    """What a receiver strategy measures: ``"Z"`` or ``"X"`` on the
    flying half, or ``"pair"`` on both halves, which both the pair-basis
    extraction and the skip attack do."""
    return strategy.basis if strategy.basis in ("Z", "X") else "pair"


def _extraction_views_enumerated(measurement: str) -> np.ndarray:
    """Measure the four committed pairs as one stack, one row per label.

    Returns ``[bit, outcome]`` weights with labels uniform; every
    outcome code is below 4.
    """
    if measurement in ("Z", "X"):
        measured = _measure_stack(_BELL_KETS, (1,), measurement)
    else:
        # skip/forward-less attack: the confirmation qubit comes back
        # rotated by the pair's own label, so measure both jointly; a
        # label's code names its Pauli
        returned = _framed(_BELL_KETS, 0, np.arange(len(BELL_LABELS)))
        measured = _measure_stack(returned, (1, 0), "bell")
    joint = np.zeros((2, 4))
    # a row's parent is its label's code, which ends in the committed bit
    np.add.at(joint, (measured.parents & 1, measured.codes), 0.25 * measured.probabilities)
    return joint


def _extraction_views_algebraic(strategy: Strategy) -> np.ndarray:
    """:func:`_extraction_views_enumerated`'s ``[bit, outcome]`` weights by label algebra."""
    joint = np.zeros((2, 4))
    for alice in BELL_LABELS:
        prior = 0.25
        d = committed_bit(alice)
        if strategy.kind == "early_extract" and strategy.basis in ("Z", "X"):
            # half of a maximally entangled pair: both outcomes equally likely
            joint[d, :2] += prior * 0.5
        else:
            # rotating one half by the pair's own label lands on the
            # fixed reference pair regardless of the commitment
            joint[d, _code(alice ^ alice)] += prior
    return joint


def _map_guess(joint: np.ndarray) -> float:
    """Maximum a posteriori guessing odds of ``[bit, outcome]`` weights, correctly rounded."""
    return math.fsum(joint.max(axis=0).tolist())


def extraction_guess_probability(strategy: Strategy) -> float:
    """Best-guess odds for the committed bit from an early measurement.

    Maximum a posteriori guessing over the measurement's outcome
    distribution with committed labels uniform.  0.5 means the attack
    learns nothing.
    """
    if strategy.role != "receiver":
        raise ValueError("extraction_guess_probability analyzes receiver strategies")
    return _extraction_guess(
        strategy, _extraction_views_enumerated(_extraction_measurement(strategy))
    )


def _extraction_guess(strategy: Strategy, enumerated: np.ndarray) -> float:
    """:func:`extraction_guess_probability` given the enumerated views of its measurement."""
    return _checked(
        _map_guess(enumerated),
        _map_guess(_extraction_views_algebraic(strategy)),
        f"extraction[{strategy.describe()}]",
    )


# --------------------------------------------------------------------------
# report assembly
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyRow:
    strategy: Strategy
    acceptance_probability: float
    worst_case_acceptance: float
    detection_probability: float
    claimed_acceptance: float | None
    agrees: bool | None


@dataclass(frozen=True)
class ExtractionRow:
    strategy: Strategy
    guess_probability: float
    claimed_guess: float | None
    agrees: bool | None


@dataclass(frozen=True)
class SecurityReport:
    scheme: str
    mode: str
    phi_policy: str
    n_pairs: int
    strategy_rows: tuple[StrategyRow, ...]
    extraction_rows: tuple[ExtractionRow, ...]
    concealment_tv: float
    extraction_guess_probability: float | None


def _claimed_acceptance(params: SchemeParams, strategy: Strategy) -> float | None:
    """Acceptance asserted by the scheme's published security argument.

    Honest and delayed-choice commitments are claimed to always pass.
    For announcement shifts the claim depends on the probe policy: with
    computational probes only (fixed or uniform), parity flips are
    claimed to always fail and pure sign flips to pass; with the
    four-state string policy, a shifted announcement is claimed to
    survive each pair with probability 1/2.  The argument states no
    claim for a fixed diagonal (X) probe, so there it returns ``None``.
    """
    if strategy.kind in ("honest", "delayed_rechoice"):
        return 1.0
    choices = params.phi_choices()
    if all(spec.basis == "Z" for spec, _ in choices):
        return 1.0 if strategy.delta.j == 0 else 0.0
    if len(choices) == 4:
        return 0.5 ** params.n_pairs
    return None


_DEFAULT_COMMITTER = (
    Strategy.honest(),
    Strategy.relabel_announce(BellLabel(0, 1)),
    Strategy.relabel_announce(BellLabel(1, 0)),
    Strategy.relabel_announce(BellLabel(1, 1)),
    Strategy.delayed_rechoice(BellLabel(0, 1)),
)

_DEFAULT_RECEIVER = (
    Strategy.early_extract("Z"),
    Strategy.early_extract("X"),
    Strategy.early_extract("pair"),
    Strategy.receiver_skip(),
)


def build_report(
    params: SchemeParams, strategies: Sequence[Strategy] | None = None
) -> SecurityReport:
    """Full security scan for one scheme configuration.

    The report's mode is ``params.validation_mode``; scan the other mode
    with ``dataclasses.replace(params, validation_mode=...)``.
    ``strategies`` defaults to the standard menu: honest, all three
    announcement shifts, a delayed re-choice, and the receiver
    extraction attacks.  An empty sequence scans concealment and the
    default extraction menu only.
    """
    if strategies is None:
        strategies = _DEFAULT_COMMITTER + _DEFAULT_RECEIVER
    committer = [s for s in strategies if s.role == "committer"]
    receiver = [s for s in strategies if s.role == "receiver"]
    if not committer and not receiver:
        receiver = list(_DEFAULT_RECEIVER)

    strategy_rows = []
    profiles = _acceptance_profiles(params) if committer else {}
    for strategy in committer:
        acceptance, worst = _committer_profile(params, strategy, profiles)
        claimed = _claimed_acceptance(params, strategy)
        agrees = None if claimed is None else abs(acceptance - claimed) <= AGREEMENT_ATOL
        strategy_rows.append(
            StrategyRow(strategy, acceptance, worst, 1.0 - acceptance, claimed, agrees)
        )

    extraction_rows = []
    enumerated = {measurement: _extraction_views_enumerated(measurement)
                  for measurement in dict.fromkeys(map(_extraction_measurement, receiver))}
    for strategy in receiver:
        guess = _extraction_guess(strategy, enumerated[_extraction_measurement(strategy)])
        extraction_rows.append(
            ExtractionRow(strategy, guess, 0.5, abs(guess - 0.5) <= AGREEMENT_ATOL)
        )

    return SecurityReport(
        scheme=params.scheme,
        mode=params.validation_mode,
        phi_policy=str(params.phi_policy),
        n_pairs=params.n_pairs,
        strategy_rows=tuple(strategy_rows),
        extraction_rows=tuple(extraction_rows),
        concealment_tv=concealment_tv(params),
        extraction_guess_probability=(
            max(row.guess_probability for row in extraction_rows)
            if extraction_rows
            else None
        ),
    )
