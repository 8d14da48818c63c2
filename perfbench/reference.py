"""Fixed stand-in computations that clock the host's current speed.

The benchmark runs on shared machines whose speed drifts: another
tenant on the sibling hyperthread can slow interpreter-bound code by a
factor of two for minutes at a time, while memory-bound numpy code slows
far less.  Each op is therefore preceded by a short kernel of the same
character, independent of ``relcommit``, and the op's wall time is
rescaled by ``NOMINAL_S[kind] / kernel seconds``: the time the op would
take on the host at the speed where the kernel takes its nominal time.
The nominal times only fix the scale; they were the kernels' typical
times on an idle 2-vCPU Xeon VM (Python 3.11, numpy 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

_PAIR = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
_QUBIT = np.array([1.0, 0.0], dtype=np.complex128)
_PROJECTOR = _PAIR.reshape(2, 2).conj()
_EDGES = np.cumsum(np.full(64, 1.0 / 64.0))


@dataclass(frozen=True)
class _Branch:
    amplitudes: np.ndarray
    weight: float


def interpreter_kernel() -> float:
    """Tiny numpy calls on 5-qubit vectors and frozen records, like the analyzer and CLI."""
    total = 0.0
    for k in range(120):
        state = np.kron(np.kron(_PAIR, _PAIR), _QUBIT).reshape((2,) * 5)
        projected = np.tensordot(_PROJECTOR, state, axes=([0, 1], [1, 2]))
        weight = float(np.vdot(projected, projected).real)
        branch = _Branch(np.array(projected.reshape(-1), copy=True), weight)
        total += branch.weight + len(str((k, round(weight, 6))))
    return total


def memory_kernel() -> int:
    """Uniform draws, a table search and counting over megabytes, like the sampler."""
    uniforms = np.random.default_rng(0).random((16384, 20))
    index = np.searchsorted(_EDGES, uniforms, side="right")
    return int(np.bincount(index.reshape(-1) % 4, minlength=4).sum())


KERNELS = {"interpreter": interpreter_kernel, "memory": memory_kernel}
NOMINAL_S = {"interpreter": 0.007, "memory": 0.024}


def clock(kind: str) -> float:
    """Seconds one run of the ``kind`` kernel takes right now.

    An untimed run goes first.  It leaves the caches and the allocator in
    the kernel's own state, so what the previous op left behind (for the
    sampler, hundreds of megabytes just freed) does not move the clock.
    """
    kernel = KERNELS[kind]
    kernel()
    start = perf_counter()
    kernel()
    return perf_counter() - start


def rescale(seconds: float, kernel_seconds: float, kind: str) -> float:
    """``seconds`` at the host speed where the kernel takes its nominal time."""
    return seconds * NOMINAL_S[kind] / kernel_seconds
