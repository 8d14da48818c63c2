"""Call spans around every public function of every ``relcommit`` module.

``Tracer.install`` wraps each function named in a module's ``__all__``
and puts the wrapper in every ``relcommit.*`` namespace that holds the
same object (``relcommit.adversary.run_single`` as well as
``relcommit.protocol.run_single``), so a call is seen whichever module
dispatches it.  Classes in ``__all__`` stay unwrapped: replacing a class
with a function breaks ``isinstance`` and its class methods, so object
construction counts toward the caller's self time.

A span is ``(function index, start, end, parent span, op id, note)``,
where ``note`` is a per-layer count read from the return value (see
``_note``).  Spans are recorded only between ``begin_op`` and
``end_op``; they stay in memory and ``write`` puts them in a file.

A layer is a module, with ``protocol`` split into ``run_*``,
``validate_*`` and the rest, and ``serialize`` into reading and
writing.  A layer's self time is its spans' durations minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = (
    "quantum",
    "spacetime",
    "protocol.run",
    "protocol.validate",
    "protocol.other",
    "adversary",
    "montecarlo",
    "serialize.write",
    "serialize.read",
    "cli",
)
OP = len(LAYERS)  # layer index of the benchmark's own op span
_LAYER_INDEX = {name: k for k, name in enumerate(LAYERS)}


def layer_of(module: str, name: str) -> str:
    short = module.rsplit(".", 1)[-1]
    if short == "protocol":
        if name.startswith("run_"):
            return "protocol.run"
        if name.startswith("validate_"):
            return "protocol.validate"
        return "protocol.other"
    if short == "serialize":
        reads = name.startswith(("parse_", "read_")) or name.endswith("_from_json")
        return "serialize.read" if reads else "serialize.write"
    return short


def _count_transcripts(result) -> int:
    if isinstance(result, list):
        return sum(_count_transcripts(item) for item in result)
    return 1


def _note(layer: str, result) -> int:
    """What a span's return value counts toward its layer's ratios."""
    if layer == "protocol.run":
        return _count_transcripts(result)  # transcripts returned
    if layer == "protocol.validate":
        return 0 if result.accept else 1  # rejections
    if layer == "serialize.write":
        return len(result) if isinstance(result, str) else 0  # bytes of a line
    if layer == "serialize.read":
        return len(result) if isinstance(result, list) else 1  # lines parsed
    if layer == "montecarlo" and hasattr(result, "rows"):
        return sum(r.count for r in result.rows if r.category == "swap_outcome")  # pair draws
    if layer == "adversary" and hasattr(result, "strategy_rows"):
        return 1  # reports
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[int] = []
        self.spans: list = []
        self._stack = [-1]
        self._op = -1
        self._active = False
        self._restore: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, fn_index: int, layer: str):
        tracer = self
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            note = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                note = _note(layer, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (fn_index, start, end, parent, tracer._op, note)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every imported ``relcommit`` module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "relcommit" or name.startswith("relcommit.")]
        wrappers = {}
        for module in modules:
            if module.__name__ == "relcommit":
                continue
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn) or id(fn) in wrappers:
                    continue
                layer = layer_of(fn.__module__, fn.__name__)
                self.names.append(f"{fn.__module__}.{fn.__qualname__}")
                self.layers.append(_LAYER_INDEX[layer])
                wrappers[id(fn)] = (fn, self._wrap(fn, len(self.names) - 1, layer))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._restore:
            setattr(module, attr, value)
        self._restore.clear()

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._op_span = len(self.spans)
        self.spans.append(None)
        self._stack.append(self._op_span)
        self._active = True
        self._op_start = perf_counter()

    def end_op(self) -> None:
        end = perf_counter()
        self._active = False
        self._stack.pop()
        self.spans[self._op_span] = (-1, self._op_start, end, -1, self._op, 0)

    def write(self, path) -> None:
        """Spans as tab-separated lines: function, start, end, parent, op, note."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("function\tstart_s\tend_s\tparent\top\tnote\n")
            for fn_index, start, end, parent, op, note in self.spans:
                name = "op" if fn_index < 0 else self.names[fn_index]
                handle.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\t{note}\n")

    # -- aggregation -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as ``name -> (value, unit)``, per op or as shares."""
        spans = self.spans
        n_layers = OP + 1
        bit = [1 << k for k in range(n_layers)]
        index = _LAYER_INDEX
        protocol = bit[index["protocol.run"]] | bit[index["protocol.validate"]] \
            | bit[index["protocol.other"]]
        layer = [OP if s[0] < 0 else self.layers[s[0]] for s in spans]
        child_s = [0.0] * len(spans)
        above = [0] * len(spans)  # bit mask of the layers of all ancestors
        for k, (_, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child_s[parent] += end - start
                above[k] = above[parent] | bit[layer[parent]]

        calls = [0] * n_layers
        self_s = [0.0] * n_layers
        # "top" spans have no ancestor in their own layer
        top_calls = [0] * n_layers
        top_s = [0.0] * n_layers
        top_note = [0] * n_layers
        top_noted = [0] * n_layers
        under_adversary = [0] * n_layers
        quantum_in_run = 0
        table_s = 0.0
        for k, (_, start, end, _, _, note) in enumerate(spans):
            here, mask, duration = layer[k], above[k], end - start
            calls[here] += 1
            self_s[here] += duration - child_s[k]
            if here == index["quantum"] and mask & bit[index["protocol.run"]]:
                quantum_in_run += 1
            if mask & bit[here]:
                continue
            top_calls[here] += 1
            top_s[here] += duration
            top_note[here] += note
            top_noted[here] += note != 0
            if mask & bit[index["adversary"]]:
                under_adversary[here] += 1
            if bit[here] & protocol and mask & bit[index["montecarlo"]] and not mask & protocol:
                table_s += duration

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        ops, op_s = calls[OP], top_s[OP]
        validate, run = index["protocol.validate"], index["protocol.run"]
        montecarlo, write = index["montecarlo"], index["serialize.write"]
        read = index["serialize.read"]
        reports = top_note[index["adversary"]]
        out = {}
        for name, k in index.items():
            out[f"{name}.calls_per_op"] = (calls[k] / ops, "count")
            out[f"{name}.self_share"] = (100.0 * ratio(self_s[k], op_s), "%")
        out["protocol.validate.us_per_call"] = (1e6 * ratio(top_s[validate], top_calls[validate]), "us")
        out["protocol.validate.reject_ratio"] = (ratio(top_note[validate], top_calls[validate]), "ratio")
        out["adversary.validations_per_report"] = (ratio(under_adversary[validate], reports), "count")
        out["adversary.run_calls_per_report"] = (ratio(under_adversary[run], reports), "count")
        out["quantum.calls_per_transcript"] = (ratio(quantum_in_run, top_note[run]), "count")
        out["montecarlo.pair_draws_per_self_s"] = (ratio(top_note[montecarlo], self_s[montecarlo]), "1/s")
        out["montecarlo.table_share"] = (100.0 * ratio(table_s, top_s[montecarlo]), "%")
        out["serialize.write.us_per_line"] = (1e6 * ratio(self_s[write], top_noted[write]), "us")
        out["serialize.read.lines_per_self_s"] = (ratio(top_note[read], self_s[read]), "1/s")
        out["serialize.bytes_per_line"] = (ratio(top_note[write], top_noted[write]), "B")
        out["trace.op_s"] = (op_s / ops, "s")
        out["trace.spans_per_op"] = (len(spans) / ops, "count")
        out["trace.unattributed_share"] = (100.0 * ratio(self_s[OP], op_s), "%")
        return out
