"""Span tracing around the public functions of rainproto's modules.

The benchmark's traced run installs wrappers on module attributes, so every
call a caller makes through that attribute records a span (name, start, end,
parent, Tensor constructions inside it). Names a module imported by name from
another one are wrapped in the importing module too, because that is where its
callers look them up. Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager

from rainproto import data, derainnet, losses, metrics, numerics, rspu, trainer

# The modules whose public functions are traced. Each function is wrapped once
# and installed under every rainproto module attribute that holds it, because
# that is where callers look it up (``trainer`` imports ``backward`` by name).
TRACED_MODULES = (numerics, rspu, derainnet, losses, trainer, data, metrics)

# Methods wrapped on their class: (span name, class, attribute).
_METHODS = (("trainer.adam", trainer.AdamOptimizer, "step"),)


class Tracer:
    """Records spans in memory; ``install`` wraps the program, ``uninstall`` restores it."""

    def __init__(self):
        # name, start, end, parent index (-1 for a root), Tensor() calls inside
        self.spans: list[list] = []
        self.tape_records: list[tuple[int, int]] = []  # (backward span index, len(graph))
        self._stack: list[int] = []
        self._tensor_inits = 0
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self._tensor_inits])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = self._tensor_inits - span[4]
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                if name == "numerics.backward":
                    tracer.tape_records.append((idx, len(args[1])))
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        holders = [m for name, m in sys.modules.items() if name.partition(".")[0] == "rainproto"]
        for module in TRACED_MODULES:
            short = module.__name__.rpartition(".")[2]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for alias, value in list(vars(holder).items()):
                        if value is fn:
                            self._saved.append((holder, alias, fn))
                            setattr(holder, alias, wrapped)
        for name, cls, attr in _METHODS:
            self._saved.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
        tensor_init = numerics.Tensor.__init__
        tracer = self

        def counted_init(obj, *args, **kwargs):
            tracer._tensor_inits += 1
            tensor_init(obj, *args, **kwargs)

        self._saved.append((numerics.Tensor, "__init__", tensor_init))
        numerics.Tensor.__init__ = counted_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms over the whole run."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "inclusive_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["inclusive_ms"] += 1e3 * (end - start)
            row["self_ms"] += 1e3 * (end - start - child_time[i])
        return table

    def write(self, path, extra: dict) -> None:
        """Write the per-name summary, then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"summary": self.summary(), **extra}) + "\n")
            for name, start, end, parent, inits in self.spans:
                fh.write(json.dumps([name, start, end, parent, inits]) + "\n")


def layer_metrics(tracer: Tracer, phases: dict[str, tuple[str, str]], peak_mb: float) -> dict[str, float]:
    """Reduce the spans to the benchmark's per-layer metrics.

    ``phases`` maps a phase name to (root span name, unit span name): spans
    below roots of that name are charged to the phase, and the phase's
    figures are divided by its number of unit spans. The first phase is the
    workload's main one; a phase named ``"eval"`` takes the eval layers.
    Set-up layers are charged per call, wherever they run. Layer times are
    inclusive, and a layer that calls itself is counted once.
    """
    spans = tracer.spans
    root = [0] * len(spans)
    outermost = [True] * len(spans)  # no ancestor belongs to the same layer
    for i, (name, _, _, parent, _) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        layer = _layer(name)
        p = parent
        while p >= 0 and outermost[i]:
            outermost[i] = _layer(spans[p][0]) != layer
            p = spans[p][3]
    phase_by_root = {root_span: phase for phase, (root_span, _) in phases.items()}

    def phase_of(i: int) -> str | None:
        return phase_by_root.get(spans[root[i]][0])

    units = dict.fromkeys(phases, 0)
    inits = dict.fromkeys(phases, 0)
    op_calls = dict.fromkeys(phases, 0)
    ms: dict[tuple[str | None, str], float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, parent, tensor_inits) in enumerate(spans):
        phase = phase_of(i)
        if phase is not None and name == phases[phase][1]:
            units[phase] += 1
            inits[phase] += tensor_inits
        if not outermost[i] or spans[root[i]][0] == PROBE_ROOT:
            continue
        layer = _layer(name)
        if phase is not None and _is_op(name) and (parent < 0 or not _is_op(spans[parent][0])):
            op_calls[phase] += 1
        ms[(phase, layer)] = ms.get((phase, layer), 0.0) + 1e3 * (end - start)
        calls[layer] = calls.get(layer, 0) + 1
    main = next(iter(phases))
    tape = sum(n for idx, n in tracer.tape_records if phase_of(idx) == main)

    def per_unit(phase: str, value: float) -> float:
        return value / units[phase] if units[phase] else 0.0

    def layer_ms(layer: str) -> float:
        if layer in PER_CALL:
            total = sum(v for (_, k), v in ms.items() if k == layer)
            return total / calls[layer] if layer in calls else 0.0
        phase = "eval" if layer in EVAL_LAYERS and "eval" in phases else main
        return per_unit(phase, ms.get((phase, layer), 0.0))

    out = {
        "numerics.op_calls": per_unit(main, op_calls[main]),
        "numerics.tensor_inits": per_unit(main, inits[main]),
        "numerics.tape_records": per_unit(main, tape),
        "numerics.peak_mb": peak_mb,
    }
    for metric in PER_LAYER_MS:
        out[metric] = layer_ms(metric[: -len(".ms")])
    return out


def _is_op(span_name: str) -> bool:
    return span_name.startswith("numerics.") and span_name != "numerics.backward"


def _layer(span_name: str) -> str:
    """All loss functions form one layer; every other span name is its own."""
    return "losses" if span_name.startswith("losses.") else span_name


# Root span of the memory probe, whose spans no metric counts.
PROBE_ROOT = "bench.probe"
# Layers charged per call rather than per unit: they run during set-up.
PER_CALL = {"trainer.load_checkpoint", "data.gen_scene"}
# Layers charged to the eval phase when a workload has one.
EVAL_LAYERS = {"derainnet.encode", "derainnet.decode", "metrics.ssim", "metrics.psnr"}
PER_LAYER_MS = (
    "numerics.conv2d.ms", "numerics.conv_transpose2d.ms", "numerics.maxpool2d.ms", "numerics.matmul.ms",
    "numerics.backward.ms", "rspu.rspu_forward.ms", "derainnet.encode.ms", "derainnet.decode.ms",
    "losses.ms", "trainer.adam.ms", "trainer.save_checkpoint.ms", "trainer.load_checkpoint.ms",
    "data.read_ppm.ms", "data.write_ppm.ms", "data.gen_scene.ms", "metrics.ssim.ms", "metrics.psnr.ms",
)
