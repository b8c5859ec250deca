"""Per-layer timing for the traced run (``--trace 1``).

Every layer's public entry point is wrapped where its callers bind it:
on the class for methods, and for module functions on the defining
module plus every loaded ``repro`` module that imported the name (for
example ``repro.serve.engine.bundle_from_program``).  Each call made
while the tracer is active records one span with its parent span (per
thread) and the operation it belongs to.  A layer's ``_ms`` figure is
its *self* time — span time minus the time of traced spans nested in
it — summed and divided by the operations of the run, so the figures
add up across layers.

Every traced run reports every per-layer metric, so the figures of one
workload line up with another's.  On a workload that bypasses a layer
by design (the simulator on the serve workloads, say) the layer's
metrics read 0.  A metric is left out, so that a deleted layer cannot
pass for a free one, when none of its layer's entry points exists any
more, or when the layer never fires on a workload listed for it in
``EXPECTED``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

# (layer, module, attribute path).  Several entry points may feed one
# layer (a single and a batched form of the same step).
SPANS = (
    ("serve.client", "repro.serve.client", "ServeClient.predict_job"),
    ("serve.handle", "repro.serve.server", "PredictionServer.handle_predict"),
    ("analysis.validate", "repro.analysis.cache", "AnalysisCache.validate"),
    ("lang.lex", "repro.lang.lexer", "Lexer.tokenize"),
    ("lang.parse", "repro.lang.parser", "Parser.parse_program"),
    ("engine.build_request", "repro.serve.engine", "PredictionEngine.build_request"),
    ("engine.predict", "repro.serve.engine", "PredictionEngine.predict_requests"),
    ("inputs.bundle", "repro.core.inputs", "bundle_from_program"),
    ("inputs.class_i", "repro.core.inputs", "class_i_segments"),
    ("tokenizer.encode", "repro.tokenizer.progressive", "ProgressiveTokenizer.encode_bundle"),
    ("nn.encode", "repro.core.model", "CostModel.encode_batch"),
    ("nn.encode", "repro.core.model", "CostModel.encode"),
    ("head.decode", "repro.core.numeric_head", "DigitClassificationHead.predict"),
    ("head.decode", "repro.core.numeric_head", "DigitClassificationHead.predict_batch"),
    ("profiler.static", "repro.profiler", "compute_static_profile"),
    ("sim.compile", "repro.sim.compiler", "compile_program"),
    ("sim.run", "repro.sim.compiler", "CompiledSimulator.run"),
    ("campaign.candidates", "repro.campaign.runner", "enumerate_cell_candidates"),
    ("campaign.rank", "repro.api.session", "Session.predict_jobs"),
    ("campaign.evaluate", "repro.profiler", "Profiler.profile"),
    ("campaign.journal", "repro.campaign.journal", "CampaignJournal.append"),
)

# Entry points that are only counted, not timed: timing them would take
# their time out of the enclosing layer's self time.
COUNTS = (
    ("serve.submit", "repro.serve.batching", "MicroBatcher.submit"),
    ("nn.pass", "repro.nn.transformer", "TransformerEncoder.encode_batch"),
    ("nn.pass", "repro.nn.transformer", "TransformerEncoder.encode"),
    ("sim.compile_miss", "repro.sim.compiler", "CompiledProgram.__init__"),
)

# Per-operation self time (ms) of these layers.
MS_METRICS = (
    "analysis.validate",
    "lang.lex",
    "lang.parse",
    "engine.build_request",
    "engine.predict",
    "inputs.bundle",
    "inputs.class_i",
    "tokenizer.encode",
    "nn.encode",
    "head.decode",
    "profiler.static",
    "sim.compile",
    "sim.run",
    "campaign.candidates",
    "campaign.rank",
    "campaign.evaluate",
    "campaign.journal",
)


# The workloads on which each metric's layer must fire (the "on" column
# of the layer-to-metric table in README.md).
_SERVE = ("serve_cold", "serve_repeat")
EXPECTED = {
    "engine.result_hit_share": ("serve_repeat",),
    "serve.http_ms": _SERVE,
    "serve.batch_wait_ms": _SERVE,
    "serve.batch_size": _SERVE,
    "engine.build_request_ms": ("serve_cold",),
    "engine.predict_ms": ("serve_cold",),
    "analysis.validate_ms": ("serve_cold",),
    "lang.lex_ms": ("serve_cold", "profile_sweep"),
    "lang.parse_ms": ("serve_cold", "profile_sweep"),
    "lang.parse_calls": ("serve_cold", "profile_sweep"),
    "inputs.bundle_ms": ("serve_cold",),
    "inputs.class_i_ms": ("serve_cold",),
    "tokenizer.encode_ms": ("serve_cold",),
    "tokenizer.tokens": ("serve_cold",),
    "nn.encode_ms": ("serve_cold",),
    "nn.rows_per_pass": ("serve_cold", "dse_campaign"),
    "head.decode_ms": ("serve_cold",),
    "profiler.static_ms": ("dse_campaign",),
    "profiler.static_misses": ("dse_campaign",),
    "sim.compile_ms": ("dse_campaign",),
    "sim.compile_misses": ("dse_campaign",),
    "sim.run_ms": ("profile_sweep",),
    "sim.ops_per_ms": ("profile_sweep",),
    "campaign.candidates_ms": ("dse_campaign",),
    "campaign.rank_ms": ("dse_campaign",),
    "campaign.evaluate_ms": ("dse_campaign",),
    "campaign.journal_ms": ("dse_campaign",),
}


def _resolve(module_name: str, path: str) -> Optional[tuple[Any, str, Any]]:
    """``(owner, attribute, value)`` of an entry point, or None if gone."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attribute) if isinstance(owner, type) else getattr(owner, attribute, None)
    if value is None:
        return None
    return owner, attribute, value


@dataclass
class Span:
    layer: str
    seconds: float
    self_seconds: float
    parent: Optional[str]
    op: int


class LayerTracer:
    """Wraps the entry points and aggregates spans into metrics."""

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.spans: list[Span] = []
        self.missing: list[str] = []  # entry points that no longer exist
        self.absent: list[str] = []  # metrics left out by the last metrics() call
        self._resolved: set[str] = set()  # layers with at least one entry point
        self._local = threading.local()
        self._lock = threading.Lock()  # op and miss counters are bumped from several threads
        self._restore: list[tuple[Any, str, Any]] = []
        self._submitted: dict[int, float] = {}
        self.batch_waits: list[float] = []
        self.batch_sizes: list[int] = []
        self.tokens: list[int] = []
        self.pass_rows: list[int] = []
        self.sim_ops = 0
        self.compile_misses = 0

    # -- operations ---------------------------------------------------

    def begin_op(self) -> None:
        with self._lock:
            self.op += 1

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for layer, module_name, path in SPANS:
            self._patch(layer, module_name, path, lambda fn, layer=layer: self._span(layer, fn))
        for layer, module_name, path in COUNTS:
            self._patch(layer, module_name, path, lambda fn, layer=layer: self._count(layer, fn))

    def uninstall(self) -> None:
        self.active = False
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def _patch(self, layer: str, module_name: str, path: str, make: Callable[[Any], Any]) -> None:
        found = _resolve(module_name, path)
        if found is None:
            self.missing.append(f"{module_name}.{path}")
            return
        owner, attribute, original = found
        self._resolved.add(layer)
        wrapper = make(original)
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)
        if isinstance(owner, type):
            return
        # A module function: rebind it wherever a repro module imported it.
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    # -- wrappers -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        before = {"engine.predict": self._flush_started}.get(layer)
        after = {"tokenizer.encode": self._encoded, "sim.run": self._simulated}.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            if before is not None:
                before(args, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += seconds
                tracer.spans.append(
                    Span(layer, seconds, seconds - frame[1], parent[0] if parent else None, tracer.op)
                )
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        record = {
            "serve.submit": self._submitted_now,
            "nn.pass": self._encoder_pass,
            "sim.compile_miss": self._compile_miss,
        }[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                record(args)
            return fn(*args, **kwargs)

        return wrapper

    def _submitted_now(self, args) -> None:
        self._submitted[id(args[1])] = time.perf_counter()

    def _encoder_pass(self, args) -> None:
        ids = args[1]
        self.pass_rows.append(len(ids) if getattr(ids, "ndim", 1) > 1 else 1)

    def _compile_miss(self, args) -> None:
        with self._lock:
            self.compile_misses += 1

    def _flush_started(self, args, start: float) -> None:
        requests = list(args[1])
        waits = [start - self._submitted.pop(id(r)) for r in requests if id(r) in self._submitted]
        if waits:  # a micro-batcher flush, not a direct library call
            self.batch_waits.extend(waits)
            self.batch_sizes.append(len(requests))

    def _encoded(self, result) -> None:
        self.tokens.append(len(result.ids))

    def _simulated(self, result) -> None:
        self.sim_ops += int(result.ops_executed)

    # -- metrics ------------------------------------------------------

    def metrics(self, ops: int, workload: str) -> dict[str, tuple[float, str]]:
        """Every per-layer metric over *ops* operations of *workload*;
        see the module docstring for the ones left out."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for span in self.spans:
            calls[span.layer] += 1
            total[span.layer] += span.seconds
            own[span.layer] += span.self_seconds

        def mean(values: list) -> float:
            return sum(values) / len(values) if values else 0.0

        # name -> (value, unit, fired, layers it is measured from)
        figures: dict[str, tuple[float, str, bool, tuple[str, ...]]] = {
            f"{layer}_ms": (1000.0 * own[layer] / ops, "ms", calls[layer] > 0, (layer,))
            for layer in MS_METRICS
        }
        figures["serve.http_ms"] = (
            1000.0 * (total["serve.client"] - total["serve.handle"]) / ops,
            "ms",
            calls["serve.client"] > 0 and calls["serve.handle"] > 0,
            ("serve.client", "serve.handle"),
        )
        flushed = bool(self.batch_waits)
        batcher = ("serve.submit", "engine.predict")
        figures["serve.batch_wait_ms"] = (1000.0 * mean(self.batch_waits), "ms", flushed, batcher)
        figures["serve.batch_size"] = (mean(self.batch_sizes), "count", flushed, batcher)
        figures["lang.parse_calls"] = (calls["lang.parse"] / ops, "count", calls["lang.parse"] > 0, ("lang.parse",))
        figures["tokenizer.tokens"] = (mean(self.tokens), "count", bool(self.tokens), ("tokenizer.encode",))
        figures["nn.rows_per_pass"] = (mean(self.pass_rows), "count", bool(self.pass_rows), ("nn.pass",))
        figures["profiler.static_misses"] = (
            calls["profiler.static"] / ops,
            "count",
            calls["profiler.static"] > 0,
            ("profiler.static",),
        )
        figures["sim.compile_misses"] = (
            self.compile_misses / ops,
            "count",
            calls["sim.compile"] > 0,
            ("sim.compile", "sim.compile_miss"),
        )
        simulated = calls["sim.run"] > 0 and total["sim.run"] > 0
        figures["sim.ops_per_ms"] = (
            self.sim_ops / (1000.0 * total["sim.run"]) if simulated else 0.0,
            "ops/ms",
            simulated,
            ("sim.run",),
        )
        out: dict[str, tuple[float, str]] = {}
        self.absent = []
        for name, (value, unit, fired, layers) in figures.items():
            gone = any(layer not in self._resolved for layer in layers)
            if gone or (not fired and workload in EXPECTED.get(name, ())):
                self.absent.append(name)
            else:
                out[name] = (value if fired else 0.0, unit)
        return out
