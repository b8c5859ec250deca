"""In-process prediction engine: warm models + tiered caching.

The engine is the piece a long-lived service keeps alive between
requests.  It owns

* a :class:`ModelRegistry` — named checkpoints, loaded lazily on first
  use and primed with a warm-up encode so the first real request does
  not pay one-time initialization;
* a tiered cache — a bounded result LRU (full :class:`CostPrediction`
  per request digest) in front of a per-model exact-mode
  :class:`CachedPredictor` (pooled encodings, so e.g. the data-free
  static encoding is shared across requests for the same program under
  different runtime inputs) in front of the shared
  :class:`StaticProfileCache` that ``/profile`` and ground-truth
  verification draw from.

Misses are computed through the batched encoder path
(``CachedPredictor.warm`` → ``encode_batch``), so one flush of N
requests pays one padded pass per length bucket instead of N passes.
Hits are answered by :meth:`PredictionEngine.cached_result` without
touching the model.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..analysis.cache import GLOBAL_ANALYSIS_CACHE
from ..core import CostModel, CostPrediction, LLMulatorConfig
from ..core.acceleration import CachedPredictor
from ..core.inputs import bundle_from_program, class_i_segments
from ..errors import ServeError
from ..hls import HardwareParams
from ..lang import parse
from ..nn import load_model
from ..profiler import STATIC_METRICS, Profiler, StaticProfileCache
from ..telemetry import METRICS as TELEMETRY_METRICS
from ..telemetry import TRACER, clock
from ..tokenizer import ModelInput

_REQUESTS = TELEMETRY_METRICS.counter("serve.engine.requests")
_RESULT_HITS = TELEMETRY_METRICS.counter("serve.engine.result_cache.hits")
_RESULT_MISSES = TELEMETRY_METRICS.counter("serve.engine.result_cache.misses")
_PROFILE_REQUESTS = TELEMETRY_METRICS.counter("serve.engine.profile_requests")
_PREDICT_MS = TELEMETRY_METRICS.histogram("serve.engine.predict_ms")

_WARMUP_BUNDLE = ModelInput(
    graph_text="void dataflow(int n) { }",
    op_texts=[],
    params_text=HardwareParams().describe(),
    data_text="",
)


@dataclass
class ModelSpec:
    """A named checkpoint the registry can materialize."""

    name: str
    path: Optional[str] = None
    tier: str = "0.5B"
    seed: int = 0
    max_seq_len: int = 320


class ModelRegistry:
    """Named cost models with lazy loading and warm-up."""

    def __init__(self) -> None:
        self._specs: dict[str, ModelSpec] = {}
        self._loaded: dict[str, CostModel] = {}
        self._lock = threading.Lock()

    def register(
        self,
        name: str,
        path: Optional[str] = None,
        tier: str = "0.5B",
        seed: int = 0,
        max_seq_len: int = 320,
        model: Optional[CostModel] = None,
    ) -> None:
        """Register a checkpoint path, or adopt an in-memory *model*."""
        with self._lock:
            self._specs[name] = ModelSpec(
                name=name, path=path, tier=tier, seed=seed, max_seq_len=max_seq_len
            )
            if model is not None:
                self._loaded[name] = model
            else:
                self._loaded.pop(name, None)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._specs)

    def is_loaded(self, name: str) -> bool:
        with self._lock:
            return name in self._loaded

    def get(self, name: str) -> CostModel:
        """The named model, loading and warming it on first use."""
        with self._lock:
            model = self._loaded.get(name)
            if model is not None:
                return model
            spec = self._specs.get(name)
        if spec is None:
            raise ServeError(
                f"unknown model {name!r}; registered: {self.names() or 'none'}"
            )
        model = CostModel(
            LLMulatorConfig(
                tier=spec.tier, seed=spec.seed, max_seq_len=spec.max_seq_len
            )
        )
        if spec.path is not None:
            try:
                load_model(model, spec.path)
            except Exception as exc:  # unreadable / corrupt / wrong-arch
                raise ServeError(
                    f"cannot load model {name!r} from {spec.path!r}: {exc}"
                ) from exc
        model.predict_costs(_WARMUP_BUNDLE)  # prime tokenizer/encoder state
        with self._lock:
            return self._loaded.setdefault(name, model)


@dataclass(frozen=True)
class PredictRequest:
    """One fully-prepared prediction request (bundle already built)."""

    bundle: ModelInput
    segments: tuple[str, ...] = ()
    model: str = "default"
    beam_width: Optional[int] = None


@dataclass
class EngineStats:
    """Request/result-cache counters for ``/stats``, guarded by the
    engine's cache lock.  Every request is counted once, as a hit or as
    a miss, so ``requests == result_hits + result_misses``."""

    requests: int = 0
    result_hits: int = 0
    result_misses: int = 0
    profile_requests: int = 0
    errors: int = 0

    @property
    def result_hit_rate(self) -> float:
        total = self.result_hits + self.result_misses
        return self.result_hits / total if total else 0.0


def _digest(*texts: str) -> str:
    hasher = hashlib.md5()
    for text in texts:
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


class PredictionEngine:
    """Warm-model prediction with tiered caching.

    Thread-safe, with two locks.  Inference runs under one re-entrant
    lock (a single core has no parallelism to lose), so the engine can
    be fed both by a :class:`~repro.serve.batching.MicroBatcher` worker
    and directly by library callers (harness, explorer) at the same
    time.  The result LRU, the :meth:`build_request` bundle memo and
    :class:`EngineStats` sit under a separate cache lock that is never
    held across an encode, so a result-cache hit never waits behind
    another caller's miss.  Lock order: the inference lock, then the
    cache lock, never the reverse.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        max_result_entries: int = 4096,
        max_encoding_entries: int = 2048,
        static_cache: Optional[StaticProfileCache] = None,
    ) -> None:
        self.registry = registry if registry is not None else ModelRegistry()
        # Explicit None check: an empty StaticProfileCache is falsy, so
        # `static_cache or ...` would silently discard an injected
        # (shared) empty cache and break cross-component cache sharing.
        self.static_cache = (
            static_cache if static_cache is not None else StaticProfileCache()
        )
        self.stats = EngineStats()
        self.max_result_entries = max_result_entries
        self.max_encoding_entries = max_encoding_entries
        self._results: dict[tuple[str, str], CostPrediction] = {}
        self._predictors: dict[str, CachedPredictor] = {}
        self._bundles: dict[str, tuple[ModelInput, tuple[str, ...]]] = {}
        self._lock = threading.RLock()
        self._cache_lock = threading.Lock()

    @property
    def lock(self) -> threading.RLock:
        """The engine's inference lock.  All model execution must hold
        it: callers that drive the warm model outside
        :meth:`predict_requests` (e.g. an ``explorer_for`` explorer on
        an HTTP handler thread) wrap their inference in ``with
        engine.lock:`` so they cannot race the micro-batcher worker on
        the shared encoder, caches and grad-mode flag."""
        return self._lock

    @classmethod
    def from_model(cls, model: CostModel, name: str = "default", **kwargs) -> "PredictionEngine":
        """Engine around one preloaded in-memory model."""
        engine = cls(**kwargs)
        engine.registry.register(name, model=model, tier=model.config.tier)
        return engine

    def adopt(self, name: str, model: CostModel) -> None:
        """Register an in-memory model (e.g. a freshly trained zoo
        member), invalidating any caches of a previous *name* holder.

        Re-adopting the *same object* keeps its warm caches — the
        engine assumes a named model's weights are immutable while
        registered (the serving convention).  After mutating a
        registered model in place (e.g. non-isolated calibration), call
        :meth:`invalidate` to drop its now-stale caches.
        """
        with self._lock:
            if self.registry.is_loaded(name) and self.registry.get(name) is model:
                return  # same object: warm caches stay valid
            self.registry.register(name, model=model, tier=model.config.tier)
            self._invalidate_locked(name)

    def invalidate(self, name: str) -> None:
        """Drop every cached result/encoding for the named model."""
        with self._lock:
            self._invalidate_locked(name)

    def _invalidate_locked(self, name: str) -> None:
        self._predictors.pop(name, None)
        with self._cache_lock:
            self._results = {
                key: value for key, value in self._results.items() if key[0] != name
            }

    # -- request preparation ---------------------------------------------

    def build_request(
        self,
        source: str,
        data: Optional[dict[str, Any]] = None,
        params: Optional[HardwareParams] = None,
        model: str = "default",
        beam_width: Optional[int] = None,
    ) -> PredictRequest:
        """Parse *source* and assemble a ready-to-batch request.

        Parsed bundles are memoized by content digest, so repeated
        requests for a popular program skip the frontend entirely.
        """
        # Fail fast on anything that would otherwise poison a
        # micro-batch with an exception shared by its batch-mates.
        if model not in self.registry.names():
            raise ServeError(
                f"unknown model {model!r}; registered: "
                f"{self.registry.names() or 'none'}"
            )
        if data is not None and not isinstance(data, dict):
            raise ServeError(f"'data' must be an object, got {type(data).__name__}")
        if beam_width is not None and (
            isinstance(beam_width, bool)
            or not isinstance(beam_width, int)
            or beam_width < 1
        ):
            raise ServeError(
                f"'beam_width' must be a positive integer, got {beam_width!r}"
            )
        params = params or HardwareParams()
        key = _digest(
            source,
            params.describe(),
            repr(sorted((data or {}).items())),
        )
        with self._cache_lock:
            cached = self._bundles.get(key)
        if cached is None:
            program = parse(source)
            bundle = bundle_from_program(program, params=params, data=data or None)
            segments = tuple(class_i_segments(program))
            cached = (bundle, segments)
            with self._cache_lock:
                self._bundles[key] = cached
                while len(self._bundles) > self.max_result_entries:
                    self._bundles.pop(next(iter(self._bundles)))
        bundle, segments = cached
        return PredictRequest(
            bundle=bundle, segments=segments, model=model, beam_width=beam_width
        )

    # -- prediction ------------------------------------------------------

    def cached_result(self, request: PredictRequest) -> Optional[CostPrediction]:
        """The request's result-cache entry, or None on a miss.

        Takes only the cache lock, so a hit waits for no encode.  A hit
        is counted here as a served request; a miss counts nothing, as
        :meth:`predict_requests` counts it when the request is served.
        """
        key = self._result_key(request)
        with self._cache_lock:
            cached = self._results.pop(key, None)
            if cached is None:
                return None
            self._results[key] = cached  # refresh LRU recency
            self.stats.requests += 1
            self.stats.result_hits += 1
        _REQUESTS.inc()
        _RESULT_HITS.inc()
        return cached

    def predict_requests(
        self, requests: Sequence[PredictRequest]
    ) -> list[CostPrediction]:
        """Serve a micro-batch; the :class:`MicroBatcher` flush target.

        Result-cache hits are free; misses are grouped per model and
        computed through one batched encoder pass each.  A key repeated
        within the batch is computed once and its repeats count as hits.
        """
        requests = list(requests)
        results: list[Optional[CostPrediction]] = [None] * len(requests)
        keys = [self._result_key(request) for request in requests]
        with TRACER.span(
            "engine.predict", {"requests": len(requests)}
        ) as span, self._lock:
            start = clock.now()
            missing: dict[str, dict[tuple[str, str], list[int]]] = {}
            with self._cache_lock:
                for index, (request, key) in enumerate(zip(requests, keys)):
                    cached = self._results.pop(key, None)
                    if cached is not None:
                        self._results[key] = cached  # refresh LRU recency
                        results[index] = cached
                    else:
                        fresh = missing.setdefault(request.model, {})
                        fresh.setdefault(key, []).append(index)
                misses = sum(len(fresh) for fresh in missing.values())
                hits = len(requests) - misses
                self.stats.requests += len(requests)
                self.stats.result_hits += hits
                self.stats.result_misses += misses
            _REQUESTS.inc(len(requests))
            _RESULT_HITS.inc(hits)
            _RESULT_MISSES.inc(misses)
            for model_name, fresh in missing.items():
                batch = [requests[rows[0]] for rows in fresh.values()]
                predictions = self._predict_batch(model_name, batch)
                with self._cache_lock:
                    for (key, rows), prediction in zip(fresh.items(), predictions):
                        self._results[key] = prediction
                        for row in rows:
                            results[row] = prediction
                    while len(self._results) > self.max_result_entries:
                        self._results.pop(next(iter(self._results)))
            span.set_attr("result_cache_hits", hits)
            _PREDICT_MS.observe((clock.now() - start) * 1000.0)
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def predict_bundles(
        self,
        bundles: Sequence[ModelInput],
        segment_lists: Optional[Sequence[Sequence[str]]] = None,
        model: str = "default",
        beam_width: Optional[int] = None,
    ) -> list[CostPrediction]:
        """Bundle-level entry point (harness / explorer routing)."""
        bundles = list(bundles)
        if segment_lists is None:
            segment_lists = [()] * len(bundles)
        requests = [
            PredictRequest(
                bundle=bundle,
                segments=tuple(segments or ()),
                model=model,
                beam_width=beam_width,
            )
            for bundle, segments in zip(bundles, segment_lists)
        ]
        return self.predict_requests(requests)

    def predict(
        self,
        source: str,
        data: Optional[dict[str, Any]] = None,
        params: Optional[HardwareParams] = None,
        model: str = "default",
        beam_width: Optional[int] = None,
    ) -> CostPrediction:
        """Convenience single-request path (build + predict)."""
        request = self.build_request(
            source, data=data, params=params, model=model, beam_width=beam_width
        )
        return self.predict_requests([request])[0]

    def _result_key(self, request: PredictRequest) -> tuple[str, str]:
        bundle = request.bundle
        return request.model, _digest(
            str(request.beam_width),
            ",".join(request.segments),
            bundle.graph_text,
            *bundle.op_texts,
            bundle.params_text,
            bundle.data_text,
            bundle.think_text,
        )

    def predictor_for(self, model: str = "default") -> CachedPredictor:
        """The named model's exact-mode encoding cache (tier 2)."""
        with self._lock:
            predictor = self._predictors.get(model)
            if predictor is None:
                predictor = CachedPredictor(
                    self.registry.get(model),
                    mode="exact",
                    max_entries=self.max_encoding_entries,
                )
                self._predictors[model] = predictor
            return predictor

    def _predict_batch(
        self, model_name: str, requests: list[PredictRequest]
    ) -> list[CostPrediction]:
        """Compute result-cache misses via the warmed batched path.

        Mirrors ``CostModel.predict_costs``: static metrics read a
        data-free encoding, cycles reads the full bundle.  Both
        encodings go through ``CachedPredictor.warm`` (one
        ``encode_batch`` pass over the cache-missing ones) and are then
        decoded per metric off the cached pooled vectors, so predicted
        values are identical to the direct path.
        """
        predictor = self.predictor_for(model_name)
        model = predictor.model
        static_bundles = [
            ModelInput(
                graph_text=request.bundle.graph_text,
                op_texts=request.bundle.op_texts,
                params_text=request.bundle.params_text,
                data_text="",
                think_text=request.bundle.think_text,
            )
            for request in requests
        ]
        warm_bundles: list[ModelInput] = []
        warm_segments: list[Optional[list[str]]] = []
        for request, static_bundle in zip(requests, static_bundles):
            segments = list(request.segments) or None
            warm_bundles.append(static_bundle)
            warm_segments.append(segments)
            if request.bundle.data_text:
                warm_bundles.append(request.bundle)
                warm_segments.append(segments)
        predictor.warm(warm_bundles, warm_segments)
        predictions: list[CostPrediction] = []
        for request, static_bundle in zip(requests, static_bundles):
            width = request.beam_width or model.config.beam_width
            result = CostPrediction()
            for metric in model.heads:
                use_static = metric in STATIC_METRICS or not request.bundle.data_text
                result.per_metric[metric] = predictor.predict(
                    static_bundle if use_static else request.bundle,
                    metric=metric,
                    class_i_segments=request.segments,
                    beam_width=width,
                )
            predictions.append(result)
        return predictions

    # -- ground truth ----------------------------------------------------

    def profile(
        self,
        source: str,
        data: Optional[dict[str, Any]] = None,
        params: Optional[HardwareParams] = None,
        max_steps: int = 2_000_000,
    ) -> dict[str, int]:
        """Ground-truth costs via the shared static-profile cache."""
        self.record_profile()
        _PROFILE_REQUESTS.inc()
        profiler = Profiler(
            params or HardwareParams(),
            max_steps=max_steps,
            static_cache=self.static_cache,
        )
        with TRACER.span("engine.profile"):
            return profiler.profile(source, data=data or None).costs.as_dict()

    # -- exploration -----------------------------------------------------

    def explorer_for(self, model: str = "default", **kwargs):
        """A :class:`DesignSpaceExplorer` sharing this engine's warm
        model, encoding cache and static-profile cache."""
        from ..core.explorer import DesignSpaceExplorer

        return DesignSpaceExplorer(
            self.registry.get(model),
            predictor=self.predictor_for(model),
            static_cache=self.static_cache,
            **kwargs,
        )

    # -- introspection ---------------------------------------------------

    def record_profile(self) -> None:
        """Count one served ground-truth profile."""
        with self._cache_lock:
            self.stats.profile_requests += 1

    def record_error(self) -> None:
        """Count one failed request (called from HTTP handler threads)."""
        with self._cache_lock:
            self.stats.errors += 1

    def stats_dict(self) -> dict:
        with self._lock, self._cache_lock:
            predictor_stats = {
                name: predictor.stats_dict()
                for name, predictor in sorted(self._predictors.items())
            }
            return {
                "requests": self.stats.requests,
                "profile_requests": self.stats.profile_requests,
                "errors": self.stats.errors,
                "result_cache": {
                    "hits": self.stats.result_hits,
                    "misses": self.stats.result_misses,
                    "hit_rate": round(self.stats.result_hit_rate, 4),
                    "size": len(self._results),
                    "max_entries": self.max_result_entries,
                },
                "encoding_cache": predictor_stats,
                "static_cache": {
                    "hits": self.static_cache.hits,
                    "misses": self.static_cache.misses,
                    "size": len(self.static_cache),
                },
                "analysis_cache": GLOBAL_ANALYSIS_CACHE.stats_dict(),
                "models": {
                    name: {"loaded": self.registry.is_loaded(name)}
                    for name in self.registry.names()
                },
            }
