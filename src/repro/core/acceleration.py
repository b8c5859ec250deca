"""Dynamic prediction acceleration (paper §5.3).

Repeated cost queries during design-space exploration usually change
only one operator or only the runtime data.  Under the decoupled
attention pattern of Figure 6 (operators do not attend to each other),
each operator's representation can be computed independently and
cached; re-evaluation after a localized edit recomputes only the dirty
segment instead of the whole sequence.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..nn import Tensor, no_grad
from ..telemetry import clock
from ..tokenizer import ModelInput
from .model import CostModel
from .numeric_head import NumericPrediction


# Per-predict latencies kept: a bounded ring, so a long-lived predictor
# (the serve engine's) does not grow by one entry per metric served.
LATENCY_WINDOW = 1024


@dataclass
class AccelerationStats:
    """Cache behaviour counters."""

    hits: int = 0
    misses: int = 0
    last_latency_s: float = 0.0
    latencies: deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _digest(*texts: str) -> str:
    hasher = hashlib.md5()
    for text in texts:
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


class CachedPredictor:
    """Inference wrapper with representation caching.

    Two modes:

    * ``"decoupled"`` (paper §5.3) — each operator segment is encoded
      against its *visible* context only (graph + params, plus runtime
      data for Class II operators) and cached by content digest; the
      final representation averages the segment vectors.  Localized
      edits recompute only dirty segments, at the cost of the
      block-decoupled approximation.
    * ``"exact"`` — the full bundle's pooled encoding is cached by
      content digest.  Numerically identical to the uncached model;
      repeated queries of unchanged bundles are free, but any edit
      recomputes everything.
    """

    def __init__(
        self,
        model: CostModel,
        enabled: bool = True,
        mode: str = "decoupled",
        max_entries: Optional[int] = None,
    ) -> None:
        if mode not in ("decoupled", "exact"):
            raise ValueError(f"unknown cache mode {mode!r}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.model = model
        self.enabled = enabled
        self.mode = mode
        self.max_entries = max_entries
        self.stats = AccelerationStats()
        self._cache: dict[str, np.ndarray] = {}

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)

    def _lookup(self, key: str) -> Optional[np.ndarray]:
        """Cache read that refreshes LRU recency on a hit."""
        vector = self._cache.pop(key, None)
        if vector is not None:
            self._cache[key] = vector
        return vector

    def _store(self, key: str, vector: np.ndarray) -> None:
        self._cache.pop(key, None)
        self._cache[key] = vector
        if self.max_entries is not None:
            while len(self._cache) > self.max_entries:
                self._cache.pop(next(iter(self._cache)))

    def stats_dict(self) -> dict:
        """Introspection snapshot (surfaced at ``/stats`` and by
        ``explore --verbose``)."""
        return {
            "mode": self.mode,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "hit_rate": round(self.stats.hit_rate, 4),
            "size": len(self._cache),
            "max_entries": self.max_entries,
        }

    @staticmethod
    def _exact_key(bundle: ModelInput) -> str:
        return _digest(
            "exact",
            bundle.graph_text,
            *bundle.op_texts,
            bundle.params_text,
            bundle.data_text,
            bundle.think_text,
        )

    def warm(
        self,
        bundles: list[ModelInput],
        class_i_segments=None,
    ) -> int:
        """Batch-encode every cache-missing bundle in one encoder pass.

        Exact mode only (decoupled mode caches per-segment vectors, a
        granularity one batched pass cannot fill).  Subsequent
        :meth:`predict` calls for the warmed bundles hit the cache, so a
        DSE sweep pays one ``encode_batch`` instead of N ``encode``
        calls.  ``class_i_segments`` is shared or per-bundle, following
        :meth:`CostModel.encode_batch`.  Returns the number of bundles
        encoded; mirrors exact-mode keys, which (deliberately) do not
        include the separation segments.
        """
        if not self.enabled or self.mode != "exact":
            return 0
        per_bundle = self.model._broadcast_segments(class_i_segments, len(bundles))
        missing: dict[str, tuple[ModelInput, Optional[list]]] = {}
        for bundle, segments in zip(bundles, per_bundle):
            key = self._exact_key(bundle)
            if key not in self._cache and key not in missing:
                missing[key] = (bundle, segments)
        if not missing:
            return 0
        with no_grad():
            pooled = self.model.encode_batch(
                [bundle for bundle, _ in missing.values()],
                [segments for _, segments in missing.values()],
            )
        vectors = np.asarray(pooled.data, dtype=np.float64)
        for key, vector in zip(missing, vectors):
            self._store(key, vector)
        self.stats.misses += len(missing)
        return len(missing)

    def _segment_vector(self, key: str, bundle: ModelInput) -> np.ndarray:
        if self.enabled:
            cached = self._lookup(key)
            if cached is not None:
                self.stats.hits += 1
                return cached
        self.stats.misses += 1
        with no_grad():
            pooled = self.model.encode(bundle)
        vector = np.asarray(pooled.data, dtype=np.float64)
        if self.enabled:
            self._store(key, vector)
        return vector

    def predict(
        self,
        bundle: ModelInput,
        metric: str = "cycles",
        class_i_segments: tuple[str, ...] = (),
        beam_width: Optional[int] = None,
    ) -> NumericPrediction:
        """Predict *metric* with segment-level caching."""
        start = clock.now()
        if self.mode == "exact":
            key = self._exact_key(bundle)
            pooled_vector = self._lookup(key) if self.enabled else None
            if pooled_vector is not None:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
                with no_grad():
                    encoded = self.model.encode(
                        bundle, class_i_segments=list(class_i_segments) or None
                    )
                pooled_vector = np.asarray(encoded.data, dtype=np.float64)
                if self.enabled:
                    self._store(key, pooled_vector)
            prediction = self.model.heads[metric].predict(
                Tensor(pooled_vector),
                beam_width=beam_width or self.model.config.beam_width,
            )
            elapsed = clock.now() - start
            self.stats.last_latency_s = elapsed
            self.stats.latencies.append(elapsed)
            return prediction
        class_i = set(class_i_segments)
        vectors: list[np.ndarray] = []
        # Base context segment: graph + params (+ data).
        base_bundle = ModelInput(
            graph_text=bundle.graph_text,
            op_texts=[],
            params_text=bundle.params_text,
            data_text=bundle.data_text,
        )
        base_key = _digest(
            "base", bundle.graph_text, bundle.params_text, bundle.data_text
        )
        vectors.append(self._segment_vector(base_key, base_bundle))
        for index, op_text in enumerate(bundle.op_texts):
            name = f"op{index}"
            sees_data = name not in class_i
            op_bundle = ModelInput(
                graph_text=bundle.graph_text,
                op_texts=[op_text],
                params_text=bundle.params_text,
                data_text=bundle.data_text if sees_data else "",
            )
            key = _digest(
                "op",
                bundle.graph_text,
                op_text,
                bundle.params_text,
                bundle.data_text if sees_data else "",
            )
            vectors.append(self._segment_vector(key, op_bundle))
        pooled = Tensor(np.mean(vectors, axis=0))
        prediction = self.model.heads[metric].predict(
            pooled, beam_width=beam_width or self.model.config.beam_width
        )
        elapsed = clock.now() - start
        self.stats.last_latency_s = elapsed
        self.stats.latencies.append(elapsed)
        return prediction
