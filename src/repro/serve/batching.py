"""Greedy micro-batching for the prediction service.

Concurrent callers submit single requests; a background worker takes
the first queued request plus whatever else is *already* queued (up to
``max_batch`` items) and flushes them through one callback (for the
engine: one ``predict_requests`` pass).  Nothing waits for batch-mates:
a lone request is flushed at once, and batches form only from requests
that arrived while the previous flush ran.  Length bucketing is left to
``CostModel.encode_batch``, which sorts and chunks every flushed batch
by its ``_SCORE_BUDGET``.

The server answers result-cache hits on its handler threads before it
submits anything, so only misses reach the queue: :class:`BatchStats`
and the ``serve.batch.*`` histograms describe misses only.

Telemetry: every submitted item carries its enqueue time and the
caller's :class:`~repro.telemetry.trace.SpanContext` across the queue,
so the worker can emit a per-request ``serve.batch.queue_wait`` span
*inside the caller's trace* and feed the
``serve.batch.queue_wait_ms`` / ``serve.batch.size`` histograms.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from queue import Empty, Queue
from typing import Any, Callable, NamedTuple, Optional, Sequence

from ..errors import ServeError
from ..telemetry import METRICS, SIZE_BUCKETS, TRACER, clock
from ..telemetry.trace import SpanContext

_QUEUE_WAIT_MS = METRICS.histogram("serve.batch.queue_wait_ms")
_BATCH_SIZE = METRICS.histogram("serve.batch.size", SIZE_BUCKETS)
_FLUSH_MS = METRICS.histogram("serve.batch.flush_ms")


class _Entry(NamedTuple):
    """One queued request with its telemetry context."""

    item: Any
    future: Future
    ctx: Optional[SpanContext]
    enqueued: float


@dataclass
class BatchStats:
    """Flush-side counters, including the batch-size histogram.

    ``record()`` runs on the batcher worker thread while ``as_dict()``
    serves concurrent ``/stats`` requests from HTTP handler threads, so
    both take the same lock — iterating ``size_histogram`` unlocked
    races its mutation (RuntimeError: dict changed size).
    """

    batches: int = 0
    requests: int = 0
    size_histogram: dict[int, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.requests += size
            self.size_histogram[size] = self.size_histogram.get(size, 0) + 1

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "batches": self.batches,
                "requests": self.requests,
                "mean_batch_size": round(self.mean_batch_size, 2),
                "size_histogram": {
                    str(size): count
                    for size, count in sorted(self.size_histogram.items())
                },
            }


class MicroBatcher:
    """Request queue with greedy micro-batching.

    ``flush_fn(items)`` must return one result per item, in order; its
    return fills the callers' futures.
    """

    def __init__(
        self,
        flush_fn: Callable[[list[Any]], Sequence[Any]],
        max_batch: int = 8,
    ) -> None:
        if max_batch < 1:
            raise ServeError(f"max_batch must be positive, got {max_batch}")
        self._flush_fn = flush_fn
        self.max_batch = max_batch
        self._queue: Queue = Queue()
        self._closed = threading.Event()
        self.stats = BatchStats()
        self._worker = threading.Thread(
            target=self._run, name="micro-batcher", daemon=True
        )
        self._worker.start()

    # -- submission ------------------------------------------------------

    def submit(self, item: Any) -> Future:
        """Enqueue one request; the future resolves after its flush.

        The caller's active span context (if any) rides along, so the
        worker's flush spans join the caller's trace."""
        if self._closed.is_set():
            raise ServeError("batcher is closed")
        future: Future = Future()
        self._queue.put(
            _Entry(item, future, TRACER.current_context(), clock.now())
        )
        return future

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting requests, drain the queue, join the worker.

        Every already-submitted future is resolved (or failed) before
        the worker exits — a graceful shutdown never drops requests.
        """
        if not self._closed.is_set():
            self._closed.set()
            self._queue.put(None)  # wake the worker if it is blocked
        self._worker.join(timeout=timeout)
        # A submit() racing close() can slip an item in after the
        # worker's final emptiness check; fail it rather than strand
        # its caller on an unresolved future.
        while True:
            try:
                entry = self._queue.get_nowait()
            except Empty:
                return
            if entry is not None and not entry.future.done():
                entry.future.set_exception(ServeError("batcher is closed"))

    # -- worker ----------------------------------------------------------

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch:
                self._flush(batch)
            elif self._closed.is_set() and self._queue.empty():
                return

    def _collect(self) -> list[_Entry]:
        """Block for the first request, then take only the requests
        already queued behind it, up to ``max_batch``."""
        try:
            first = self._queue.get(timeout=0.05)
        except Empty:
            return []
        if first is None:
            return []
        batch = [first]
        while len(batch) < self.max_batch:
            try:
                entry = self._queue.get_nowait()
            except Empty:
                break
            if entry is None:
                break
            batch.append(entry)
        return batch

    def _flush(self, batch: list[_Entry]) -> None:
        flush_start = clock.now()
        # Queue-wait lands in each request's own trace: the span the
        # caller opened before submit() is the parent.
        for entry in batch:
            _QUEUE_WAIT_MS.observe((flush_start - entry.enqueued) * 1000.0)
            TRACER.record_span(
                "serve.batch.queue_wait",
                start=entry.enqueued,
                end=flush_start,
                context=entry.ctx,
            )
        _BATCH_SIZE.observe(len(batch))
        items = [entry.item for entry in batch]
        # The flush itself is one shared pass; its span nests under the
        # first traced caller (batch-mates are recorded by id).
        parent = next((entry.ctx for entry in batch if entry.ctx is not None), None)
        attrs = {"batch_size": len(items)}
        coalesced = {entry.ctx.trace_id for entry in batch if entry.ctx is not None}
        if len(coalesced) > 1:
            attrs["coalesced_traces"] = sorted(coalesced)
        try:
            with TRACER.span("serve.batch.flush", attrs, context=parent):
                results = list(self._flush_fn(items))
            if len(results) != len(items):
                raise ServeError(
                    f"flush returned {len(results)} results "
                    f"for {len(items)} requests"
                )
        except BaseException as exc:  # propagate to every caller
            for entry in batch:
                if not entry.future.cancelled():
                    entry.future.set_exception(exc)
            return
        _FLUSH_MS.observe((clock.now() - flush_start) * 1000.0)
        self.stats.record(len(items))
        for entry, result in zip(batch, results):
            if not entry.future.cancelled():
                entry.future.set_result(result)
