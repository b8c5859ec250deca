"""The :class:`Session` facade — one typed entry point for prediction,
profiling and exploration.

A session owns the serving substrate (a
:class:`~repro.serve.engine.ModelRegistry` of warm models, the shared
:class:`~repro.profiler.StaticProfileCache`, a
:class:`~repro.serve.engine.PredictionEngine` with its tiered caches)
and exposes it through the job/result dataclasses of
:mod:`repro.api.types`.  Every frontend is an adapter over it:

* the CLI builds jobs from flags and prints the results;
* the HTTP server decodes jobs from request bodies and encodes results
  back (the session *is* the handler logic);
* the evaluation harness and the design-space explorer route their
  model queries through the session's warm engine.

:class:`Predictor` is the structural protocol shared by
:class:`Session` (local, in-process) and
:class:`~repro.serve.client.ServeClient` (remote, over HTTP): code
written against it — like ``predict --remote`` — swaps backends with a
constructor change instead of a separate code path.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..hls import HardwareParams
from ..profiler import Profiler
from ..serve.engine import ModelRegistry, PredictionEngine
from ..telemetry import TRACER
from .types import (
    DesignChoice,
    ExploreJob,
    ExploreReport,
    PredictJob,
    Prediction,
    ProfileJob,
    ProfileReport,
    prediction_from_cost,
)


@runtime_checkable
class Predictor(Protocol):
    """Anything that can answer :class:`PredictJob` requests."""

    def predict_job(self, job: PredictJob) -> Prediction:
        """Answer one job."""

    def predict_jobs(self, jobs: Sequence[PredictJob]) -> list[Prediction]:
        """Answer several jobs, preserving order."""


class Session:
    """A warm, cache-backed facade over the whole prediction stack.

    Checkpoints load lazily on first use; hand an existing
    :class:`PredictionEngine` in via ``engine=`` to share warm state
    (the HTTP server does exactly that).

    Example::

        session = Session(models="model.npz")
        prediction = session.predict_job(PredictJob(source=source, data={"n": 8}))
        report = session.profile(ProfileJob(source=source))
        ranking = session.explore(ExploreJob(source=source, verify_top=3))
    """

    def __init__(
        self,
        models: Optional[str | Mapping[str, str]] = None,
        *,
        tier: str = "0.5B",
        seed: int = 0,
        max_seq_len: int = 320,
        engine: Optional[PredictionEngine] = None,
        default_model: Optional[str] = None,
    ) -> None:
        self.engine = engine if engine is not None else PredictionEngine()
        self._default_model = default_model
        if models:
            if isinstance(models, str):
                models = {"default": models}
            for name, path in models.items():
                self.engine.registry.register(
                    name, path=path, tier=tier, seed=seed, max_seq_len=max_seq_len
                )
                if self._default_model is None:
                    self._default_model = name
        if self._default_model is None:
            names = self.engine.registry.names()
            self._default_model = names[0] if names else "default"

    @classmethod
    def from_model(
        cls, model: Any, name: str = "default", **engine_kwargs: Any
    ) -> "Session":
        """A session around one preloaded in-memory :class:`CostModel`."""
        engine = PredictionEngine.from_model(model, name=name, **engine_kwargs)
        return cls(engine=engine, default_model=name)

    # -- introspection ---------------------------------------------------

    @property
    def registry(self) -> ModelRegistry:
        return self.engine.registry

    @property
    def default_model(self) -> str:
        return self._default_model

    def models(self) -> list[str]:
        return self.engine.registry.names()

    def load_models(self) -> list[str]:
        """Eagerly load + warm every registered checkpoint, failing fast
        on the first unreadable one.  Returns the names loaded."""
        names = self.engine.registry.names()
        for name in names:
            self.engine.registry.get(name)
        return names

    def stats(self) -> dict:
        from ..obs.resource import process_snapshot

        stats = dict(self.engine.stats_dict())
        stats["resource"] = process_snapshot()
        return stats

    # -- prediction ------------------------------------------------------

    def predict_job(self, job: PredictJob) -> Prediction:
        return self.predict_jobs([job])[0]

    def predict_jobs(self, jobs: Sequence[PredictJob]) -> list[Prediction]:
        """Answer every job through one batched engine pass."""
        with TRACER.span("session.predict_jobs", {"jobs": len(jobs)}):
            requests = [
                self.engine.build_request(
                    job.source,
                    data=dict(job.data) if job.data else None,
                    params=job.params,
                    model=job.model or self._default_model,
                    beam_width=job.beam_width,
                )
                for job in jobs
            ]
            costs = self.engine.predict_requests(requests)
        return [
            prediction_from_cost(cost, model=request.model, label=job.label)
            for job, request, cost in zip(jobs, requests, costs)
        ]

    def predict(
        self,
        source: str,
        data: Optional[Mapping[str, Any]] = None,
        params: Optional[HardwareParams] = None,
        model: Optional[str] = None,
        beam_width: Optional[int] = None,
    ) -> Prediction:
        """Convenience keyword form of :meth:`predict_job`."""
        return self.predict_job(
            PredictJob(
                source=source,
                data=data,
                params=params,
                model=model,
                beam_width=beam_width,
            )
        )

    def predict_bundles(
        self,
        bundles: Sequence[Any],
        segment_lists: Optional[Sequence[Sequence[str]]] = None,
        model: Optional[str] = None,
        beam_width: Optional[int] = None,
    ) -> list[Prediction]:
        """Bundle-level entry point for callers (evaluation harness)
        that already hold :class:`~repro.tokenizer.ModelInput` bundles."""
        name = model or self._default_model
        costs = self.engine.predict_bundles(
            bundles, segment_lists, model=name, beam_width=beam_width
        )
        return [prediction_from_cost(cost, model=name) for cost in costs]

    def adopt(self, name: str, model: Any) -> None:
        """Register an in-memory model under *name* (see
        :meth:`PredictionEngine.adopt` for the cache contract)."""
        self.engine.adopt(name, model)

    # -- ground truth ----------------------------------------------------

    def profile(self, job: ProfileJob) -> ProfileReport:
        """Ground-truth costs through the session's shared static cache."""
        kwargs: dict[str, Any] = {}
        if job.max_steps is not None:
            kwargs["max_steps"] = job.max_steps
        profiler = Profiler(
            job.params or HardwareParams(),
            backend=job.backend,
            static_cache=self.engine.static_cache,
            **kwargs,
        )
        with TRACER.span("session.profile", {"label": job.label} if job.label else None):
            report = profiler.profile(
                job.source,
                data=dict(job.data) if job.data else None,
                rng=np.random.default_rng(job.seed),
            )
        self.engine.record_profile()
        return ProfileReport(
            costs=report.costs.as_dict(),
            rtl_think=report.rtl.think_text(),
            label=job.label,
        )

    # -- exploration -----------------------------------------------------

    def explorer(self, model: Optional[str] = None, **kwargs: Any):
        """A :class:`~repro.core.DesignSpaceExplorer` sharing this
        session's warm model and caches."""
        return self.engine.explorer_for(model or self._default_model, **kwargs)

    def explore(self, job: ExploreJob) -> ExploreReport:
        """Rank mapping candidates, optionally verifying the finalists."""
        name = job.model or self._default_model
        explorer = self.engine.explorer_for(name)
        data = dict(job.data) if job.data else None
        # Model inference must not race other engine users (the serve
        # micro-batcher worker); verification is profiler-side and runs
        # outside the inference lock.
        with TRACER.span("session.explore", {"model": name}):
            with self.engine.lock:
                points = explorer.explore(
                    job.source,
                    data=data,
                    unroll_factors=tuple(job.unroll_factors),
                    memory_delays=tuple(job.memory_delays),
                    max_candidates=job.max_candidates,
                )
            if job.verify_top:
                explorer.verify_top(points, top_k=job.verify_top, data=data)
        candidates = tuple(
            DesignChoice(
                design=point.describe(),
                predicted=dict(point.predicted),
                score=point.score,
                actual=dict(point.actual) if point.actual is not None else None,
            )
            for point in points
        )
        return ExploreReport(
            candidates=candidates,
            model=name,
            cache_stats=explorer.predictor.stats_dict(),
        )
