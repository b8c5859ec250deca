"""The four workloads, driven through the program's public surface.

Every workload times each operation on its own, in several passes over
the same operations, each pass from an identical starting state (fresh
model object, ``Session``, server and ``AnalysisCache``, a cleared
``GLOBAL_ANALYSIS_CACHE``, a fresh ``StaticProfileCache``, a cleared
compile cache and no garbage left to collect).  An operation's time is
its fastest pass, which keeps short host stalls out of the figures.  After measuring, each workload
checks its outputs (see ``checks.py``).
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.analysis.cache import GLOBAL_ANALYSIS_CACHE, AnalysisCache
from repro.api import PredictJob, ProfileJob, Session
from repro.api.codec import params_from_payload
from repro.campaign import (
    STRATEGY_NAMES,
    CampaignJournal,
    CampaignReport,
    CampaignRunner,
    CampaignSpec,
    WorkloadSpec,
    build_cells,
    design_key,
    enumerate_cell_candidates,
)
from repro.core import CostModel, LLMulatorConfig, bundle_from_program, class_i_segments
from repro.lang import parse
from repro.profiler import Profiler
from repro.serve import PredictionServer, ServeClient
from repro.sim import clear_compile_cache

from . import checks, corpus

TIER = "0.5B"
MODEL_SEED = 0
DSE_OBJECTIVES = ("energy_delay", "area_delay")
DSE_BUDGET = 4
DSE_SAMPLE = 8  # journaled evaluations re-profiled with the interpreter
COLD_PROBES = 10  # extra requests checking the static/dynamic split


@dataclass
class Outcome:
    """What one workload measured and found."""

    op_ms: list[list[Optional[float]]]  # [pass][operation]; None = failed
    clients: list[list[int]]  # operation indices of each closed-loop client
    failures: list[str] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)


class Context:
    """Run-wide state a workload reports into."""

    def __init__(self, corpus_data: dict, seed: int, seconds: float, work_dir: str, tracer=None) -> None:
        self.corpus = corpus_data
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.tracer = tracer
        self.setup: dict[str, float] = {}
        self.ready_at: Optional[float] = None
        self.peak_rss_mb: Optional[float] = None
        self.calibration_ms: list[float] = []
        self.errors: list[str] = []
        self.pass_s: list[float] = []
        self.measured_at: Optional[float] = None
        self.result_hits = 0
        self.engine_requests = 0

    def passes(self, nominal_pass_s: float, minimum: int = 3) -> int:
        """Passes that fill the run length on a typical host; fixed for a
        given --seconds, so every run makes the same operations."""
        return max(minimum, round(self.seconds / nominal_pass_s))

    def ready(self) -> None:
        if self.ready_at is None:
            self.ready_at = time.perf_counter()

    def measuring(self, on: bool) -> None:
        """Start or stop one pass: the tracer records only inside passes."""
        if on:
            self._pass_start = time.perf_counter()
        else:
            self.pass_s.append(time.perf_counter() - self._pass_start)
        if self.tracer is not None:
            self.tracer.active = on

    def begin_op(self) -> None:
        if self.tracer is not None:
            self.tracer.begin_op()

    def count_engine(self, engine) -> None:
        """Add one pass's result-cache hits and requests of *engine*."""
        self.result_hits += engine.stats.result_hits
        self.engine_requests += engine.stats.requests

    def end_measurement(self) -> None:
        self.measured_at = time.perf_counter()
        self.peak_rss_mb = peak_rss_mb()

    def calibrate(self, rounds: int = 5) -> None:
        """A fixed pure-Python loop, timed between passes, so a slow
        period of the host can be told apart from a slow program."""
        for _ in range(rounds):
            start = time.perf_counter()
            total = 0
            for value in range(100_000):
                total += value * value
            self.calibration_ms.append(1000.0 * (time.perf_counter() - start))

    def hardware(self, index: int):
        return params_from_payload(self.corpus["hardware"][index])

    def source(self, request: corpus.Request) -> str:
        return self.corpus["by_name"][request.program]["source"]

    def timed(self, call: Callable[[], Any]) -> tuple[Optional[float], Any]:
        """One operation: its time in ms (None if it raised) and result."""
        self.begin_op()
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed operation, counted, not fatal
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None, None
        return 1000.0 * (time.perf_counter() - start), result


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_state() -> None:
    GLOBAL_ANALYSIS_CACHE.clear()
    clear_compile_cache()
    gc.collect()  # the previous pass's garbage must not be collected in this one


def build_session(ctx: Context, first: bool, model: bool = True) -> Session:
    """A fresh Session (with a fresh engine, static cache and, when
    *model*, a freshly built and warmed default model)."""
    fresh_state()
    start = time.perf_counter()
    if model:
        session = Session(models={"default": None}, tier=TIER, seed=MODEL_SEED)
        session.load_models()
    else:
        session = Session()
    if first:
        ctx.setup["setup.model_s"] = time.perf_counter() - start
    return session


def start_server(ctx: Context, first: bool) -> PredictionServer:
    session = build_session(ctx, first)
    start = time.perf_counter()
    server = PredictionServer(session=session, port=0, analysis_cache=AnalysisCache()).start()
    if first:
        ctx.setup["setup.server_s"] = time.perf_counter() - start
    return server


def predict_job(ctx: Context, request: corpus.Request) -> PredictJob:
    return PredictJob(
        source=ctx.source(request), data=request.data_dict(), params=ctx.hardware(request.hardware)
    )


def _served_key(request: corpus.Request) -> tuple:
    return (request.program, request.hardware, request.data)


def _check_served(ctx: Context, served: list[tuple[corpus.Request, dict]]) -> list[str]:
    """Served predictions against CostModel.predict_costs of a separately
    built model on the job's bundle, plus the static/dynamic split."""
    reference_model = CostModel(LLMulatorConfig(tier=TIER, seed=MODEL_SEED))
    reference: dict[tuple, dict] = {}
    for request, _ in served:
        key = _served_key(request)
        if key not in reference:
            program = parse(ctx.source(request))
            bundle = bundle_from_program(
                program, params=ctx.hardware(request.hardware), data=request.data_dict()
            )
            reference[key] = reference_model.predict_costs(bundle, class_i_segments(program)).as_dict()
    rows = [(_served_key(request), costs) for request, costs in served]
    return checks.matches("served prediction", rows, reference) + checks.static_identical(
        "served prediction", [(request.pair, costs) for request, costs in served]
    )


# -- serve_cold ---------------------------------------------------------


def serve_cold(ctx: Context) -> Outcome:
    """One closed-loop client; every request is a program the server
    has never seen."""
    requests = corpus.serve_cold(ctx.corpus, ctx.seed)
    jobs = [predict_job(ctx, request) for request in requests]
    passes = ctx.passes(nominal_pass_s=3.9)
    op_ms: list[list[Optional[float]]] = []
    served: list[tuple[corpus.Request, dict]] = []
    probe_failures: list[str] = []
    for index in range(passes):
        server = start_server(ctx, first=index == 0)
        try:
            client = ServeClient(server.url)
            ctx.ready()
            ctx.measuring(True)
            times = []
            for request, job in zip(requests, jobs):
                ms, prediction = ctx.timed(lambda: client.predict_job(job))
                times.append(ms)
                if prediction is not None:
                    served.append((request, prediction.as_dict()))
            ctx.measuring(False)
            ctx.count_engine(server.engine)
            op_ms.append(times)
            if index == passes - 1:
                ctx.end_measurement()
                probes, probe_failures = _probes(ctx, client, requests)
                served += probes
        finally:
            server.close()
        ctx.calibrate()
    failures = probe_failures + _check_served(ctx, served)
    return Outcome(op_ms=op_ms, clients=[list(range(len(jobs)))], failures=failures)


def _probes(ctx: Context, client: ServeClient, requests: list[corpus.Request]) -> tuple[list, list[str]]:
    """Not timed: the first requests whose program has another runtime
    data variant are sent again with it, for the static-split check."""
    probes, failures = [], []
    for request in requests:
        variants = corpus.data_variants(ctx.corpus["by_name"][request.program])
        others = [v for v in variants if corpus.freeze(v) != request.data]
        if not others:
            continue
        probe = corpus.Request(request.program, request.hardware, corpus.freeze(others[0]))
        try:
            probes.append((probe, client.predict_job(predict_job(ctx, probe)).as_dict()))
        except Exception as exc:
            failures.append(f"probe {probe}: {type(exc).__name__}: {exc}")
        if len(probes) + len(failures) == COLD_PROBES:
            break
    return probes, failures


# -- serve_repeat -------------------------------------------------------


def serve_repeat(ctx: Context) -> Outcome:
    """Two closed-loop clients over a Zipf mix of kernels x hardware x
    runtime-data variants: mostly result-cache hits, some reuse of the
    data-free static encoding, a few misses."""
    sequences = corpus.serve_repeat(ctx.corpus, ctx.seed)
    jobs = [[predict_job(ctx, request) for request in sequence] for sequence in sequences]
    offsets = np.cumsum([0] + [len(sequence) for sequence in sequences]).tolist()
    clients = [list(range(offsets[c], offsets[c + 1])) for c in range(len(sequences))]
    passes = ctx.passes(nominal_pass_s=5.4)
    op_ms: list[list[Optional[float]]] = []
    served: list[tuple[corpus.Request, dict]] = []
    for index in range(passes):
        server = start_server(ctx, first=index == 0)
        try:
            ctx.ready()
            times: list[list[Optional[float]]] = [[] for _ in sequences]
            outputs: list[list[Optional[dict]]] = [[] for _ in sequences]
            barrier = threading.Barrier(len(sequences))

            def client_loop(c: int) -> None:
                client = ServeClient(server.url)
                barrier.wait()
                for job in jobs[c]:
                    ms, prediction = ctx.timed(lambda: client.predict_job(job))
                    times[c].append(ms)
                    outputs[c].append(None if prediction is None else prediction.as_dict())

            threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(len(sequences))]
            ctx.measuring(True)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            ctx.measuring(False)
            op_ms.append([ms for client_times in times for ms in client_times])
            for sequence, client_outputs in zip(sequences, outputs):
                served += [(r, out) for r, out in zip(sequence, client_outputs) if out is not None]
            ctx.count_engine(server.engine)
            if index == passes - 1:
                ctx.end_measurement()
        finally:
            server.close()
        ctx.calibrate()
    stream = [request for sequence in sequences for request in sequence]
    outcome = Outcome(op_ms=op_ms, clients=clients, failures=_check_served(ctx, served))
    outcome.notes["stream_shares"] = {k: round(v, 3) for k, v in corpus.repeat_shares(stream).items()}
    return outcome


# -- profile_sweep ------------------------------------------------------


def profile_sweep(ctx: Context) -> Outcome:
    """``Session.profile`` over every kernel x runtime-input variant x
    two hardware variants; no model runs."""
    requests = corpus.profile_sweep(ctx.corpus, ctx.seed)
    jobs = [
        ProfileJob(
            source=ctx.source(r), data=r.data_dict(), params=ctx.hardware(r.hardware), seed=r.seed
        )
        for r in requests
    ]
    passes = ctx.passes(nominal_pass_s=2.0, minimum=5)
    op_ms: list[list[Optional[float]]] = []
    outputs: list[list[Optional[dict]]] = []
    for index in range(passes):
        session = build_session(ctx, first=index == 0, model=False)
        ctx.ready()
        ctx.measuring(True)
        times, costs = [], []
        for job in jobs:
            ms, report = ctx.timed(lambda: session.profile(job))
            times.append(ms)
            costs.append(None if report is None else dict(report.costs))
        ctx.measuring(False)
        ctx.count_engine(session.engine)
        op_ms.append(times)
        outputs.append(costs)
        if index == passes - 1:
            ctx.end_measurement()
        ctx.calibrate()
    return Outcome(
        op_ms=op_ms, clients=[list(range(len(jobs)))], failures=_check_profiles(ctx, requests, outputs)
    )


def _check_profiles(ctx: Context, requests: list[corpus.Request], outputs: list[list]) -> list[str]:
    """One seeded input variant of every (kernel, hardware) pair against
    the non-memoized interpreter; statics equal across input variants;
    cycles above zero; every pass the same."""
    rng = np.random.default_rng([ctx.seed, 3])
    by_pair: dict[tuple, list[int]] = {}
    for index, request in enumerate(requests):
        by_pair.setdefault(request.pair, []).append(index)
    reference = {}
    for pair, indices in by_pair.items():
        index = indices[int(rng.integers(len(indices)))]
        request = requests[index]
        profiler = Profiler(ctx.hardware(request.hardware), backend="interp", memoize=False)
        report = profiler.profile(
            ctx.source(request), data=request.data_dict(), rng=np.random.default_rng(request.seed)
        )
        reference[index] = report.costs.as_dict()
    rows = [(i, costs) for i, costs in enumerate(outputs[0]) if costs is not None]
    return (
        checks.agree_across_passes("profile", outputs)
        + checks.matches("profile", [(i, outputs[0][i]) for i in reference if outputs[0][i]], reference)
        + checks.static_identical("profile", [(requests[i].pair, costs) for i, costs in rows])
        + checks.cycles_positive("profile", rows)
    )


# -- dse_campaign -------------------------------------------------------


class _AppendClock:
    """Records ``(cell, time)`` at each journal append, i.e. at the end
    of every fresh evaluation."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.stamps: list[tuple[str, float]] = []
        self.original = CampaignJournal.append

    def __enter__(self) -> "_AppendClock":
        original, stamps, ctx = self.original, self.stamps, self.ctx

        def append(journal, cell_id, *args, **kwargs):
            result = original(journal, cell_id, *args, **kwargs)
            stamps.append((cell_id, time.perf_counter()))
            ctx.begin_op()
            return result

        CampaignJournal.append = append
        return self

    def __exit__(self, *exc_info) -> None:
        CampaignJournal.append = self.original

    def evaluation_ms(self, start: float) -> list[float]:
        """Each evaluation's share of its cell's wall time.  A cell runs
        from the previous cell's last evaluation (or the campaign start)
        to its own last one, so its candidate enumeration and ranking
        are spread over its evaluations."""
        cells: list[list] = []  # [cell id, evaluations, end time]
        for cell_id, stamp in self.stamps:
            if cells and cells[-1][0] == cell_id:
                cells[-1][1] += 1
                cells[-1][2] = stamp
            else:
                cells.append([cell_id, 1, stamp])
        times, previous = [], start
        for _, evaluations, end in cells:
            times += [1000.0 * (end - previous) / evaluations] * evaluations
            previous = end
        return times


def dse_spec(ctx: Context) -> CampaignSpec:
    draw = corpus.dse_campaign(ctx.corpus, ctx.seed)
    workloads = []
    for name in draw["kernels"]:
        entry = ctx.corpus["by_name"][name]
        workloads.append(WorkloadSpec(name=name, source=entry["source"], data=entry["data"] or None))
    return CampaignSpec(
        name="perfbench",
        workloads=tuple(workloads),
        hardware=tuple(ctx.hardware(index) for index in draw["hardware"]),
        strategies=STRATEGY_NAMES,
        objectives=DSE_OBJECTIVES,
        budget=DSE_BUDGET,
        seed=draw["campaign_seed"],
        static_source="asicflow",
    )


def dse_campaign(ctx: Context) -> Outcome:
    """One campaign over several inline kernels x two hardware variants
    x every strategy x two objectives, exact static metrics from the
    ASIC flow.  An operation is one fresh ground-truth evaluation; its
    time is its share of its cell's wall time."""
    spec = dse_spec(ctx)
    journal = os.path.join(ctx.work_dir, "campaign.jsonl")
    passes = ctx.passes(nominal_pass_s=4.0)
    op_ms: list[list[Optional[float]]] = []
    journals: list[list[dict]] = []
    for index in range(passes):
        session = build_session(ctx, first=index == 0)
        runner = CampaignRunner(spec, journal, predictor=session)
        ctx.ready()
        with _AppendClock(ctx) as clock:
            ctx.measuring(True)
            ctx.begin_op()
            start = time.perf_counter()
            runner.run(overwrite=True)
            ctx.measuring(False)
        ctx.count_engine(session.engine)
        op_ms.append(clock.evaluation_ms(start))
        journals.append(CampaignJournal.read_records(journal)[1:])
        if index == passes - 1:
            ctx.end_measurement()
        ctx.calibrate()
    failures = checks.agree_across_passes("campaign journal", journals)
    failures += _check_campaign(ctx, spec, journal, journals[-1])
    width = min(len(times) for times in op_ms)
    if any(len(times) != width for times in op_ms):
        failures.append(f"passes made {[len(t) for t in op_ms]} evaluations")
    return Outcome(op_ms=[t[:width] for t in op_ms], clients=[list(range(width))], failures=failures)


def _check_campaign(ctx: Context, spec: CampaignSpec, journal: str, records: list[dict]) -> list[str]:
    """A seeded sample of journaled evaluations against a fresh
    interpreter profile of the design, and every cell's reported best
    against the journal minimum."""
    cells = {cell.cell_id: cell for cell in build_cells(spec)}
    rng = np.random.default_rng([ctx.seed, 4])
    sample = rng.choice(len(records), size=min(DSE_SAMPLE, len(records)), replace=False)
    produced, reference = [], {}
    for number in sorted(int(i) for i in sample):
        record = records[number]
        cell = cells[record["cell"]]
        candidates = enumerate_cell_candidates(
            parse(cell.source), cell.params, spec.unroll_factors, spec.max_candidates, rewrite=cell.rewrite
        )
        point = next(p for p in candidates if design_key(p) == record["design"])
        profiler = Profiler(cell.params, backend="interp", memoize=False)
        report = profiler.profile(point.program, data=cell.data_dict(), rng=np.random.default_rng(spec.seed))
        key = (record["cell"], record["design"])
        reference[key] = report.costs.as_dict()
        produced.append((key, record["actual"]))
    report = CampaignReport.from_journal(journal, spec)
    reported = {cell.cell.cell_id: cell.final_best for cell in report.cells if cell.evaluations}
    objective_of = {cell_id: cell.objective for cell_id, cell in cells.items()}
    return checks.matches("journaled evaluation", produced, reference) + checks.cell_best(
        reported, records, objective_of
    )


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "serve_cold": serve_cold,
    "serve_repeat": serve_repeat,
    "profile_sweep": profile_sweep,
    "dse_campaign": dse_campaign,
}


def summarize(outcome: Outcome) -> dict[str, float]:
    """End-to-end figures from the fastest pass of every operation."""
    failed = {i for times in outcome.op_ms for i, ms in enumerate(times) if ms is None}
    best = {i: min(times[i] for times in outcome.op_ms) for i in range(len(outcome.op_ms[0])) if i not in failed}
    values = sorted(best.values())
    # A closed-loop client completes one operation per latency, so the
    # clients' rates add up.
    rate = 0.0
    for ops in outcome.clients:
        ok = [best[i] for i in ops if i in best]
        if ok:
            rate += 1000.0 * len(ok) / sum(ok)
    return {
        "ops_per_s": rate,
        "op_p50_ms": statistics.median(values),
        "op_p90_ms": statistics.quantiles(values, n=10, method="inclusive")[-1],
    }
