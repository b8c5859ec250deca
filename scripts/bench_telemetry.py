"""Telemetry overhead benchmark: the observability layer must be
near-free when disabled and cheap when enabled.

Three measurements, two gates:

* ``primitives`` — ns/call microbenchmark of the disabled and enabled
  instrument primitives (counter inc, histogram observe, span
  enter/exit).  The *disabled* gate comes from here: a generous upper
  bound of instrumented sites per served request times the disabled
  ns/call, expressed as a fraction of the measured request latency,
  must stay ≤ 1%.  This isolates the switch cost from loop noise that
  would drown it in an end-to-end A/B.
* ``predict_loop`` — interleaved enabled/disabled trials of the real
  hot path: ``CostModel.predict_costs`` over a fixed set of distinct
  pre-built bundles.  Only tokenization is memoized in the model, so
  the encoder forward pass (and its ``model.encode`` span) runs on
  every call; a warm-up trial primes the memo so every timed trial is
  the identical workload.  The *enabled* gate: the best (min) enabled
  trial ≤ 5% over the best disabled trial — with identical trials,
  min-of-trials filters scheduler noise that dwarfs the few-µs span
  cost on a ms-scale predict; the medians are reported alongside.
* ``serve_stream`` — concurrency-8 closed-loop clients against a real
  :class:`PredictionServer`, then the ``/metrics`` snapshot.  Not a
  timing gate, but the run must populate the queue-wait and
  batch-size histograms — the numbers this layer exists to produce.

The suite registers with :mod:`repro.obs.bench`, which owns the
artifact (``BENCH_telemetry.json``), the ledger and the sentinel.
``--smoke`` shrinks the iteration counts for the CI lane.

Run:  PYTHONPATH=src python scripts/bench_telemetry.py [--smoke]
"""

import os
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import telemetry
from repro.core import CostModel, LLMulatorConfig, bundle_from_program
from repro.errors import ObsError
from repro.obs.bench import BenchConfig, BenchReport, BenchSuite, Metric, Option, \
    bench_main, register_suite
from repro.serve import PredictionEngine, PredictionServer, ServeClient
from repro.telemetry import METRICS, TRACER, MetricsRegistry, Tracer

# Generous upper bound on instrument touches for one served request:
# client span, server span, batcher (context capture, queue-wait
# record + observe, flush span, two histograms), engine (four counters,
# span, histogram), model (three histograms, span) — ~18 in truth.
SITES_PER_REQUEST = 32

PROGRAM_TEMPLATE = """
void scale(float a[8], float b[8], int n) {{
  for (int i = 0; i < n; i++) {{ b[i] = a[i] * {constant}.0f + {offset}.5f; }}
}}
void dataflow(float a[8], float b[8], int n) {{ scale(a, b, n); }}
"""


def fresh_program(index: int) -> str:
    """A source no cache has seen: unique constants per call."""
    return PROGRAM_TEMPLATE.format(constant=index + 2, offset=index % 97)


def bench_primitives(iterations: int) -> dict:
    """ns/call for each primitive, disabled and enabled."""
    registry = MetricsRegistry()
    tracer = Tracer()
    counter = registry.counter("bench.counter")
    histogram = registry.histogram("bench.histogram")

    def time_loop(fn) -> float:
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        return (time.perf_counter() - start) / iterations * 1e9

    def span_once():
        with tracer.span("bench.span"):
            pass

    out = {}
    for mode in ("disabled", "enabled"):
        previous = telemetry.set_enabled(mode == "enabled")
        try:
            out[mode] = {
                "counter_inc_ns": round(time_loop(lambda: counter.inc()), 1),
                "histogram_observe_ns": round(
                    time_loop(lambda: histogram.observe(1.5)), 1
                ),
                "span_ns": round(time_loop(span_once), 1),
            }
        finally:
            telemetry.set_enabled(previous)
        tracer.clear()
    return out


def bench_predict_loop(model, trials: int, per_trial: int) -> dict:
    """Interleaved enabled/disabled trials of the predict hot path."""
    durations = {"enabled": [], "disabled": []}
    bundles = [
        bundle_from_program(fresh_program(index), data={"n": 8})
        for index in range(per_trial)
    ]

    def one_trial() -> float:
        start = time.perf_counter()
        for bundle in bundles:
            model.predict_costs(bundle)
        return time.perf_counter() - start

    one_trial()  # warm-up: primes the tokenize memo and lazy init,
    one_trial()  # so every timed trial below is the identical workload
    for _ in range(trials):
        for mode in ("enabled", "disabled"):
            previous = telemetry.set_enabled(mode == "enabled")
            try:
                durations[mode].append(one_trial())
            finally:
                telemetry.set_enabled(previous)
    TRACER.clear()

    median = {mode: statistics.median(durations[mode]) for mode in durations}
    best = {mode: min(durations[mode]) for mode in durations}
    per_predict_s = median["disabled"] / per_trial
    return {
        "trials": trials,
        "predicts_per_trial": per_trial,
        "median_enabled_s": round(median["enabled"], 4),
        "median_disabled_s": round(median["disabled"], 4),
        "min_enabled_s": round(best["enabled"], 4),
        "min_disabled_s": round(best["disabled"], 4),
        "per_predict_ms": round(per_predict_s * 1000.0, 2),
        "overhead_enabled_pct": round(
            (median["enabled"] / median["disabled"] - 1.0) * 100.0, 2
        ),
        "overhead_enabled_min_pct": round(
            (best["enabled"] / best["disabled"] - 1.0) * 100.0, 2
        ),
    }


def bench_serve_stream(model, concurrency: int, per_client: int) -> dict:
    """Concurrency-C closed loop; returns the /metrics histograms."""
    METRICS.reset()
    TRACER.clear()
    engine = PredictionEngine.from_model(model)
    server = PredictionServer(engine, port=0, max_batch=concurrency).start()
    errors = []
    try:

        def client_loop(client_index: int):
            client = ServeClient(server.url, timeout_s=300.0)
            for request in range(per_client):
                source = fresh_program(1000 + client_index * per_client + request)
                try:
                    client.predict(source, data={"n": 8})
                except Exception as exc:  # noqa: BLE001 - recorded, fails gate
                    errors.append(f"client {client_index}: {exc}")

        threads = [
            threading.Thread(target=client_loop, args=(i,))
            for i in range(concurrency)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        snapshot = ServeClient(server.url).metrics()
    finally:
        server.close()

    histograms = snapshot["histograms"]
    return {
        "concurrency": concurrency,
        "requests": concurrency * per_client,
        "wall_s": round(wall, 3),
        "client_errors": errors[:5],
        "queue_wait_ms": histograms.get("serve.batch.queue_wait_ms", {}),
        "batch_size": histograms.get("serve.batch.size", {}),
        "predict_ms": histograms.get("serve.engine.predict_ms", {}),
    }


def run(config: BenchConfig) -> BenchReport:
    if not telemetry.enabled():
        raise ObsError(
            "the telemetry bench needs telemetry enabled "
            "(unset REPRO_TELEMETRY)"
        )
    tier = config.tier or "0.5B"
    concurrency = config.opt("concurrency", 8)

    smoke = config.smoke
    iterations = 20_000 if smoke else 200_000
    trials = 5 if smoke else 9
    per_trial = 4 if smoke else 8
    per_client = 2 if smoke else 6

    model = CostModel(LLMulatorConfig(tier=tier, seed=0))
    print(f"tier {tier}, smoke={smoke}", flush=True)

    primitives = bench_primitives(iterations)
    predict_loop = bench_predict_loop(model, trials, per_trial)
    serve_stream = bench_serve_stream(model, concurrency, per_client)

    # Disabled gate: worst-case instrumented sites per request, at the
    # measured disabled primitive cost, as a share of request latency.
    worst_disabled_ns = max(primitives["disabled"].values())
    per_predict_ns = predict_loop["per_predict_ms"] * 1e6
    overhead_disabled_pct = round(
        SITES_PER_REQUEST * worst_disabled_ns / per_predict_ns * 100.0, 4
    )

    return BenchReport(
        values={
            "disabled_overhead_pct": overhead_disabled_pct,
            "enabled_overhead_min_pct": predict_loop["overhead_enabled_min_pct"],
        },
        payload={
            "sites_per_request_bound": SITES_PER_REQUEST,
            "primitives_ns": primitives,
            "predict_loop": predict_loop,
            "serve_stream": serve_stream,
        },
        gates={
            "disabled_overhead": {
                "value_pct": overhead_disabled_pct,
                "limit_pct": 1.0,
                "passed": overhead_disabled_pct <= 1.0,
            },
            "enabled_overhead": {
                "value_pct": predict_loop["overhead_enabled_min_pct"],
                "median_pct": predict_loop["overhead_enabled_pct"],
                "limit_pct": 5.0,
                "passed": predict_loop["overhead_enabled_min_pct"] <= 5.0,
            },
            "histograms_populated": {
                "queue_wait_count": serve_stream["queue_wait_ms"].get("count", 0),
                "batch_size_count": serve_stream["batch_size"].get("count", 0),
                "passed": (
                    serve_stream["queue_wait_ms"].get("count", 0)
                    == serve_stream["requests"]
                    and serve_stream["batch_size"].get("count", 0) > 0
                    and not serve_stream["client_errors"]
                ),
            },
        },
    )


register_suite(BenchSuite(
    name="telemetry",
    description="telemetry overhead: disabled-mode primitive cost and "
                "enabled-mode end-to-end predict overhead",
    metrics=(
        Metric("disabled_overhead_pct", "%", "lower", portable=True,
               tolerance=1.0),
        Metric("enabled_overhead_min_pct", "%", "lower", portable=True,
               tolerance=1.0),
    ),
    run=run,
    options=(
        Option("--concurrency", int, 8, "serve-stream client count"),
    ),
    tiers=("0.5B", "1B", "8B"),
    default_tier="0.5B",
))


if __name__ == "__main__":
    raise SystemExit(bench_main("telemetry"))
