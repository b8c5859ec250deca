"""Serve-path load benchmark: closed-loop clients vs single requests.

Drives a real :class:`repro.serve.PredictionServer` (HTTP loopback,
thread-per-connection, shared micro-batcher) with closed-loop clients
over a mixed workload stream drawn from ``repro.workloads``
(polybench + modern suites), and compares against the *single-request
path*: the same request stream served one call at a time through
``CostModel.predict_costs`` with a fresh bundle per request and no
caching — what every CLI invocation pays today, minus even the process
start and model load the server also amortizes.

Two served phases are reported:

* ``unique``  — every program requested exactly once at concurrency C:
  isolates the micro-batching gain (no result-cache hits possible).
* ``mixed``   — C closed-loop clients × R requests drawn (seeded) from
  the mix with repeats, the service's actual traffic shape: misses run
  batched, repeats hit the tiered cache.  This is the gated number.

The served stack is constructed through the public ``repro.api``
surface (a :class:`Session` owns the engine; clients speak the typed
``PredictJob``/``Prediction`` codec), so the parity gate exercises the
exact path every frontend uses.  Every served prediction is
parity-checked against the direct ``predict_costs`` values before any
number is reported.  The suite registers with :mod:`repro.obs.bench`,
which owns the artifact (``BENCH_serve.json``), the ledger and the
sentinel.

Run:  PYTHONPATH=src python scripts/bench_serve.py [--concurrency 8]
"""

import os
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.api import PredictJob, Session
from repro.core import CostModel, LLMulatorConfig
from repro.obs.bench import BenchConfig, BenchReport, BenchSuite, Metric, Option, \
    bench_main, register_suite
from repro.serve import PredictionServer, ServeClient
from repro.workloads import modern_suite, polybench_suite


def build_mix():
    """The benchmark's workload mix: name → (source, data, bundle, segments)."""
    mix = {}
    for workload in polybench_suite() + modern_suite():
        mix[workload.name] = {
            "source": workload.source,
            "data": workload.merged_data() or None,
            "bundle": workload.bundle(data=workload.merged_data()),
            "segments": list(workload.class_i),
        }
    return mix


def request_stream(names, concurrency, per_client, seed=7):
    """Per-client request sequences (seeded, so runs are comparable)."""
    rng = np.random.default_rng(seed)
    return [
        [names[int(i)] for i in rng.integers(0, len(names), size=per_client)]
        for _ in range(concurrency)
    ]


def run_direct(model, mix, flat_stream):
    """The single-request path over the same stream, one call at a time."""
    from repro.core import bundle_from_program, class_i_segments

    start = time.perf_counter()
    predictions = {}
    for name in flat_stream:
        entry = mix[name]
        # A fresh bundle per request: the per-call frontend cost the
        # server's bundle memo avoids.
        bundle = bundle_from_program(entry["source"], data=entry["data"])
        prediction = model.predict_costs(
            bundle, class_i_segments=class_i_segments(entry["source"])
        )
        predictions[name] = prediction.as_dict()
    elapsed = time.perf_counter() - start
    return elapsed, predictions


def run_served(server, client_streams, mix):
    """Closed-loop clients; returns (wall_s, latencies, responses)."""
    latencies = []
    responses = {}
    errors = []
    lock = threading.Lock()

    def client_loop(stream):
        client = ServeClient(server.url, timeout_s=300.0)
        for name in stream:
            entry = mix[name]
            begin = time.perf_counter()
            try:
                # The typed Predictor path: codec-encoded PredictJob in,
                # codec-decoded Prediction out — the same protocol the
                # CLI's --remote mode speaks.
                prediction = client.predict_job(
                    PredictJob(source=entry["source"], data=entry["data"], label=name)
                )
            except Exception as exc:  # noqa: BLE001 - recorded, fails the gate
                with lock:
                    errors.append(f"{name}: {exc}")
                continue
            took = time.perf_counter() - begin
            with lock:
                latencies.append(took)
                responses[name] = prediction.as_dict()

    threads = [
        threading.Thread(target=client_loop, args=(stream,))
        for stream in client_streams
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return wall, latencies, responses, errors


def run(config: BenchConfig) -> BenchReport:
    tier = config.tier or "0.5B"
    concurrency = config.opt("concurrency", 4 if config.smoke else 8)
    per_client = config.opt(
        "requests_per_client", 4 if config.smoke else 12
    )
    max_batch = config.opt("max_batch", 8)

    model = CostModel(LLMulatorConfig(tier=tier, seed=0))
    mix = build_mix()
    names = sorted(mix)
    client_streams = request_stream(names, concurrency, per_client)
    flat_stream = [name for stream in client_streams for name in stream]
    print(
        f"{len(names)} workloads, {len(flat_stream)} mixed requests, "
        f"concurrency {concurrency}, tier {tier}",
        flush=True,
    )

    # -- single-request baseline (same stream, one call at a time) -------
    direct_s, direct_predictions = run_direct(model, mix, flat_stream)
    direct_req_s = len(flat_stream) / direct_s

    # Parity needs a direct value for every workload the unique sweep
    # serves, including ones the seeded mixed stream never drew (which
    # happens at smoke scale); fill those in outside the timed window.
    missing = [name for name in names if name not in direct_predictions]
    if missing:
        _, extra = run_direct(model, mix, missing)
        direct_predictions.update(extra)

    # -- served ----------------------------------------------------------
    # The served stack is built the way every frontend now builds it:
    # a Session facade owning the warm engine and caches.
    session = Session.from_model(model)
    server = PredictionServer(session=session, port=0, max_batch=max_batch).start()
    try:
        # Phase 1 — unique sweep: each program once, batching gain only.
        unique_streams = [
            names[index::concurrency] for index in range(concurrency)
        ]
        unique_wall, _, unique_responses, unique_errors = run_served(
            server, unique_streams, mix
        )
        unique_req_s = len(names) / unique_wall

        # Phase 2 — mixed closed-loop stream (the gated number).
        mixed_wall, latencies, mixed_responses, mixed_errors = run_served(
            server, client_streams, mix
        )
        mixed_req_s = len(flat_stream) / mixed_wall
        stats = ServeClient(server.url).stats()
    finally:
        server.close()

    errors = unique_errors + mixed_errors
    served = dict(unique_responses)
    served.update(mixed_responses)
    mismatches = {
        name: {"served": served[name], "direct": direct_predictions[name]}
        for name in names
        if served.get(name) != direct_predictions[name]
    }
    parity = not errors and not mismatches and len(served) == len(names)

    latencies_ms = sorted(1000.0 * value for value in latencies)
    speedup = mixed_req_s / direct_req_s
    if parity and speedup < 2.0:
        print(f"WARN: mixed served speedup {speedup:.2f}x below the 2x target",
              file=sys.stderr)
    return BenchReport(
        values={
            "speedup_unique": round(unique_req_s / direct_req_s, 2),
            "speedup_mixed": round(speedup, 2),
            "served_mixed_req_s": round(mixed_req_s, 2),
            "p95_latency_ms": round(
                latencies_ms[min(len(latencies_ms) - 1,
                                 int(0.95 * len(latencies_ms)))], 2
            ) if latencies_ms else 0.0,
            "mean_batch_size": stats["batching"]["mean_batch_size"],
        },
        payload={
            "workloads": len(names),
            "concurrency": concurrency,
            "requests": len(flat_stream),
            "single_path": "per-request bundle build + predict_costs, no cache "
                           "(the CLI shape, minus process start and model load)",
            "single_req_s": round(direct_req_s, 2),
            "served_unique_req_s": round(unique_req_s, 2),
            "p50_latency_ms": round(latencies_ms[len(latencies_ms) // 2], 2)
            if latencies_ms else None,
            "batch_size_histogram": stats["batching"]["size_histogram"],
            "result_cache": stats["result_cache"],
        },
        gates={
            "parity": {
                "passed": parity,
                "programs_checked": len(served),
                "mismatches": len(mismatches),
                "client_errors": errors[:5],
            },
        },
    )


register_suite(BenchSuite(
    name="serve",
    description="serve-path load: closed-loop clients through the "
                "micro-batching server vs the single-request path",
    metrics=(
        Metric("speedup_unique", "x", "higher", portable=True),
        Metric("speedup_mixed", "x", "higher", portable=True),
        Metric("served_mixed_req_s", "req/s", "higher"),
        Metric("p95_latency_ms", "ms", "lower", tolerance=0.5),
        Metric("mean_batch_size", "req", "higher", tolerance=0.5),
    ),
    run=run,
    options=(
        Option("--concurrency", int, None, "closed-loop client count"),
        Option("--requests-per-client", int, None, "mixed-phase stream length"),
        Option("--max-batch", int, 8, "server micro-batch cap"),
    ),
    tiers=("0.5B", "1B", "8B"),
    default_tier="0.5B",
))


if __name__ == "__main__":
    raise SystemExit(bench_main("serve"))
