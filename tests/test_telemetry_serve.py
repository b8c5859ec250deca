"""Telemetry over the serving stack: one trace id spanning
client → server → engine → batcher for a miss and client → server for a
result-cache hit, the ``/metrics`` endpoint, ``/stats`` backward
compatibility, the BatchStats snapshot race, and the disabled mode's
end-to-end no-op."""

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import telemetry
from repro.core import CostModel, LLMulatorConfig
from repro.serve import (
    MicroBatcher,
    PredictionEngine,
    PredictionServer,
    ServeClient,
)
from repro.serve.batching import BatchStats
from repro.telemetry import METRICS, TRACER

PROGRAM = """
void scale(float a[8], float b[8], int n) {
  for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0; }
}
void dataflow(float a[8], float b[8], int n) { scale(a, b, n); }
"""
DATA = {"n": 8}
_UNSEEN = itertools.count(1)


def unseen_program() -> str:
    """A program this module's server has not been sent, so its request
    misses the result cache and goes through the batcher."""
    return PROGRAM.replace("2.0", f"{next(_UNSEEN) + 10}.125")


@pytest.fixture(scope="module")
def model():
    return CostModel(LLMulatorConfig(tier="0.5B", seed=0))


@pytest.fixture(scope="module")
def server(model):
    engine = PredictionEngine.from_model(model)
    server = PredictionServer(engine, port=0, max_batch=4).start()
    yield server
    server.close()


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.url, timeout_s=120.0)


class TestTracePropagation:
    def test_one_trace_id_spans_client_to_batcher(self, client):
        TRACER.clear()
        client.predict(unseen_program(), data=DATA)
        trace_ids = client.traces()
        assert trace_ids, "server buffered no traces"
        # The client span started the trace, so its id is the newest one
        # on the server too (in-process server shares the tracer).
        trace_id = trace_ids[-1]
        spans = client.trace(trace_id)
        names = {span["name"] for span in spans}
        assert "client.predict" in names
        assert "server/predict" in names
        assert "engine.predict" in names
        assert "serve.batch.flush" in names
        assert "serve.batch.queue_wait" in names
        assert {span["trace_id"] for span in spans} == {trace_id}

    def test_spans_nest_under_the_client_root(self, client):
        TRACER.clear()
        client.predict(unseen_program(), data=DATA)
        spans = client.trace(client.traces()[-1])
        by_name = {span["name"]: span for span in spans}
        root = by_name["client.predict"]
        assert root["parent_id"] is None
        assert by_name["server/predict"]["parent_id"] == root["span_id"]
        # engine.predict runs in the batcher worker thread, inside the
        # flush span that was parented back to the server request.
        flush = by_name["serve.batch.flush"]
        assert flush["parent_id"] == by_name["server/predict"]["span_id"]
        assert by_name["engine.predict"]["parent_id"] == flush["span_id"]

    def test_result_cache_hit_skips_the_batcher(self, client, server):
        source = unseen_program()
        first = client.predict(source, data=DATA)
        counters = METRICS.snapshot()["counters"]
        flushed = server.batcher.stats.requests
        TRACER.clear()
        again = client.predict(source, data=DATA)
        assert again == first
        spans = client.trace(client.traces()[-1])
        by_name = {span["name"]: span for span in spans}
        root = by_name["client.predict"]
        assert by_name["server/predict"]["parent_id"] == root["span_id"]
        assert not [name for name in by_name if name.startswith("serve.batch.")]
        after = METRICS.snapshot()["counters"]
        for name in ("serve.engine.requests", "serve.engine.result_cache.hits"):
            assert after[name] - counters[name] == 1, name
        assert server.batcher.stats.requests == flushed

    def test_unknown_trace_id_is_404(self, client):
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="404"):
            client.trace("no-such-trace")

    def test_model_encode_span_joins_on_cache_miss(self, client):
        TRACER.clear()
        # A fresh program source → encoder cache miss → model.encode span.
        fresh = PROGRAM.replace("2.0", "3.5")
        client.predict(fresh, data=DATA)
        spans = client.trace(client.traces()[-1])
        assert "model.encode" in {span["name"] for span in spans}


class TestMetricsEndpoint:
    def test_metrics_snapshot_shape(self, client):
        client.predict(unseen_program(), data=DATA)
        snap = client.metrics()
        assert snap["enabled"] is True
        assert snap["counters"]["serve.engine.requests"] >= 1
        predict = snap["histograms"]["serve.engine.predict_ms"]
        assert predict["count"] >= 1
        assert any(key.startswith("le_") for key in predict["buckets"])
        queue_wait = snap["histograms"]["serve.batch.queue_wait_ms"]
        assert queue_wait["count"] >= 1

    def test_stats_islands_absorbed_as_collectors(self, client, server):
        snap = client.metrics()
        collected = snap["collected"]
        assert collected["serve.engine"] == server.engine.stats_dict()
        assert set(collected["serve.batching"]) == set(
            server.batcher.stats.as_dict()
        )

    def test_stats_keeps_legacy_keys(self, client, server):
        """The pre-telemetry ``/stats`` contract survives the registry."""
        stats = client.stats()
        for key in server.engine.stats_dict():
            assert key in stats
        assert set(stats["batching"]) == set(server.batcher.stats.as_dict())

    def test_cli_stats_reads_remote(self, server, capsys):
        from repro.cli import main

        assert main(["stats", "--remote", server.url]) == 0
        out = capsys.readouterr().out
        assert '"serve.engine.requests"' in out

    def test_cli_stats_local_snapshot(self, capsys):
        from repro.cli import main

        assert main(["stats"]) == 0
        assert '"enabled"' in capsys.readouterr().out


class TestDebugProfile:
    def test_resource_collector_registered(self, client):
        collected = client.metrics()["collected"]
        assert "serve.resource" in collected
        assert collected["serve.resource"]["max_rss_kb"] > 0

    def test_profile_window_attributes_live_spans(self, client):
        """Acceptance path: a profile window captured while requests are
        in flight must attribute nonzero CPU to at least one span, and
        the attribution must ride into the exported Chrome trace."""
        stop = threading.Event()

        def load(index):
            count = 0
            while not stop.is_set():
                source = PROGRAM.replace("2.0", f"{index + 2}.{count % 97}")
                count += 1
                client.predict(source, data=DATA)

        threads = [threading.Thread(target=load, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        try:
            out = client.debug_profile(seconds=0.8)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert out["completed_spans"] > 0
        assert out["attributed_spans"] > 0
        billed = [row for row in out["top"] if row["cpu_ms"] > 0.0]
        assert billed, "no span received a CPU attribution"
        chrome_billed = [
            event
            for event in out["chrome_trace"]["traceEvents"]
            if event.get("args", {}).get("cpu_ms", 0.0) > 0.0
        ]
        assert chrome_billed, "attribution missing from the Chrome trace"

    def test_concurrent_profile_window_conflicts(self, client, server):
        from repro.errors import ServeError
        from repro.obs import ResourceProfiler
        from repro.telemetry import TRACER as tracer

        with ResourceProfiler(tracer, interval_ms=5.0):
            with pytest.raises(ServeError, match="409"):
                client.debug_profile(seconds=0.2)

    def test_bad_seconds_is_400(self, client):
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="400"):
            client.debug_profile(seconds=-1)


class TestBatchStatsRace:
    def test_snapshot_consistent_under_concurrent_flushes(self):
        """Regression: ``as_dict`` used to read fields without the lock,
        so a reader could see ``requests`` from one flush and ``batches``
        from the next. Hammer snapshots during flushes and check every
        snapshot is internally consistent (requests == histogram mass)."""
        stats = BatchStats()
        stop = threading.Event()
        bad: list[dict] = []

        def writer():
            while not stop.is_set():
                stats.record(3)

        def reader():
            while not stop.is_set():
                snap = stats.as_dict()
                if snap["requests"] != sum(
                    int(size) * count
                    for size, count in snap["size_histogram"].items()
                ):
                    bad.append(snap)

        threads = [threading.Thread(target=writer) for _ in range(2)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        stop.wait(0.5)
        stop.set()
        for thread in threads:
            thread.join()
        assert bad == []

    def test_stats_endpoint_during_live_flushes(self, client):
        """End-to-end variant: /stats polled while predicts flush."""
        errors: list[Exception] = []

        def poll():
            try:
                for _ in range(20):
                    stats = client.stats()
                    assert stats["batching"]["requests"] >= 0
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        poller = threading.Thread(target=poll)
        poller.start()
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(
                pool.map(
                    lambda i: client.predict(
                        PROGRAM.replace("2.0", f"{i}.25"), data=DATA
                    ),
                    range(8),
                )
            )
        poller.join()
        assert errors == []


class TestDisabledModeServe:
    def test_disabled_serve_records_nothing(self):
        previous = telemetry.set_enabled(False)
        try:
            TRACER.clear()
            flushes = METRICS.histogram("serve.batch.flush_ms").count
            batcher = MicroBatcher(
                lambda items: [item * 2 for item in items],
                max_batch=2,
            )
            try:
                futures = [batcher.submit(i) for i in range(4)]
                assert [f.result(timeout=10.0) for f in futures] == [0, 2, 4, 6]
            finally:
                batcher.close()
            # Results still flow; telemetry stays silent.
            assert len(TRACER) == 0
            assert METRICS.histogram("serve.batch.flush_ms").count == flushes
            # Legacy BatchStats still counts — it predates telemetry and
            # backs /stats regardless of the telemetry switch.
            assert batcher.stats.requests == 4
        finally:
            telemetry.set_enabled(previous)

    def test_disabled_client_sends_no_trace_headers(self, client, server):
        previous = telemetry.set_enabled(False)
        try:
            TRACER.clear()
            result = client.predict(PROGRAM, data=DATA)
            assert "cycles" in result
            assert len(TRACER) == 0
        finally:
            telemetry.set_enabled(previous)
