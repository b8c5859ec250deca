"""The prediction service: batching, tiered caching, HTTP parity.

Covers the concurrency contract: served predictions identical to
direct ``predict_costs``, greedy micro-batch flushes (a lone request at
once, batch-mates only from what is already queued, capped by
``max_batch``), result-cache hits answered without the batcher, N
threads hammering the server and each getting its own program's answer
back, and graceful shutdown draining the queue.
"""

import json
import sys
import threading
import time
from concurrent.futures import Future

import pytest

from repro.core import (
    CachedPredictor,
    CostModel,
    LLMulatorConfig,
    bundle_from_program,
    class_i_segments,
)
from repro.errors import ServeError
from repro.serve import (
    MicroBatcher,
    ModelRegistry,
    PredictionEngine,
    PredictionServer,
    ServeClient,
)

PROGRAMS = {
    "scale": """
void scale(float a[8], float b[8], int n) {
  for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0; }
}
void dataflow(float a[8], float b[8], int n) { scale(a, b, n); }
""",
    "accum": """
void accum(float a[8], float out[1], int n) {
  for (int i = 0; i < n; i++) { out[0] = out[0] + a[i]; }
}
void dataflow(float a[8], float out[1], int n) { accum(a, out, n); }
""",
    "shift": """
void shift(float a[8], float b[8], int n) {
  for (int i = 0; i < n; i++) { b[i] = a[i] + 1.0; }
}
void dataflow(float a[8], float b[8], int n) { shift(a, b, n); }
""",
}
DATA = {"n": 8}


@pytest.fixture(scope="module")
def model():
    return CostModel(LLMulatorConfig(tier="0.5B", seed=0))


@pytest.fixture(scope="module")
def direct_predictions(model):
    """Ground truth for parity: the unserved single-request path."""
    out = {}
    for name, source in PROGRAMS.items():
        bundle = bundle_from_program(source, data=DATA)
        out[name] = model.predict_costs(
            bundle, class_i_segments=class_i_segments(source)
        )
    return out


@pytest.fixture(scope="module")
def server(model):
    engine = PredictionEngine.from_model(model)
    server = PredictionServer(engine, port=0, max_batch=4).start()
    yield server
    server.close()


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.url, timeout_s=120.0)


# -- micro-batcher ---------------------------------------------------------


class TestMicroBatcher:
    def test_flushes_on_max_batch_before_deadline(self):
        release = threading.Event()
        flushed = []

        def flush(items):
            # Held until all four are queued, so max_batch must split them.
            release.wait(timeout=10.0)
            flushed.append(list(items))
            return [item * 10 for item in items]

        batcher = MicroBatcher(flush, max_batch=2)
        try:
            futures = [batcher.submit(i) for i in range(4)]
            release.set()
            results = [future.result(timeout=10.0) for future in futures]
        finally:
            batcher.close()
        assert results == [0, 10, 20, 30]
        assert all(len(batch) <= 2 for batch in flushed)
        assert batcher.stats.requests == 4
        assert max(batcher.stats.size_histogram) == 2

    def test_coalesces_requests_queued_during_a_flush(self):
        """A lone request flushes at once; requests that arrive while a
        flush runs form the next batch, capped by ``max_batch``."""

        def run(max_batch):
            started, release = threading.Event(), threading.Event()
            flushed = []

            def flush(items):
                flushed.append(list(items))
                started.set()
                release.wait(timeout=10.0)
                return items

            batcher = MicroBatcher(flush, max_batch=max_batch)
            try:
                first = batcher.submit("A")
                assert started.wait(timeout=10.0)  # A flushed on its own
                rest = [batcher.submit(item) for item in "BCD"]
                release.set()
                results = [f.result(timeout=10.0) for f in [first, *rest]]
            finally:
                batcher.close()
            assert results == ["A", "B", "C", "D"]
            return flushed

        assert run(64) == [["A"], ["B", "C", "D"]]
        assert run(2) == [["A"], ["B", "C"], ["D"]]

    def test_flush_error_propagates_to_callers(self):
        def flush(items):
            raise RuntimeError("boom")

        batcher = MicroBatcher(flush, max_batch=2)
        try:
            future = batcher.submit(1)
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=10.0)
        finally:
            batcher.close()

    def test_close_drains_queue(self):
        release = threading.Event()
        processed = []

        def flush(items):
            release.wait(timeout=10.0)
            processed.extend(items)
            return items

        batcher = MicroBatcher(flush, max_batch=1)
        futures = [batcher.submit(i) for i in range(5)]
        release.set()
        batcher.close(timeout=30.0)
        # Graceful shutdown: every already-submitted request completed.
        assert sorted(processed) == [0, 1, 2, 3, 4]
        assert all(future.done() for future in futures)
        with pytest.raises(ServeError):
            batcher.submit(99)

    def test_rejects_bad_config(self):
        with pytest.raises(ServeError):
            MicroBatcher(lambda items: items, max_batch=0)


# -- cached predictor bound (satellite) ------------------------------------


class TestCachedPredictorBound:
    def test_lru_bound_evicts_oldest(self, model):
        predictor = CachedPredictor(model, mode="exact", max_entries=2)
        bundles = [
            bundle_from_program(source, data=DATA)
            for source in PROGRAMS.values()
        ]
        for bundle in bundles:
            predictor.predict(bundle, metric="cycles")
        assert len(predictor) == 2
        # Oldest entry evicted: re-predicting it is a miss again.
        misses_before = predictor.stats.misses
        predictor.predict(bundles[0], metric="cycles")
        assert predictor.stats.misses == misses_before + 1

    def test_hit_refreshes_recency(self, model):
        predictor = CachedPredictor(model, mode="exact", max_entries=2)
        bundles = [
            bundle_from_program(source, data=DATA)
            for source in PROGRAMS.values()
        ]
        predictor.predict(bundles[0], metric="cycles")
        predictor.predict(bundles[1], metric="cycles")
        predictor.predict(bundles[0], metric="cycles")  # refresh 0
        predictor.predict(bundles[2], metric="cycles")  # evicts 1, not 0
        hits_before = predictor.stats.hits
        predictor.predict(bundles[0], metric="cycles")
        assert predictor.stats.hits == hits_before + 1

    def test_stats_dict_shape(self, model):
        predictor = CachedPredictor(model, mode="exact", max_entries=8)
        stats = predictor.stats_dict()
        assert set(stats) == {
            "mode", "hits", "misses", "hit_rate", "size", "max_entries",
        }
        assert stats["mode"] == "exact"
        assert stats["max_entries"] == 8

    def test_rejects_nonpositive_bound(self, model):
        with pytest.raises(ValueError):
            CachedPredictor(model, mode="exact", max_entries=0)


# -- engine ----------------------------------------------------------------


class TestPredictionEngine:
    def test_parity_with_direct_predict_costs(self, model, direct_predictions):
        engine = PredictionEngine.from_model(model)
        for name, source in PROGRAMS.items():
            served = engine.predict(source, data=DATA)
            direct = direct_predictions[name]
            assert served.as_dict() == direct.as_dict()
            for metric, pred in served.per_metric.items():
                assert pred.confidence == pytest.approx(
                    direct.per_metric[metric].confidence, abs=1e-9
                )
                assert list(pred.beam_values) == list(
                    direct.per_metric[metric].beam_values
                )

    def test_batched_parity(self, model, direct_predictions):
        engine = PredictionEngine.from_model(model)
        requests = [
            engine.build_request(source, data=DATA)
            for source in PROGRAMS.values()
        ]
        served = engine.predict_requests(requests)
        for name, prediction in zip(PROGRAMS, served):
            assert prediction.as_dict() == direct_predictions[name].as_dict()

    def test_result_cache_hit_on_repeat(self, model):
        engine = PredictionEngine.from_model(model)
        first = engine.predict(PROGRAMS["scale"], data=DATA)
        second = engine.predict(PROGRAMS["scale"], data=DATA)
        assert second is first
        stats = engine.stats_dict()
        assert stats["result_cache"]["hits"] == 1
        assert stats["result_cache"]["misses"] == 1

    def test_identical_requests_count_one_miss_and_one_hit(self, model):
        """Single flight: every request counts once, as a hit or a miss,
        whether the repeat shares a flush, queues behind the first or is
        answered from the result cache without a flush."""
        source = PROGRAMS["scale"].replace("2.0", "9.5")

        def shared_flush(engine, first, second):
            return engine.predict_requests([first, second])

        def queued_behind(engine, first, second):
            return engine.predict_requests([first]) + engine.predict_requests([second])

        def handler_hit(engine, first, second):
            return engine.predict_requests([first]) + [engine.cached_result(second)]

        for path in (shared_flush, queued_behind, handler_hit):
            engine = PredictionEngine.from_model(model)
            first, second = (engine.build_request(source, data=DATA) for _ in range(2))
            answers = path(engine, first, second)
            assert answers[0] is answers[1], path.__name__
            stats = engine.stats
            assert (stats.requests, stats.result_misses, stats.result_hits) == (
                2, 1, 1
            ), path.__name__

    def test_counters_survive_concurrent_hits(self, model):
        engine = PredictionEngine.from_model(model)
        request = engine.build_request(PROGRAMS["scale"], data=DATA)
        engine.predict_requests([request])
        workers, rounds = 8, 200

        def hit():
            for _ in range(rounds):
                assert engine.cached_result(request) is not None

        threads = [threading.Thread(target=hit) for _ in range(workers)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        hits = workers * rounds
        assert (engine.stats.requests, engine.stats.result_hits) == (1 + hits, hits)

    def test_static_encoding_shared_across_data_variants(self, model):
        """Tier-2 win: same program under new runtime data re-encodes
        only the dynamic bundle; the static encoding is a cache hit."""
        engine = PredictionEngine.from_model(model)
        engine.predict(PROGRAMS["scale"], data={"n": 4})
        predictor = engine.predictor_for()
        hits_before = predictor.stats.hits
        engine.predict(PROGRAMS["scale"], data={"n": 8})
        assert predictor.stats.hits > hits_before

    def test_unknown_model_rejected(self, model):
        engine = PredictionEngine.from_model(model)
        with pytest.raises(ServeError, match="unknown model"):
            engine.predict(PROGRAMS["scale"], model="nope")

    def test_registry_lazy_load_and_missing_path(self, tmp_path, model):
        from repro.nn import save_model

        path = tmp_path / "m.npz"
        save_model(model, str(path))
        registry = ModelRegistry()
        registry.register("disk", path=str(path), tier="0.5B")
        assert not registry.is_loaded("disk")
        loaded = registry.get("disk")
        assert registry.is_loaded("disk")
        assert loaded.config.tier == "0.5B"
        registry.register("broken", path=str(tmp_path / "missing.npz"))
        with pytest.raises(ServeError, match="cannot load model"):
            registry.get("broken")

    def test_adopt_invalidates_stale_caches(self, model):
        engine = PredictionEngine.from_model(model)
        engine.predict(PROGRAMS["scale"], data=DATA)
        other = CostModel(LLMulatorConfig(tier="0.5B", seed=123))
        engine.adopt("default", other)
        assert engine.stats_dict()["result_cache"]["size"] == 0
        served = engine.predict(PROGRAMS["scale"], data=DATA)
        bundle = bundle_from_program(PROGRAMS["scale"], data=DATA)
        direct = other.predict_costs(
            bundle, class_i_segments=class_i_segments(PROGRAMS["scale"])
        )
        assert served.as_dict() == direct.as_dict()

    def test_profile_uses_shared_static_cache(self, model):
        engine = PredictionEngine.from_model(model)
        costs = engine.profile(PROGRAMS["scale"], data=DATA)
        assert set(costs) == {"power", "area", "ff", "cycles"}
        engine.profile(PROGRAMS["scale"], data={"n": 4})
        assert engine.static_cache.hits >= 1

    def test_explorer_routes_through_engine(self, model):
        engine = PredictionEngine.from_model(model)
        explorer = engine.explorer_for()
        assert explorer.predictor is engine.predictor_for()
        # Shared even while empty (StaticProfileCache is falsy at len 0).
        assert explorer._static_cache is engine.static_cache
        points = explorer.explore(
            PROGRAMS["scale"], data=DATA, unroll_factors=(1, 2),
            max_candidates=2,
        )
        assert len(points) == 2
        assert engine.predictor_for().stats.misses > 0


# -- harness routing -------------------------------------------------------


class TestHarnessEngineRouting:
    def test_evaluate_through_engine_matches_direct(self, model):
        from repro.eval import EvaluationHarness, HarnessConfig
        from repro.eval.harness import ModelZoo
        from repro.workloads import linalg_workload

        harness = EvaluationHarness(HarnessConfig(tier="0.5B", train_epochs=1))
        workloads = [linalg_workload("gemm")]
        zoo = ModelZoo(ours=model)
        direct = harness.evaluate(zoo, workloads)
        engine = PredictionEngine()
        routed = harness.evaluate(zoo, workloads, engine=engine)
        name = workloads[0].name
        assert (
            routed.results["ours"][name].predictions
            == direct.results["ours"][name].predictions
        )
        assert engine.stats.requests == 1
        # Second evaluation through the same engine is all cache hits.
        harness.evaluate(zoo, workloads, engine=engine)
        assert engine.stats.result_hits >= 1


# -- HTTP server -----------------------------------------------------------


class TestServer:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["models"] == ["default"]

    def test_predict_parity_over_http(self, client, direct_predictions):
        response = client.predict(PROGRAMS["scale"], data=DATA)
        expected = direct_predictions["scale"]
        assert {m: v["value"] for m, v in response.items()} == expected.as_dict()

    def test_profile_endpoint(self, client):
        costs = client.profile(PROGRAMS["scale"], data=DATA)
        assert set(costs) == {"power", "area", "ff", "cycles"}
        assert costs["cycles"] > 0

    def test_explore_endpoint(self, client):
        response = client.explore(
            PROGRAMS["scale"], data=DATA, unroll=[1, 2], max_candidates=2,
            verify_top=1,
        )
        candidates = response["candidates"]
        assert len(candidates) == 2
        assert candidates[0]["actual"] is not None
        assert candidates[1]["actual"] is None

    def test_stats_endpoint_shape(self, client):
        stats = client.stats()
        for key in ("requests", "result_cache", "encoding_cache",
                    "static_cache", "analysis_cache", "batching", "models"):
            assert key in stats
        assert "size_histogram" in stats["batching"]
        assert set(stats["analysis_cache"]) == {
            "hits", "misses", "evictions", "size", "hit_rate"
        }

    def test_bad_program_is_400_not_traceback(self, client):
        with pytest.raises(ServeError, match="HTTP 400"):
            client.predict("this is not a program")

    def test_unknown_route_404(self, client):
        with pytest.raises(ServeError, match="HTTP 404"):
            client._request("/nope")

    def test_unknown_model_is_400(self, client):
        with pytest.raises(ServeError, match="HTTP 400"):
            client.predict(PROGRAMS["scale"], model="nope")

    def test_hammering_returns_per_request_results(
        self, server, direct_predictions
    ):
        """8 threads × 4 requests over 3 distinct programs: every
        response must match its own program's direct prediction."""
        names = list(PROGRAMS)
        failures = []

        def worker(thread_index):
            client = ServeClient(server.url, timeout_s=120.0)
            for request_index in range(4):
                name = names[(thread_index + request_index) % len(names)]
                response = client.predict(PROGRAMS[name], data=DATA)
                got = {m: v["value"] for m, v in response.items()}
                expected = direct_predictions[name].as_dict()
                if got != expected:
                    failures.append((name, got, expected))

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        # Concurrency actually produced multi-request batches.
        stats = ServeClient(server.url).stats()
        histogram = stats["batching"]["size_histogram"]
        assert sum(histogram.values()) >= 1

    def test_concurrent_identical_requests_count_once(self, server):
        """Two clients send the same unseen program at once: one miss,
        one hit, two requests, whichever path the repeat took."""
        source = PROGRAMS["shift"].replace("1.0", "4.75")
        stats = server.engine.stats
        before = (stats.requests, stats.result_misses, stats.result_hits)
        barrier = threading.Barrier(2)
        answers = []

        def send():
            client = ServeClient(server.url, timeout_s=120.0)
            barrier.wait()
            answers.append(client.predict(source, data=DATA))

        threads = [threading.Thread(target=send) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert len(answers) == 2 and answers[0] == answers[1]
        after = (stats.requests, stats.result_misses, stats.result_hits)
        assert [b - a for a, b in zip(before, after)] == [2, 1, 1]

    def test_concurrent_errors_are_all_counted(self, server, client):
        sent = 8
        before = client.stats()["errors"]
        barrier = threading.Barrier(sent)

        def send():
            barrier.wait()
            with pytest.raises(ServeError, match="HTTP 400"):
                ServeClient(server.url)._request("/predict", {"program": 42})

        threads = [threading.Thread(target=send) for _ in range(sent)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert client.stats()["errors"] - before == sent

    def test_shutdown_drains_inflight_requests(self, model):
        engine = PredictionEngine.from_model(model)
        local = PredictionServer(engine, port=0, max_batch=4).start()
        client = ServeClient(local.url, timeout_s=120.0)
        results = []

        def send():
            results.append(client.predict(PROGRAMS["accum"], data=DATA))

        threads = [threading.Thread(target=send) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.01)  # let requests reach the batcher queue
        local.close()
        for thread in threads:
            thread.join(timeout=60.0)
        assert len(results) == 3

    def test_client_rejects_bad_scheme(self):
        with pytest.raises(ServeError, match="http"):
            ServeClient("ftp://somewhere")

    def test_client_connection_refused_is_serve_error(self):
        client = ServeClient("http://127.0.0.1:9", timeout_s=2.0)
        with pytest.raises(ServeError, match="cannot reach"):
            client.healthz()


# -- CLI remote routing ----------------------------------------------------


class TestCliRemote:
    def test_predict_remote_matches_direct(
        self, server, direct_predictions, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "scale.c"
        path.write_text(PROGRAMS["scale"])
        code = main(
            ["predict", str(path), "--remote", server.url, "--data", "n=8"]
        )
        assert code == 0
        output = json.loads(capsys.readouterr().out)
        values = {metric: entry["value"] for metric, entry in output.items()}
        assert values == direct_predictions["scale"].as_dict()
        # Same output contract as local predict: value + confidence only.
        for entry in output.values():
            assert set(entry) == {"value", "confidence"}

    def test_predict_remote_jsonl(self, server, direct_predictions, tmp_path, capsys):
        from repro.cli import main

        jobs = tmp_path / "jobs.jsonl"
        lines = [
            json.dumps({"source": source, "data": DATA})
            for source in PROGRAMS.values()
        ]
        jobs.write_text("\n".join(lines) + "\n")
        code = main(["predict", "--jsonl", str(jobs), "--remote", server.url])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == len(PROGRAMS)
        for name, row in zip(PROGRAMS, rows):
            values = {
                metric: entry["value"]
                for metric, entry in row["predictions"].items()
            }
            assert values == direct_predictions[name].as_dict()

    def test_predict_remote_down_exits_cleanly(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "scale.c"
        path.write_text(PROGRAMS["scale"])
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", str(path), "--remote", "http://127.0.0.1:9"])
        assert "error:" in str(excinfo.value.code)

    def test_serve_bind_failure_exits_cleanly(self, model, tmp_path):
        from repro.cli import main
        from repro.nn import save_model

        path = tmp_path / "m.npz"
        save_model(model, str(path))
        engine = PredictionEngine.from_model(model)
        holder = PredictionServer(engine, port=0).start()
        try:
            port = holder.address[1]
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", "--model", str(path), "--port", str(port)])
            assert "cannot bind" in str(excinfo.value.code)
        finally:
            holder.close()

    def test_predict_remote_conflicts_with_model_flag(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "scale.c"
        path.write_text(PROGRAMS["scale"])
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", str(path), "--remote", "http://127.0.0.1:9",
                  "--model", "m.npz"])
        assert "--model does not apply" in str(excinfo.value.code)

    def test_serve_rejects_duplicate_model_names(self, model, tmp_path):
        from repro.cli import main
        from repro.nn import save_model

        path = tmp_path / "m.npz"
        save_model(model, str(path))
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--model", str(path), "--model", str(path)])
        assert "duplicate model name" in str(excinfo.value.code)


class TestRequestValidation:
    """Bad request fields fail fast (400) instead of poisoning the
    micro-batch their exception would be shared with."""

    def test_non_dict_data_is_400(self, client):
        with pytest.raises(ServeError, match="HTTP 400"):
            client._request(
                "/predict", {"program": PROGRAMS["scale"], "data": [1, 2]}
            )

    def test_bad_beam_width_is_400(self, client):
        with pytest.raises(ServeError, match="HTTP 400"):
            client._request(
                "/predict",
                {"program": PROGRAMS["scale"], "beam_width": "5"},
            )

    def test_invalidate_drops_stale_caches(self, model):
        engine = PredictionEngine.from_model(model)
        engine.predict(PROGRAMS["scale"], data=DATA)
        assert engine.stats_dict()["result_cache"]["size"] == 1
        engine.invalidate("default")
        stats = engine.stats_dict()
        assert stats["result_cache"]["size"] == 0
        assert stats["encoding_cache"] == {}
