"""The public ``repro.api`` surface (ISSUE-4).

Covers the redesign's acceptance gates: codec round-trips with a loud
schema-version mismatch, the falsy-cache regression, value-parity of
the :class:`Session` facade against every pre-redesign path (direct
``predict_costs``, direct :class:`Profiler`, direct
:class:`DesignSpaceExplorer`, harness batched evaluation), and the
:class:`Predictor` protocol holding for both the local session and the
remote :class:`ServeClient`.
"""

import dataclasses
import json

import pytest

from repro.api import (
    SCHEMA_VERSION,
    CodecError,
    DesignChoice,
    ExploreJob,
    ExploreReport,
    MetricPrediction,
    PredictJob,
    Prediction,
    Predictor,
    ProfileJob,
    ProfileReport,
    Session,
    dumps,
    from_payload,
    loads,
    predict_jobs_from_jsonl,
    to_payload,
)
from repro.core import (
    CostModel,
    DesignSpaceExplorer,
    LLMulatorConfig,
    bundle_from_program,
    class_i_segments,
)
from repro.errors import ReproError, ServeError
from repro.hls import HardwareParams
from repro.profiler import Profiler, StaticProfileCache
from repro.serve import PredictionEngine, PredictionServer, ServeClient

PROGRAM = """
void scale(float a[8], float b[8], int n) {
  for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0; }
}
void dataflow(float a[8], float b[8], int n) { scale(a, b, n); }
"""
UNICODE_PROGRAM = PROGRAM + "// naïve Δ-kernel — тест 例 ✓\n"
DATA = {"n": 8}


@pytest.fixture(scope="module")
def model():
    return CostModel(LLMulatorConfig(tier="0.5B", seed=0))


@pytest.fixture(scope="module")
def session(model):
    return Session.from_model(model)


@pytest.fixture(scope="module")
def server(model):
    server = PredictionServer(
        session=Session.from_model(model), port=0, max_batch=4
    ).start()
    yield server
    server.close()


# -- codec -----------------------------------------------------------------


class TestCodecRoundTrip:
    CASES = [
        PredictJob(
            source=UNICODE_PROGRAM,
            data={"n": 8, "α": 2},
            params=HardwareParams(mem_read_delay=5, mem_write_delay=7, pe_count=2),
            model="zoo-a",
            beam_width=4,
            label="prog.c",
        ),
        PredictJob(source=PROGRAM),  # empty data / default everything
        ProfileJob(
            source=UNICODE_PROGRAM,
            data={"n": 4},
            params=HardwareParams(mem_read_delay=2, mem_write_delay=2),
            seed=3,
            max_steps=123_456,
            backend="interp",
            label="p",
        ),
        ProfileJob(source=PROGRAM),
        ExploreJob(
            source=UNICODE_PROGRAM,
            data={"n": 8},
            unroll_factors=(1, 2, 8),
            memory_delays=(5, 10),
            max_candidates=7,
            verify_top=2,
            model="zoo-b",
            label="e",
        ),
        ExploreJob(source=PROGRAM),
        Prediction(
            metrics={
                "cycles": MetricPrediction(
                    value=120, confidence=0.25, beam_values=(120, 118, 140)
                ),
                "area": MetricPrediction(value=3, confidence=0.5),
            },
            model="default",
            label="prog.c",
        ),
        Prediction(),  # empty metrics edge case
        ProfileReport(costs={"cycles": 9, "area": 2}, rtl_think="⟨think⟩", label="x"),
        ProfileReport(),
        ExploreReport(
            candidates=(
                DesignChoice(
                    design="mem=10 scale#L0:unroll2",
                    predicted={"cycles": 11, "area": 5},
                    score=55.0,
                    actual={"cycles": 12},
                ),
                DesignChoice(design="baseline"),
            ),
            model="default",
            cache_stats={"hits": 1, "misses": 2},
        ),
        ExploreReport(),
    ]

    @pytest.mark.parametrize("obj", CASES, ids=lambda o: type(o).__name__)
    def test_round_trip_value_identical(self, obj):
        restored = from_payload(to_payload(obj))
        assert restored == obj

    @pytest.mark.parametrize("obj", CASES, ids=lambda o: type(o).__name__)
    def test_json_text_round_trip(self, obj):
        # Through actual JSON text (what the wire carries), not just dicts.
        assert loads(dumps(obj)) == obj

    def test_payload_is_plain_json(self):
        payload = to_payload(self.CASES[0])
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["kind"] == "predict_job"
        json.dumps(payload)  # no dataclasses/tuples leaking through


class TestCodecFailsLoudly:
    def test_schema_version_mismatch(self):
        payload = to_payload(PredictJob(source=PROGRAM))
        payload["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(CodecError, match="unsupported schema version"):
            from_payload(payload)

    def test_missing_schema_rejected(self):
        with pytest.raises(CodecError, match="no 'schema' field"):
            from_payload({"kind": "predict_job", "program": PROGRAM})

    def test_unknown_kind_rejected(self):
        with pytest.raises(CodecError, match="unknown payload kind"):
            from_payload({"schema": SCHEMA_VERSION, "kind": "mystery"})

    def test_expect_mismatch_rejected(self):
        payload = to_payload(PredictJob(source=PROGRAM))
        with pytest.raises(CodecError, match="expected a 'prediction'"):
            from_payload(payload, expect="prediction")

    def test_non_object_rejected(self):
        with pytest.raises(CodecError):
            from_payload([1, 2, 3])

    def test_malformed_field_rejected(self):
        payload = to_payload(PredictJob(source=PROGRAM))
        payload["program"] = 7
        with pytest.raises(CodecError, match="'program'"):
            from_payload(payload)

    def test_unknown_params_field_rejected(self):
        payload = to_payload(PredictJob(source=PROGRAM))
        payload["params"] = {"warp_speed": 9}
        with pytest.raises(CodecError, match="unknown params fields"):
            from_payload(payload)

    def test_non_integer_max_steps_rejected(self):
        payload = to_payload(ProfileJob(source=PROGRAM))
        payload["max_steps"] = "50000"
        with pytest.raises(CodecError, match="'max_steps'"):
            from_payload(payload)

    def test_explicit_falsy_explore_fields_round_trip(self):
        # Empty sweeps / zero budgets must not decode to the defaults.
        job = ExploreJob(
            source=PROGRAM, unroll_factors=(), memory_delays=(),
            max_candidates=0, verify_top=0,
        )
        assert from_payload(to_payload(job)) == job


class TestJsonlJobs:
    def test_program_and_source_records(self, tmp_path):
        prog = tmp_path / "prog.c"
        prog.write_text(PROGRAM)
        path = tmp_path / "jobs.jsonl"
        path.write_text(
            json.dumps({"program": str(prog), "data": {"n": 4}})
            + "\n\n"  # blank lines are skipped
            + json.dumps({"source": UNICODE_PROGRAM})
            + "\n"
        )
        jobs = predict_jobs_from_jsonl(str(path), params=HardwareParams(pe_count=2))
        assert [job.label for job in jobs] == [str(prog), f"{path}:3"]
        assert jobs[0].data == {"n": 4}
        assert jobs[1].data is None
        assert jobs[1].source == UNICODE_PROGRAM
        assert all(job.params.pe_count == 2 for job in jobs)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(CodecError, match="no records"):
            predict_jobs_from_jsonl(str(path))


# -- falsy-cache regression (satellite) ------------------------------------


class TestFalsyCacheInjection:
    def test_empty_static_cache_survives_engine_injection(self):
        cache = StaticProfileCache()
        assert not cache  # the trap: empty caches are falsy
        engine = PredictionEngine(static_cache=cache)
        assert engine.static_cache is cache
        engine.profile(PROGRAM, data=DATA)
        assert len(cache) == 1  # the injected object actually got used

    def test_empty_caches_survive_explorer_injection(self, model):
        from repro.core.acceleration import CachedPredictor

        predictor = CachedPredictor(model, mode="exact")
        static_cache = StaticProfileCache()
        assert not predictor and not static_cache
        explorer = DesignSpaceExplorer(
            model, predictor=predictor, static_cache=static_cache
        )
        assert explorer.predictor is predictor
        assert explorer._static_cache is static_cache

    def test_session_shares_engine_static_cache(self, model):
        cache = StaticProfileCache()
        engine = PredictionEngine.from_model(model)
        engine.static_cache = cache
        session = Session(engine=engine)
        session.profile(ProfileJob(source=PROGRAM, data=DATA))
        assert len(cache) == 1


class TestAnalysisCacheStats:
    def test_session_stats_surface_analysis_cache_counters(self, session):
        from repro.analysis.cache import GLOBAL_ANALYSIS_CACHE

        GLOBAL_ANALYSIS_CACHE.clear()
        stats = session.stats()["analysis_cache"]
        assert stats == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0, "hit_rate": 0.0
        }
        # Ingestion boundary: first validate misses, repeat hits.
        from repro.api import validate_source

        validate_source(PROGRAM)
        validate_source(PROGRAM)
        stats = session.stats()["analysis_cache"]
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["size"] == 1
        assert stats["hit_rate"] == 0.5


# -- Session parity against the pre-redesign paths -------------------------


class TestSessionPredictParity:
    def test_predict_job_matches_direct_predict_costs(self, model, session):
        direct = model.predict_costs(
            bundle_from_program(PROGRAM, data=DATA),
            class_i_segments=class_i_segments(PROGRAM),
        )
        prediction = session.predict_job(PredictJob(source=PROGRAM, data=DATA))
        assert isinstance(prediction, Prediction)
        assert prediction.as_dict() == direct.as_dict()
        for metric, pred in direct.per_metric.items():
            assert prediction.metrics[metric].confidence == pytest.approx(
                pred.confidence
            )
            assert prediction.metrics[metric].beam_values == tuple(pred.beam_values)

    def test_predict_jobs_batch_matches_singles(self, session):
        jobs = [
            PredictJob(source=PROGRAM, data={"n": n}, label=f"n={n}")
            for n in (2, 4, 8)
        ]
        batched = session.predict_jobs(jobs)
        singles = [session.predict_job(job) for job in jobs]
        assert [p.as_dict() for p in batched] == [p.as_dict() for p in singles]
        assert [p.label for p in batched] == ["n=2", "n=4", "n=8"]

    def test_lazy_checkpoint_failure_is_one_line_repro_error(self, tmp_path):
        session = Session(models={"default": str(tmp_path / "missing.npz")})
        with pytest.raises(ServeError) as excinfo:
            session.predict_job(PredictJob(source=PROGRAM))
        assert "\n" not in str(excinfo.value)


class TestSessionProfileParity:
    def test_profile_matches_direct_profiler(self, session):
        import numpy as np

        params = HardwareParams(mem_read_delay=5, mem_write_delay=5)
        direct = Profiler(params).profile(
            PROGRAM, data=DATA, rng=np.random.default_rng(7)
        )
        report = session.profile(
            ProfileJob(source=PROGRAM, data=DATA, params=params, seed=7)
        )
        assert report.as_dict() == direct.costs.as_dict()
        assert report.rtl_think == direct.rtl.think_text()


class TestSessionExploreParity:
    def test_explore_matches_direct_explorer(self, model, session):
        direct = DesignSpaceExplorer(model)
        points = direct.explore(
            PROGRAM,
            data=DATA,
            unroll_factors=(1, 2),
            memory_delays=(10,),
            max_candidates=4,
        )
        direct.verify_top(points, top_k=1, data=DATA)
        report = session.explore(
            ExploreJob(
                source=PROGRAM,
                data=DATA,
                unroll_factors=(1, 2),
                memory_delays=(10,),
                max_candidates=4,
                verify_top=1,
            )
        )
        assert [c.design for c in report.candidates] == [
            p.describe() for p in points
        ]
        assert [dict(c.predicted) for c in report.candidates] == [
            p.predicted for p in points
        ]
        assert dict(report.candidates[0].actual) == points[0].actual
        assert all(c.actual is None for c in report.candidates[1:])


class TestHarnessSessionRouting:
    def test_evaluate_through_session_matches_direct(self, model):
        from repro.eval import EvaluationHarness, HarnessConfig
        from repro.eval.harness import ModelZoo
        from repro.workloads import linalg_workload

        harness = EvaluationHarness(HarnessConfig(tier="0.5B", train_epochs=1))
        workloads = [linalg_workload("gemm")]
        zoo = ModelZoo(ours=model)
        direct = harness.evaluate(zoo, workloads)
        session = Session()
        routed = harness.evaluate(zoo, workloads, session=session)
        name = workloads[0].name
        assert (
            routed.results["ours"][name].predictions
            == direct.results["ours"][name].predictions
        )
        assert (
            routed.results["ours"][name].beam_values
            == direct.results["ours"][name].beam_values
        )
        assert session.engine.stats.requests == 1


# -- the Predictor protocol -------------------------------------------------


class TestPredictorProtocol:
    def test_session_and_client_are_predictors(self, session):
        assert isinstance(session, Predictor)
        assert isinstance(ServeClient("http://127.0.0.1:1"), Predictor)

    def test_remote_matches_local(self, server, session):
        client = ServeClient(server.url, timeout_s=120.0)
        jobs = [
            PredictJob(source=PROGRAM, data={"n": n}, label=f"n={n}")
            for n in (4, 8)
        ]
        remote = client.predict_jobs(jobs)
        local = session.predict_jobs(jobs)
        assert [p.as_dict() for p in remote] == [p.as_dict() for p in local]
        assert [p.label for p in remote] == [p.label for p in local]
        for r, l in zip(remote, local):
            for metric in r.metrics:
                assert r.metrics[metric].confidence == pytest.approx(
                    l.metrics[metric].confidence
                )
                assert r.metrics[metric].beam_values == l.metrics[metric].beam_values

    def test_remote_params_round_trip(self, server, session):
        params = HardwareParams(mem_read_delay=3, mem_write_delay=3, pe_count=2)
        job = PredictJob(source=PROGRAM, data=DATA, params=params)
        client = ServeClient(server.url, timeout_s=120.0)
        assert client.predict_job(job).as_dict() == session.predict_job(job).as_dict()

    def test_remote_bad_program_is_one_line_serve_error(self, server):
        client = ServeClient(server.url, timeout_s=120.0)
        with pytest.raises(ServeError) as excinfo:
            client.predict_job(PredictJob(source="   "))
        assert "\n" not in str(excinfo.value)

    def test_server_rejects_schema_mismatch_loudly(self, server):
        client = ServeClient(server.url, timeout_s=120.0)
        payload = to_payload(PredictJob(source=PROGRAM))
        payload["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ServeError, match="unsupported schema version"):
            client._request("/predict", payload)

    def test_versioned_empty_program_is_clean_400(self, server):
        client = ServeClient(server.url, timeout_s=120.0)
        for job in (ProfileJob(source="  "), ExploreJob(source="  ")):
            path = "/profile" if isinstance(job, ProfileJob) else "/explore"
            with pytest.raises(ServeError, match="HTTP 400.*non-empty"):
                client._request(path, to_payload(job))

    def test_versioned_profile_max_steps_is_capped_not_trusted(self, server):
        # The server's per-request simulation budget is a ceiling;
        # a client asking for an absurd budget still completes under it.
        client = ServeClient(server.url, timeout_s=120.0)
        payload = to_payload(
            ProfileJob(source=PROGRAM, data=DATA, max_steps=10**12)
        )
        report = from_payload(
            client._request("/profile", payload), expect="profile_report"
        )
        assert report.as_dict() == client.profile(PROGRAM, data=DATA)

    def test_engine_only_server_keeps_default_model_contract(self, model):
        # A multi-model registry with no checkpoint named "default" must
        # reject default-routed requests, not pick one by sort order.
        engine = PredictionEngine.from_model(model, name="alpha")
        engine.registry.register("beta", model=model, tier=model.config.tier)
        server = PredictionServer(engine, port=0).start()
        try:
            client = ServeClient(server.url, timeout_s=60.0)
            with pytest.raises(ServeError, match="unknown model 'default'"):
                client.predict(PROGRAM, data=DATA)
            assert client.predict(PROGRAM, data=DATA, model="alpha")
            # Legacy /explore must honor an explicit model the same way.
            explored = client.explore(
                PROGRAM, data=DATA, model="beta", unroll=[1], max_candidates=1
            )
            assert explored["model"] == "beta"
            with pytest.raises(ServeError, match="unknown model 'default'"):
                client.explore(PROGRAM, data=DATA, unroll=[1], max_candidates=1)
        finally:
            server.close()

    def test_versioned_profile_and_explore_roundtrip(self, server):
        client = ServeClient(server.url, timeout_s=120.0)
        profile_payload = client._request(
            "/profile", to_payload(ProfileJob(source=PROGRAM, data=DATA))
        )
        report = from_payload(profile_payload, expect="profile_report")
        assert report.as_dict() == client.profile(PROGRAM, data=DATA)
        explore_payload = client._request(
            "/explore",
            to_payload(
                ExploreJob(
                    source=PROGRAM, data=DATA, unroll_factors=(1, 2),
                    max_candidates=2,
                )
            ),
        )
        explore_report = from_payload(explore_payload, expect="explore_report")
        legacy = client.explore(
            PROGRAM, data=DATA, unroll=[1, 2], max_candidates=2
        )
        assert [c.design for c in explore_report.candidates] == [
            row["design"] for row in legacy["candidates"]
        ]


# -- CLI error-format parity (satellite) ------------------------------------


class TestCliErrorParity:
    """``predict`` local vs ``predict --remote``: the same failure must
    produce the same one-line ``error:`` format and the same exit
    behaviour (SystemExit with a string code)."""

    def _error_of(self, argv):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        code = excinfo.value.code
        assert isinstance(code, str) and code.startswith("error:")
        assert "\n" not in code
        return code

    def test_bad_program_file_identical_message(self, tmp_path):
        local = self._error_of(
            ["predict", "/does/not/exist.c", "--model", str(tmp_path / "m.npz")]
        )
        remote = self._error_of(
            ["predict", "/does/not/exist.c", "--remote", "http://127.0.0.1:9"]
        )
        assert local == remote

    def test_bad_data_identical_message(self, tmp_path, server):
        prog = tmp_path / "p.c"
        prog.write_text(PROGRAM)
        local = self._error_of(
            ["predict", str(prog), "--model", str(tmp_path / "m.npz"),
             "--data", "n=abc"]
        )
        remote = self._error_of(
            ["predict", str(prog), "--remote", server.url, "--data", "n=abc"]
        )
        assert local == remote

    def test_unreachable_backend_one_line_both_ways(self, tmp_path):
        prog = tmp_path / "p.c"
        prog.write_text(PROGRAM)
        # Local: missing checkpoint.  Remote: unreachable server.  Both
        # must fail with the shared format (prefix checked in _error_of).
        self._error_of(["predict", str(prog), "--model", str(tmp_path / "m.npz")])
        self._error_of(["predict", str(prog), "--remote", "http://127.0.0.1:9"])


# -- frozen-ness ------------------------------------------------------------


class TestFrozenTypes:
    @pytest.mark.parametrize(
        "obj",
        [
            PredictJob(source=PROGRAM),
            ProfileJob(source=PROGRAM),
            ExploreJob(source=PROGRAM),
            Prediction(),
            ProfileReport(),
            ExploreReport(),
        ],
        ids=lambda o: type(o).__name__,
    )
    def test_jobs_and_results_are_frozen(self, obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.source = "mutated"  # type: ignore[misc]
