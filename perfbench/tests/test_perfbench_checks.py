"""The benchmark's output checks must be able to fail: each is given
outputs with one wrong value (a changed digit, a changed cycle count)
and has to report it, both on hand-made cost vectors and on the real
check paths the workloads run after measuring."""

import copy
import dataclasses
import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import checks, corpus  # noqa: E402

COSTS = {"power": 1834, "area": 52210, "ff": 96, "cycles": 4410}


def changed(costs, metric, value):
    out = dict(costs)
    out[metric] = value
    return out


def test_matches_catches_a_changed_digit():
    reference = {"a": COSTS, "b": changed(COSTS, "cycles", 912)}
    produced = [("a", dict(COSTS)), ("b", changed(COSTS, "cycles", 912))]
    assert checks.matches("p", produced, reference) == []
    produced[1] = ("b", changed(COSTS, "cycles", 913))
    assert len(checks.matches("p", produced, reference)) == 1


def test_static_identical_catches_a_changed_static_metric():
    rows = [("k", COSTS), ("k", changed(COSTS, "cycles", 17)), ("j", changed(COSTS, "area", 1))]
    assert checks.static_identical("p", rows) == []
    rows.append(("k", changed(COSTS, "power", 1835)))
    assert len(checks.static_identical("p", rows)) == 1


def test_cycles_positive_catches_zero_cycles():
    assert checks.cycles_positive("p", [(0, COSTS)]) == []
    assert len(checks.cycles_positive("p", [(0, COSTS), (1, changed(COSTS, "cycles", 0))])) == 1


def test_agree_across_passes_catches_a_changed_cycle_count():
    passes = [[COSTS, COSTS], [COSTS, COSTS]]
    assert checks.agree_across_passes("p", passes) == []
    passes.append([COSTS, changed(COSTS, "cycles", 4411)])
    assert checks.agree_across_passes("p", passes) == ["p: pass 2 differs from pass 0"]


def test_cell_best_catches_a_wrong_minimum():
    records = [
        {"cell": "c1", "actual": COSTS},
        {"cell": "c1", "actual": changed(COSTS, "cycles", 100)},
        {"cell": "c2", "actual": COSTS},
    ]
    objective_of = {"c1": "energy_delay", "c2": "area_delay"}
    reported = {"c1": 100.0 * COSTS["power"], "c2": float(COSTS["cycles"] * COSTS["area"])}
    assert checks.cell_best(reported, records, objective_of) == []
    records[1] = {"cell": "c1", "actual": changed(COSTS, "cycles", 101)}
    assert len(checks.cell_best(reported, records, objective_of)) == 1


def test_draws_depend_only_on_the_seed():
    data = corpus.load()
    assert corpus.serve_cold(data, 3) == corpus.serve_cold(data, 3)
    assert corpus.serve_cold(data, 3) != corpus.serve_cold(data, 4)
    cold = corpus.serve_cold(data, 3)
    assert len({request.program for request in cold}) == corpus.SERVE_COLD_REQUESTS
    shares = [corpus.repeat_shares(sum(corpus.serve_repeat(data, seed), [])) for seed in (1, 2)]
    # The mix is fixed by the corpus; only its order depends on the seed.
    assert shares[0]["exact_repeat"] == shares[1]["exact_repeat"]


# -- the workloads' own check paths on real outputs ----------------------


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    from perfbench import workloads

    return workloads.Context(corpus.load(), 0, 1.0, str(tmp_path_factory.mktemp("work")))


def test_served_check_catches_a_changed_digit(ctx):
    from perfbench import workloads

    requests = [
        corpus.Request("gemm", 0, (("ni", 8),)),
        corpus.Request("gemm", 0, (("ni", 4),)),
    ]
    session = workloads.build_session(ctx, first=True)
    served = [
        (r, session.predict_job(workloads.predict_job(ctx, r)).as_dict()) for r in requests
    ]
    assert workloads._check_served(ctx, served) == []
    wrong = copy.deepcopy(served)
    wrong[1][1]["cycles"] += 10
    assert len(workloads._check_served(ctx, wrong)) == 1
    wrong = copy.deepcopy(served)
    wrong[1][1]["power"] += 1  # also breaks the static/dynamic split
    assert len(workloads._check_served(ctx, wrong)) == 2


def test_profile_check_catches_a_changed_cycle_count(ctx):
    from repro.api import ProfileJob

    from perfbench import workloads

    requests = [corpus.Request("jacobi-2d", 1, (("tsteps", t),), seed=5) for t in (1, 2)]
    session = workloads.build_session(ctx, first=False, model=False)
    outputs = [
        dict(
            session.profile(
                ProfileJob(
                    source=ctx.source(r), data=r.data_dict(), params=ctx.hardware(r.hardware), seed=r.seed
                )
            ).costs
        )
        for r in requests
    ]
    assert workloads._check_profiles(ctx, requests, [outputs, outputs]) == []
    wrong = copy.deepcopy(outputs)
    wrong[0]["cycles"] += 1
    wrong[1]["cycles"] += 1  # whichever variant the check re-profiles
    assert workloads._check_profiles(ctx, requests, [wrong])
    assert workloads._check_profiles(ctx, requests, [outputs, wrong])


def test_campaign_check_catches_a_changed_cycle_count(ctx, monkeypatch):
    from repro.campaign import CampaignJournal, CampaignRunner

    from perfbench import workloads

    monkeypatch.setattr(corpus, "DSE_KERNELS", ("2mm",))
    spec = workloads.dse_spec(ctx)
    spec = dataclasses.replace(spec, strategies=("random",), budget=2)
    journal = os.path.join(ctx.work_dir, "campaign.jsonl")
    CampaignRunner(spec, journal, predictor=workloads.build_session(ctx, first=False)).run(overwrite=True)
    records = CampaignJournal.read_records(journal)[1:]
    assert workloads._check_campaign(ctx, spec, journal, records) == []
    wrong = copy.deepcopy(records)
    wrong[0]["actual"]["cycles"] = 1  # now the cell's best, unlike the report's
    failures = workloads._check_campaign(ctx, spec, journal, wrong)
    assert any("journaled evaluation" in f for f in failures)
    assert any(f.startswith("cell ") for f in failures)


def test_tracer_reports_every_layer_but_never_a_deleted_or_silent_one_as_free(monkeypatch):
    from perfbench import layers

    gone = ("lang.gone", "repro.lang.parser", "Parser.gone")
    monkeypatch.setattr(layers, "SPANS", layers.SPANS + (gone,))
    monkeypatch.setattr(layers, "MS_METRICS", layers.MS_METRICS + ("lang.gone",))
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        from repro.lang import parse

        tracer.active = True
        tracer.begin_op()
        parse("void dataflow(int n) { }")
        tracer.active = False
    finally:
        tracer.uninstall()
    assert "repro.lang.parser.Parser.gone" in tracer.missing
    metrics = tracer.metrics(ops=1, workload="serve_cold")
    assert metrics["lang.parse_calls"] == (1.0, "count")
    assert metrics["lang.parse_ms"][0] > 0 and metrics["lang.lex_ms"][0] > 0
    # A layer whose entry point is gone is absent, never reported as free.
    assert "lang.gone_ms" not in metrics and "lang.gone_ms" in tracer.absent
    # So is one that never fired on a workload that must reach it ...
    assert "tokenizer.encode_ms" not in metrics and "nn.encode_ms" in tracer.absent
    # ... while a layer the workload bypasses by design reads 0.
    assert metrics["sim.run_ms"] == (0.0, "ms") and metrics["campaign.journal_ms"] == (0.0, "ms")
    bypassing = tracer.metrics(ops=1, workload="profile_sweep")
    assert bypassing["tokenizer.encode_ms"] == (0.0, "ms")
    assert "sim.run_ms" not in bypassing and "sim.ops_per_ms" in tracer.absent
