"""Extra acceleration semantics: cache keys and segment visibility."""

import numpy as np

from repro.core import CachedPredictor, CostModel, LLMulatorConfig
from repro.tokenizer import ModelInput


def make_bundle(graph="void dataflow() { }", ops=(), params="p=1", data=""):
    return ModelInput(
        graph_text=graph, op_texts=list(ops), params_text=params, data_text=data
    )


def make_predictor(enabled=True):
    model = CostModel(LLMulatorConfig(tier="0.5B", max_seq_len=128))
    return CachedPredictor(model, enabled=enabled)


class TestCacheKeys:
    def test_params_change_invalidates_everything(self):
        predictor = make_predictor()
        predictor.predict(make_bundle(ops=["void a() { }"], params="p=1"))
        misses = predictor.stats.misses
        predictor.predict(make_bundle(ops=["void a() { }"], params="p=2"))
        assert predictor.stats.misses == misses + 2  # base + op both dirty

    def test_graph_change_invalidates_everything(self):
        predictor = make_predictor()
        predictor.predict(make_bundle(graph="void dataflow() { }", ops=["void a() { }"]))
        misses = predictor.stats.misses
        predictor.predict(
            make_bundle(graph="void dataflow(int x) { }", ops=["void a() { }"])
        )
        assert predictor.stats.misses == misses + 2

    def test_data_change_spares_class_i_ops(self):
        predictor = make_predictor()
        ops = ["void a() { }", "void b() { }"]
        predictor.predict(make_bundle(ops=ops, data="n = 1"), class_i_segments=("op0",))
        misses = predictor.stats.misses
        predictor.predict(make_bundle(ops=ops, data="n = 2"), class_i_segments=("op0",))
        # base + op1 (Class II) recompute; op0 (Class I) hits the cache.
        assert predictor.stats.misses == misses + 2
        assert predictor.stats.hits >= 1

    def test_identical_ops_share_cache_entries(self):
        predictor = make_predictor()
        predictor.predict(make_bundle(ops=["void a() { }", "void a() { }"]))
        # Second op segment has an identical digest: 1 base + 1 op miss,
        # then 1 op hit.
        assert predictor.stats.hits == 1

    def test_clear_resets_cache(self):
        predictor = make_predictor()
        bundle = make_bundle(ops=["void a() { }"])
        predictor.predict(bundle)
        predictor.clear()
        misses = predictor.stats.misses
        predictor.predict(bundle)
        assert predictor.stats.misses == misses + 2

    def test_prediction_value_consistent_between_cache_states(self):
        predictor = make_predictor()
        bundle = make_bundle(ops=["void a() { }"], data="n = 3")
        first = predictor.predict(bundle, metric="cycles")
        second = predictor.predict(bundle, metric="cycles")
        assert first.value == second.value

    def test_hit_rate_monotonic_with_repeats(self):
        predictor = make_predictor()
        bundle = make_bundle(ops=["void a() { }"])
        rates = []
        for _ in range(4):
            predictor.predict(bundle)
            rates.append(predictor.stats.hit_rate)
        assert rates == sorted(rates)


class TestLatencyWindow:
    def test_latencies_stay_bounded(self, monkeypatch):
        from repro.core import acceleration

        assert make_predictor().stats.latencies.maxlen == acceleration.LATENCY_WINDOW
        monkeypatch.setattr(acceleration, "LATENCY_WINDOW", 8)
        predictor = make_predictor()
        bundle = make_bundle(ops=["void a() { }"])
        for _ in range(12):
            predictor.predict(bundle)
        assert len(predictor.stats.latencies) == 8
        assert predictor.stats.last_latency_s == predictor.stats.latencies[-1]
