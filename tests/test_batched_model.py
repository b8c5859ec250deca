"""Batched model substrate: single/batched parity and trainer fixes.

The batched execution path (vectorized attention, ``encode_batch``,
``loss_batch``, ``predict_costs_batch``, mini-batch training) must
reproduce the single-example path exactly: same predictions, encodings
and losses within float tolerance, across batch sizes, mixed sequence
lengths and separation masks.  Plus regression tests for the trainer's
applied-LR sequence, the truncation-pooling clamp and the epoch-loss
denominator.
"""

import numpy as np
import pytest

from repro.core import (
    CostModel,
    LLMulatorConfig,
    TrainingConfig,
    TrainingExample,
    bundle_from_program,
    train_cost_model,
)
from repro.errors import ModelConfigError
from repro.nn import AdamW, MultiHeadSelfAttention, Tensor
from repro.nn.schedulers import WarmupCosine

SHORT_SOURCE = """
void op(float a[4], int n) {
  for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
}
void dataflow(float a[4], int n) { op(a, n); }
"""

LONG_SOURCE = """
void transpose(float a[8][8], float b[8][8]) {
  for (int i = 0; i < 8; i++) {
    for (int j = 0; j < 8; j++) {
      b[j][i] = a[i][j];
    }
  }
}

void threshold(float a[8][8], float b[8][8], int n) {
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < 8; j++) {
      if (a[i][j] > 0.0) {
        b[i][j] = a[i][j];
      }
    }
  }
}

void dataflow(float a[8][8], float b[8][8], float c[8][8], int n) {
  transpose(a, b);
  threshold(b, c, n);
}
"""


@pytest.fixture(scope="module")
def model():
    return CostModel(LLMulatorConfig(tier="0.5B", max_seq_len=256, seed=3))


def mixed_bundles(count):
    """Bundles with mixed sequence lengths, some with data segments."""
    pool = [
        (bundle_from_program(SHORT_SOURCE, data={"n": 4}), ["op0"]),
        (bundle_from_program(LONG_SOURCE, data={"n": 6}), ["op0"]),
        (bundle_from_program(SHORT_SOURCE), None),
        (bundle_from_program(LONG_SOURCE, data={"n": 2}), None),
        (bundle_from_program(LONG_SOURCE), ["op0"]),
    ]
    picked = [pool[i % len(pool)] for i in range(count)]
    return [b for b, _ in picked], [s for _, s in picked]


class TestBatchedAttention:
    def test_batched_matches_per_sequence(self):
        rng = np.random.default_rng(0)
        attn = MultiHeadSelfAttention(16, 4, rng=rng)
        x = rng.standard_normal((3, 6, 16))
        batched = attn(Tensor(x)).data
        for row in range(3):
            single = attn(Tensor(x[row])).data
            assert np.allclose(batched[row], single, atol=1e-9)

    def test_per_example_masks(self):
        rng = np.random.default_rng(1)
        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        x = rng.standard_normal((2, 4, 8))
        masks = np.zeros((2, 4, 4))
        masks[1, 0, 2] = -1e9
        batched = attn(Tensor(x), mask=masks).data
        for row in range(2):
            single = attn(Tensor(x[row]), mask=masks[row]).data
            assert np.allclose(batched[row], single, atol=1e-9)

    def test_gradients_flow_through_batched_forward(self):
        rng = np.random.default_rng(2)
        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        out = attn(Tensor(rng.standard_normal((2, 4, 8))))
        out.sum().backward()
        assert attn.q_proj.weight.grad is not None


class TestEncoderPoolBatch:
    def test_pool_batch_matches_per_sequence_pool(self, model):
        """Padding-aware pooling equals each sequence's unpadded pool."""
        encoder = model.encoder
        rng = np.random.default_rng(4)
        rows = [rng.integers(0, 50, size=n) for n in (9, 5)]
        seq = max(len(r) for r in rows)
        ids = np.zeros((2, seq), dtype=np.int64)
        padding = np.zeros((2, seq))
        for i, row in enumerate(rows):
            ids[i, : len(row)] = row
            padding[i, : len(row)] = 1.0
        pooled = encoder.pool_batch(
            encoder.encode_batch(ids, padding_mask=padding), padding_mask=padding
        ).data
        for i, row in enumerate(rows):
            single = encoder.pool(encoder.encode(row)).data
            assert np.allclose(pooled[i], single, atol=1e-9)


class TestEncodeParity:
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_encode_batch_matches_single(self, model, batch_size):
        bundles, segments = mixed_bundles(batch_size)
        batched = model.encode_batch(bundles, segments).data
        assert batched.shape[0] == batch_size
        for row, (bundle, segs) in enumerate(zip(bundles, segments)):
            single = model.encode(bundle, segs).data
            assert np.allclose(batched[row], single, atol=1e-9)

    def test_shared_segment_broadcast(self, model):
        bundles = [bundle_from_program(LONG_SOURCE, data={"n": n}) for n in (2, 5)]
        batched = model.encode_batch(bundles, ["op0"]).data
        for row, bundle in enumerate(bundles):
            single = model.encode(bundle, ["op0"]).data
            assert np.allclose(batched[row], single, atol=1e-9)

    def test_segment_count_mismatch_rejected(self, model):
        bundles, _ = mixed_bundles(3)
        with pytest.raises(ModelConfigError):
            model.encode_batch(bundles, [["op0"], None])

    def test_gradients_flow_through_encode_batch(self):
        local = CostModel(LLMulatorConfig(tier="0.5B", max_seq_len=128))
        bundles, segments = mixed_bundles(3)
        local.encode_batch(bundles, segments).sum().backward()
        assert local.encoder.token_embedding.weight.grad is not None


class TestEncodeChunking:
    def test_length_bucketing_respects_score_budget(self, model, monkeypatch):
        """``encode_batch`` buckets every batched encode, served flushes
        included: it splits mixed-length bundles so that each chunk's
        score tensor (chunk × heads × padded length²) stays within
        ``_SCORE_BUDGET``.  A chunk of one bundle is exempt."""
        chunks = []
        padded = model._encode_batch_padded

        def spy(tokenized, masks, lengths):
            chunks.append(list(lengths))
            return padded(tokenized, masks, lengths)

        monkeypatch.setattr(model, "_encode_batch_padded", spy)
        bundles, segments = mixed_bundles(8)
        model.encode_batch(bundles, segments)
        limit = model.encoder.config.max_seq_len
        lengths = [min(len(model.tokenize(bundle)), limit) for bundle in bundles]
        assert len(set(lengths)) > 1 and len(chunks) > 1
        assert sorted(n for chunk in chunks for n in chunk) == sorted(lengths)
        heads = model.encoder.config.heads
        for chunk in chunks:
            if len(chunk) > 1:
                assert len(chunk) * heads * max(chunk) ** 2 <= model._SCORE_BUDGET


class TestLossParity:
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_loss_batch_matches_single(self, model, batch_size):
        bundles, segments = mixed_bundles(batch_size)
        targets = [
            {"cycles": 40 + i, "area": 11, "ff": 3, "power": 9}
            for i in range(batch_size)
        ]
        batched = model.loss_batch(bundles, targets, segments).data
        singles = [
            float(model.loss(bundle, target, segs).data)
            for bundle, target, segs in zip(bundles, targets, segments)
        ]
        assert np.allclose(batched, singles, atol=1e-9)

    def test_partial_metric_subsets(self, model):
        bundles, segments = mixed_bundles(3)
        targets = [{"cycles": 10}, {"area": 7, "ff": 2}, {"power": 5, "cycles": 3}]
        batched = model.loss_batch(bundles, targets, segments).data
        singles = [
            float(model.loss(bundle, target, segs).data)
            for bundle, target, segs in zip(bundles, targets, segments)
        ]
        assert np.allclose(batched, singles, atol=1e-9)

    def test_unknown_metric_rejected(self, model):
        bundles, segments = mixed_bundles(1)
        with pytest.raises(ModelConfigError):
            model.loss_batch(bundles, [{"latency": 1}], segments)


class TestPredictParity:
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_predict_costs_batch_identical(self, model, batch_size):
        bundles, segments = mixed_bundles(batch_size)
        batched = model.predict_costs_batch(
            bundles, class_i_segments=segments, beam_width=5
        )
        for bundle, segs, batch_pred in zip(bundles, segments, batched):
            single = model.predict_costs(bundle, class_i_segments=segs, beam_width=5)
            assert single.as_dict() == batch_pred.as_dict()
            for metric in single.per_metric:
                assert (
                    single.per_metric[metric].beam_values
                    == batch_pred.per_metric[metric].beam_values
                )
                assert single.confidence(metric) == pytest.approx(
                    batch_pred.confidence(metric), abs=1e-9
                )

    def test_empty_batch(self, model):
        assert model.predict_costs_batch([]) == []


class TestTruncationPooling:
    def test_straddling_segment_keeps_surviving_prefix(self):
        """A params/data segment cut by truncation must still emphasize
        its surviving prefix instead of being dropped (seed bug)."""
        model = CostModel(LLMulatorConfig(tier="0.5B", max_seq_len=64, seed=1))
        # Let the tokenizer keep more tokens than the encoder accepts, so
        # a segment straddles the encoder's truncation point.
        model.tokenizer.max_length = 4096
        data = {f"v{i}": i + 1 for i in range(40)}
        bundle = bundle_from_program(SHORT_SOURCE, data=data)
        tokenized = model.tokenize(bundle)
        data_slice = tokenized.segment_slices["data"]
        limit = model.encoder.config.max_seq_len
        assert data_slice.start < limit < data_slice.stop  # straddles
        pooled = model.encode(bundle).data
        hidden = model.encoder.encode(tokenized.ids).data
        expected = hidden.mean(axis=0)
        for segment in ("params", "data"):
            segment_slice = tokenized.segment_slices[segment]
            stop = min(segment_slice.stop, limit)
            expected = expected + hidden[segment_slice.start : stop].mean(axis=0)
        assert np.allclose(pooled, expected, atol=1e-9)
        # And the emphasis actually contributes (the seed behavior —
        # dropping the straddling data segment — would differ).
        without_data = hidden.mean(axis=0) + hidden[
            tokenized.segment_slices["params"]
        ].mean(axis=0)
        assert not np.allclose(pooled, without_data, atol=1e-9)

    def test_batched_truncation_matches_single(self):
        model = CostModel(LLMulatorConfig(tier="0.5B", max_seq_len=64, seed=1))
        model.tokenizer.max_length = 4096
        bundles = [
            bundle_from_program(SHORT_SOURCE, data={f"v{i}": i for i in range(30)}),
            bundle_from_program(SHORT_SOURCE, data={"n": 2}),
        ]
        batched = model.encode_batch(bundles).data
        for row, bundle in enumerate(bundles):
            assert np.allclose(batched[row], model.encode(bundle).data, atol=1e-9)


def quick_examples(count=3):
    examples = []
    for i in range(count):
        examples.append(
            TrainingExample(
                bundle=bundle_from_program(SHORT_SOURCE, data={"n": i + 2}),
                targets={"cycles": 20 + i, "ff": 4},
            )
        )
    return examples


class TestTrainerBatching:
    def test_minibatch_covers_all_examples(self):
        model = CostModel(LLMulatorConfig(tier="0.5B", max_seq_len=128))
        examples = quick_examples(5)
        history = train_cost_model(
            model, examples, TrainingConfig(epochs=2, batch_size=2)
        )
        assert history.examples_seen == 2 * 5
        assert len(history.epoch_losses) == 2
        assert all(np.isfinite(loss) for loss in history.epoch_losses)

    def test_epoch_loss_is_per_example_average(self):
        """With one full-corpus batch, the first epoch loss equals the
        mean initial per-example loss (denominator regression)."""
        examples = quick_examples(3)
        model = CostModel(LLMulatorConfig(tier="0.5B", max_seq_len=128, seed=5))
        reference = CostModel(LLMulatorConfig(tier="0.5B", max_seq_len=128, seed=5))
        initial = np.mean(
            [
                float(reference.loss(e.bundle, e.targets).data)
                for e in examples
            ]
        )
        history = train_cost_model(
            model,
            examples,
            TrainingConfig(epochs=1, batch_size=len(examples), shuffle=False),
        )
        assert history.epoch_losses[0] == pytest.approx(initial, rel=1e-9)

    def test_batch_size_validation(self):
        model = CostModel(LLMulatorConfig(tier="0.5B", max_seq_len=128))
        with pytest.raises(ValueError):
            train_cost_model(model, quick_examples(2), TrainingConfig(batch_size=0))

    def test_determinism_across_runs(self):
        examples = quick_examples(4)
        losses = []
        for _ in range(2):
            model = CostModel(LLMulatorConfig(tier="0.5B", max_seq_len=128, seed=2))
            history = train_cost_model(
                model, examples, TrainingConfig(epochs=2, batch_size=2, seed=11)
            )
            losses.append(history.epoch_losses)
        assert losses[0] == losses[1]


class TestAppliedLRSequence:
    def test_scheduler_steps_after_update(self, monkeypatch):
        """Update k must apply lr_at(k-1): the warmup's initial rate is
        actually used and the schedule is not consumed one step early."""
        applied = []
        original_step = AdamW.step

        def recording_step(self):
            applied.append(self.lr)
            original_step(self)

        monkeypatch.setattr(AdamW, "step", recording_step)
        examples = quick_examples(3)
        model = CostModel(LLMulatorConfig(tier="0.5B", max_seq_len=128))
        config = TrainingConfig(epochs=2, lr_schedule="cosine", shuffle=False)
        train_cost_model(model, examples, config)

        updates = config.epochs * len(examples)
        total = max(2, updates)
        reference = WarmupCosine(
            AdamW([Tensor(np.ones(1), requires_grad=True)], lr=config.lr),
            total_steps=total,
            warmup_steps=min(total - 1, max(1, total // 20)),
            floor=config.lr / 10.0,
        )
        expected = [reference.lr_at(step) for step in range(updates)]
        assert applied == pytest.approx(expected)
        # First applied LR is the schedule's step-0 (warmup start) rate.
        assert applied[0] == reference.lr_at(0)

    def test_constant_schedule_applies_configured_lr(self, monkeypatch):
        applied = []
        original_step = AdamW.step

        def recording_step(self):
            applied.append(self.lr)
            original_step(self)

        monkeypatch.setattr(AdamW, "step", recording_step)
        model = CostModel(LLMulatorConfig(tier="0.5B", max_seq_len=128))
        train_cost_model(
            model, quick_examples(2), TrainingConfig(epochs=1, lr=1e-3)
        )
        assert applied == [1e-3, 1e-3]

    def test_scheduler_start_applies_step_zero_lr(self):
        optimizer = AdamW([Tensor(np.ones(1), requires_grad=True)], lr=0.1)
        scheduler = WarmupCosine(optimizer, total_steps=10, warmup_steps=2)
        assert scheduler.start() == scheduler.lr_at(0)
        assert optimizer.lr == scheduler.lr_at(0)
        # start() does not advance the schedule.
        assert scheduler.step() == scheduler.lr_at(1)
