"""Tests for the contiguous embedding store and the fast CLM pipeline.

Covers the paper's "Embeddings Storage" contract end to end:
precompute-vs-lazy numerical equivalence, disk round-trips with
fingerprint rejection, batch-gather semantics against the old dict
behaviour, in-batch prompt deduplication, and cache reuse across fits.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import (
    EmbeddingStore,
    StoreFingerprintMismatch,
    TimeKDConfig,
    embedding_fingerprint,
)
from repro.core.trainer import TimeKDTrainer
from repro.data import load_dataset, make_forecasting_data
from repro.llm import PromptTokenizer


@pytest.fixture(scope="module")
def tiny_data():
    series = load_dataset("ETTm1", length=420)
    return make_forecasting_data(series, history_length=96, horizon=12)


def pipeline_config(**overrides) -> TimeKDConfig:
    base = TimeKDConfig(
        history_length=96, horizon=12, d_model=16, num_heads=2,
        num_layers=1, ffn_dim=32, teacher_epochs=1, student_epochs=1,
        batch_size=8, llm_pretrain_steps=25, prompt_value_stride=8,
    )
    return base.with_updates(**overrides) if overrides else base


class TestContiguousStore:
    def test_batch_gather_matches_dict_semantics(self):
        """The fancy-index gather returns exactly what put() stored."""
        rng = np.random.default_rng(0)
        reference_gt = {i: rng.normal(size=(3, 4)).astype(np.float32)
                        for i in range(10)}
        reference_hd = {i: rng.normal(size=(3, 4)).astype(np.float32)
                        for i in range(10)}
        store = EmbeddingStore(capacity=10)
        for i in range(10):
            store.put(i, reference_gt[i], reference_hd[i])
        order = np.array([7, 2, 2, 9, 0])
        gt, hd = store.get_batch(order)
        np.testing.assert_array_equal(gt, np.stack([reference_gt[int(i)]
                                                    for i in order]))
        np.testing.assert_array_equal(hd, np.stack([reference_hd[int(i)]
                                                    for i in order]))

    def test_missing_indices_computed_in_order_with_duplicates(self):
        store = EmbeddingStore()
        calls = []

        def compute(missing):
            calls.append(list(missing))
            n = len(missing)
            return np.ones((n, 2, 4)), np.zeros((n, 2, 4))

        store.get_batch(np.array([3, 0]), compute)
        store.get_batch(np.array([0, 5, 3]), compute)
        assert calls == [[3, 0], [5]]

    def test_mixed_gt_state_raises(self):
        store = EmbeddingStore()
        store.put(0, np.ones((2, 4)), np.zeros((2, 4)))
        store.put(1, None, np.zeros((2, 4)))
        with pytest.raises(RuntimeError, match="inconsistent"):
            store.get_batch(np.array([0, 1]))

    def test_missing_without_compute_raises(self):
        store = EmbeddingStore(capacity=4)
        with pytest.raises(KeyError):
            store.get_batch(np.array([0]))

    def test_grows_past_initial_capacity(self):
        store = EmbeddingStore(capacity=2)
        for i in range(7):
            store.put(i, None, np.full((1, 2), float(i), np.float32))
        assert len(store) == 7
        _, hd = store.get_batch(np.arange(7))
        np.testing.assert_array_equal(hd[:, 0, 0], np.arange(7.0))

    def test_shape_mismatch_rejected(self):
        store = EmbeddingStore()
        store.put(0, None, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            store.put(1, None, np.zeros((3, 4)))

    def test_negative_indices_rejected(self):
        store = EmbeddingStore(capacity=4)
        store.put(3, None, np.zeros((1, 2)))
        with pytest.raises(IndexError):
            store.get_batch(np.array([-1]))
        with pytest.raises(IndexError):
            store.put(-1, None, np.zeros((1, 2)))


class TestDiskRoundTrip:
    def test_save_load_preserves_contents(self, tmp_path):
        store = EmbeddingStore(capacity=4, fingerprint="fp-1")
        rng = np.random.default_rng(1)
        for i in (0, 2):
            store.put(i, rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))
        path = os.path.join(tmp_path, "cache.npz")
        store.save(path)

        loaded = EmbeddingStore.load(path, expected_fingerprint="fp-1")
        assert loaded.fingerprint == "fp-1"
        assert len(loaded) == 2 and loaded.has(2) and not loaded.has(1)
        for i in (0, 2):
            gt_a, hd_a = store.get(i)
            gt_b, hd_b = loaded.get(i)
            np.testing.assert_array_equal(gt_a, gt_b)
            np.testing.assert_array_equal(hd_a, hd_b)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        store = EmbeddingStore(capacity=1, fingerprint="fp-old")
        store.put(0, None, np.zeros((1, 2)))
        path = os.path.join(tmp_path, "cache.npz")
        store.save(path)
        with pytest.raises(StoreFingerprintMismatch):
            EmbeddingStore.load(path, expected_fingerprint="fp-new")

    def test_gt_free_store_round_trips(self, tmp_path):
        store = EmbeddingStore(capacity=2, fingerprint="fp")
        store.put(0, None, np.ones((1, 2)))
        path = os.path.join(tmp_path, "cache.npz")
        store.save(path)
        loaded = EmbeddingStore.load(path)
        gt, hd = loaded.get_batch(np.array([0]))
        assert gt is None and hd.shape == (1, 1, 2)

    def test_empty_store_save_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            EmbeddingStore().save(os.path.join(tmp_path, "x.npz"))

    def test_dirty_tracks_save_load_cycle(self, tmp_path):
        store = EmbeddingStore(fingerprint="fp")
        assert not store.dirty
        store.put(0, None, np.zeros((1, 2)))
        assert store.dirty
        path = os.path.join(tmp_path, "cache.npz")
        store.save(path)
        assert not store.dirty
        loaded = EmbeddingStore.load(path)
        assert not loaded.dirty
        loaded.put(1, None, np.zeros((1, 2)))
        assert loaded.dirty

    def test_corrupt_cache_recomputed_not_fatal(self, tiny_data, tiny_clm,
                                                tmp_path):
        config = pipeline_config(
            precompute_embeddings=True,
            embedding_cache_dir=str(tmp_path),
            max_batches_per_epoch=1,
        )
        trainer = TimeKDTrainer(config, tiny_data, clm=tiny_clm)
        trainer.prepare_embeddings()
        trainer.save_embeddings()
        path = trainer._embedding_cache_path()
        with open(path, "wb") as fh:
            fh.write(b"not an npz file")
        fresh = TimeKDTrainer(config, tiny_data, clm=tiny_clm)
        fresh.prepare_embeddings()  # must fall back to re-encoding
        assert len(fresh.store) == len(tiny_data.train)


class TestFingerprint:
    def test_sensitive_to_every_field(self):
        base = dict(dataset="ETTm1", delta=1.0, steps=60)
        fp = embedding_fingerprint(**base)
        assert fp == embedding_fingerprint(**base)
        assert fp != embedding_fingerprint(**{**base, "delta": 2.0})
        assert fp != embedding_fingerprint(**{**base, "dataset": "ETTm2"})


class TestPipelineEquivalence:
    def test_precompute_matches_lazy_bitwise(self, tiny_data, tiny_clm):
        lazy = TimeKDTrainer(
            pipeline_config(precompute_embeddings=False), tiny_data,
            clm=tiny_clm)
        pre = TimeKDTrainer(
            pipeline_config(precompute_embeddings=True,
                            precompute_chunk_size=32), tiny_data,
            clm=tiny_clm)
        pre.prepare_embeddings()
        assert len(pre.store) == len(tiny_data.train)

        indices = np.arange(len(tiny_data.train))
        rng = np.random.default_rng(0)
        rng.shuffle(indices)
        for batch in np.array_split(indices, 5):
            gt_lazy, hd_lazy = lazy._teacher_inputs(
                tiny_data.train, batch, None, None, cache=True)
            gt_pre, hd_pre = pre.store.get_batch(batch)
            np.testing.assert_array_equal(hd_lazy, hd_pre)
            np.testing.assert_array_equal(gt_lazy, gt_pre)

    def test_prompt_dedup_is_exact(self, tiny_clm, vocab):
        """A batch with repeated windows encodes each prompt once, and
        the scattered result is bitwise identical to the full batch."""
        tok = PromptTokenizer(vocab=vocab, value_stride=4)
        rng = np.random.default_rng(3)
        window = rng.normal(size=(32, 2))
        prompt = tok.batch_historical(window, horizon=8)
        repeated_ids = np.concatenate(
            [prompt.token_ids, prompt.token_ids, prompt.token_ids[:1]])
        repeated_mod = np.concatenate(
            [prompt.modality, prompt.modality, prompt.modality[:1]])

        before = tiny_clm.num_sequences
        from repro.llm.tokenizer import TokenizedPrompt

        out = tiny_clm(TokenizedPrompt(repeated_ids, repeated_mod))
        assert tiny_clm.num_sequences - before == 2  # 2 unique rows
        reference = tiny_clm(prompt)
        np.testing.assert_array_equal(out.data[:2], reference.data)
        np.testing.assert_array_equal(out.data[2:4], reference.data)
        np.testing.assert_array_equal(out.data[4], reference.data[0])


    def test_stored_rows_match_module_oracle_bitwise(self, tiny_data,
                                                     tiny_clm):
        """The precomputed store holds, row for row, what pooling the
        module forward over one window's prompts gives."""
        trainer = TimeKDTrainer(
            pipeline_config(precompute_embeddings=True,
                            precompute_chunk_size=32), tiny_data,
            clm=tiny_clm)
        trainer.prepare_embeddings()
        windows = np.arange(len(tiny_data.train))
        gt_stored, hd_stored = trainer.store.get_batch(windows)
        factory, horizon = trainer.prompt_factory, trainer.config.horizon
        lengths = set()
        for index in windows:
            history, future = tiny_data.train[index]
            for prompt, stored in (
                    (factory.historical(history, horizon), hd_stored),
                    (factory.ground_truth(history, future), gt_stored)):
                lengths.add(prompt.token_ids.shape[1])
                oracle = tiny_clm.hidden_states(prompt).data[:, -1]
                assert stored[index].tobytes() == \
                    np.ascontiguousarray(oracle).tobytes()
        assert len(lengths) == 2  # both prompt lengths ran


class TestDiskBackedFit:
    def test_second_fit_reuses_cache_without_clm_forwards(
            self, tiny_data, tiny_clm, tmp_path):
        config = pipeline_config(
            precompute_embeddings=True,
            embedding_cache_dir=str(tmp_path),
            max_batches_per_epoch=1,
        )
        TimeKDTrainer(config, tiny_data, clm=tiny_clm).fit()
        assert any(name.endswith(".npz") for name in os.listdir(tmp_path))

        before = tiny_clm.num_forwards
        trainer = TimeKDTrainer(config, tiny_data, clm=tiny_clm)
        trainer.fit()
        assert tiny_clm.num_forwards == before
        assert len(trainer.store) == len(tiny_data.train)

    def test_changed_delta_invalidates_cache(self, tiny_data, tiny_clm,
                                             tmp_path):
        config = pipeline_config(
            precompute_embeddings=True,
            embedding_cache_dir=str(tmp_path),
            max_batches_per_epoch=1,
        )
        TimeKDTrainer(config, tiny_data, clm=tiny_clm).fit()
        before = tiny_clm.num_forwards
        changed = config.with_updates(calibration_delta=0.5)
        TimeKDTrainer(changed, tiny_data, clm=tiny_clm).fit()
        assert tiny_clm.num_forwards > before
        # both caches now coexist under distinct fingerprints
        assert len([n for n in os.listdir(tmp_path)
                    if n.endswith(".npz")]) == 2
        tiny_clm.delta = 1.0  # restore the session fixture

    def test_lazy_fit_persists_partial_cache(self, tiny_data, tiny_clm,
                                             tmp_path):
        config = pipeline_config(
            precompute_embeddings=False,
            embedding_cache_dir=str(tmp_path),
            max_batches_per_epoch=2,
        )
        trainer = TimeKDTrainer(config, tiny_data, clm=tiny_clm)
        trainer.fit()
        cached = len(trainer.store)
        assert 0 < cached < len(tiny_data.train)

        restored = TimeKDTrainer(config, tiny_data, clm=tiny_clm)
        restored.prepare_embeddings()
        assert len(restored.store) == cached


class TestCompactReclaimsCLM:
    def test_clm_unreachable_after_compact(self, tiny_backbone, tiny_data):
        import gc
        import weakref

        from repro.core import TimeKDForecaster
        from repro.llm import CalibratedLanguageModel

        clm = CalibratedLanguageModel(tiny_backbone, delta=1.0)
        model = TimeKDForecaster(
            pipeline_config(max_batches_per_epoch=1), clm=clm)
        model.fit(tiny_data)
        ref = weakref.ref(clm)
        del clm
        model.compact()
        gc.collect()
        assert ref() is None, "compact() must drop every CLM reference"
        history, _ = tiny_data.test[0]
        assert model.predict(history).shape == (12, 7)
        # refitting would silently substitute a default CLM — refuse
        with pytest.raises(RuntimeError, match="compact"):
            model.fit(tiny_data)
