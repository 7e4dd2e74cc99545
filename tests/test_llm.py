"""Tests for the language-model substrate (repro.llm)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infer.engine import clm_block_rows
from repro.llm import (
    BACKBONE_CONFIGS,
    NUMERIC_MODALITY,
    TEXT_MODALITY,
    CalibratedLanguageModel,
    CorpusConfig,
    NarrationCorpus,
    PromptTokenizer,
    Vocabulary,
    backbone_names,
    build_backbone,
    build_calibrated_bias,
    pretrain_backbone,
)
from repro.llm.backbones import RotaryMultiHeadAttention
from repro.llm.tokenizer import TokenizedPrompt
from repro.nn import Tensor


class TestVocabulary:
    def test_special_tokens_exist(self, vocab):
        assert vocab.pad_id != vocab.bos_id != vocab.eos_id

    def test_word_lookup_and_unk(self, vocab):
        assert vocab.word_id("forecast") != vocab.unk_id
        assert vocab.word_id("zebra") == vocab.unk_id

    def test_value_quantization_monotone(self, vocab):
        values = np.linspace(-5, 5, 50)
        bins = [vocab.value_bin(v) for v in values]
        assert bins == sorted(bins)
        assert bins[0] == 0 and bins[-1] == vocab.num_value_bins - 1

    def test_value_ids_vectorized_matches_scalar(self, vocab):
        values = np.random.default_rng(0).uniform(-6, 6, size=30)
        vectorized = vocab.value_ids(values)
        scalar = np.array([vocab.value_id(v) for v in values])
        np.testing.assert_array_equal(vectorized, scalar)

    def test_bin_center_inverts_within_resolution(self, vocab):
        resolution = 2 * vocab.value_range / (vocab.num_value_bins - 1)
        for v in [-3.3, -0.01, 0.0, 1.7, 4.9]:
            center = vocab.bin_center(vocab.value_id(v))
            assert abs(center - v) <= resolution / 2 + 1e-9

    def test_bin_center_rejects_words(self, vocab):
        with pytest.raises(ValueError):
            vocab.bin_center(vocab.word_id("forecast"))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-100, 100, allow_nan=False))
    def test_value_id_always_in_vocab(self, value):
        vocab = Vocabulary()
        token = vocab.value_id(value)
        assert 0 <= token < len(vocab)
        assert vocab.is_value_token(token)


class TestPromptTokenizer:
    def test_historical_prompt_structure(self, vocab):
        tok = PromptTokenizer(vocab=vocab)
        prompt = tok.historical_prompt(np.zeros(12), horizon=6)
        assert prompt.token_ids[0] == vocab.bos_id
        assert prompt.token_ids[-1] == vocab.eos_id
        assert (prompt.modality == NUMERIC_MODALITY).sum() == 12

    def test_ground_truth_extends_historical(self, vocab):
        tok = PromptTokenizer(vocab=vocab)
        history, future = np.zeros(8), np.ones(4)
        hd = tok.historical_prompt(history, horizon=4)
        gt = tok.ground_truth_prompt(history, future)
        assert len(gt) > len(hd)
        np.testing.assert_array_equal(
            gt.token_ids[: len(hd) - 1], hd.token_ids[:-1])

    def test_value_stride_shortens_history_only(self, vocab):
        full = PromptTokenizer(vocab=vocab, value_stride=1)
        strided = PromptTokenizer(vocab=vocab, value_stride=4)
        history, future = np.zeros(16), np.ones(8)
        assert len(strided.ground_truth_prompt(history, future)) < len(
            full.ground_truth_prompt(history, future))
        # future values keep full resolution under the default
        gt = strided.ground_truth_prompt(history, future)
        numeric = (gt.modality == NUMERIC_MODALITY).sum()
        assert numeric == 16 // 4 + 8

    def test_batch_prompt_shapes(self, vocab):
        tok = PromptTokenizer(vocab=vocab)
        history = np.zeros((10, 3))
        future = np.ones((5, 3))
        batch = tok.batch_ground_truth(history, future)
        assert batch.token_ids.shape[0] == 3
        assert batch.token_ids.shape == batch.modality.shape

    def test_mismatched_variable_axis_raises(self, vocab):
        tok = PromptTokenizer(vocab=vocab)
        with pytest.raises(ValueError):
            tok.batch_ground_truth(np.zeros((10, 3)), np.ones((5, 2)))


class TestCalibratedBias:
    def test_cross_modality_penalized(self):
        modality = np.array([TEXT_MODALITY, NUMERIC_MODALITY, TEXT_MODALITY])
        bias = build_calibrated_bias(modality, delta=2.0)
        assert bias[0, 1] == -2.0 and bias[1, 0] == -2.0
        assert bias[0, 2] == 0.0 and bias[1, 1] == 0.0

    def test_symmetry(self):
        modality = np.random.default_rng(0).integers(0, 2, size=12)
        bias = build_calibrated_bias(modality, delta=1.5)
        np.testing.assert_allclose(bias, bias.T)

    def test_batched_shape(self):
        modality = np.zeros((4, 9), dtype=np.int64)
        bias = build_calibrated_bias(modality, delta=1.0)
        assert bias.shape == (4, 1, 9, 9)

    def test_zero_delta_is_all_zero(self):
        modality = np.array([0, 1, 0, 1])
        bias = build_calibrated_bias(modality, delta=0.0)
        np.testing.assert_allclose(bias, np.zeros((4, 4)))

    def test_negative_delta_raises(self):
        with pytest.raises(ValueError):
            build_calibrated_bias(np.array([0, 1]), delta=-1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.1, 5.0))
    def test_values_are_only_zero_or_minus_delta(self, seed, delta):
        modality = np.random.default_rng(seed).integers(0, 2, size=10)
        bias = build_calibrated_bias(modality, delta)
        assert set(np.unique(bias)) <= {0.0, np.float32(-delta)}


class TestBackbones:
    def test_registry_names_ordered_by_size(self):
        sizes = [build_backbone(n).num_parameters() for n in backbone_names()]
        assert sizes == sorted(sizes)

    @pytest.mark.parametrize("name", list(BACKBONE_CONFIGS))
    def test_forward_and_logits_shapes(self, name):
        model = build_backbone(name)
        ids = np.random.default_rng(0).integers(0, 10, size=(2, 7))
        hidden = model(ids)
        assert hidden.shape == (2, 7, model.config.dim)
        logits = model.logits(ids)
        assert logits.shape == (2, 7, model.config.vocab_size)

    def test_causal_backbone_ignores_future_tokens(self):
        """Changing a later token must not affect earlier hidden states."""
        model = build_backbone("gpt2-tiny")
        ids = np.arange(6)[None, :] % 10
        base = model(ids).data[:, :3].copy()
        changed = ids.copy()
        changed[0, -1] = (changed[0, -1] + 1) % 10
        after = model(changed).data[:, :3]
        np.testing.assert_allclose(base, after, atol=1e-6)

    def test_bidirectional_backbone_sees_future(self):
        model = build_backbone("bert-tiny")
        ids = np.arange(6)[None, :] % 10
        base = model(ids).data[:, 0].copy()
        changed = ids.copy()
        changed[0, -1] = (changed[0, -1] + 1) % 10
        after = model(changed).data[:, 0]
        assert np.abs(base - after).max() > 1e-6

    def test_rope_attention_positions_matter(self):
        rope = RotaryMultiHeadAttention(dim=8, num_heads=2, max_length=16)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 6, 8)).astype(np.float32)
        perm = np.array([5, 4, 3, 2, 1, 0])
        out = rope(Tensor(x)).data
        out_perm = rope(Tensor(x[:, perm])).data
        # with RoPE, attention is NOT permutation-equivariant
        assert np.abs(out[:, perm] - out_perm).max() > 1e-4

    def test_last_token_state_matches_forward(self):
        model = build_backbone("gpt2-tiny")
        ids = np.arange(5)[None, :]
        np.testing.assert_allclose(
            model.last_token_state(ids).data,
            model(ids).data[:, -1, :], atol=1e-7)


class TestPretrainingAndCLM:
    def test_pretraining_reduces_loss(self, vocab):
        model = build_backbone("gpt2-tiny", vocab=vocab)
        losses = pretrain_backbone(model, vocab=vocab, steps=30, batch_size=4)
        assert losses[-1] < losses[0] * 0.9

    def test_corpus_batch_shapes(self, vocab):
        corpus = NarrationCorpus(vocab=vocab, config=CorpusConfig(seed=7))
        inputs, targets = corpus.batch(3)
        assert inputs.shape == targets.shape
        assert (targets[inputs == vocab.pad_id] == -1).all()

    def test_clm_freezes_backbone(self, tiny_backbone):
        clm = CalibratedLanguageModel(tiny_backbone, delta=1.0)
        assert clm.backbone.num_parameters(trainable_only=True) == 0

    def test_clm_last_token_embedding_shape(self, tiny_clm, vocab):
        tok = PromptTokenizer(vocab=vocab, value_stride=4)
        prompt = tok.batch_ground_truth(np.zeros((16, 3)), np.ones((8, 3)))
        emb = tiny_clm(prompt)
        assert emb.shape == (3, tiny_clm.dim)
        assert not emb.requires_grad

    def test_calibration_changes_embeddings(self, tiny_backbone, vocab):
        tok = PromptTokenizer(vocab=vocab, value_stride=4)
        prompt = tok.batch_historical(
            np.random.default_rng(0).normal(size=(16, 2)), horizon=8)
        plain = CalibratedLanguageModel(tiny_backbone, delta=0.0)(prompt)
        calibrated = CalibratedLanguageModel(tiny_backbone, delta=3.0)(prompt)
        assert np.abs(plain.data - calibrated.data).max() > 1e-5


def perturbed_backbone(name: str, vocab: Vocabulary, seed: int):
    """A backbone with every weight moved off its init (norm gains and
    biases included), so each op of the forward shows in the output."""
    backbone = build_backbone(name, vocab=vocab)
    rng = np.random.default_rng(seed)
    backbone.load_state_dict({
        key: value + rng.normal(scale=0.1, size=value.shape)
        for key, value in backbone.state_dict().items()})
    return backbone


def gt_prompts(vocab: Vocabulary, rows: int, seed: int = 0):
    """``rows`` distinct ground-truth prompts of the fit's template."""
    rng = np.random.default_rng(seed)
    tok = PromptTokenizer(vocab=vocab, value_stride=8)
    return tok.batch_ground_truth(rng.normal(size=(96, rows)),
                                  rng.normal(size=(24, rows)))


def pooled_oracle(clm, prompt) -> np.ndarray:
    hidden = clm.hidden_states(prompt).data
    pooled = hidden[:, -1] if clm.pooling == "last" else hidden.mean(axis=1)
    return np.ascontiguousarray(pooled)


class TestCompiledEncode:
    """``CalibratedLanguageModel.forward`` runs a tape-free row-block
    encode; it must equal pooling the module forward bit for bit."""

    @pytest.fixture(scope="class", params=list(BACKBONE_CONFIGS))
    def backbone(self, request, vocab):
        return perturbed_backbone(request.param, vocab, seed=1)

    @pytest.mark.parametrize("pooling", ["last", "mean"])
    @pytest.mark.parametrize("delta", [0.0, 1.0])
    @pytest.mark.parametrize("patterns", [1, 2])
    @pytest.mark.parametrize("size", ["one", "block", "block+1"])
    def test_matches_pooled_module_forward_bitwise(
            self, backbone, vocab, pooling, delta, patterns, size):
        clm = CalibratedLanguageModel(backbone, delta=delta, pooling=pooling)
        probe = gt_prompts(vocab, 1)
        block = clm_block_rows(probe.token_ids.shape[1],
                               backbone.config.num_heads)
        rows = {"one": 1, "block": block, "block+1": block + 1}[size]
        prompt = gt_prompts(vocab, rows)
        token_ids, modality = prompt.token_ids, prompt.modality.copy()
        if patterns == 2:
            modality[::2, 1] = 1 - modality[::2, 1]
        if rows > 1:  # a duplicate of row 0 exercises the dedup scatter
            token_ids = np.concatenate([token_ids, token_ids[:1]])
            modality = np.concatenate([modality, modality[:1]])
        prompt = TokenizedPrompt(token_ids, modality)
        assert len(np.unique(modality, axis=0)) == min(patterns, rows)

        before = clm.num_sequences
        encoded = clm(prompt)
        assert clm.num_sequences - before == rows
        assert clm.num_forwards == 1
        assert encoded.data.tobytes() == pooled_oracle(clm, prompt).tobytes()

    def test_encode_follows_load_state_dict(self, vocab):
        clm = CalibratedLanguageModel(
            perturbed_backbone("gpt2-tiny", vocab, seed=2), delta=1.0)
        prompt = gt_prompts(vocab, 5)
        before = clm(prompt).data.copy()
        other = perturbed_backbone("gpt2-tiny", vocab, seed=3)
        clm.backbone.load_state_dict(other.state_dict())
        after = clm(prompt).data
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == pooled_oracle(clm, prompt).tobytes()

    def test_rejects_out_of_range_tokens_like_the_module(self, tiny_clm):
        prompt = TokenizedPrompt(np.array([[1, 2, 10**6]]),
                                 np.zeros((1, 3), dtype=np.int64))
        with pytest.raises(IndexError, match="out of range"):
            tiny_clm(prompt)
        with pytest.raises(IndexError, match="out of range"):
            tiny_clm.hidden_states(prompt)
