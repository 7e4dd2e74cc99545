"""Property-based tests on the prompt pipeline invariants.

These guard the privileged-information contract: the ground-truth prompt
strictly extends the historical prompt, modality tags exactly mirror the
template structure, and no prompt ever leaks tokens outside the closed
vocabulary.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.prompts import PromptFactory
from repro.llm import NUMERIC_MODALITY, PromptTokenizer, Vocabulary

VOCAB = Vocabulary()


@st.composite
def windows(draw):
    history_len = draw(st.integers(8, 40))
    horizon = draw(st.integers(2, 16))
    num_vars = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(history_len, num_vars)),
            rng.normal(size=(horizon, num_vars)))


class TestPromptInvariants:
    @settings(deadline=None)
    @given(windows())
    def test_all_token_ids_in_vocabulary(self, window):
        history, future = window
        tok = PromptTokenizer(vocab=VOCAB)
        prompt = tok.batch_ground_truth(history, future)
        assert prompt.token_ids.min() >= 0
        assert prompt.token_ids.max() < len(VOCAB)

    @settings(deadline=None)
    @given(windows())
    def test_gt_prompt_numeric_token_count(self, window):
        """GT prompt carries exactly H + M numeric tokens (stride 1)."""
        history, future = window
        tok = PromptTokenizer(vocab=VOCAB)
        prompt = tok.batch_ground_truth(history, future)
        numeric = (prompt.modality == NUMERIC_MODALITY).sum(axis=1)
        expected = history.shape[0] + future.shape[0]
        assert (numeric == expected).all()

    @settings(deadline=None)
    @given(windows())
    def test_gt_extends_hd_prefix(self, window):
        history, future = window
        tok = PromptTokenizer(vocab=VOCAB)
        hd = tok.batch_historical(history, horizon=len(future))
        gt = tok.batch_ground_truth(history, future)
        prefix = hd.token_ids.shape[1] - 1  # drop eos
        np.testing.assert_array_equal(gt.token_ids[:, :prefix],
                                      hd.token_ids[:, :prefix])

    @settings(deadline=None)
    @given(windows(), st.integers(2, 6))
    def test_stride_reduces_only_history_tokens(self, window, stride):
        history, future = window
        full = PromptTokenizer(vocab=VOCAB, value_stride=1)
        strided = PromptTokenizer(vocab=VOCAB, value_stride=stride)
        a = (full.batch_ground_truth(history, future).modality
             == NUMERIC_MODALITY).sum(axis=1)
        b = (strided.batch_ground_truth(history, future).modality
             == NUMERIC_MODALITY).sum(axis=1)
        expected = -(-history.shape[0] // stride) + future.shape[0]
        assert (b == expected).all()
        assert (b <= a).all()

    @settings(deadline=None)
    @given(windows())
    def test_factory_matches_tokenizer(self, window):
        history, future = window
        factory = PromptFactory(VOCAB, value_stride=1)
        tok = PromptTokenizer(vocab=VOCAB, value_stride=1)
        np.testing.assert_array_equal(
            factory.ground_truth(history, future).token_ids,
            tok.batch_ground_truth(history, future).token_ids)

    @settings(deadline=None)
    @given(windows())
    def test_identical_variables_get_identical_prompts(self, window):
        history, future = window
        history = np.repeat(history[:, :1], 2, axis=1)
        future = np.repeat(future[:, :1], 2, axis=1)
        tok = PromptTokenizer(vocab=VOCAB)
        prompt = tok.batch_ground_truth(history, future)
        np.testing.assert_array_equal(prompt.token_ids[0],
                                      prompt.token_ids[1])
