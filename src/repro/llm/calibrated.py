"""Calibrated Language Models (CLMs) — paper Section IV-B1.

A CLM is a *frozen* pretrained backbone whose attention scores are
calibrated by modality: cross-modality token pairs (text ↔ numeric value)
receive an additive ``-Delta`` penalty (Eq. 5), suppressing inter-modality
fusion while keeping intra-modality correlations intact.  The wrapper
extracts last-token embeddings, the unit of knowledge the teacher
distills from.
"""

from __future__ import annotations

import numpy as np

from ..infer.engine import encode_pooled
from ..nn import Module, Tensor, no_grad
from .backbones import TransformerLM
from .tokenizer import TokenizedPrompt

__all__ = ["build_calibrated_bias", "CalibratedLanguageModel"]


def build_calibrated_bias(modality: np.ndarray, delta: float) -> np.ndarray:
    """Additive attention bias from modality tags (paper Eq. 5).

    Parameters
    ----------
    modality:
        Integer tags, shape ``(S,)`` or ``(B, S)``.
    delta:
        Cross-modality penalty ``Delta >= 0``; 0 recovers the vanilla
        mask (the ``w/o CA`` ablation).

    Returns
    -------
    Bias of shape ``(S, S)`` or ``(B, 1, S, S)`` with ``-delta`` where
    tokens ``i`` and ``j`` differ in modality and 0 elsewhere.
    """
    modality = np.asarray(modality)
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if modality.ndim == 1:
        cross = modality[:, None] != modality[None, :]
        return np.where(cross, -float(delta), 0.0).astype(np.float32)
    if modality.ndim == 2:
        cross = modality[:, :, None] != modality[:, None, :]
        bias = np.where(cross, -float(delta), 0.0).astype(np.float32)
        return bias[:, None, :, :]
    raise ValueError(f"modality must be 1-D or 2-D, got shape {modality.shape}")


class CalibratedLanguageModel(Module):
    """Frozen backbone + calibrated attention + last-token extraction.

    Parameters
    ----------
    backbone:
        A (pretrained) :class:`TransformerLM`.  It is frozen on
        construction: the CLM is only ever used as a feature extractor
        (paper Figure 3 marks it with the snowflake).
    delta:
        Calibration penalty applied to cross-modality attention scores.
    pooling:
        ``"last"`` (paper: last-token extractor) or ``"mean"`` (ablation:
        average over all token states).

    Calling the model with a batched :class:`TokenizedPrompt` of shape
    ``(N, S)`` returns pooled embeddings ``(N, D)``.

    :meth:`forward` runs the compiled encode
    (:func:`repro.infer.engine.encode_pooled`): a tape-free numpy
    forward over row blocks whose output equals pooling
    :meth:`hidden_states`, the module forward, bit for bit.  The prompt
    templates produce only a handful of distinct modality patterns, so
    the calibrated bias is cached per pattern, and rows with identical
    ``(token_ids, modality)`` are encoded once per batch and scattered
    back.  Every op of the compiled encode, GEMMs included, computes a
    row with the same kernel and shapes whatever else is in the batch,
    so the scattered result is bitwise identical to encoding the
    duplicates.
    """

    #: Bound on the per-instance bias cache; templates yield few
    #: patterns, so this is only a safety valve against degenerate input.
    _BIAS_CACHE_LIMIT = 128

    def __init__(self, backbone: TransformerLM, delta: float = 1.0,
                 pooling: str = "last"):
        super().__init__()
        if pooling not in ("last", "mean"):
            raise ValueError(f"unknown pooling {pooling!r}")
        self.backbone = backbone
        self.backbone.freeze()
        self.delta = float(delta)
        self.pooling = pooling
        #: Number of :meth:`forward` invocations (profiling / tests).
        self.num_forwards = 0
        #: Number of sequences actually run through the backbone after
        #: in-batch deduplication.
        self.num_sequences = 0
        self._bias_cache: dict[tuple[bytes, float], np.ndarray] = {}

    @property
    def dim(self) -> int:
        return self.backbone.config.dim

    # ------------------------------------------------------------------
    # calibrated bias, cached by modality pattern
    # ------------------------------------------------------------------
    def _pattern_bias(self, pattern: np.ndarray) -> np.ndarray:
        """(S, S) bias for one modality row, cached by its bytes."""
        key = (pattern.tobytes(), self.delta)
        bias = self._bias_cache.get(key)
        if bias is None:
            if len(self._bias_cache) >= self._BIAS_CACHE_LIMIT:
                self._bias_cache.clear()
            bias = build_calibrated_bias(pattern, self.delta)
            bias.setflags(write=False)
            self._bias_cache[key] = bias
        return bias

    def _pattern_biases(self, modality: np.ndarray) -> tuple:
        """Calibrated ``(S, S)`` bias per distinct row of a ``(B, S)``
        modality batch, plus each row's pattern index.

        Templates produce a handful of patterns, so every batch shares a
        few cached arrays; ``(None, None)`` at ``delta == 0``.
        """
        if self.delta <= 0.0:
            return None, None
        patterns, inverse = np.unique(modality, axis=0, return_inverse=True)
        return [self._pattern_bias(p) for p in patterns], inverse

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def forward(self, prompt: TokenizedPrompt) -> Tensor:
        """Encode a batched prompt into pooled embeddings ``(N, D)``.

        Runs the compiled encode (:func:`repro.infer.engine.encode_pooled`):
        no autograd graph, since the backbone is frozen and its outputs
        are stored as constants for distillation, exactly as the paper's
        embedding storage prescribes.
        """
        self.num_forwards += 1
        token_ids = np.atleast_2d(prompt.token_ids)
        modality = np.atleast_2d(prompt.modality)

        # Deduplicate identical prompts before the backbone forward.
        seq_len = token_ids.shape[1]
        combined = np.concatenate([token_ids, modality], axis=1)
        unique, inverse = np.unique(combined, axis=0, return_inverse=True)
        if len(unique) < len(combined):
            token_ids = np.ascontiguousarray(unique[:, :seq_len])
            modality = np.ascontiguousarray(unique[:, seq_len:])
        else:
            inverse = None
        self.num_sequences += len(token_ids)

        # One full additive bias per pattern: the backbone's own causal
        # + calibration sum, so the compiled forward adds the same bits.
        extras, index = self._pattern_biases(modality)
        biases = [self.backbone._attention_bias(seq_len, extra)
                  for extra in (extras or [None])]
        biases = None if biases[0] is None else np.stack(biases)
        pooled = encode_pooled(self.backbone, token_ids, biases, index,
                               self.pooling)
        if inverse is not None:
            pooled = pooled[inverse]
        return Tensor(pooled)

    def hidden_states(self, prompt: TokenizedPrompt) -> Tensor:
        """Full ``(N, S, D)`` hidden states through the module forward.

        The parity oracle of :meth:`forward`: pooling these (``[:, -1]``
        or ``.mean(axis=1)``) gives the same bits.
        """
        token_ids = np.atleast_2d(prompt.token_ids)
        modality = np.atleast_2d(prompt.modality)
        extras, index = self._pattern_biases(modality)
        extra = None if extras is None else np.stack(extras)[index][:, None]
        self.num_sequences += len(token_ids)
        with no_grad():
            return self.backbone(token_ids, extra_bias=extra).detach()
