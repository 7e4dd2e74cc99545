"""Pretraining loop and cached checkpoint access for LM backbones.

``get_pretrained(name)`` is the offline analogue of
``AutoModel.from_pretrained``: the first call pretrains the tiny backbone
on the synthetic narration corpus and caches the weights under
``artifacts/llm``; later calls load from disk.
"""

from __future__ import annotations

import os

import numpy as np

from ..nn import Adam, clip_grad_norm, load_module, save_module
from ..nn.functional import cross_entropy
from .backbones import TransformerLM
from .corpus import CorpusConfig, NarrationCorpus
from .registry import build_backbone
from .vocab import Vocabulary

__all__ = ["pretrain_backbone", "get_pretrained", "default_cache_dir"]


def default_cache_dir() -> str:
    """Directory for cached backbone checkpoints."""
    root = os.environ.get("REPRO_CACHE", os.path.join(os.getcwd(), "artifacts"))
    return os.path.join(root, "llm")


def pretrain_backbone(
    model: TransformerLM,
    vocab: Vocabulary | None = None,
    steps: int = 120,
    batch_size: int = 8,
    lr: float = 3e-3,
    seed: int = 1234,
    corpus_config: CorpusConfig | None = None,
) -> list[float]:
    """Next-token pretraining on the synthetic narration corpus.

    Returns the per-step loss curve (useful for convergence assertions in
    tests).  The model is trained in place.
    """
    vocab = vocab or Vocabulary()
    corpus_config = corpus_config or CorpusConfig(seed=seed)
    corpus = NarrationCorpus(vocab=vocab, config=corpus_config)
    optimizer = Adam(model.parameters(), lr=lr)
    losses: list[float] = []
    model.train()
    for _ in range(steps):
        inputs, targets = corpus.batch(batch_size)
        logits = model.logits(inputs)
        loss = cross_entropy(logits, targets)
        optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(optimizer, 1.0)
        optimizer.step()
        losses.append(loss.item())
    model.eval()
    return losses


def get_pretrained(
    name: str,
    vocab: Vocabulary | None = None,
    steps: int = 120,
    cache_dir: str | None = None,
    force_retrain: bool = False,
) -> TransformerLM:
    """Return a pretrained backbone, training and caching it if needed."""
    vocab = vocab or Vocabulary()
    model = build_backbone(name, vocab=vocab)
    cache_dir = cache_dir or default_cache_dir()
    path = os.path.join(cache_dir, f"{name}-s{steps}.npz")
    if not force_retrain and os.path.exists(path):
        load_module(model, path)
        model.eval()
        return model
    pretrain_backbone(model, vocab=vocab, steps=steps)
    save_module(model, path)
    return model


def perplexity(model: TransformerLM, vocab: Vocabulary, batches: int = 4,
               batch_size: int = 8, seed: int = 999) -> float:
    """Held-out perplexity of a backbone on fresh narration samples."""
    corpus = NarrationCorpus(vocab=vocab, config=CorpusConfig(seed=seed))
    total = 0.0
    for _ in range(batches):
        inputs, targets = corpus.batch(batch_size)
        logits = model.logits(inputs)
        total += cross_entropy(logits, targets).item()
    return float(np.exp(total / batches))
