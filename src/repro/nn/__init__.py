"""``repro.nn`` — numpy autograd and neural-network substrate.

A from-scratch replacement for the PyTorch layer the paper's authors
used: reverse-mode autodiff (:mod:`repro.nn.tensor`), modules, attention,
Pre-LN transformers, optimizers and schedulers.
"""

from . import functional, init
from .attention import MultiHeadAttention, causal_mask
from .buffers import ScratchPool, donate
from .dropout import Dropout
from .embedding import Embedding, PositionalEncoding, SinusoidalPositionalEncoding
from .linear import Linear
from .module import Module, ModuleList, Parameter, Sequential
from .norm import LayerNorm, RMSNorm
from .optim import SGD, Adam, AdamW, Optimizer, clip_grad_norm
from .scheduler import CosineAnnealingLR, LRScheduler, StepLR, WarmupCosineLR
from .serialization import load_arrays, load_module, save_arrays, save_module
from .tape import CompiledStep, Tape
from .tensor import Tensor, concatenate, is_grad_enabled, no_grad, stack, tensor, where
from .transformer import FeedForward, PreLNEncoderLayer, TransformerEncoder

__all__ = [
    "functional",
    "init",
    "Tensor",
    "tensor",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "stack",
    "where",
    "ScratchPool",
    "donate",
    "Parameter",
    "Module",
    "ModuleList",
    "Sequential",
    "Linear",
    "LayerNorm",
    "RMSNorm",
    "Embedding",
    "PositionalEncoding",
    "SinusoidalPositionalEncoding",
    "Dropout",
    "MultiHeadAttention",
    "causal_mask",
    "FeedForward",
    "PreLNEncoderLayer",
    "TransformerEncoder",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "clip_grad_norm",
    "CompiledStep",
    "Tape",
    "LRScheduler",
    "StepLR",
    "CosineAnnealingLR",
    "WarmupCosineLR",
    "save_module",
    "load_module",
    "save_arrays",
    "load_arrays",
]
