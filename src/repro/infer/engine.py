"""Tape-free compiled forwards: the student hot path and the CLM encode.

:class:`CompiledStudent` exports a fitted
:class:`~repro.core.student.StudentModel` into a flat, pure-numpy
forward: no :class:`~repro.nn.tensor.Tensor` objects, no graph
bookkeeping (not even the ``no_grad`` variety), preallocated scratch
reused across calls, and in-place ufuncs throughout.  The last-layer
attention head-average — a distillation-only output — is skipped
entirely unless requested.

Second-generation design: the engine is **shape-polymorphic**.  Scratch
is allocated once at a high-water-mark batch capacity and every batch
size ``B <= capacity`` binds *views* of the first ``B`` rows — a sliced
C-contiguous buffer has exactly the strides of a dedicated ``(B, ...)``
allocation, so the same ufunc/GEMM kernels run on the same memory
layouts.  A new coalesced batch size on the serve path therefore never
triggers a tape rebuild or a probe: it costs one cheap view binding
(a few dozen slices plus pre-bound partials), cached in a small LRU.
Only a batch size *above* capacity recompiles, and a serving layer that
passes its ``max_batch`` up front never does even that.

The engine's contract is **bitwise parity** with the module forward:
every numpy operation below mirrors the exact op sequence, operand
dtypes and memory layouts of the ``Module`` path (``RevIN`` → inverted
embedding → Pre-LN encoder → head → de-normalization), so
``CompiledStudent.predict`` and ``StudentModel.predict`` return
identical bytes for identical inputs.  That is what lets the serve and
stream layers run it while the replay/parity harnesses keep
``StudentModel.predict`` as their oracle.  The fused-QKV tape variant
is adopted only when a compile-time probe proves it bitwise-equal at
the polymorphic shape (both at full capacity and at batch 1).

Weights are *donated* (see :mod:`repro.nn.buffers`): the engine shares
the module's backing arrays by default, so compiling is cheap.  Derived
constants (the RevIN denominator, the probe-verified fused QKV
projection) are snapshotted at compile time — rebuild the engine after
mutating weights in place (``TimeKDForecaster.compile(force=True)``).

The same emitters (module-level ``emit_*`` functions) also build
:func:`encode_pooled`, the frozen CLM's prompt encode, which holds the
same bitwise contract against pooling ``TransformerLM.forward``.  It
compiles per call instead: a handful of encodes per fit amortize a tape
build, and reading the backbone's weights each time follows any
``load_state_dict``.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from ..nn.buffers import ScratchPool, donate

__all__ = ["ENGINES", "CompiledStudent", "encode_pooled", "resolve_engine"]

#: Forward implementations ``TimeKDForecaster.predict``/``evaluate`` and
#: ``evaluate_student`` accept: the autograd module path (the parity
#: oracle, and what training validates on) or this compiled engine.
ENGINES = ("module", "compiled")

#: Smallest batch capacity a lazy first call allocates (keeps tiny
#: direct-use engines from recompiling on every slightly-larger batch).
_MIN_CAPACITY = 8

#: Bindings kept per engine before LRU eviction (tapes only — scratch
#: is shared capacity memory, so an eviction frees Python lists, and the
#: cache cannot grow one buffer per batch shape like the v1 engine did).
_DEFAULT_PLAN_CACHE = 32

#: Float32 zero, pre-wrapped so the ReLU mask compare skips per-call
#: scalar conversion (same compare as ``Tensor.relu``'s ``data > 0``).
_ZERO = np.asarray(0.0, dtype=np.float32)


def resolve_engine(engine: str) -> str:
    """Validate an engine name; returns it unchanged."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown inference engine {engine!r}; choose from {ENGINES}")
    return engine


def _const(value) -> np.ndarray:
    """A float32 0-d array constant.

    Ufunc dispatch converts python/numpy scalars on every call; a 0-d
    array of the operand dtype passes straight through (~100ns saved per
    op).  Same dtype, same kernel, same bits as the scalar it replaces.
    """
    return np.asarray(value, dtype=np.float32)


def _ceil_pow2(n: int) -> int:
    """Smallest power of two >= ``n`` (geometric capacity growth)."""
    return 1 << max(int(n) - 1, 0).bit_length()


class _LayerWeights:
    """Donated weights of one Pre-LN encoder layer, flat and contiguous."""

    __slots__ = ("ln1_g", "ln1_b", "ln1_eps", "wq", "bq", "wk", "bk",
                 "wv", "bv", "wo", "bo", "wqkv", "bqkv", "scale",
                 "ln2_g", "ln2_b", "ln2_eps", "w1", "b1", "w2", "b2",
                 "activation")

    def __init__(self, layer, copy: bool):
        w = lambda p: donate(p.data, copy=copy)  # noqa: E731 — local alias
        self.ln1_g, self.ln1_b = w(layer.norm1.gamma), w(layer.norm1.beta)
        self.ln1_eps = _const(layer.norm1.eps)
        attention = layer.attention
        self.wq, self.bq = w(attention.q_proj.weight), w(attention.q_proj.bias)
        self.wk, self.bk = w(attention.k_proj.weight), w(attention.k_proj.bias)
        self.wv, self.bv = w(attention.v_proj.weight), w(attention.v_proj.bias)
        self.wo, self.bo = w(attention.out_proj.weight), w(attention.out_proj.bias)
        # Concatenated projections for the probe-verified fused-QKV
        # tape (one (D, 3D) GEMM instead of three).  Snapshots, not
        # donations — recompile after in-place weight updates.
        self.wqkv = np.concatenate([self.wq, self.wk, self.wv], axis=1)
        self.bqkv = np.concatenate([self.bq, self.bk, self.bv])
        # The module path coerces the python-float scale into a float32
        # scalar tensor; pre-cast once so the multiply matches bitwise.
        self.scale = _const(1.0 / math.sqrt(attention.head_dim))
        self.ln2_g, self.ln2_b = w(layer.norm2.gamma), w(layer.norm2.beta)
        self.ln2_eps = _const(layer.norm2.eps)
        self.w1, self.b1 = w(layer.ffn.fc1.weight), w(layer.ffn.fc1.bias)
        self.w2, self.b2 = w(layer.ffn.fc2.weight), w(layer.ffn.fc2.bias)
        self.activation = layer.ffn.activation


class CompiledStudent:
    """Flat numpy forward of a fitted student, shape-polymorphic.

    Parameters
    ----------
    student:
        A :class:`~repro.core.student.StudentModel` (typically in eval
        mode; the compiled forward is always deterministic — dropout
        does not exist here).
    copy_weights:
        Snapshot the weights instead of sharing the module's buffers.
        Leave off for serving, where weights are fixed after load (zero
        copies).  Either way, derived constants (fused QKV, the RevIN
        denominator) are compile-time snapshots: recompile after any
        weight update.
    max_batch:
        Eagerly compile for this batch capacity (the serving layer
        passes its coalescing bound here, moving the one compile stall
        to load time).  Lazy by default: the first call compiles at
        ``max(next_pow2(B), 8)`` and capacity grows geometrically.
    plan_cache_size:
        Per-batch-size view bindings kept before LRU eviction.

    One engine instance is internally locked: concurrent ``predict``
    calls serialize on the shared scratch buffers.  Returned arrays are
    fresh copies — they never alias the scratch pool.
    """

    def __init__(self, student, copy_weights: bool = False,
                 max_batch: int | None = None,
                 plan_cache_size: int = _DEFAULT_PLAN_CACHE):
        config = student.config
        self.config = config
        self.history_length = config.history_length
        self.horizon = config.horizon
        self.num_variables = config.num_variables
        self.num_heads = config.num_heads
        self.head_dim = config.d_model // config.num_heads
        self.d_model = config.d_model
        self.ffn_dim = student.encoder.layers[0].ffn.fc1.out_features
        if plan_cache_size < 1:
            raise ValueError("plan_cache_size must be >= 1")
        self.plan_cache_size = int(plan_cache_size)

        w = lambda p: donate(p.data, copy=copy_weights)  # noqa: E731
        revin = student.revin
        self._revin_affine = revin.affine
        self._revin_eps = _const(revin.eps)
        if revin.affine:
            self._revin_g, self._revin_b = w(revin.gamma), w(revin.beta)
            # The module recomputes ``gamma + eps`` per call through a
            # float32 scalar coercion; hoist it out of the hot path.
            self._revin_denom = self._revin_g + self._revin_eps
        else:
            self._revin_g = self._revin_b = self._revin_denom = None
        self._w_emb = w(student.inverted_embedding.weight)
        self._b_emb = w(student.inverted_embedding.bias)
        self._layers = [_LayerWeights(layer, copy_weights)
                        for layer in student.encoder.layers]
        self._final_g = w(student.encoder.final_norm.gamma)
        self._final_b = w(student.encoder.final_norm.beta)
        self._final_eps = _const(student.encoder.final_norm.eps)
        self._w_head = w(student.head.weight)
        self._b_head = w(student.head.bias)
        # Tensor.mean multiplies by a float32-coerced ``1/heads``.
        self._head_mean = _const(1.0 / self.num_heads)
        # np.mean/np.var divide their float32 sums by an intp count
        # through a float64 loop.  A float32-scalar divide is bitwise
        # identical (float64→float32 double rounding is innocuous for
        # binary32 division — 52 >= 2*24+2 significand bits, Figueroa
        # 1995) and skips the mixed-dtype buffered path.
        self._n_time = _const(self.history_length)
        self._n_model = _const(self.d_model)
        self._window_shape = (self.history_length, self.num_variables)

        self._pool = ScratchPool()
        self._bindings: OrderedDict[int, _Binding] = OrderedDict()  # guarded-by: _lock
        self._capacity = 0
        self._fused = False  # guarded-by: _lock
        self._lock = threading.Lock()
        #: Forward-call / window counters (monitoring + benchmarks).
        self.calls = 0  # guarded-by: _lock
        self.windows = 0  # guarded-by: _lock
        #: Full polymorphic compiles (scratch allocation + probe).  A
        #: warmed engine serves any batch size <= capacity at zero.
        self.rebuilds = 0  # guarded-by: _lock
        #: Per-batch-size binding cache counters (LRU of cheap tapes).
        self.plan_hits = 0  # guarded-by: _lock
        self.plan_misses = 0  # guarded-by: _lock
        self.plan_evictions = 0  # guarded-by: _lock
        if max_batch is not None:
            if max_batch < 1:
                raise ValueError("max_batch must be >= 1")
            self._recompile(int(max_batch))

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def predict(self, history: np.ndarray) -> np.ndarray:
        """Forecast ``(B, M, N)`` from history windows ``(B, H, N)``.

        Mirrors ``StudentModel.predict``: numpy in, numpy out, a single
        ``(H, N)`` window is promoted to batch size 1 (the result keeps
        the leading batch axis, exactly like the module path).
        """
        return self.forward(history)[0]

    def forward(self, history: np.ndarray, need_attention: bool = False):
        """Run the compiled forward; returns ``(prediction, attention)``.

        ``attention`` is the head-averaged last-layer map ``(B, N, N)``
        when requested, else ``None`` — and when it is not requested its
        computation is skipped entirely, not just discarded.
        """
        x = self._check_input(history)
        with self._lock:
            self.calls += 1
            self.windows += x.shape[0]
            binding = self._plan(x.shape[0], need_attention)
            p = binding.views
            np.copyto(p.x, x)
            for op in (binding.tape_attention if need_attention
                       else binding.tape):
                op()
            # Scratch buffers are recycled next call — hand out copies.
            return (p.prediction.copy(),
                    p.attention.copy() if need_attention else None)

    def _check_input(self, history: np.ndarray) -> np.ndarray:
        x = np.asarray(history, dtype=np.float32)
        if x.ndim == 2:
            x = x.reshape(1, *x.shape)
        if x.ndim != 3 or x.shape[1:] != self._window_shape:
            raise ValueError(
                f"expected history of shape (B, {self.history_length}, "
                f"{self.num_variables}), got {np.shape(history)}")
        return x

    @property
    def capacity(self) -> int:
        """High-water batch capacity the shared scratch is sized for."""
        return self._capacity

    @property
    def scratch_nbytes(self) -> int:
        """Bytes held by the shared capacity scratch buffers."""
        return self._pool.nbytes

    def plan_stats(self) -> dict:
        """Plan-cache and compile counters (thread-safe snapshot)."""
        with self._lock:
            return {
                "capacity": self._capacity,
                "bindings": len(self._bindings),
                "hits": self.plan_hits,
                "misses": self.plan_misses,
                "evictions": self.plan_evictions,
                "rebuilds": self.rebuilds,
            }

    def release_scratch(self) -> None:
        """Free all scratch buffers (they regrow on the next call)."""
        with self._lock:
            self._bindings.clear()
            self._pool.clear()
            self._capacity = 0

    # ------------------------------------------------------------------
    # shape-polymorphic planning
    # ------------------------------------------------------------------
    # requires-lock: _lock
    def _plan(self, B: int, need_attention: bool) -> "_Binding":
        binding = self._bindings.get(B)
        if binding is None:
            if B > self._capacity:
                # Geometric growth; a serving layer that passed its
                # max_batch up front never reaches this branch.
                self._recompile(max(_ceil_pow2(B), _MIN_CAPACITY))
            self.plan_misses += 1
            views = _Views(self, B)
            binding = _Binding(
                views, self._build_tape(views, False, self._fused))
            self._bindings[B] = binding
            while len(self._bindings) > self.plan_cache_size:
                self._bindings.popitem(last=False)
                self.plan_evictions += 1
        else:
            self.plan_hits += 1
            self._bindings.move_to_end(B)
        if need_attention and binding.tape_attention is None:
            binding.tape_attention = self._build_tape(
                binding.views, True, self._fused)
        return binding

    # requires-lock: _lock (or construction, pre-publication)
    def _recompile(self, capacity: int) -> None:
        """(Re)build the polymorphic plan: scratch and tape variant.

        The one expensive step — capacity allocation plus the
        probe-verify pass — after which every batch size up to
        ``capacity`` binds views without rebuilding or probing.
        """
        self._pool.clear()
        self._bindings.clear()
        self._capacity = int(capacity)
        self.rebuilds += 1
        probe = np.random.default_rng(0).standard_normal(
            (self._capacity, self.history_length,
             self.num_variables)).astype(np.float32)
        self._fused = self._fused_is_exact(probe)

    def _fused_is_exact(self, probe: np.ndarray) -> bool:
        """Whether the fused-QKV tape is bitwise-equal on the probe.

        The fused variant runs one GEMM against the concatenated
        ``(D, 3D)`` projection instead of three.  It only reorganizes
        the same per-element dot products, but BLAS/ufunc kernel
        selection depends on shapes and strides — and those selections
        are value-independent, so running it once on a random probe
        input and comparing bytes against the reference tape is a sound
        equivalence check.  The polymorphic plan serves every batch
        size from sliced views of one capacity buffer, so the probe
        brackets the range: the variant is adopted only when it matches
        bitwise both at full capacity and at batch 1.  On the slightest
        mismatch the reference stays.
        """
        sizes = (self._capacity,) if self._capacity == 1 \
            else (self._capacity, 1)
        for B in sizes:
            outputs = []
            for fused in (False, True):
                views = _Views(self, B)
                np.copyto(views.x, probe[:B])
                for op in self._build_tape(views, True, fused):
                    op()
                outputs.append((views.prediction.tobytes(),
                                views.attention.tobytes()))
            if outputs[0] != outputs[1]:
                return False
        return True

    # ------------------------------------------------------------------
    # the flat forward
    # ------------------------------------------------------------------
    def _build_tape(self, p: "_Views", need_attention: bool,
                    fused_qkv: bool = False) -> list:
        """Record the whole forward as a flat list of pre-bound ops.

        Every argument — weights, scratch views, scalar constants — is
        fixed once the batch binding is known, so the hot path
        degenerates to replaying ``functools.partial`` objects: zero
        Python arithmetic, zero allocation, just ~100 ufunc/GEMM calls
        into preallocated memory.
        """
        ops: list = []

        # ``out`` rides positionally everywhere a ufunc accepts it (and
        # the reduces bind their full positional signature): per-call
        # keyword parsing costs ~100-200ns per op, which adds up over a
        # ~120-op tape at serve batch sizes near 1.  Positional binding
        # hits the same kernels — arg spelling never changes bits.
        def emit(fn, *args):
            ops.append(partial(fn, *args))

        def emit_gemm(src, weight, out):
            # (B, N, D) @ (D, K) batched matmul: numpy issues one small
            # (N, D) GEMM per window.  One (B*N, D) GEMM over the whole
            # batch crosses OpenBLAS's threading threshold at serve batch
            # sizes, and on a 2-vCPU host a threaded GEMM intermittently
            # stalls ~8 ms where the single-threaded call takes ~0.04 ms.
            emit(np.matmul, src, weight, out)

        def emit_norm(gamma, beta, eps):
            emit_layer_norm(emit, p.tokens, p.normed, gamma, beta, eps,
                            self._n_model, p.red, p.sq_nd)

        # RevIN normalize (statistics over time, per instance/variable).
        emit_mean(emit, p.x, 1, p.mean, self._n_time)
        emit(np.subtract, p.x, p.mean, p.norm)
        emit(np.multiply, p.norm, p.norm, p.sq_hn)
        emit_mean(emit, p.sq_hn, 1, p.std, self._n_time)
        emit(np.add, p.std, self._revin_eps, p.std)
        emit(np.sqrt, p.std, p.std)
        emit(np.divide, p.norm, p.std, p.norm)
        if self._revin_affine:
            emit(np.multiply, p.norm, self._revin_g, p.norm)
            emit(np.add, p.norm, self._revin_b, p.norm)

        # Inverted embedding: each variable's whole history is one token.
        emit_gemm(p.norm_t, self._w_emb, p.tokens)
        emit(np.add, p.tokens, self._b_emb, p.tokens)

        # Pre-LN encoder stack.
        last = len(self._layers) - 1
        for index, layer in enumerate(self._layers):
            emit_norm(layer.ln1_g, layer.ln1_b, layer.ln1_eps)
            if fused_qkv:
                emit_gemm(p.normed, layer.wqkv, p.qkv)
                emit(np.add, p.qkv, layer.bqkv, p.qkv)
                qh, kh_t, vh = p.qh_f, p.kh_tf, p.vh_f
            else:
                emit_gemm(p.normed, layer.wq, p.q3)
                emit(np.add, p.q3, layer.bq, p.q3)
                emit_gemm(p.normed, layer.wk, p.k3)
                emit(np.add, p.k3, layer.bk, p.k3)
                emit_gemm(p.normed, layer.wv, p.v3)
                emit(np.add, p.v3, layer.bv, p.v3)
                qh, kh_t, vh = p.qh, p.kh_t, p.vh
            emit_attention(emit, qh, kh_t, vh, layer.scale, p.scores,
                           p.score_red, p.context, p.merged)
            if need_attention and index == last:
                # Head average of the softmax weights still in
                # ``scores``, via sum * (1/heads) like Tensor.mean.
                emit(np.add.reduce, p.scores, 1, None, p.attention)
                emit(np.multiply, p.attention, self._head_mean,
                     p.attention)
            emit_gemm(p.merged, layer.wo, p.sub_out)
            emit(np.add, p.sub_out, layer.bo, p.sub_out)
            emit(np.add, p.tokens, p.sub_out, p.tokens)

            emit_norm(layer.ln2_g, layer.ln2_b, layer.ln2_eps)
            emit_gemm(p.normed, layer.w1, p.hidden)
            emit(np.add, p.hidden, layer.b1, p.hidden)
            if layer.activation == "relu":
                # Mirror Tensor.relu's mask-multiply (keeps -0.0 bits).
                emit(np.greater, p.hidden, _ZERO, p.mask)
                emit(np.multiply, p.hidden, p.mask, p.hidden)
            else:
                emit_gelu(emit, p.hidden, p.gelu_inner)
            emit_gemm(p.hidden, layer.w2, p.sub_out)
            emit(np.add, p.sub_out, layer.b2, p.sub_out)
            emit(np.add, p.tokens, p.sub_out, p.tokens)

        emit_norm(self._final_g, self._final_b, self._final_eps)

        # Projection head + RevIN de-normalization.
        emit_gemm(p.normed, self._w_head, p.projected)
        emit(np.add, p.projected, self._b_head, p.projected)
        if self._revin_affine:
            emit(np.subtract, p.projected_t, self._revin_b, p.prediction)
            emit(np.divide, p.prediction, self._revin_denom, p.prediction)
        else:
            emit(np.copyto, p.prediction, p.projected_t)
        emit(np.multiply, p.prediction, p.std, p.prediction)
        emit(np.add, p.prediction, p.mean, p.prediction)
        return ops


class _Binding:
    """One batch size's view set plus its pre-bound op tapes.

    Cheap by construction — the views alias the engine's shared
    capacity scratch, so a binding owns only Python objects (slices and
    ``partial`` lists).  The attention tape is built lazily: serving
    never asks for it.
    """

    __slots__ = ("views", "tape", "tape_attention")

    def __init__(self, views: "_Views", tape: list):
        self.views = views
        self.tape = tape
        self.tape_attention: list | None = None


class _Views:
    """Stride-adjusted scratch views for one batch size ``B``.

    Every buffer is the first-``B``-rows slice of a shared
    capacity-sized allocation: a ``[:B]`` slice of a C-contiguous array
    has exactly the strides and contiguity of a dedicated ``(B, ...)``
    buffer, so ufunc/GEMM kernel selection — and therefore the bits —
    match a per-batch-shape allocation while the memory stays one
    high-water-mark block shared by all bindings.
    """

    __slots__ = ("x", "mean", "std", "norm", "norm_t", "sq_hn", "tokens",
                 "normed", "red", "sq_nd", "q3", "k3", "v3", "qh", "kh_t",
                 "vh", "qkv", "qh_f", "kh_tf", "vh_f", "scores",
                 "score_red", "context", "merged",
                 "sub_out", "hidden", "mask", "gelu_inner", "attention",
                 "projected", "projected_t", "prediction")

    def __init__(self, engine: "CompiledStudent", B: int):
        C = engine._capacity
        if not 1 <= B <= C:
            raise ValueError(f"batch {B} outside capacity {C}")
        H, N = engine.history_length, engine.num_variables
        D, M = engine.d_model, engine.horizon
        heads, hd = engine.num_heads, engine.head_dim
        F = engine.ffn_dim
        pool = engine._pool
        take = lambda name, *tail, dtype=np.float32: \
            pool.take(name, (C, *tail), dtype)[:B]  # noqa: E731
        self.x = take("x", H, N)
        self.mean = take("mean", 1, N)
        self.std = take("std", 1, N)
        self.norm = take("norm", H, N)
        self.norm_t = self.norm.transpose(0, 2, 1)
        self.sq_hn = take("sq_hn", H, N)
        self.tokens = take("tokens", N, D)
        self.normed = take("normed", N, D)
        self.red = take("red", N, 1)
        self.sq_nd = take("sq_nd", N, D)
        self.q3 = take("q3", N, D)
        self.k3 = take("k3", N, D)
        self.v3 = take("v3", N, D)
        self.qh = self.q3.reshape(B, N, heads, hd).transpose(0, 2, 1, 3)
        self.kh_t = (self.k3.reshape(B, N, heads, hd)
                     .transpose(0, 2, 1, 3).transpose(0, 1, 3, 2))
        self.vh = self.v3.reshape(B, N, heads, hd).transpose(0, 2, 1, 3)
        # Fused-QKV variant: one (B, N, 3D) buffer, head views striding
        # through its q/k/v thirds (adopted only if the probe passes).
        self.qkv = take("qkv", N, 3 * D)
        split = lambda start: (self.qkv[..., start:start + D]  # noqa: E731
                               .reshape(B, N, heads, hd).transpose(0, 2, 1, 3))
        self.qh_f = split(0)
        self.kh_tf = split(D).transpose(0, 1, 3, 2)
        self.vh_f = split(2 * D)
        self.scores = take("scores", heads, N, N)
        self.score_red = take("score_red", heads, N, 1)
        self.context = take("context", heads, N, hd)
        self.merged = take("merged", N, D)
        self.sub_out = take("sub_out", N, D)
        self.hidden = take("hidden", N, F)
        self.mask = take("mask", N, F, dtype=bool)
        self.gelu_inner = (take("gelu_inner", N, F)
                           if any(layer.activation != "relu"
                                  for layer in engine._layers) else None)
        self.attention = take("attention", N, N)
        self.projected = take("projected", N, M)
        self.projected_t = self.projected.transpose(0, 2, 1)
        self.prediction = take("prediction", M, N)


# ----------------------------------------------------------------------
# emitters: op-for-op mirrors of the module forwards, shared by the
# student tape above and the CLM encode below.  Each appends pre-bound
# ufunc/GEMM calls through ``emit(fn, *args)`` and writes only into the
# buffers it is handed.
# ----------------------------------------------------------------------
_GELU_CUBIC = _const(0.044715)
_GELU_SQRT_2_OVER_PI = _const(math.sqrt(2.0 / math.pi))
_ONE = _const(1.0)
_GELU_HALF = _const(0.5)
_ALL = slice(None)


def emit_reduce(emit, ufunc, src, axis, out) -> None:
    # ufunc.reduce(array, axis, dtype, out, keepdims)
    emit(ufunc.reduce, src, axis, None, out, True)


def emit_mean(emit, src, axis, out, count) -> None:
    """np.add.reduce + divide-by-count, exactly what np.mean runs
    internally: same bits, none of the Python wrapper overhead.  np.var
    is this mean, a centered square, and the same reduce/divide again."""
    emit_reduce(emit, np.add, src, axis, out)
    emit(np.true_divide, out, count, out)


def emit_layer_norm(emit, src, out, gamma, beta, eps, count, red,
                    sq) -> None:
    """Mirror of ``norm._fused_layer_norm``'s forward over the last axis:
    x_hat = (x - mean) * 1/sqrt(var + eps), then affine.  (np.reciprocal
    is correctly-rounded division, bitwise equal to the module's
    ``1.0 / sqrt``: both are binary32 quotients of the same operands.)"""
    emit_mean(emit, src, -1, red, count)
    emit(np.subtract, src, red, out)
    emit(np.multiply, out, out, sq)
    emit_mean(emit, sq, -1, red, count)
    emit(np.add, red, eps, red)
    emit(np.sqrt, red, red)
    emit(np.reciprocal, red, red)
    emit(np.multiply, out, red, out)
    emit(np.multiply, out, gamma, out)
    emit(np.add, out, beta, out)


def emit_rms_norm(emit, src, out, gamma, eps, count, red, sq) -> None:
    """Mirror of ``norm._fused_rms_norm``: x * 1/sqrt(mean(x^2) + eps) * g."""
    emit(np.multiply, src, src, sq)
    emit_mean(emit, sq, -1, red, count)
    emit(np.add, red, eps, red)
    emit(np.sqrt, red, red)
    emit(np.reciprocal, red, red)
    emit(np.multiply, src, red, out)
    emit(np.multiply, out, gamma, out)


def emit_attention(emit, q, k_t, v, scale, scores, red, context, merged,
                   bias=None, rows=_ALL) -> None:
    """Softmax attention ``softmax(q k^T * scale + bias) v`` into
    ``merged``, mirroring ``MultiHeadAttention.forward``.

    ``q``/``v`` are ``(B, heads, S, hd)`` and ``k_t`` its swapped key
    view, with the module path's strides; ``merged`` is ``(B, S, D)``.
    ``rows`` limits the elementwise work (scale, ``bias``, softmax, head
    merge) to a slice of query positions.  Both GEMMs keep their full
    shapes, so the selected rows are bitwise equal to the full forward.
    """
    emit(np.matmul, q, k_t, scores)
    live, red = scores[..., rows, :], red[..., rows, :]
    emit(np.multiply, live, scale, live)
    if bias is not None:
        emit(np.add, live, bias[..., rows, :], live)
    # Numerically stable softmax, in place.
    emit_reduce(emit, np.maximum, live, -1, red)
    emit(np.subtract, live, red, live)
    emit(np.exp, live, live)
    emit_reduce(emit, np.add, live, -1, red)
    emit(np.divide, live, red, live)
    emit(np.matmul, scores, v, context)
    batch, heads, seq, head_dim = context.shape
    emit(np.copyto, merged.reshape(batch, seq, heads, head_dim)[:, rows],
         context.transpose(0, 2, 1, 3)[:, rows])


def emit_rope(emit, src, cos, sin, out, tmp) -> None:
    """Rotary embedding of ``(B, heads, S, hd)`` ``src`` into contiguous
    ``out``, mirroring ``RotaryMultiHeadAttention._rotate`` (even/odd
    lanes rotated, then interleaved back like its stack + reshape)."""
    even, odd = src[..., 0::2], src[..., 1::2]
    out_even, out_odd = out[..., 0::2], out[..., 1::2]
    emit(np.multiply, even, cos, out_even)
    emit(np.multiply, odd, sin, tmp)
    emit(np.subtract, out_even, tmp, out_even)
    emit(np.multiply, even, sin, out_odd)
    emit(np.multiply, odd, cos, tmp)
    emit(np.add, out_odd, tmp, out_odd)


def emit_gelu(emit, x: np.ndarray, inner: np.ndarray) -> None:
    """Tanh-approximation GELU mirroring ``repro.nn.functional.gelu``."""
    emit(np.multiply, x, x, inner)
    emit(np.multiply, inner, x, inner)
    emit(np.multiply, inner, _GELU_CUBIC, inner)
    emit(np.add, x, inner, inner)
    emit(np.multiply, inner, _GELU_SQRT_2_OVER_PI, inner)
    emit(np.tanh, inner, inner)
    emit(np.add, inner, _ONE, inner)
    emit(np.multiply, x, _GELU_HALF, x)
    emit(np.multiply, x, inner, x)


def emit_swiglu(emit, gate, up, sig) -> None:
    """SwiGLU's ``silu(gate) * up`` into ``gate``, with silu as
    ``functional.silu`` spells it: ``x * (1.0 / (1.0 + exp(-x)))``."""
    emit(np.negative, gate, sig)
    emit(np.exp, sig, sig)
    emit(np.add, sig, _ONE, sig)
    emit(np.divide, _ONE, sig, sig)
    emit(np.multiply, gate, sig, gate)
    emit(np.multiply, gate, up, gate)


# ----------------------------------------------------------------------
# the frozen CLM's prompt encode
# ----------------------------------------------------------------------
#: Score bytes one CLM row block aims at: its ``(rows, heads, S, S)``
#: float32 attention scores stay near 1 MiB, so every elementwise pass
#: over them runs in cache.  For the 49-token prompt at 4 heads that is
#: 32 rows; whole 448-row chunks measured 1.5x slower.  Parallel
#: workers split one such block's rows between them.
_CLM_BLOCK_BYTES = 1 << 20


def clm_block_rows(seq_len: int, num_heads: int) -> int:
    """Rows per CLM block: the power of two whose scores are nearest
    :data:`_CLM_BLOCK_BYTES`."""
    row_bytes = num_heads * seq_len * seq_len * 4
    return 1 << max(0, round(math.log2(_CLM_BLOCK_BYTES / row_bytes)))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def encode_pooled(backbone, token_ids: np.ndarray,
                  biases: np.ndarray | None, bias_index: np.ndarray | None,
                  pooling: str) -> np.ndarray:
    """Pooled final hidden states ``(N, D)`` of a ``TransformerLM``.

    A tape-free forward, bitwise equal to pooling
    ``TransformerLM.forward``: rows run in blocks through
    zero-initialized scratch, with the module's GEMM shapes and layouts.
    With ``pooling="last"`` the final layer's elementwise work (Q bias,
    RoPE, attention bias, softmax, norms, FFN) covers only the last
    position; every GEMM keeps its full shape, since a narrower one
    rounds differently.

    The blocks are dealt out to the calling thread plus one helper
    thread per further CPU the process may use, never to more workers
    than there are blocks.  Each worker owns its scratch and writes only
    its own rows of the output.  The workers split the rows a single
    worker holds at once (one :func:`clm_block_rows` block, or all rows
    when there are fewer), so together they hold that worker's
    scratch.  A row's bits depend on neither its block nor its worker.
    A worker's exception is raised here once every helper has finished.

    ``biases`` is ``None`` or a ``(P, S, S)`` stack of full additive
    attention biases (causal mask plus calibration); ``bias_index``
    gives each row's pattern when ``P > 1``.  Weights are read from
    ``backbone`` on every call, so a ``load_state_dict`` is followed.
    """
    config = backbone.config
    rows, seq = token_ids.shape
    if seq > config.max_length:
        raise ValueError(f"sequence length {seq} exceeds max_length "
                         f"{config.max_length}")
    embedding = backbone.token_embedding.weight.data
    if token_ids.min(initial=0) < 0 or \
            token_ids.max(initial=0) >= len(embedding):
        raise IndexError("token id out of range")
    dim, heads, ffn = config.dim, config.num_heads, config.ffn_dim
    head_dim = dim // heads
    cpus = _usable_cpus()
    capacity = max(1, -(-min(rows, clm_block_rows(seq, heads)) // cpus))
    starts = range(0, rows, capacity)
    workers = min(cpus, len(starts))
    # One pattern's bias broadcasts over every row; several are
    # gathered into a per-row ``(B, 1, S, S)`` buffer block by block.
    gathered = biases is not None and len(biases) > 1
    count = _const(dim)

    def build(B: int, scratch: dict):
        """The tape for ``B`` rows, over ``[:B]`` views of ``scratch``."""
        ops: list = []

        def emit(fn, *args):
            ops.append(partial(fn, *args))

        def take(name, *tail):
            # Zeroed, not np.empty: the last layer's full-shape GEMMs
            # also read rows that its row-limited ops never write.
            key = (name, *tail)
            if key not in scratch:
                scratch[key] = np.zeros((capacity, *tail), dtype=np.float32)
            return scratch[key][:B]

        def split(t):
            return t.reshape(B, seq, heads, head_dim).transpose(0, 2, 1, 3)

        def linear(module, src, out, live):
            emit(np.matmul, src, module.weight.data, out)
            if module.bias is not None:
                emit(np.add, out[:, live], module.bias.data, out[:, live])

        def norm(module, live):
            src, out = x[:, live], normed[:, live]
            red = take("red", seq, 1)[:, live]
            sq = take("sq", seq, dim)[:, live]
            eps = _const(module.eps)
            if config.norm == "rms":
                emit_rms_norm(emit, src, out, module.gamma.data, eps, count,
                              red, sq)
            else:
                emit_layer_norm(emit, src, out, module.gamma.data,
                                module.beta.data, eps, count, red, sq)

        x, normed = take("x", seq, dim), take("normed", seq, dim)
        q, k, v = (take(name, seq, dim) for name in "qkv")
        merged, out = take("merged", seq, dim), take("out", seq, dim)
        hidden = take("hidden", seq, ffn)
        if gathered:
            bias = take("bias", 1, seq, seq)
        else:
            bias = None if biases is None else biases[0]
        if backbone.positional is not None:
            emit(np.add, x, backbone.positional.weight.data[:seq], x)
        final = slice(-1, None) if pooling == "last" else _ALL
        last = len(backbone.blocks) - 1
        for index, block in enumerate(backbone.blocks):
            r = final if index == last else _ALL
            attention = block.attention
            norm(block.norm1, _ALL)  # keys and values need every position
            linear(attention.q_proj, normed, q, r)
            linear(attention.k_proj, normed, k, _ALL)
            linear(attention.v_proj, normed, v, _ALL)
            qh, kh = split(q), split(k)
            if config.positions == "rope":
                cos, sin = attention._cos[:seq], attention._sin[:seq]
                tmp = take("rope", heads, seq, head_dim // 2)
                q_rot = take("q_rot", heads, seq, head_dim)
                k_rot = take("k_rot", heads, seq, head_dim)
                emit_rope(emit, qh[..., r, :], cos[r], sin[r],
                          q_rot[..., r, :], tmp[..., r, :])
                emit_rope(emit, kh, cos, sin, k_rot, tmp)
                qh, kh = q_rot, k_rot
            emit_attention(
                emit, qh, kh.transpose(0, 1, 3, 2), split(v),
                _const(1.0 / math.sqrt(attention.head_dim)),
                take("scores", heads, seq, seq),
                take("score_red", heads, seq, 1),
                take("context", heads, seq, head_dim), merged,
                bias=bias, rows=r)
            linear(attention.out_proj, merged, out, r)
            emit(np.add, x[:, r], out[:, r], x[:, r])
            norm(block.norm2, r)
            if config.activation == "swiglu":
                up = take("up", seq, ffn)
                linear(block.ffn.gate, normed, hidden, r)
                linear(block.ffn.up, normed, up, r)
                emit_swiglu(emit, hidden[:, r], up[:, r],
                            take("sig", seq, ffn)[:, r])
                linear(block.ffn.down, hidden, out, r)
            else:
                linear(block.ffn.fc1, normed, hidden, r)
                emit_gelu(emit, hidden[:, r], take("inner", seq, ffn)[:, r])
                linear(block.ffn.fc2, hidden, out, r)
            emit(np.add, x[:, r], out[:, r], x[:, r])
        norm(backbone.final_norm, final)
        return ops, x, bias[:, 0] if gathered else None, normed

    pooled = np.empty((rows, dim), dtype=np.float32)

    def work(first: int) -> None:
        """Encode every ``workers``-th block from block ``first`` on."""
        scratch: dict[tuple, np.ndarray] = {}
        tapes: dict[int, tuple] = {}
        for start in starts[first::workers]:
            stop = min(start + capacity, rows)
            if stop - start not in tapes:
                tapes[stop - start] = build(stop - start, scratch)
            ops, x, gather, normed = tapes[stop - start]
            np.take(embedding, token_ids[start:stop], axis=0, out=x)
            if gather is not None:
                np.take(biases, bias_index[start:stop], axis=0, out=gather)
            for op in ops:
                op()
            if pooling == "last":
                np.copyto(pooled[start:stop], normed[:, -1])
            else:
                np.mean(normed, axis=1, out=pooled[start:stop])

    if workers == 1:
        work(0)
    else:
        # Leaving the block joins every helper, also when one raised.
        with ThreadPoolExecutor(workers - 1,
                                thread_name_prefix="clm-encode") as pool:
            helpers = [pool.submit(work, first)
                       for first in range(1, workers)]
            work(0)
            for helper in helpers:
                helper.result()
    return pooled
