"""Tests for optimizers, schedulers, clipping and serialization.

The flat-buffer optimizers are checked bitwise against the per-tensor
reference below, which is the loop they replaced.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.core import trainer as trainer_module
from repro.data import load_dataset, make_forecasting_data
from repro.nn import (
    SGD,
    Adam,
    AdamW,
    CosineAnnealingLR,
    Linear,
    Parameter,
    StepLR,
    Tensor,
    WarmupCosineLR,
    clip_grad_norm,
    load_module,
    save_module,
)
from test_training import fast_config


# ----------------------------------------------------------------------
# per-tensor reference: one ufunc loop per listed parameter
# ----------------------------------------------------------------------
def _ref_clip_grad_norm(optimizer, max_norm: float) -> float:
    grads = [p.grad for p in optimizer.parameters if p.grad is not None]
    total = math.sqrt(sum(
        float(np.einsum("i,i->", g.ravel(), g.ravel(), dtype=np.float64))
        for g in grads))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            np.multiply(g, scale, out=g)
    return total


class _RefOptimizer:
    def __init__(self, parameters, lr):
        self.parameters = [p for p in parameters if p.requires_grad]
        if not self.parameters:
            raise ValueError("optimizer received no trainable parameters")
        self.lr = lr

    def zero_grad(self, set_to_none=True):
        for p in self.parameters:
            if set_to_none:
                p.grad = None
            elif p.grad is not None:
                p.grad.fill(0.0)


class _RefSGD(_RefOptimizer):
    def __init__(self, parameters, lr=1e-2, momentum=0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            if self.momentum:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad


class _RefAdam(_RefOptimizer):
    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch = [np.empty_like(p.data) for p in self.parameters]
        self._update = [np.empty_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for p, m, v, scratch, update in zip(
                self.parameters, self._m, self._v,
                self._scratch, self._update):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=scratch)
                scratch += grad
                grad = scratch
            v *= self.beta2
            np.multiply(grad, grad, out=update)
            update *= 1.0 - self.beta2
            v += update
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=update)
            m += update
            np.divide(v, bias2, out=update)
            np.sqrt(update, out=update)
            update += self.eps
            np.divide(m, update, out=update)
            update *= self.lr / bias1
            p.data -= update


class _RefAdamW(_RefAdam):
    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=1e-2):
        super().__init__(parameters, lr, betas=betas, eps=eps,
                         weight_decay=0.0)
        self.decoupled_weight_decay = weight_decay

    def step(self):
        if self.decoupled_weight_decay:
            decay = self.lr * self.decoupled_weight_decay
            for p in self.parameters:
                if p.grad is not None:
                    p.data *= 1.0 - decay
        super().step()


#: (flat class, reference class, keyword arguments)
OPTIMIZERS = [
    pytest.param(SGD, _RefSGD, {"lr": 0.05}, id="sgd"),
    pytest.param(SGD, _RefSGD, {"lr": 0.05, "momentum": 0.9},
                 id="sgd-momentum"),
    pytest.param(Adam, _RefAdam, {"lr": 0.01}, id="adam"),
    pytest.param(Adam, _RefAdam, {"lr": 0.01, "weight_decay": 0.1},
                 id="adam-coupled-decay"),
    pytest.param(AdamW, _RefAdamW, {"lr": 0.01, "weight_decay": 0.05},
                 id="adamw"),
]

#: scalar, vector, matrix and 3-D parameters
SHAPES = [(), (5,), (3, 4), (2, 3, 4)]
STEPS = 6


def _twin_parameters(seed: int):
    """Two identical parameter sets: one for each optimizer."""
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(shape).astype(np.float32)
              for shape in SHAPES]
    return ([Parameter(v.copy()) for v in values],
            [Parameter(v.copy()) for v in values])


def _backward(params, step: int, skip=()):
    """A nonlinear loss over ``params`` (the ones at ``skip`` indices
    excluded), so each grad depends on the current weights."""
    rng = np.random.default_rng(1000 + step)
    loss = None
    for index, p in enumerate(params):
        c = Tensor(rng.standard_normal(p.shape).astype(np.float32))
        if index in skip:
            continue
        term = (p * p * c + p).sum()
        loss = term if loss is None else loss + term
    loss.backward()


def _assert_bitwise(flat_params, ref_params, where: str):
    for index, (a, b) in enumerate(zip(flat_params, ref_params)):
        assert a.data.tobytes() == b.data.tobytes(), (
            f"parameter {index} differs from the per-tensor reference "
            f"{where}")


def _run_pair(flat_opt, ref_opt, flat_params, ref_params, *,
              set_to_none: bool, max_norm, skip_at=lambda step: (),
              between=None):
    for step in range(STEPS):
        for opt, params in ((flat_opt, flat_params), (ref_opt, ref_params)):
            opt.zero_grad(set_to_none=set_to_none)
            _backward(params, step, skip=skip_at(step))
        if max_norm is not None:
            norm = clip_grad_norm(flat_opt, max_norm)
            expected = _ref_clip_grad_norm(ref_opt, max_norm)
            assert norm == pytest.approx(expected, rel=1e-12, abs=0.0)
        flat_opt.step()
        ref_opt.step()
        _assert_bitwise(flat_params, ref_params, f"after step {step}")
        if between is not None:
            between(step)


@pytest.mark.parametrize("max_norm", [None, 0.5, 1e9],
                         ids=["no-clip", "clip-active", "clip-inactive"])
@pytest.mark.parametrize("set_to_none", [True, False],
                         ids=["set-to-none", "zero-in-place"])
@pytest.mark.parametrize("flat_cls,ref_cls,kwargs", OPTIMIZERS)
class TestFlatParity:
    """Flat optimizers match the per-tensor loop bit for bit."""

    def test_every_grad_present(self, flat_cls, ref_cls, kwargs,
                                set_to_none, max_norm):
        flat_params, ref_params = _twin_parameters(0)
        _run_pair(flat_cls(flat_params, **kwargs),
                  ref_cls(ref_params, **kwargs), flat_params, ref_params,
                  set_to_none=set_to_none, max_norm=max_norm)

    def test_grads_missing_on_some_steps(self, flat_cls, ref_cls,
                                         kwargs, set_to_none, max_norm):
        # parameter 1 has no grad on even steps (with set_to_none=False
        # that is only before its first grad); parameter 3 never has one
        flat_params, ref_params = _twin_parameters(1)
        _run_pair(flat_cls(flat_params, **kwargs),
                  ref_cls(ref_params, **kwargs), flat_params, ref_params,
                  set_to_none=set_to_none, max_norm=max_norm,
                  skip_at=lambda step: (3, 1) if step % 2 == 0 else (3,))
        assert flat_params[3].grad is None

    def test_tensor_listed_twice(self, flat_cls, ref_cls, kwargs,
                                 set_to_none, max_norm):
        flat_params, ref_params = _twin_parameters(2)
        _run_pair(flat_cls(flat_params + flat_params[2:0:-1], **kwargs),
                  ref_cls(ref_params + ref_params[2:0:-1], **kwargs),
                  flat_params, ref_params,
                  set_to_none=set_to_none, max_norm=max_norm)

    def test_frozen_parameter(self, flat_cls, ref_cls, kwargs,
                              set_to_none, max_norm):
        flat_params, ref_params = _twin_parameters(3)
        for params in (flat_params, ref_params):
            params[0].requires_grad = False
        flat_opt = flat_cls(flat_params, **kwargs)
        _run_pair(flat_opt, ref_cls(ref_params, **kwargs),
                  flat_params, ref_params,
                  set_to_none=set_to_none, max_norm=max_norm)
        assert flat_opt.parameters == flat_params[1:]
        assert flat_params[0].grad is None

    def test_data_rebound_between_steps(self, flat_cls, ref_cls,
                                        kwargs, set_to_none, max_norm):
        # load_state_dict rebinds .data; the next step must update the
        # loaded values, not a stale copy inside the flat buffer
        rng = np.random.default_rng(4)
        flat_model, ref_model = Linear(3, 4), Linear(3, 4)
        ref_model.load_state_dict(flat_model.state_dict())
        flat_params, ref_params = (flat_model.parameters(),
                                   ref_model.parameters())
        snapshot = {name: rng.standard_normal(value.shape).astype(np.float32)
                    for name, value in flat_model.state_dict().items()}

        def reload(step):
            if step in (1, 3):
                flat_model.load_state_dict(snapshot)
                ref_model.load_state_dict(snapshot)

        _run_pair(flat_cls(flat_params, **kwargs),
                  ref_cls(ref_params, **kwargs), flat_params, ref_params,
                  set_to_none=set_to_none, max_norm=max_norm,
                  between=reload)


class TestFlatBuffers:
    def test_parameters_and_grads_are_views_of_one_buffer(self):
        params, _ = _twin_parameters(5)
        opt = AdamW(params, lr=0.01)
        assert [p.shape for p in params] == SHAPES
        _backward(params, 0)
        opt.step()
        flat, grad = params[0].data.base, params[0].grad.base
        assert all(p.data.base is flat for p in params)
        assert all(p.grad.base is grad for p in params)
        assert flat.size == grad.size == sum(p.size for p in params)

    def test_backward_accumulates_into_bound_grads(self):
        params, _ = _twin_parameters(6)
        opt = SGD(params, lr=0.1)
        _backward(params, 0)
        opt.step()
        bound = [p.grad for p in params]
        opt.zero_grad(set_to_none=False)
        _backward(params, 1)
        assert all(p.grad is g for p, g in zip(params, bound))


def _quadratic_param(start=5.0):
    return Parameter(np.array([start], np.float32))


def _minimize(optimizer, parameter, steps=200):
    for _ in range(steps):
        loss = (parameter * parameter).sum()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return abs(float(parameter.data[0]))


class TestOptimizers:
    def test_sgd_minimizes_quadratic(self):
        p = _quadratic_param()
        assert _minimize(SGD([p], lr=0.1), p) < 1e-3

    def test_sgd_momentum_minimizes(self):
        p = _quadratic_param()
        assert _minimize(SGD([p], lr=0.05, momentum=0.9), p) < 1e-2

    def test_adam_minimizes_quadratic(self):
        p = _quadratic_param()
        assert _minimize(Adam([p], lr=0.1), p) < 1e-2

    def test_adamw_decays_without_gradient_signal(self):
        p = Parameter(np.array([1.0], np.float32))
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        zero = Parameter(np.array([0.0], np.float32))
        for _ in range(20):
            loss = (p * zero).sum()  # zero gradient w.r.t. p value
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert abs(float(p.data[0])) < 0.5

    def test_empty_parameter_list_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_frozen_parameters_excluded(self):
        frozen = Parameter(np.ones(1, np.float32))
        frozen.requires_grad = False
        live = Parameter(np.ones(1, np.float32))
        opt = SGD([frozen, live], lr=0.1)
        assert len(opt.parameters) == 1

    def test_step_skips_none_grads(self):
        p = Parameter(np.ones(1, np.float32))
        Adam([p], lr=0.1).step()  # no grad accumulated; must not crash
        np.testing.assert_allclose(p.data, [1.0])

    def test_zero_grad_set_to_none_false_reuses_buffers(self):
        p = _quadratic_param()
        opt = SGD([p], lr=0.1)
        (p * p).sum().backward()
        buffer = p.grad
        assert buffer is not None
        opt.zero_grad(set_to_none=False)
        assert p.grad is buffer  # same allocation, zeroed in place
        np.testing.assert_array_equal(p.grad, [0.0])
        (p * p).sum().backward()
        assert p.grad is buffer  # accumulation reused it too

    def test_zero_grad_default_drops_buffers(self):
        p = _quadratic_param()
        opt = SGD([p], lr=0.1)
        (p * p).sum().backward()
        opt.zero_grad()
        assert p.grad is None

    def test_zero_grad_buffer_reuse_matches_default(self):
        reused, dropped = _quadratic_param(), _quadratic_param()
        for p, set_to_none in ((reused, False), (dropped, True)):
            opt = SGD([p], lr=0.1)
            for _ in range(5):
                opt.zero_grad(set_to_none=set_to_none)
                (p * p).sum().backward()
                opt.step()
        np.testing.assert_array_equal(reused.data, dropped.data)


class TestClipping:
    def test_clip_reduces_norm(self):
        p = Parameter(np.ones(4, np.float32))
        opt = SGD([p], lr=0.1)
        p.grad = np.full(4, 10.0, np.float32)
        norm = clip_grad_norm(opt, max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)

    def test_clip_noop_when_small(self):
        p = Parameter(np.ones(2, np.float32))
        opt = SGD([p], lr=0.1)
        p.grad = np.array([0.1, 0.1], np.float32)
        clip_grad_norm(opt, max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.1, 0.1])

    def test_clip_survives_float32_overflow(self):
        # a float32 dot of these grads overflows to inf (|g|^2 ~ 1e40),
        # which would zero every gradient via scale = max_norm / inf;
        # the float64 accumulation must keep the norm finite instead
        p = Parameter(np.ones(4, np.float32))
        opt = SGD([p], lr=0.1)
        p.grad = np.full(4, 1e20, np.float32)
        norm = clip_grad_norm(opt, max_norm=1.0)
        assert np.isfinite(norm)
        assert norm == pytest.approx(2e20, rel=1e-6)
        assert np.linalg.norm(p.grad.astype(np.float64)) == pytest.approx(
            1.0, rel=1e-5)

    def test_clip_accumulates_in_float64(self):
        # 16M float32 ones: naive float32 accumulation stalls well below
        # the true sum of squares; float64 keeps every increment
        n = 1 << 24
        p = Parameter(np.ones(n, np.float32))
        opt = SGD([p], lr=0.1)
        p.grad = np.ones(n, np.float32)
        norm = clip_grad_norm(opt, max_norm=np.inf)
        assert norm == pytest.approx(float(np.sqrt(n)), rel=1e-12)


class TestSchedulers:
    def test_first_step_runs_at_base_lr(self):
        # regression: step() used to advance the epoch before computing
        # the LR, so epoch 1 of every decay schedule was already decayed
        for sched_for in (
                lambda opt: StepLR(opt, step_size=2, gamma=0.5),
                lambda opt: CosineAnnealingLR(opt, t_max=10, min_lr=0.1),
        ):
            opt = SGD([_quadratic_param()], lr=1.0)
            assert sched_for(opt).step() == pytest.approx(1.0)
            assert opt.lr == pytest.approx(1.0)

    def test_step_lr_halves(self):
        p = _quadratic_param()
        opt = SGD([p], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.5)
        lrs = [sched.step() for _ in range(5)]
        assert lrs == [1.0, 1.0, 0.5, 0.5, 0.25]

    def test_cosine_first_and_last_lr(self):
        p = _quadratic_param()
        opt = SGD([p], lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=10, min_lr=0.1)
        lrs = [sched.step() for _ in range(11)]
        assert lrs[0] == pytest.approx(1.0)  # epoch 0 at base_lr
        assert lrs[-1] == pytest.approx(0.1, abs=1e-6)  # epoch t_max at min

    def test_warmup_ramps_then_decays(self):
        p = _quadratic_param()
        opt = SGD([p], lr=1.0)
        sched = WarmupCosineLR(opt, warmup=5, t_max=10)
        warm = [sched.step() for _ in range(5)]
        assert warm == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])
        later = [sched.step() for _ in range(10)]
        assert later[-1] == pytest.approx(0.0, abs=1e-6)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        src = Linear(4, 3)
        dst = Linear(4, 3)
        path = os.path.join(tmp_path, "weights.npz")
        save_module(src, path)
        load_module(dst, path)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 4)).astype(np.float32))
        np.testing.assert_allclose(src(x).data, dst(x).data, atol=1e-7)

    def test_load_appends_extension(self, tmp_path):
        src = Linear(2, 2)
        path = os.path.join(tmp_path, "w.npz")
        save_module(src, path)
        load_module(Linear(2, 2), os.path.join(tmp_path, "w"))


class TestTrainerParity:
    def test_joint_fit_matches_per_tensor_reference(self, tiny_clm,
                                                    monkeypatch):
        # the joint fit lists the shared projection head twice and
        # clips every step: the flat AdamW must reproduce the loop
        data = make_forecasting_data(load_dataset("ETTm1", length=600),
                                     history_length=96, horizon=24)

        def fit():
            trainer = trainer_module.TimeKDTrainer(fast_config(), data,
                                                   clm=tiny_clm)
            trainer.fit()
            return [p.data.copy() for p in
                    trainer.teacher.parameters() + trainer.student.parameters()]

        flat = fit()
        monkeypatch.setattr(trainer_module, "AdamW", _RefAdamW)
        monkeypatch.setattr(trainer_module, "clip_grad_norm",
                            _ref_clip_grad_norm)
        reference = fit()
        assert len(flat) == len(reference)
        for index, (a, b) in enumerate(zip(flat, reference)):
            assert a.tobytes() == b.tobytes(), f"parameter {index} differs"
