"""Bitwise parity of the autograd backward with the implementation it
replaced.

``Tensor.backward`` adopts first gradients instead of copying them,
walks only the interior nodes, and runs ``smooth_l1_loss`` and
``Tensor.mean`` as one graph node each.  None of that may move a bit, so
the previous implementation is kept here as the reference: the copying
``_accumulate``, the depth-first walk that also visits leaves, ``mean``
as ``sum * (1 / count)`` and SmoothL1 as its eight-node composite.
Forward values and every input gradient must be equal by ``tobytes()``.

The hypothesis cases take their example count from the active profile
(``REPRO_HYPOTHESIS_PROFILE``, see ``conftest.py``), so the nightly
``big`` run explores them much further than tier-1 does.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import TimeKDConfig, distill
from repro.core.distill import pkd_loss
from repro.core.student import StudentModel
from repro.core.teacher import CrossModalityTeacher
from repro.nn import Tensor, functional, where


# ----------------------------------------------------------------------
# the reference: the backward as it was before adoption and fusion
# ----------------------------------------------------------------------
def copying_accumulate(self, grad, fresh=False):
    if self.grad is None:
        self.grad = grad.astype(self.data.dtype, copy=True)
    else:
        self.grad += grad


def leaf_walking_backward(self, grad=None):
    if not self.requires_grad:
        raise RuntimeError("backward() on a tensor that does not require grad")
    if grad is None:
        grad = np.ones_like(self.data)
    else:
        grad = np.asarray(grad, dtype=self.data.dtype)
    order, visited, stack = [], set(), [(self, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    self._accumulate(grad)
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        node._backward(node.grad)


def composite_mean(self, axis=None, keepdims=False):
    if axis is None:
        count = self.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= self.shape[ax % self.ndim]
    return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


def composite_smooth_l1_loss(prediction, target, beta=1.0):
    if isinstance(target, np.ndarray):
        target = Tensor(target)
    diff = prediction - target
    abs_diff = diff.abs()
    quadratic = diff * diff * (0.5 / beta)
    linear = abs_diff - 0.5 * beta
    loss = where(abs_diff.data < beta, quadratic, linear)
    return loss.mean()


@contextlib.contextmanager
def reference_autograd():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tensor, "_accumulate", copying_accumulate)
        patch.setattr(Tensor, "backward", leaf_walking_backward)
        patch.setattr(Tensor, "mean", composite_mean)
        patch.setattr(functional, "smooth_l1_loss", composite_smooth_l1_loss)
        patch.setattr(distill, "smooth_l1_loss", composite_smooth_l1_loss)
        yield


def run_both(build, arrays, requires, weight=0.7):
    """``build(*tensors)`` forward, and backward from ``weight`` times
    it, under the reference and under the current code; returns
    ``(reference, current)`` as byte strings of the output and of every
    input gradient."""
    results = []
    for context in (reference_autograd, contextlib.nullcontext):
        with context():
            inputs = [Tensor(array, requires_grad=flag)
                      for array, flag in zip(arrays, requires)]
            out = build(*inputs)
            (out * weight).backward()
            results.append([np.asarray(out.data).tobytes()] + [
                t.grad.tobytes() for t in inputs if t.requires_grad])
    return results


# ----------------------------------------------------------------------
# SmoothL1 and mean as single nodes
# ----------------------------------------------------------------------
BETAS = (1.0, 0.5, 2.0, 0.1)


@st.composite
def smooth_l1_cases(draw):
    beta = draw(st.sampled_from(BETAS))
    # Values on the |d| == beta boundary, at d == 0 with either zero
    # sign, and anywhere else.
    special = st.sampled_from([0.0, -0.0, beta, -beta, 0.5 * beta, 2 * beta])
    elements = st.one_of(special, st.floats(-4, 4, width=32))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=5))
    # A target of the same shape, or one that broadcasts against the
    # prediction (fewer leading axes, some axes of extent 1).
    target_shape = list(shape[draw(st.integers(0, len(shape) - 1)):])
    for axis in range(len(target_shape)):
        if draw(st.booleans()):
            target_shape[axis] = 1
    prediction = draw(hnp.arrays(np.float32, shape, elements=elements))
    target = draw(hnp.arrays(np.float32, tuple(target_shape),
                             elements=elements))
    if draw(st.booleans()):
        prediction, target = target, prediction
    weight = draw(st.floats(0.125, 8, width=32))
    return prediction, target, beta, draw(st.booleans()), weight


class TestSingleNodeComposites:
    @given(smooth_l1_cases())
    def test_smooth_l1_matches_the_composite_bitwise(self, case):
        prediction, target, beta, target_requires_grad, weight = case
        reference, current = run_both(
            lambda p, t: functional.smooth_l1_loss(p, t, beta=beta),
            [prediction, target], [True, target_requires_grad], weight)
        assert current == reference

    @given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=1, max_dims=3,
                                                   max_side=5),
                      elements=st.floats(-4, 4, width=32)),
           st.data())
    def test_mean_matches_sum_times_inverse_count_bitwise(self, array, data):
        ndim = array.ndim
        axis = data.draw(st.one_of(
            st.none(), st.integers(-ndim, ndim - 1),
            st.lists(st.integers(0, ndim - 1), min_size=1, max_size=ndim,
                     unique=True).map(tuple)))
        keepdims = data.draw(st.booleans())
        reference, current = run_both(
            lambda x: (x.mean(axis=axis, keepdims=keepdims) * x.mean()).sum(),
            [array], [True])
        assert current == reference

    def test_smooth_l1_is_one_node(self):
        p = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        t = Tensor(np.zeros((2, 3), np.float32), requires_grad=True)
        loss = functional.smooth_l1_loss(p, t)
        assert loss._parents == (p, t)
        assert p.mean()._parents == (p,)


# ----------------------------------------------------------------------
# adoption never aliases a tensor that several consumers add into
# ----------------------------------------------------------------------
class TestAdoption:
    @pytest.mark.parametrize("consumers", [1, 2, 3])
    def test_only_a_single_consumer_shares_its_consumers_array(
            self, consumers):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3),
                   requires_grad=True)
        h = x * 2.0
        # Each consumer hands h its own incoming gradient unchanged.
        uses = [h + float(k) for k in range(consumers)]
        total = uses[0].sum()
        for use in uses[1:]:
            total = total + use.sum()
        total.backward()
        assert h.grad.tobytes() == np.full((2, 3), consumers,
                                           np.float32).tobytes()
        shared = [np.shares_memory(h.grad, use.grad) for use in uses]
        assert shared == [consumers == 1] * consumers
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2 * consumers))


# ----------------------------------------------------------------------
# one joint step of the fit-distill model
# ----------------------------------------------------------------------
def test_joint_step_parameter_gradients_match_the_reference(tiny_clm):
    """Every parameter gradient of one joint PKD step (trainer's
    ``train_joint`` loss on the benchmark's model: N=7, H=96, M=24,
    d_model 32, batch 16) equals the reference's bit for bit."""
    config = TimeKDConfig(
        history_length=96, horizon=24, num_variables=7, d_model=32,
        num_heads=2, num_layers=1, ffn_dim=64, batch_size=16)
    teacher = CrossModalityTeacher(config, clm=tiny_clm)
    student = StudentModel(config)
    rng = np.random.default_rng(0)
    batch, n = config.batch_size, config.num_variables
    gt = rng.normal(size=(batch, n, tiny_clm.dim)).astype(np.float32)
    hd = rng.normal(size=(batch, n, tiny_clm.dim)).astype(np.float32)
    history = rng.normal(size=(batch, 96, n)).astype(np.float32)
    future = rng.normal(size=(batch, 24, n)).astype(np.float32)
    parameters = teacher.parameters() + student.parameters()

    def step():
        for p in parameters:
            p.grad = None
        teacher_out = teacher(gt, hd)
        student_out = student(history)
        target = Tensor(future)
        loss = (
            functional.smooth_l1_loss(teacher_out.reconstruction, target)
            * config.lambda_recon
            + functional.smooth_l1_loss(student_out.prediction, target)
            * config.lambda_fcst
            + pkd_loss(config, teacher_out.attention, teacher_out.embeddings,
                       student_out.attention, student_out.features,
                       detach_teacher=False) * config.lambda_pkd)
        loss.backward()
        return [np.asarray(loss.data).tobytes()] + [
            None if p.grad is None else p.grad.tobytes()
            for p in parameters]

    with reference_autograd():
        reference = step()
    assert sum(grad is not None for grad in reference) > 50
    assert step() == reference
