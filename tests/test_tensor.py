"""Unit + property tests for the autograd engine (repro.nn.tensor).

The property tests compare analytic gradients against central finite
differences on randomly generated inputs — the canonical gradcheck.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, concatenate, no_grad, stack, tensor, where
from repro.nn.tensor import is_grad_enabled

ATOL = 2e-2  # float32 finite differences


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central finite-difference gradient of scalar ``fn`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x.copy())
        flat[i] = orig - eps
        down = fn(x.copy())
        flat[i] = orig
        out[i] = (up - down) / (2 * eps)
    return grad


def check_gradient(build, x: np.ndarray) -> None:
    """Assert autograd matches finite differences for ``build``."""
    t = Tensor(x.astype(np.float32), requires_grad=True)
    y = build(t)
    y.backward()

    def scalar(arr):
        return build(Tensor(arr.astype(np.float32))).item()

    expected = numeric_grad(scalar, x.astype(np.float64))
    np.testing.assert_allclose(t.grad, expected, atol=ATOL, rtol=5e-2)


small_arrays = st.integers(2, 4).flatmap(
    lambda n: st.integers(2, 4).map(lambda m: (n, m)))


class TestBasicOps:
    def test_add_broadcast_grad(self):
        a = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        b = Tensor(np.ones((3,), np.float32), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [2, 2, 2])

    def test_mul_grad(self):
        x = np.random.default_rng(0).normal(size=(3, 3))
        check_gradient(lambda t: (t * t * 2.0).sum(), x)

    def test_div_grad(self):
        x = np.random.default_rng(1).uniform(1.0, 2.0, size=(3, 2))
        check_gradient(lambda t: (1.0 / t).sum(), x)

    def test_pow_grad(self):
        x = np.random.default_rng(2).uniform(0.5, 1.5, size=(4,))
        check_gradient(lambda t: (t ** 3).sum(), x)

    def test_neg_sub(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        ((-a) - a).sum().backward()
        np.testing.assert_allclose(a.grad, [-2.0, -2.0])

    def test_rsub_rdiv(self):
        a = Tensor([2.0], requires_grad=True)
        y = (1.0 - a) + (4.0 / a)
        y.sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0 - 4.0 / 4.0])

    def test_exp_log_roundtrip_grad(self):
        x = np.random.default_rng(3).uniform(0.5, 2.0, size=(3,))
        check_gradient(lambda t: t.exp().log().sum(), x)

    def test_tanh_sigmoid_relu_abs(self):
        x = np.random.default_rng(4).normal(size=(5,)) + 0.1
        check_gradient(lambda t: t.tanh().sum(), x)
        check_gradient(lambda t: t.sigmoid().sum(), x)
        check_gradient(lambda t: t.relu().sum(), x)
        check_gradient(lambda t: t.abs().sum(), x)

    def test_sqrt_grad(self):
        x = np.random.default_rng(5).uniform(0.5, 2.0, size=(4,))
        check_gradient(lambda t: t.sqrt().sum(), x)


class TestReductions:
    def test_sum_axis_keepdims(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3),
                   requires_grad=True)
        t.sum(axis=1, keepdims=True).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3)))

    def test_mean_grad(self):
        x = np.random.default_rng(6).normal(size=(3, 4))
        check_gradient(lambda t: t.mean(), x)
        check_gradient(lambda t: (t.mean(axis=0) ** 2).sum(), x)

    def test_var_matches_numpy(self):
        x = np.random.default_rng(7).normal(size=(5, 6)).astype(np.float32)
        t = Tensor(x)
        np.testing.assert_allclose(
            t.var(axis=1).data, x.var(axis=1), atol=1e-5)

    def test_max_grad_splits_ties(self):
        t = Tensor(np.array([[1.0, 1.0, 0.0]], np.float32),
                   requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5, 0.0]])


class TestShapes:
    def test_reshape_transpose_grad(self):
        x = np.random.default_rng(8).normal(size=(2, 6))
        check_gradient(
            lambda t: (t.reshape(3, 4).transpose(1, 0) ** 2).sum(), x)

    def test_swapaxes(self):
        t = Tensor(np.zeros((2, 3, 4), np.float32))
        assert t.swapaxes(1, 2).shape == (2, 4, 3)

    def test_getitem_grad(self):
        t = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4),
                   requires_grad=True)
        t[1:, :2].sum().backward()
        expected = np.zeros((3, 4))
        expected[1:, :2] = 1
        np.testing.assert_allclose(t.grad, expected)

    def test_take_grad_accumulates_duplicates(self):
        t = Tensor(np.eye(3, dtype=np.float32), requires_grad=True)
        t.take(np.array([0, 0, 2]), axis=0).sum().backward()
        np.testing.assert_allclose(t.grad.sum(axis=1), [6, 0, 3])

    def test_concatenate_grad(self):
        a = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        b = Tensor(np.ones((3, 2), np.float32), requires_grad=True)
        concatenate([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((3, 2)))

    def test_stack_grad(self):
        parts = [Tensor(np.full((2,), float(i), np.float32),
                        requires_grad=True) for i in range(3)]
        stack(parts, axis=0).sum().backward()
        for p in parts:
            np.testing.assert_allclose(p.grad, [1.0, 1.0])


class TestMatmulAndSoftmax:
    def test_matmul_grad(self):
        x = np.random.default_rng(9).normal(size=(3, 3))
        check_gradient(lambda t: (t @ t).sum(), x)

    def test_batched_matmul_shapes(self):
        a = Tensor(np.zeros((2, 4, 3, 5), np.float32), requires_grad=True)
        b = Tensor(np.zeros((2, 4, 5, 6), np.float32), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (2, 4, 3, 6)
        out.sum().backward()
        assert a.grad.shape == a.shape and b.grad.shape == b.shape

    def test_matmul_broadcast_grad_reduces(self):
        a = Tensor(np.random.default_rng(0).normal(size=(5, 3, 4)).astype(np.float32),
                   requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(4, 2)).astype(np.float32),
                   requires_grad=True)
        a.matmul(b).sum().backward()
        assert b.grad.shape == (4, 2)

    def test_softmax_rows_sum_to_one(self):
        t = Tensor(np.random.default_rng(10).normal(size=(4, 7)))
        np.testing.assert_allclose(
            t.softmax(axis=-1).data.sum(axis=-1), np.ones(4), atol=1e-6)

    def test_softmax_grad(self):
        x = np.random.default_rng(11).normal(size=(3, 4))
        check_gradient(lambda t: (t.softmax(axis=-1) ** 2).sum(), x)

    def test_log_softmax_grad(self):
        x = np.random.default_rng(12).normal(size=(2, 5))
        check_gradient(lambda t: (t.log_softmax(axis=-1) * 0.5).sum(), x)

    def test_softmax_stability_large_values(self):
        t = Tensor(np.array([[1000.0, 1000.0]], np.float32))
        out = t.softmax(axis=-1).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [[0.5, 0.5]])


class TestGraphMechanics:
    def test_backward_requires_scalar_or_grad(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        t = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            t.sum().backward()

    def test_grad_accumulates_across_backwards(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        (t * 2).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_second_backward_over_one_graph_adds_one_gradient(self):
        # Interior gradients restart each call; only leaves accumulate.
        x = Tensor([1.0, 2.0], requires_grad=True)
        z = (x * 2).sum()
        z.backward()
        z.backward()
        np.testing.assert_array_equal(x.grad, [4.0, 4.0])
        y = Tensor([1.0], requires_grad=True)
        w = ((y * 3) ** 2).sum()
        w.backward()
        w.backward()
        np.testing.assert_array_equal(y.grad, [36.0])

    def test_detach_cuts_graph(self):
        t = Tensor([1.0], requires_grad=True)
        y = (t * 3).detach()
        assert not y.requires_grad

    def test_no_grad_context(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = t * 2
        assert is_grad_enabled()
        assert not y.requires_grad

    def test_diamond_graph_gradient(self):
        # y = a*b + a*c with shared a: gradient must accumulate both paths
        a = Tensor([2.0], requires_grad=True)
        b = a * 3
        c = a * 4
        (b + c).sum().backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_where_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        where(np.array([True, False]), a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), small_arrays)
    def test_random_composite_gradcheck(self, seed, shape):
        """Random elementwise+reduction graphs match finite differences."""
        x = np.random.default_rng(seed).uniform(0.5, 1.5, size=shape)

        def build(t):
            y = (t * t + t.sigmoid()).softmax(axis=-1)
            return (y * t.tanh()).mean()

        check_gradient(build, x)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matmul_chain_gradcheck(self, seed):
        x = np.random.default_rng(seed).normal(size=(3, 3)) * 0.5

        def build(t):
            return (t @ t.T).softmax(axis=-1).sum()

        check_gradient(build, x)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.integers(2, 6))
    def test_softmax_is_distribution(self, seed, rows, cols):
        x = np.random.default_rng(seed).normal(size=(rows, cols)) * 10
        out = Tensor(x).softmax(axis=-1).data
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(rows), atol=1e-5)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_unbroadcast_consistency(self, seed):
        """Broadcast add then sum-grad equals the broadcast multiplicity."""
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(4, 1)).astype(np.float32),
                   requires_grad=True)
        b = Tensor(rng.normal(size=(1, 5)).astype(np.float32),
                   requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((4, 1), 5.0))
        np.testing.assert_allclose(b.grad, np.full((1, 5), 4.0))
