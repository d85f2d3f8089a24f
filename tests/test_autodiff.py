"""Tests for the reverse-mode core: forward oracles, then gradient rules."""

import ast
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion import autodiff as ad
from avfusion.exceptions import DimensionError, NumericError, ParameterError
from avfusion.fusion import attention, gate
from avfusion.metrics import ccc_loss
from avfusion.model import EmotionModel, ModelConfig
from avfusion.synthdata import GenConfig, generate, window
from avfusion.temporal import tcn_level
from avfusion.training import AdamState, adam_step


def matmul_oracle(a, b):
    """Naive triple loop, independent of the library path."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        b = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = ad.Tensor(np.eye(2))
        np.testing.assert_array_equal(ad.matmul(eye, b).value, b.value)

    def test_hand_arithmetic(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ad.Tensor([[5.0], [6.0]])
        np.testing.assert_array_equal((a @ b).value, [[17.0], [39.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 3))
        got = ad.matmul(ad.Tensor(a), ad.Tensor(b)).value
        assert np.abs(got - matmul_oracle(a, b)).max() < 1e-12

    def test_associativity_vs_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m, k, n, p = rng.integers(1, 17, size=4)
            a = rng.uniform(-1, 1, (m, k))
            b = rng.uniform(-1, 1, (k, n))
            c = rng.uniform(-1, 1, (n, p))
            left = ad.matmul(ad.matmul(ad.Tensor(a), ad.Tensor(b)), ad.Tensor(c)).value
            right = ad.matmul(ad.Tensor(a), ad.matmul(ad.Tensor(b), ad.Tensor(c))).value
            assert np.abs(left - right).max() < 1e-9
            assert np.abs(left - matmul_oracle(matmul_oracle(a, b), c)).max() < 1e-9

    def test_shape_mismatch_names_both_shapes(self):
        a = ad.Tensor(np.zeros((2, 3)))
        b = ad.Tensor(np.zeros((4, 2)))
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
            ad.matmul(a, b)

    def test_gradient_rule(self):
        # dA = G B^T, dB = A^T G with G = ones.
        rng = np.random.default_rng(3)
        a = ad.Tensor(rng.standard_normal((4, 5)))
        b = ad.Tensor(rng.standard_normal((5, 2)))
        ones = np.ones((4, 2))
        (a @ b).backward(seed=ones)
        np.testing.assert_allclose(a.grad, ones @ b.value.T, atol=1e-14)
        np.testing.assert_allclose(b.grad, a.value.T @ ones, atol=1e-14)


class TestElementwise:
    def test_relu_values(self):
        np.testing.assert_array_equal(
            ad.relu(ad.Tensor([[-1.0, 2.0]])).value, [[0.0, 2.0]]
        )

    def test_relu_values_equal_where_bit_for_bit(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 1e-310, -1e-310, 2.0, -2.0]
        rng = np.random.default_rng(3)
        # numpy's fmax keeps -0.0 on short arrays and passes +0.0 on long ones
        cases = (np.array([-0.0]), np.array([[-0.0, 1.0, -0.0]]), np.array(special), rng.standard_normal((12, 16, 64)))
        for x in (*cases, np.asfortranarray(rng.standard_normal((5, 7)))):
            want = np.where(x > 0, x, 0.0)
            assert np.array_equal(ad.relu_values(x).view(np.int64), want.view(np.int64))
            assert np.array_equal(ad.relu(ad.Tensor(x)).value.view(np.int64), np.atleast_2d(want).view(np.int64))

    def test_tanh_zero(self):
        assert ad.tanh(ad.Tensor([[0.0]])).value[0, 0] == 0.0

    def test_binary_shape_mismatch(self):
        with pytest.raises(DimensionError, match=r"add: shapes \(2, 2\) and \(2, 3\)"):
            ad.add(ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros((2, 3))))

    def test_relu_derivative_zero_at_kink(self):
        x = ad.Tensor([[0.0, -1.0, 1.0]])
        y = ad.relu(x)
        y.backward(seed=np.ones((1, 3)))
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])


def gate_matrix(logits, temperature):
    """The L x K gate matrix ``fusion.gate`` returns for ``logits`` (L x K)."""
    logits = np.asarray(logits, dtype=np.float64)
    candidates = [ad.Tensor(np.zeros((1, logits.shape[0]))) for _ in range(logits.shape[1])]
    return gate(ad.Tensor(logits), candidates, temperature)[0].value


class TestSoftmax:
    def test_symmetric_pair(self):
        for temp in (0.01, 0.1, 1.0, 10.0):
            y = gate_matrix([[0.0, 0.0]], temp)
            np.testing.assert_allclose(y, [[0.5, 0.5]], atol=1e-15)

    def test_sharp_pair_direct_evaluation(self):
        # softmax([1, 0] / 0.1) = [e^10, 1] / (e^10 + 1)
        y = gate_matrix([[1.0, 0.0]], 0.1)
        expect = math.exp(10.0) / (math.exp(10.0) + 1.0)
        np.testing.assert_allclose(y, [[expect, 1.0 - expect]], rtol=1e-12)

    def test_uniform_triple(self):
        y = gate_matrix([[3.7, 3.7, 3.7]], 0.1)
        np.testing.assert_allclose(y, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_rows_and_cols_sum_to_one(self):
        rng = np.random.default_rng(13)
        for temp in (0.01, 0.1, 1.0):
            rows = gate_matrix(rng.uniform(-5, 5, (6, 4)), temp)
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
            # Extreme sharpness may underflow losing entries to exact zero.
            assert (rows >= 0).all()
            if temp == 1.0:
                assert (rows > 0).all()

    def test_temperature_folding_identity(self):
        # the gate at (x, T) equals the gate at (x / T, 1) bit for bit.
        rng = np.random.default_rng(17)
        x = rng.uniform(-2, 2, (3, 5))
        for temp in (0.01, 0.1, 1.0, 3.0):
            np.testing.assert_array_equal(gate_matrix(x, temp), gate_matrix(x / temp, 1.0))


class TestConcat:
    def test_shapes(self):
        out = ad.concat_rows(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 3))))
        assert out.shape == (6, 3)

    def test_empty_top(self):
        a = ad.Tensor(np.arange(6.0).reshape(2, 3))
        empty = ad.Tensor(np.zeros((0, 3)))
        np.testing.assert_array_equal(ad.concat_rows(a, empty).value, a.value)

    def test_column_mismatch(self):
        with pytest.raises(DimensionError):
            ad.concat_rows(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 4))))

    def test_gradient_splits_by_rows(self):
        a = ad.Tensor(np.ones((2, 3)))
        b = ad.Tensor(np.ones((1, 3)))
        ad.concat_rows(a, b).backward(seed=np.ones((3, 3)))
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.ones((1, 3)))


class TestCausalConv:
    """The causal convolution inside :func:`tcn_level`, read through the
    level's residual ``relu(conv + bias) + x``."""

    @staticmethod
    def delay(x, dilation):
        # two 1x1 taps and a zero bias: the first tap reads the frame
        # `dilation` back, the second (the current frame) is switched off
        return tcn_level(x, [ad.Tensor([[1.0]]), ad.Tensor([[0.0]])], ad.Tensor([[0.0]]), dilation)

    def test_shift_is_causal(self):
        x = ad.Tensor([[1.0, 2.0, 3.0, 4.0]])
        np.testing.assert_array_equal(self.delay(x, 2).value, [[1.0, 2.0, 3.0 + 1.0, 4.0 + 2.0]])

    def test_shift_beyond_width_is_zero(self):
        x = ad.Tensor([[1.0, 2.0]])
        np.testing.assert_array_equal(self.delay(x, 5).value, x.value)
        self.delay(x, 5).backward(seed=np.ones((1, 2)))
        # only the residual reaches x
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0]])

    def test_shift_gradient(self):
        x = ad.Tensor([[1.0, 2.0, 3.0]])
        taps = [ad.Tensor([[1.0]]), ad.Tensor([[0.0]])]
        bias = ad.Tensor([[0.0]])
        y = tcn_level(x, taps, bias, 1)
        y.backward(seed=np.array([[10.0, 20.0, 30.0]]))
        # the conv is [0, 1, 2]; its relu passes the last two columns' grads
        masked = np.array([[0.0, 20.0, 30.0]])
        np.testing.assert_array_equal(x.grad, [[10.0 + 20.0, 20.0 + 30.0, 30.0 + 0.0]])
        # each tap's gradient pairs the masked seed with the columns it read
        np.testing.assert_array_equal(taps[0].grad, [[20.0 * 1 + 30.0 * 2]])
        np.testing.assert_array_equal(taps[1].grad, [[20.0 * 2 + 30.0 * 3]])
        np.testing.assert_array_equal(bias.grad, masked.sum(axis=-1, keepdims=True))

    def test_batch_matches_each_member(self):
        rng = np.random.default_rng(5)
        taps = [ad.Tensor(rng.standard_normal((3, 3))) for _ in range(3)]
        bias = ad.Tensor(rng.standard_normal((3, 1)))
        x = rng.standard_normal((4, 3, 9))
        batched = tcn_level(ad.Tensor(x), taps, bias, 2).value
        for b in range(4):
            single = tcn_level(ad.Tensor(x[b]), taps, bias, 2).value
            np.testing.assert_allclose(batched[b], single, rtol=0, atol=1e-14)

    def test_gradcheck(self):
        # a batch of two, so the weights' grads are summed over it
        rng = np.random.default_rng(17)
        x = ad.Tensor(rng.standard_normal((2 * 3, 7)))
        taps = [ad.Tensor(rng.standard_normal((3, 3))) for _ in range(3)]
        bias = ad.Tensor(rng.standard_normal((3, 1)))
        weights = rng.standard_normal((1, 2 * 3 * 7))

        def f():
            out = tcn_level(ad.reshape(x, (2, 3, 7)), taps, bias, 2)
            row = ad.reshape(out, (1, -1))
            return ad.mul_const(row, weights) @ row.T

        params = {"x": x, "bias": bias} | {f"tap{j}": tap for j, tap in enumerate(taps)}
        report = ad.gradcheck(f, params)
        assert report.checked > 0
        assert report.worst < 1e-7


def shifted_copy_conv(x, taps, dilation, g):
    """Causal convolution as a zero-filled copy of ``x`` per shifted tap:
    the value, then x's grad and each tap's grad under the seed ``g``,
    added in the order ``tcn_level`` adds them."""
    k, L = len(taps), x.shape[-1]
    offsets = [(k - 1 - j) * dilation for j in range(k)]
    inputs = []
    for offset in offsets:
        shifted = x if offset == 0 else np.zeros_like(x)
        if 0 < offset < L:
            shifted[..., offset:] = x[..., :-offset]
        inputs.append(shifted)
    value = taps[0] @ inputs[0]
    for tap, inp in zip(taps[1:], inputs[1:]):
        value = value + tap @ inp
    tap_grads = [g @ np.swapaxes(inp, -1, -2) for inp in inputs]
    if g.ndim == 3:
        tap_grads = [grad.sum(axis=0) for grad in tap_grads]
    grad_x = taps[-1].T @ g
    for tap, offset in zip(taps[:-1], offsets[:-1]):
        if offset < L:
            grad_x[..., : L - offset] += (tap.T @ g)[..., offset:]
    return value, grad_x, tap_grads


def same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(2, 4),
    dilation=st.integers(1, 4),
    length=st.integers(1, 9),
    batch=st.sampled_from([None, 1, 3]),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_causal_conv_matches_shifted_copies_bit_for_bit(k, dilation, length, batch, dim, seed):
    # the level relu(conv + bias) + x, its conv from shifted copies
    rng = np.random.default_rng(seed)
    lead = () if batch is None else (batch,)
    x_val = rng.standard_normal((*lead, dim, length))
    tap_vals = [rng.standard_normal((dim, dim)) for _ in range(k)]
    bias_val = rng.standard_normal((dim, 1))
    g = rng.standard_normal((*lead, dim, length))
    x = ad.Tensor(x_val)
    taps = [ad.Tensor(t) for t in tap_vals]
    bias = ad.Tensor(bias_val)
    y = tcn_level(x, taps, bias, dilation)
    y.backward(seed=g)
    conv, _, _ = shifted_copy_conv(x_val, tap_vals, dilation, g)
    pre = conv + bias_val
    masked = g * (pre > 0.0)
    _, grad_x, tap_grads = shifted_copy_conv(x_val, tap_vals, dilation, masked)
    bias_grad = masked.sum(axis=-1, keepdims=True)
    if batch is not None:
        bias_grad = bias_grad.sum(axis=0)
    same_bits(y.value, np.where(pre > 0.0, pre, 0.0) + x_val)
    same_bits(x.grad, g + grad_x)
    same_bits(bias.grad, bias_grad)
    for tap, grad in zip(taps, tap_grads):
        same_bits(tap.grad, grad)


def node_chain_conv(x, taps, dilation):
    """The causal convolution node that TCN levels were built from before
    :func:`tcn_level`: padded once, tap j reading the view at j*dilation,
    the taps pushed in order and then x."""
    k, L = len(taps), x.cols
    pad = (k - 1) * dilation
    padded = np.zeros((*x.value.shape[:-1], pad + L))
    padded[..., pad:] = x.value
    inputs = [padded[..., j * dilation : j * dilation + L] for j in range(k)]
    acc = None
    for tap, inp in zip(taps, inputs):
        term = tap.value @ inp
        acc = term if acc is None else acc + term

    def backward(g):
        for tap, inp in zip(taps, inputs):
            ad.accumulate(tap, g @ np.swapaxes(inp, -1, -2))
        grad = np.zeros_like(padded)
        grad[..., pad:] = taps[-1].value.T @ g
        for j, tap in enumerate(taps[:-1]):
            grad[..., j * dilation : j * dilation + L] += tap.value.T @ g
        ad.accumulate(x, grad[..., pad:])

    return ad.Tensor._make(acc, (x, *taps), backward)


@pytest.mark.parametrize("batch", [None, 1, 4])
@pytest.mark.parametrize("dilation", [1, 2])
def test_tcn_level_equals_the_four_node_chain(batch, dilation):
    # relu(conv(x) + bias) + x as a conv, a bias-column, a relu and an add
    # node: the level's value and grads equal the chain's bit for bit
    rng = np.random.default_rng(31 + dilation)
    lead = () if batch is None else (batch,)
    x_val = rng.standard_normal((*lead, 4, 9))
    tap_vals = [rng.standard_normal((4, 4)) for _ in range(3)]
    bias_val = rng.standard_normal((4, 1))
    g = rng.standard_normal(x_val.shape)
    runs = []
    for fused in (True, False):
        x = ad.Tensor(x_val)
        taps = [ad.Tensor(t.copy()) for t in tap_vals]
        bias = ad.Tensor(bias_val.copy())
        if fused:
            y = tcn_level(x, taps, bias, dilation)
        else:
            y = ad.relu(ad.add_colvec(node_chain_conv(x, taps, dilation), bias)) + x
        y.backward(seed=g)
        runs.append([y.value, x.grad, bias.grad, *(tap.grad for tap in taps)])
    for got, want in zip(*runs):
        same_bits(got, want)


class TestGatedSum:
    def test_gate_column_gradient(self):
        # every gated entry is positive, so column k of the gradient the
        # gate receives is the column sums of candidate k, and the logits
        # get it through the softmax's Jacobian
        a = ad.Tensor(np.arange(8.0).reshape(2, 4))
        b = ad.Tensor(np.ones((2, 4)))
        logits = ad.Tensor(np.zeros((4, 2)))
        y, out = gate(logits, [a, b], 0.5)
        out.backward(seed=np.ones((2, 4)))
        dy = np.stack([a.value.sum(axis=0), [2.0, 2.0, 2.0, 2.0]], axis=1)
        inner = (dy * y.value).sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(logits.grad, y.value * (dy - inner) / 0.5)
        np.testing.assert_array_equal(a.grad, np.full((2, 4), 0.5))

    def test_weights_each_frame(self):
        a = ad.Tensor([[1.0, -2.0], [3.0, 4.0]])
        b = ad.Tensor([[10.0, 20.0], [-300.0, 40.0]])
        y, out = gate(ad.Tensor([[2.0, 0.0], [0.0, 1.0]]), [a, b], 0.5)
        expected = np.maximum(a.value * y.value[:, 0] + b.value * y.value[:, 1], 0.0)
        np.testing.assert_array_equal(out.value, expected)
        assert (out.value == 0.0).any() and (out.value > 0.0).any()

    def test_gate_shape_checked(self):
        a = ad.Tensor(np.zeros((2, 4)))
        with pytest.raises(DimensionError, match="gate"):
            gate(ad.Tensor(np.zeros((4, 3))), [a, a], 1.0)


class TestReshape:
    def test_pools_and_splits(self):
        # a batch of two 1 x 2 prediction rows pooled into one 1 x 4 row
        a = ad.Tensor(np.array([[[1.0, 2.0]], [[3.0, 4.0]]]))
        out = ad.reshape(a, (1, -1))
        np.testing.assert_array_equal(out.value, [[1.0, 2.0, 3.0, 4.0]])
        out.backward(seed=np.array([[5.0, 6.0, 7.0, 8.0]]))
        np.testing.assert_array_equal(a.grad, [[[5.0, 6.0]], [[7.0, 8.0]]])


class TestBatchAxis:
    def test_shared_weight_gradient_sums_over_batch(self):
        rng = np.random.default_rng(3)
        w = ad.Tensor(rng.standard_normal((2, 3)))
        x = rng.standard_normal((4, 3, 5))
        (w @ ad.Tensor(x)).backward(seed=np.ones((4, 2, 5)))
        expected = sum(np.ones((2, 5)) @ x[b].T for b in range(4))
        np.testing.assert_allclose(w.grad, expected, atol=1e-12)

    def test_transpose_and_concat_act_on_last_axes(self):
        a = ad.Tensor(np.arange(12.0).reshape(2, 2, 3))
        b = ad.Tensor(np.ones((2, 1, 3)))
        assert a.T.shape == (2, 3, 2)
        np.testing.assert_array_equal(a.T.value[1], a.value[1].T)
        assert ad.concat_rows(a, b).shape == (2, 3, 3)

    def test_batch_sizes_must_agree(self):
        with pytest.raises(DimensionError):
            ad.matmul(ad.Tensor(np.zeros((2, 3, 3))), ad.Tensor(np.zeros((3, 3, 3))))
        with pytest.raises(DimensionError):
            ad.concat_rows(ad.Tensor(np.zeros((2, 3, 3))), ad.Tensor(np.zeros((3, 3, 3))))

    def test_rank_above_three_rejected(self):
        with pytest.raises(DimensionError, match="rank 4"):
            ad.Tensor(np.zeros((1, 1, 1, 1)))

    @pytest.mark.parametrize("weight_side", ["right", "left"])
    def test_gradcheck_weight_across_batch(self, weight_side):
        # (3, r, k) @ (k, c) and (k, r) @ (3, r, c); the batch operand is a
        # reshaped matrix so gradcheck probes both operands, and a column
        # of ones reads out the sum of the outputs
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.standard_normal((3 * 4, 5)))
        if weight_side == "right":
            w = ad.Tensor(rng.standard_normal((5, 2)))
            ones = ad.Tensor(np.ones((3 * 4 * 2, 1)))

            def f():
                return ad.reshape(ad.tanh(ad.reshape(x, (3, 4, 5)) @ w), (1, -1)) @ ones
        else:
            w = ad.Tensor(rng.standard_normal((2, 4)))
            ones = ad.Tensor(np.ones((3 * 2 * 5, 1)))

            def f():
                return ad.reshape(ad.tanh(w @ ad.reshape(x, (3, 4, 5))), (1, -1)) @ ones

        report = ad.gradcheck(f, {"x": x, "w": w})
        assert report.checked == x.value.size + w.value.size
        assert report.worst < 1e-7

    def test_folded_weight_gradient_equals_member_sum(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((3, 4, 5))
        w = ad.Tensor(rng.standard_normal((5, 2)))
        g = rng.standard_normal((3, 4, 2))
        (ad.Tensor(a) @ w).backward(seed=g)
        expected = sum(a[b].T @ g[b] for b in range(3))
        np.testing.assert_allclose(w.grad, expected, rtol=1e-12, atol=0)


def quadratic_cases(rng):
    """Small differentiable programs exercising every op with gradients,
    on a batch of two, so the weights broadcast across the batch axis."""
    d, L = 4, 5
    w = ad.Tensor(rng.standard_normal((d, d)))
    taps = [ad.Tensor(rng.standard_normal((d, d))) for _ in range(2)]
    b = ad.Tensor(rng.standard_normal((d, 1)))
    c = ad.Tensor(rng.standard_normal((d, 1)))
    g = ad.Tensor(rng.standard_normal((d, 2)))
    x = rng.standard_normal((2, d, L))
    weights = rng.standard_normal((1, 2 * 2 * d * L))

    def full_program():
        xt = ad.Tensor(x)
        h = w @ xt
        h = ad.add_colvec(h, b)
        h = ad.tanh(h)
        conv = tcn_level(h, taps, c, 2)
        _, mixed = gate(h.T @ g, [h, conv], 0.5)
        row = ad.reshape(ad.concat_rows(mixed, h), (1, -1))
        spread = ad.mul_const(row, weights) + ad.mul_const(row, np.full(row.shape, 0.5))
        total = spread @ spread.T
        return total @ total

    return {"w": w, "tap0": taps[0], "tap1": taps[1], "b": b, "c": c, "g": g}, full_program


class TestGradcheck:
    def test_linear_function_is_exact(self):
        rng = np.random.default_rng(23)
        w = ad.Tensor(rng.standard_normal((3, 4)))
        x = rng.standard_normal((4, 2))

        ones = ad.Tensor(np.ones((6, 1)))
        report = ad.gradcheck(lambda: ad.reshape(w @ ad.Tensor(x), (1, -1)) @ ones, {"w": w})
        assert report.worst < 1e-10

    def test_composite_program(self):
        rng = np.random.default_rng(29)
        params, program = quadratic_cases(rng)
        report = ad.gradcheck(program, params)
        assert report.worst < 1e-7
        assert report.checked > 0

    def test_kink_coordinates_are_skipped(self):
        w = ad.Tensor([[0.0, 1.0, -1.0]])
        ones = ad.Tensor(np.ones((3, 1)))
        report = ad.gradcheck(lambda: ad.relu(w) @ ones, {"w": w})
        # Perturbing the zero entry flips the relu sign pattern between
        # +step and -step, so only the two clean coordinates are probed.
        assert report.skipped_kinks == 1
        assert report.checked == 2
        assert report.worst < 1e-10

    def test_nested_kink_scopes_keep_their_own_lists(self):
        x = ad.Tensor([[1.0, -1.0]])
        with ad.record_kinks() as outer:
            ad.relu(x)
            with ad.record_kinks() as inner:
                ad.relu(x)
                ad.relu(x)
            # only the innermost open scope records
            ad.relu(x)
        ad.relu(x)
        assert (len(outer), len(inner)) == (2, 2)

    def test_kink_scope_builds_no_graph(self):
        x = ad.Tensor([[1.0, -1.0]])
        with ad.record_kinks():
            y = ad.relu(x)
        assert y._parents == () and y._backward is None
        assert ad.relu(x)._parents == (x,)

    def test_relus_that_differ_between_values_are_an_error(self):
        # f applies its relu only on one side of the probe: no pattern pairs up
        w = ad.Tensor([[0.0]])

        def f():
            return ad.relu(w) if w.value[0, 0] > 0 else ad.tanh(w)

        with pytest.raises(DimensionError, match="other relus"):
            ad.gradcheck(f, {"w": w})

    def test_nonfinite_loss_names_parameter(self):
        w = ad.Tensor([[1.0]])

        def f():
            # log of a negative number at the -step probe, w = 1 - 1e-5
            with np.errstate(invalid="ignore"):
                val = np.log(w.value[0, 0] - 1.0 + 5e-6)
            out = ad.Tensor([[val]])
            return out @ w

        with pytest.raises(NumericError, match="w"):
            ad.gradcheck(f, {"w": w})

    def test_sampling_caps_probes(self):
        rng = np.random.default_rng(31)
        w = ad.Tensor(rng.standard_normal((10, 10)))
        ones = ad.Tensor(np.ones((100, 1)))
        report = ad.gradcheck(
            lambda: ad.reshape(ad.tanh(w), (1, -1)) @ ones, {"w": w}, max_entries_per_param=7
        )
        assert report.checked == 7

    def test_one_probe_per_parameter_at_epsilon(self):
        rng = np.random.default_rng(37)
        w = ad.Tensor(rng.standard_normal((2, 3)))
        v = ad.Tensor(rng.standard_normal((3, 1)))

        def off_by_one_percent_tanh(a):
            y = np.tanh(a.value)

            def backward(g):
                ad.accumulate(a, 1.01 * g * (1.0 - y * y))

            return ad.Tensor._make(y, (a,), backward)

        def f():
            return ad.reshape(off_by_one_percent_tanh(w) @ v, (1, -1)) @ ad.Tensor(np.ones((2, 1)))

        names = {id(w): "w", id(v): "v"}
        calls = []

        def probe(p, stack):
            calls.append((names[id(p)], stack.shape))
            return ad._serial_probe(f, p, stack)

        report = ad.gradcheck(f, {"w": w, "v": v}, probe=probe)
        assert ad.GRADCHECK_STEP == 1e-5
        assert calls == [("w", (12, 2, 3)), ("v", (6, 3, 1))]
        # the wrong rule is caught at the step; v's product rule is right
        assert report.per_param["w"] > 1e-5
        assert report.per_param["v"] < 1e-8
        assert report.checked == 9

    def test_probe_gets_each_value_moved_at_one_coordinate(self):
        rng = np.random.default_rng(41)
        w = ad.Tensor(rng.standard_normal((4, 5)))
        value = w.value.copy()
        ones = ad.Tensor(np.ones((20, 1)))

        def f():
            return ad.reshape(ad.tanh(w), (1, -1)) @ ones

        stacks = []

        def probe(p, stack):
            stacks.append(stack.copy())
            return ad._serial_probe(f, p, stack)

        report = ad.gradcheck(f, {"w": w}, max_entries_per_param=6, probe=probe)
        [stack] = stacks
        assert stack.shape == (12, 4, 5) and report.checked == 6
        # members k and k+6 each move one sampled coordinate, the same one,
        # by exactly +step and -step; no two pairs move the same coordinate
        moved = []
        for k in range(6):
            [j] = np.flatnonzero(stack[k] != value)
            for member, sign in ((k, 1.0), (k + 6, -1.0)):
                expected = value.copy()
                expected.flat[j] += sign * ad.GRADCHECK_STEP
                assert np.array_equal(stack[member], expected), member
            moved.append(j)
        assert len(set(moved)) == 6
        assert np.array_equal(w.value, value)


class TestDtypes:
    def test_float32_input_is_promoted(self):
        # the on-disk features are float32; the graph is float64 only
        a = ad.Tensor(np.ones((2, 2), dtype=np.float32))
        assert a.dtype == np.float64
        assert (a @ a).dtype == np.float64

    def test_default_is_float64(self):
        assert ad.Tensor([[1, 2]]).dtype == np.float64


class TestGraphMechanics:
    def test_reused_node_accumulates_once_per_path(self):
        x = ad.Tensor([[2.0]])
        y = x @ x  # d/dx = 2x = 4
        y.backward()
        np.testing.assert_allclose(x.grad, [[4.0]])

    def test_diamond_graph(self):
        x = ad.Tensor([[3.0]])
        a = ad.mul_const(x, np.full((1, 1), 2.0))
        b = ad.mul_const(x, np.full((1, 1), 5.0))
        (a + b).backward()
        np.testing.assert_allclose(x.grad, [[7.0]])

    def test_second_backward_raises(self):
        # the walk consumes the graph: a second one would find no closures,
        # so it raises and leaves the first walk's leaf grads as they were
        x = ad.Tensor([[0.5, -1.5], [2.0, 0.3]])
        out = ad.reshape(ad.tanh(ad.add(x, x) @ x), (1, -1)) @ ad.Tensor(np.ones((4, 1)))
        out.backward()
        first = x.grad.copy()
        with pytest.raises(ParameterError, match="already walked"):
            out.backward(seed=np.full((1, 1), 2.0))
        np.testing.assert_array_equal(x.grad, first)

    def test_graph_sharing_a_walked_node_raises(self):
        # y's closure ran in the first walk; a new graph built on y cannot
        # push a gradient through it
        x = ad.Tensor([[0.5, -1.5], [2.0, 0.3]])
        y = ad.tanh(x @ x)
        ad.reshape(ad.add(y, y), (1, -1)).backward(seed=np.ones((1, 4)))
        second = ad.reshape(ad.mul_const(y, np.full((2, 2), 3.0)), (1, -1))
        with pytest.raises(ParameterError, match="already walked"):
            second.backward(seed=np.ones((1, 4)))

    def test_deep_chain_does_not_recurse(self):
        x = ad.Tensor([[1.0]])
        node = x
        for _ in range(5000):
            node = ad.mul_const(node, np.ones((1, 1)))
        node.backward()
        np.testing.assert_allclose(x.grad, [[1.0]])

    def test_finite_check_helper(self):
        with pytest.raises(NumericError, match="stage-3"):
            ad.check_finite(np.array([[np.nan]]), "stage-3")


def graph_nodes(out):
    """Every node ``out`` reaches through its parents, parents first."""
    order, seen, stack = [], set(), [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents)
    return order


def zero_start_grads(out):
    """The reference backward pass: every grad starts as a zero array and
    every contribution is added to it."""
    order = graph_nodes(out)
    for node in order:
        node.grad = np.zeros_like(node.value)
    out.grad = np.ones_like(out.value)
    for node in reversed(order):
        if node._backward is not None:
            node._backward()
    return [node.grad.copy() for node in order]


def backward_recording_grads(out):
    """Run ``out.backward()`` and return every node's grad, parents first.

    An inner node's grad is the one its closure consumed, recorded just
    before the closure runs (the walk frees it right after); a leaf's is
    the one the walk leaves it.  Leaves and inner nodes are told apart
    before the walk, which consumes the graph.  Also asserts the rule:
    after the walk every inner node holds no grad, closure or parent
    links, and every leaf holds a grad.
    """
    order = graph_nodes(out)
    inner = {id(node) for node in order if node._backward is not None}
    consumed = {}
    for node in order:
        if id(node) in inner:

            def recording(node=node, run=node._backward):
                consumed[id(node)] = node.grad
                run()

            node._backward = recording
    out.backward()
    grads = []
    for node in order:
        if id(node) in inner:
            assert node.grad is None and node._backward is None and node._parents is None
            grads.append(consumed[id(node)])
        else:
            assert node.grad is not None and node._parents == ()
            grads.append(node.grad)
    return grads


def assert_matches_zero_start(build):
    """``build()`` makes the same graph each call; the lazy pass must give
    every node, inner ones too, the reference's grad."""
    lazy = backward_recording_grads(build())
    reference = zero_start_grads(build())
    assert len(lazy) == len(reference)
    for got, want in zip(lazy, reference):
        np.testing.assert_array_equal(got, want)


class TestLazyGrads:
    def test_one_tensor_feeding_add_and_mul(self):
        # x is both operands of an add and of a matrix product
        values = np.array([[0.5, -1.5], [2.0, 0.3]])

        def build():
            x = ad.Tensor(values)
            row = ad.reshape(ad.tanh(ad.add(x, x) + x @ x), (1, -1))
            return row @ ad.Tensor(np.ones((4, 1)))

        assert_matches_zero_start(build)

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: ad.reshape(x, (3, 2)),
            ad.transpose,
            lambda x: ad.concat_rows(x, ad.Tensor(np.ones((1, 3)))),
        ],
        ids=["reshape", "transpose", "concat_rows"],
    )
    def test_view_op_output_with_two_consumers(self, op):
        values = np.array([[0.3, -0.7, 1.1], [2.0, -0.2, 0.4]])

        def build():
            x = ad.Tensor(values)
            y = op(x)  # its input and its output both have a second consumer
            row = ad.reshape(ad.add(ad.add(y, y), ad.tanh(y)), (1, -1))
            tripled = ad.reshape(ad.mul_const(x, np.full(x.shape, 3.0)), (1, -1))
            return ad.add(row @ row.T, tripled @ ad.Tensor(np.ones((6, 1))))

        assert_matches_zero_start(build)

    def test_hgrjca_batch_grads_are_distinct_arrays(self):
        clips = generate(GenConfig(num_videos=12, frames=64, dim_audio=16, dim_visual=16, seed=4))
        windows = [w for clip in clips for w in window(clip, 64, 64)]
        assert len(windows) == 12
        model = EmotionModel(
            ModelConfig(mode="HGRJCA", dim_audio=16, dim_visual=16, seq_len=64, depth=3),
            rng=np.random.default_rng(0),
        )

        def build():
            return model.batch_loss(windows, "valence", dropout_rng=np.random.default_rng(1))

        loss = build()
        nodes = graph_nodes(loss)
        grads = backward_recording_grads(loss)
        for node, grad in zip(nodes, grads, strict=True):
            assert grad.shape == node.value.shape
        for i, a in enumerate(grads):
            for b in grads[i + 1 :]:
                assert not np.shares_memory(a, b)
        for name, p in model.parameters().items():
            assert p.grad.shape == p.value.shape, name
        assert_matches_zero_start(build)

    def test_degenerate_loss_leaves_zero_grads(self):
        # zero output layer and zero targets: both sides constant and equal,
        # so the CCC denominator is 0 and the loss pushes a zero gradient
        clips = generate(GenConfig(num_videos=2, frames=16, dim_audio=4, dim_visual=4, seed=2))
        windows = [w for clip in clips for w in window(clip, 16, 16)]
        windows = [dataclasses.replace(w, valence=np.zeros_like(w.valence)) for w in windows]
        model = EmotionModel(
            ModelConfig(mode="GRJCA", dim_audio=4, dim_visual=4, seq_len=16, depth=2),
            rng=np.random.default_rng(0),
        )
        model.head.weights[f"layer{model.head.layers}.weight"].value[...] = 0.0
        loss = model.batch_loss(windows, "valence")
        assert loss.item() == 1.0
        loss.backward()
        params = model.parameters()
        before = {name: p.value.copy() for name, p in params.items()}
        for name, p in params.items():
            assert p.grad.shape == p.value.shape, name
            assert not p.grad.any(), name
        adam_step(params, AdamState(), 1e-3)
        for name, p in params.items():
            np.testing.assert_array_equal(p.value, before[name])


def rjca_training_forward(seq_len, batch=4):
    """The loss graph of an RJCA depth-3 model on one training batch of
    ``batch`` windows of ``seq_len`` frames, and the bytes it holds as
    counted by tracemalloc, which must be running, from after the model
    is built."""
    clips = generate(GenConfig(num_videos=batch, frames=seq_len, dim_audio=16, dim_visual=16, seed=4))
    windows = [w for clip in clips for w in window(clip, seq_len, seq_len)]
    model = EmotionModel(
        ModelConfig(mode="RJCA", dim_audio=16, dim_visual=16, seq_len=seq_len, depth=3),
        rng=np.random.default_rng(0),
    )
    base = tracemalloc.get_traced_memory()[0]
    loss = model.batch_loss(windows, "valence", dropout_rng=np.random.default_rng(1))
    return loss, tracemalloc.get_traced_memory()[0] - base


def test_backward_frees_inner_grads_during_the_walk():
    # each inner node gets a grad of its value's size, so grads kept to
    # the end of the walk would add about as much again as the inner
    # nodes' values hold; freed once consumed, the backward's peak stays
    # below that
    tracemalloc.start()
    try:
        loss, _ = rjca_training_forward(64)
        inner = sum(node.value.nbytes for node in graph_nodes(loss) if node._backward is not None)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert extra < inner, (extra, inner)


def test_backward_peak_is_under_half_the_forward_graph():
    # at L = 192, B = 12 the walk frees each value and closure array once
    # no consumer needs it, and attention recomputes its correlations a
    # block of members at a time, so the backward's peak above its start
    # stays under half of what the forward holds.  A walk that keeps the
    # graph to its end with whole-batch L x L arrays reaches about 80%
    tracemalloc.start()
    try:
        loss, held = rjca_training_forward(192, batch=12)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert extra < held / 2, (extra, held)


def test_training_forward_keeps_no_length_squared_arrays():
    # the graph's arrays are B x d x L, so doubling L at most doubles what
    # the forward holds; one B x L x L float64 array of slack allows for
    # the correlation a round frees as it goes.  A graph that kept each
    # round's correlations would hold six such arrays at depth 3
    tracemalloc.start()
    try:
        _, short = rjca_training_forward(64)
        _, long = rjca_training_forward(128)
    finally:
        tracemalloc.stop()
    assert long <= 2 * short + 4 * 128 * 128 * 8, (short, long)


def leaf(rng, *shape):
    return ad.Tensor(rng.standard_normal(shape))


# every node kind the package makes, each built on fresh leaves; a key is
# the function that makes the node, then a case name after a dash
NODE_KINDS = {
    "add": lambda r: ad.add(leaf(r, 2, 3), leaf(r, 2, 3)),
    "mul_const": lambda r: ad.mul_const(leaf(r, 2, 3), r.standard_normal((2, 3))),
    "tanh": lambda r: ad.tanh(leaf(r, 2, 3)),
    "relu": lambda r: ad.relu(leaf(r, 2, 3)),
    "matmul": lambda r: ad.matmul(leaf(r, 4, 2, 3), leaf(r, 3, 5)),
    "transpose": lambda r: ad.transpose(leaf(r, 2, 3)),
    "concat_rows": lambda r: ad.concat_rows(leaf(r, 1, 3), leaf(r, 2, 3)),
    "reshape": lambda r: ad.reshape(leaf(r, 2, 3), (1, -1)),
    "tcn_level": lambda r: tcn_level(leaf(r, 2, 3, 6), [leaf(r, 3, 3) for _ in range(3)], leaf(r, 3, 1), 2),
    "add_colvec": lambda r: ad.add_colvec(leaf(r, 2, 3), leaf(r, 2, 1)),
    "attention": lambda r: attention(leaf(r, 2, 3, 5), leaf(r, 2, 3, 5), leaf(r, 5, 5), 0.5),
    "gate": lambda r: gate(leaf(r, 5, 3), [leaf(r, 2, 5) for _ in range(3)], 0.7)[1],
    "ccc_loss": lambda r: ccc_loss(leaf(r, 1, 8), r.standard_normal(8)),
    "ccc_loss-zero-denominator": lambda r: ccc_loss(ad.Tensor(np.full((1, 8), 0.5)), np.full(8, 0.5)),
}


@pytest.mark.parametrize("kind", sorted(NODE_KINDS))
def test_backward_pushes_to_every_parent(kind):
    # backward runs every closure once and fills no grad itself, so a
    # closure must give each parent a grad of its value's shape
    rng = np.random.default_rng(41)
    node = NODE_KINDS[kind](rng)
    node.grad = rng.standard_normal(node.value.shape)
    node._backward()
    assert node._parents
    for parent in node._parents:
        assert parent.grad is not None
        assert parent.grad.shape == parent.value.shape


def test_node_kinds_cover_every_node_maker():
    # each function of the package that calls Tensor._make has a case above
    makers = set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(inner, ast.Attribute) and inner.attr == "_make" for inner in ast.walk(node)
            ):
                makers.add(node.name)
    assert makers == {kind.split("-")[0] for kind in NODE_KINDS}


def test_every_op_has_a_model_caller():
    # the op set is what the model uses: each public function of autodiff
    # is named in another module of the package, or, for an op behind one
    # of Tensor's operators, that operator is used there
    tree = ast.parse(Path(ad.__file__).read_text())
    ops = {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    tensor = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Tensor")
    forwards = {}  # Tensor member -> the op it returns, e.g. __add__ -> add, T -> transpose
    for member in tensor.body:
        last = member.body[-1] if isinstance(member, ast.FunctionDef) else None
        if isinstance(last, ast.Return) and isinstance(last.value, ast.Call) and isinstance(last.value.func, ast.Name):
            forwards[member.name] = last.value.func.id
    operators = {ast.Add: "__add__", ast.MatMult: "__matmul__"}
    named = set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        if path.name == "autodiff.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.BinOp) and type(node.op) in operators:
                named.add(operators[type(node.op)])
    named |= {op for member, op in forwards.items() if member in named}
    assert sorted(ops - named) == []


def test_every_public_name_has_a_caller():
    # no test-only API: each public function, class and method of the
    # package is named, apart from its own definition, by the package, a
    # demo or the benchmark (a string counts, as the tracer patches by name)
    package = Path(ad.__file__).parent
    root = package.parents[1]
    defined = {}  # name -> module.name of its first definition
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)) and not item.name.startswith("_"):
                    defined.setdefault(item.name, f"{path.stem}.{item.name}")
    named = set()
    for path in [*package.glob("*.py"), *root.glob("demos/*.py"), *root.glob("bench/**/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    assert sorted(where for name, where in defined.items() if name not in named) == []
