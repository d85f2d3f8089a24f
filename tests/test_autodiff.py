"""Tests for the reverse-mode core: forward oracles, then gradient rules."""

import dataclasses
import math

import numpy as np
import pytest

from avfusion import autodiff as ad
from avfusion.exceptions import DimensionError, NumericError, ParameterError
from avfusion.model import EmotionModel, ModelConfig
from avfusion.synthdata import GenConfig, generate, window
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
        (a @ b).sum().backward()
        ones = np.ones((4, 2))
        np.testing.assert_allclose(a.grad, ones @ b.value.T, atol=1e-14)
        np.testing.assert_allclose(b.grad, a.value.T @ ones, atol=1e-14)


class TestElementwise:
    def test_relu_values(self):
        np.testing.assert_array_equal(
            ad.relu(ad.Tensor([[-1.0, 2.0]])).value, [[0.0, 2.0]]
        )

    def test_tanh_zero(self):
        assert ad.tanh(ad.Tensor([[0.0]])).value[0, 0] == 0.0

    def test_mul_ones_identity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 4))
        got = ad.mul(ad.Tensor(a), ad.Tensor(np.ones((3, 4)))).value
        np.testing.assert_array_equal(got, a)

    def test_binary_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.add(ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros((2, 3))))

    def test_relu_derivative_zero_at_kink(self):
        x = ad.Tensor([[0.0, -1.0, 1.0]])
        y = ad.relu(x)
        y.backward(seed=np.ones((1, 3)))
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])


class TestSoftmax:
    def test_symmetric_pair(self):
        for temp in (0.01, 0.1, 1.0, 10.0):
            y = ad.softmax_temp(ad.Tensor([[0.0, 0.0]]), temp).value
            np.testing.assert_allclose(y, [[0.5, 0.5]], atol=1e-15)

    def test_sharp_pair_direct_evaluation(self):
        # softmax([1, 0] / 0.1) = [e^10, 1] / (e^10 + 1)
        y = ad.softmax_temp(ad.Tensor([[1.0, 0.0]]), 0.1).value
        expect = math.exp(10.0) / (math.exp(10.0) + 1.0)
        np.testing.assert_allclose(y, [[expect, 1.0 - expect]], rtol=1e-12)

    def test_uniform_triple(self):
        y = ad.softmax_temp(ad.Tensor([[3.7, 3.7, 3.7]]), 0.1).value
        np.testing.assert_allclose(y, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_rows_and_cols_sum_to_one(self):
        rng = np.random.default_rng(13)
        for temp in (0.01, 0.1, 1.0):
            logits = ad.Tensor(rng.uniform(-5, 5, (6, 4)))
            rows = ad.softmax_temp(logits, temp).value
            cols = ad.softmax_temp(logits.T, temp).value.T
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(cols.sum(axis=0), 1.0, atol=1e-12)
            # Extreme sharpness may underflow losing entries to exact zero.
            assert (rows >= 0).all() and (cols >= 0).all()
            if temp == 1.0:
                assert (rows > 0).all() and (cols > 0).all()

    def test_temperature_folding_identity(self):
        # softmax_temp(x, T) == softmax_temp(x / T, 1) bit for bit.
        rng = np.random.default_rng(17)
        x = rng.uniform(-2, 2, (3, 5))
        for temp in (0.01, 0.1, 1.0, 3.0):
            a = ad.softmax_temp(ad.Tensor(x), temp).value
            b = ad.softmax_temp(ad.Tensor(x / temp), 1.0).value
            np.testing.assert_array_equal(a, b)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ParameterError):
            ad.softmax_temp(ad.Tensor([[1.0]]), 0.0)
        with pytest.raises(ParameterError):
            ad.softmax_temp(ad.Tensor([[1.0]]), -1.0)


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
        ad.concat_rows(a, b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.ones((1, 3)))


class TestCausalConv:
    @staticmethod
    def delay(x, dilation):
        # two 1x1 taps: the first reads the frame `dilation` back, the
        # second (the current frame) is switched off
        return ad.causal_conv(x, [ad.Tensor([[1.0]]), ad.Tensor([[0.0]])], dilation)

    def test_shift_is_causal(self):
        x = ad.Tensor([[1.0, 2.0, 3.0, 4.0]])
        np.testing.assert_array_equal(self.delay(x, 2).value, [[0.0, 0.0, 1.0, 2.0]])

    def test_shift_beyond_width_is_zero(self):
        x = ad.Tensor([[1.0, 2.0]])
        np.testing.assert_array_equal(self.delay(x, 5).value, [[0.0, 0.0]])
        self.delay(x, 5).sum().backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0]])

    def test_shift_gradient(self):
        x = ad.Tensor([[1.0, 2.0, 3.0]])
        taps = [ad.Tensor([[1.0]]), ad.Tensor([[0.0]])]
        y = ad.causal_conv(x, taps, 1)
        y.backward(seed=np.array([[10.0, 20.0, 30.0]]))
        np.testing.assert_array_equal(x.grad, [[20.0, 30.0, 0.0]])
        # each tap's gradient pairs the seed with the columns it read
        np.testing.assert_array_equal(taps[0].grad, [[10.0 * 0 + 20.0 * 1 + 30.0 * 2]])
        np.testing.assert_array_equal(taps[1].grad, [[10.0 * 1 + 20.0 * 2 + 30.0 * 3]])

    def test_batch_matches_each_member(self):
        rng = np.random.default_rng(5)
        taps = [ad.Tensor(rng.standard_normal((3, 3))) for _ in range(3)]
        x = rng.standard_normal((4, 3, 9))
        batched = ad.causal_conv(ad.Tensor(x), taps, 2).value
        for b in range(4):
            single = ad.causal_conv(ad.Tensor(x[b]), taps, 2).value
            np.testing.assert_allclose(batched[b], single, rtol=0, atol=1e-14)


class TestGatedSum:
    def test_gate_column_gradient(self):
        # the gradient of gate column k is the column sums of candidate k
        a = ad.Tensor(np.arange(8.0).reshape(2, 4))
        b = ad.Tensor(np.ones((2, 4)))
        gates = ad.Tensor(np.full((4, 2), 0.5))
        ad.gated_sum([a, b], gates).sum().backward()
        np.testing.assert_array_equal(gates.grad[:, 0], a.value.sum(axis=0))
        np.testing.assert_array_equal(gates.grad[:, 1], [2.0, 2.0, 2.0, 2.0])
        np.testing.assert_array_equal(a.grad, np.full((2, 4), 0.5))

    def test_weights_each_frame(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ad.Tensor([[10.0, 20.0], [30.0, 40.0]])
        gates = ad.Tensor([[1.0, 0.0], [0.25, 0.75]])
        np.testing.assert_array_equal(
            ad.gated_sum([a, b], gates).value, [[1.0, 0.5 + 15.0], [3.0, 1.0 + 30.0]]
        )

    def test_gate_shape_checked(self):
        a = ad.Tensor(np.zeros((2, 4)))
        with pytest.raises(DimensionError, match="gated_sum"):
            ad.gated_sum([a, a], ad.Tensor(np.zeros((4, 3))))


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
        (w @ ad.Tensor(x)).sum().backward()
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
        # reshaped matrix so gradcheck probes both operands
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.standard_normal((3 * 4, 5)), name="x")
        if weight_side == "right":
            w = ad.Tensor(rng.standard_normal((5, 2)), name="w")

            def f():
                return ad.tanh(ad.reshape(x, (3, 4, 5)) @ w).sum()
        else:
            w = ad.Tensor(rng.standard_normal((2, 4)), name="w")

            def f():
                return ad.tanh(w @ ad.reshape(x, (3, 4, 5))).sum()

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
    w = ad.Tensor(rng.standard_normal((d, d)), name="w")
    taps = [ad.Tensor(rng.standard_normal((d, d)), name=f"tap{j}") for j in range(2)]
    b = ad.Tensor(rng.standard_normal((d, 1)), name="b")
    g = ad.Tensor(rng.standard_normal((d, 2)), name="g")
    x = rng.standard_normal((2, d, L))
    weights = rng.standard_normal((1, 2 * 2 * d * L))

    def full_program():
        xt = ad.Tensor(x)
        h = w @ xt
        h = ad.add_colvec(h, b)
        h = ad.tanh(h)
        conv = ad.causal_conv(h, taps, 2)
        gates = ad.softmax_temp(h.T @ g, 0.5)
        mixed = ad.gated_sum([h, conv], gates)
        norm = ad.softmax_temp(mixed.T, 0.7).T
        row = ad.reshape(ad.concat_rows(norm, h), (1, -1))
        spread = ad.mul_const(row, weights) + row * 0.5
        total = (spread * spread).sum()
        return total * total

    return {"w": w, "tap0": taps[0], "tap1": taps[1], "b": b, "g": g}, full_program


class TestGradcheck:
    def test_linear_function_is_exact(self):
        rng = np.random.default_rng(23)
        w = ad.Tensor(rng.standard_normal((3, 4)), name="w")
        x = rng.standard_normal((4, 2))

        report = ad.gradcheck(lambda: (w @ ad.Tensor(x)).sum(), {"w": w})
        assert report.worst < 1e-10

    def test_composite_program(self):
        rng = np.random.default_rng(29)
        params, program = quadratic_cases(rng)
        report = ad.gradcheck(program, params)
        assert report.worst < 1e-7
        assert report.checked > 0

    def test_kink_coordinates_are_skipped(self):
        w = ad.Tensor([[0.0, 1.0, -1.0]], name="w")
        report = ad.gradcheck(lambda: ad.relu(w).sum(), {"w": w}, epsilon=1e-4)
        # Perturbing the zero entry flips the relu sign pattern between
        # +eps and -eps, so only the two clean coordinates are probed.
        assert report.skipped_kinks == 1
        assert report.checked == 2
        assert report.worst < 1e-10

    def test_nested_kink_scopes_keep_their_own_lists(self):
        x = ad.Tensor([[1.0, -1.0]])
        with ad.record_kinks([]) as outer:
            with ad.record_kinks([]) as inner:
                ad.relu(x)
            # the scopes' lists are equal here, but only the inner one closed
            ad.relu(x)
        assert len(inner) == 1
        assert len(outer) == 2
        ad.relu(x)
        assert len(outer) == 2

    def test_epsilon_range_enforced(self):
        w = ad.Tensor([[1.0]], name="w")
        with pytest.raises(ParameterError):
            ad.gradcheck(lambda: w.sum(), {"w": w}, epsilon=1e-2)

    def test_nonfinite_loss_names_parameter(self):
        w = ad.Tensor([[1.0]], name="w")

        def f():
            # log of a negative number once w dips below zero
            with np.errstate(invalid="ignore"):
                val = np.log(w.value[0, 0] - 1.0 + 1e-5)
            out = ad.Tensor([[val]])
            return (out * w).sum()

        with pytest.raises(NumericError, match="w"):
            ad.gradcheck(f, {"w": w}, epsilon=1e-4)

    def test_sampling_caps_probes(self):
        rng = np.random.default_rng(31)
        w = ad.Tensor(rng.standard_normal((10, 10)), name="w")
        report = ad.gradcheck(
            lambda: ad.tanh(w).sum(), {"w": w}, max_entries_per_param=7
        )
        assert report.checked == 7


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
        y = x * x  # d/dx = 2x = 4
        y.backward()
        np.testing.assert_allclose(x.grad, [[4.0]])

    def test_diamond_graph(self):
        x = ad.Tensor([[3.0]])
        a = x * 2.0
        b = x * 5.0
        (a + b).backward()
        np.testing.assert_allclose(x.grad, [[7.0]])

    def test_deep_chain_does_not_recurse(self):
        x = ad.Tensor([[1.0]])
        node = x
        for _ in range(5000):
            node = node * 1.0
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


def assert_matches_zero_start(build):
    """``build()`` makes the same graph each call; the lazy pass must leave
    every node, inner ones too, with the reference's grad."""
    out = build()
    out.backward()
    lazy = [node.grad.copy() for node in graph_nodes(out)]
    reference = zero_start_grads(build())
    assert len(lazy) == len(reference)
    for got, want in zip(lazy, reference):
        np.testing.assert_array_equal(got, want)


class TestLazyGrads:
    def test_one_tensor_feeding_add_and_mul(self):
        values = np.array([[0.5, -1.5, 2.0]])

        def build():
            x = ad.Tensor(values)
            return ad.tanh(ad.add(x, x) + ad.mul(x, x)).sum()

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
            first = ad.add(y, y)
            second = ad.mul(ad.tanh(y), y)
            return ad.add(ad.add(first, second).sum(), (x * 3.0).sum())

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
        loss.backward()
        nodes = graph_nodes(loss)
        for i, a in enumerate(nodes):
            assert a.grad.shape == a.value.shape
            for b in nodes[i + 1 :]:
                assert not np.shares_memory(a.grad, b.grad)
        for name, p in model.parameters().items():
            assert p.grad.shape == p.value.shape, name
        assert_matches_zero_start(build)

    def test_degenerate_loss_leaves_zero_grads(self):
        # zero output layer and zero targets: both sides constant and equal,
        # so the CCC denominator is 0 and the loss pushes no gradient
        clips = generate(GenConfig(num_videos=2, frames=16, dim_audio=4, dim_visual=4, seed=2))
        windows = [w for clip in clips for w in window(clip, 16, 16)]
        windows = [dataclasses.replace(w, valence=np.zeros_like(w.valence)) for w in windows]
        model = EmotionModel(
            ModelConfig(mode="GRJCA", dim_audio=4, dim_visual=4, seq_len=16, depth=2),
            rng=np.random.default_rng(0),
        )
        model.head.weights[-1].value[...] = 0.0
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
