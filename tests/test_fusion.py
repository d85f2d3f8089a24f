"""Fusion mechanism tests.

The load-bearing check is oracle equivalence: a straight-line numpy
reimplementation of the same equations, written against the name -> array
weight values only, must agree with the modular pipeline within 1e-12
across random small configurations of every mode.
"""

import math
import time

import numpy as np
import pytest

from avfusion import autodiff as ad
from avfusion import fusion
from avfusion.autodiff import Tensor, gradcheck
from avfusion.exceptions import ConfigError, DimensionError, NumericError
from avfusion.fusion import MODALITIES, FusionParams, attention, fusion_forward, gate, rjca_forward
from avfusion.metrics import ccc_loss
from avfusion.model import ModelConfig


# -- straight-line oracle ----------------------------------------------------


def softmax_rows_oracle(logits, temperature):
    scaled = logits / temperature
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def oracle_fusion(audio, visual, weights, mode, depth, temperature, joint_projection):
    """Independent reimplementation reading only a name -> array weight dict."""
    d = audio.shape[0] + visual.shape[0]
    xa = [np.asarray(audio, dtype=np.float64)]
    xv = [np.asarray(visual, dtype=np.float64)]
    for t in range(1, depth + 1):
        tag = f"round{t}."
        joint = np.vstack([xa[-1], xv[-1]])
        if joint_projection:
            joint = weights[tag + "joint_proj"] @ joint
        corr_a = np.tanh(xa[-1].T @ weights[tag + "corr_audio"] @ joint / np.sqrt(d))
        corr_v = np.tanh(xv[-1].T @ weights[tag + "corr_visual"] @ joint / np.sqrt(d))
        map_a = np.maximum(xa[-1] @ weights[tag + "attn_audio"] @ corr_a, 0.0)
        map_v = np.maximum(xv[-1] @ weights[tag + "attn_visual"] @ corr_v, 0.0)
        xa.append(map_a @ weights[tag + "out_audio"] + xa[-1])
        xv.append(map_v @ weights[tag + "out_visual"] + xv[-1])

    def gated_sum(cands, gates):
        total = sum(c * gates[:, k] for k, c in enumerate(cands))
        return np.maximum(total, 0.0)

    if mode in ("JCA", "RJCA"):
        final_a, final_v = xa[depth], xv[depth]
    elif mode == "GRJCA":
        finals = []
        for xs, key in ((xa, "gate_audio"), (xv, "gate_visual")):
            gates = softmax_rows_oracle(xs[depth].T @ weights[key], temperature)
            finals.append(gated_sum(xs, gates))
        final_a, final_v = finals
    else:
        per_round = {"audio": [], "visual": []}
        for t in range(1, depth + 1):
            for xs, name in ((xa, "audio"), (xv, "visual")):
                w = weights[f"round{t}.iter_gate_{name}"]
                gates = softmax_rows_oracle(xs[t].T @ w, temperature)
                per_round[name].append(gated_sum([xs[t - 1], xs[t]], gates))
        finals = []
        for name in ("audio", "visual"):
            cands = per_round[name]
            pooled = cands[0]
            for c in cands[1:]:
                pooled = pooled + c
            gates = softmax_rows_oracle(pooled.T @ weights[f"final_gate_{name}"], temperature)
            finals.append(gated_sum(cands, gates))
        final_a, final_v = finals
    return np.vstack([final_a, final_v])


def weight_values(params):
    """The oracle's input: name -> array, read from the params' leaf tensors."""
    return {name: t.value for name, t in params.weights.items()}


def run_modular(audio, visual, params):
    return fusion_forward(Tensor(audio), Tensor(visual), params)


def randomize(params, rng, scale=0.3, include_gates=True):
    # default init zeroes the output projections and gates, which makes
    # every round an identity; fill the weights so tests probe a generic
    # point of the computation
    for name, p in params.weights.items():
        if not include_gates and "gate" in name:
            continue
        p.value[...] = scale * rng.standard_normal(p.shape)


def random_case(rng, mode):
    d_a = int(rng.integers(1, 9))
    d_v = int(rng.integers(1, 9))
    L = int(rng.integers(1, 9))
    depth = 1 if mode == "JCA" else int(rng.integers(1, 4))
    config = ModelConfig(
        mode=mode,
        dim_audio=d_a,
        dim_visual=d_v,
        seq_len=L,
        depth=depth,
        temperature=float(rng.choice([0.05, 0.1, 0.5, 1.0])),
        joint_projection=bool(rng.integers(0, 2)),
    )
    params = FusionParams(config, rng=np.random.default_rng(rng.integers(0, 2**32)))
    randomize(params, rng)
    audio = rng.standard_normal((d_a, L))
    visual = rng.standard_normal((d_v, L))
    return audio, visual, params


class TestOracleEquivalence:
    def test_hundred_random_configs(self):
        rng = np.random.default_rng(20240817)
        start = time.monotonic()
        counts = {mode: 0 for mode in ("JCA", "RJCA", "GRJCA", "HGRJCA")}
        for i in range(120):
            mode = ("JCA", "RJCA", "GRJCA", "HGRJCA")[i % 4]
            counts[mode] += 1
            audio, visual, params = random_case(rng, mode)
            state = run_modular(audio, visual, params)
            expected = oracle_fusion(
                audio,
                visual,
                weight_values(params),
                mode,
                params.config.depth,
                params.config.temperature,
                params.config.joint_projection,
            )
            diff = np.max(np.abs(state.fused.value - expected))
            assert diff < 1e-12, f"config {i} ({mode}): max abs diff {diff}"
        elapsed = time.monotonic() - start
        assert all(n >= 25 for n in counts.values())
        assert elapsed < 30.0

    def test_hgrjca_fixed_seed_case(self):
        rng = np.random.default_rng(7)
        config = ModelConfig("HGRJCA", dim_audio=4, dim_visual=4, seq_len=5, depth=2)
        params = FusionParams(config, rng=np.random.default_rng(7))
        randomize(params, np.random.default_rng(8))
        audio = rng.standard_normal((4, 5))
        visual = rng.standard_normal((4, 5))
        state = run_modular(audio, visual, params)
        expected = oracle_fusion(audio, visual, weight_values(params), "HGRJCA", 2, 0.1, True)
        assert np.max(np.abs(state.fused.value - expected)) < 1e-12


class TestShapes:
    def test_fused_shape(self):
        for mode, depth in (("JCA", 1), ("RJCA", 3), ("GRJCA", 2), ("HGRJCA", 2)):
            config = ModelConfig(mode, dim_audio=3, dim_visual=5, seq_len=4, depth=depth)
            params = FusionParams(config, rng=np.random.default_rng(1))
            rng = np.random.default_rng(2)
            state = run_modular(rng.standard_normal((3, 4)), rng.standard_normal((5, 4)), params)
            assert state.fused.shape == (8, 4)

    def test_attended_shapes_preserved(self):
        for depth in (1, 2, 3, 4):
            config = ModelConfig("RJCA", dim_audio=3, dim_visual=2, seq_len=6, depth=depth)
            params = FusionParams(config, rng=np.random.default_rng(3))
            rng = np.random.default_rng(4)
            state = run_modular(rng.standard_normal((3, 6)), rng.standard_normal((2, 6)), params)
            assert len(state.attended["audio"]) == depth + 1
            for t in range(depth + 1):
                assert state.attended["audio"][t].shape == (3, 6)
                assert state.attended["visual"][t].shape == (2, 6)

    def test_joint_shape(self):
        config = ModelConfig("JCA", dim_audio=2, dim_visual=3, seq_len=4)
        params = FusionParams(config, rng=np.random.default_rng(5))
        rng = np.random.default_rng(6)
        state = run_modular(rng.standard_normal((2, 4)), rng.standard_normal((3, 4)), params)
        assert state.joint[0].shape == (5, 4)
        wj = fusion.joint_correlation(state.joint[0], params, 1)
        assert {m: wj[m].shape for m in MODALITIES} == {"audio": (2, 4), "visual": (3, 4)}
        assert state.attn_map["audio"][0].shape == (2, 4)

    def test_modality_length_mismatch(self):
        config = ModelConfig("JCA", dim_audio=2, dim_visual=3, seq_len=4)
        params = FusionParams(config, rng=np.random.default_rng(5))
        with pytest.raises(DimensionError, match="do not stack"):
            run_modular(np.zeros((2, 4)), np.zeros((3, 5)), params)


class TestRoundPieces:
    def test_correlation_bounded_and_scaled(self):
        # single scalar case evaluates the whole formula by hand: with
        # every value 1 and d = 2, the map relu(x W_attn corr) is the
        # correlation tanh(x^T w j / sqrt(d)) itself
        config = ModelConfig("JCA", dim_audio=1, dim_visual=1, seq_len=1, joint_projection=False)
        params = FusionParams(config, rng=np.random.default_rng(0))
        for p in params.weights.values():
            p.value[...] = 1.0
        state = run_modular(np.ones((1, 1)), np.ones((1, 1)), params)
        expected = math.tanh(2.0 / math.sqrt(2.0))
        for m in MODALITIES:
            assert abs(state.attn_map[m][0].value[0, 0] - expected) < 1e-12

    def test_correlation_range(self):
        # a map is relu(P corr) with P = X W_attn, so |corr| <= 1 bounds
        # each entry by the sum of |P| over its row; at 10x inputs an
        # unsquashed correlation would be far past that bound
        rng = np.random.default_rng(11)
        config = ModelConfig("RJCA", dim_audio=4, dim_visual=4, seq_len=6, depth=2)
        params = FusionParams(config, rng=np.random.default_rng(12))
        state = run_modular(10 * rng.standard_normal((4, 6)), 10 * rng.standard_normal((4, 6)), params)
        for t in (1, 2):
            for m in MODALITIES:
                p = state.attended[m][t - 1].value @ params.weights[f"round{t}.attn_{m}"].value
                amap = state.attn_map[m][t - 1].value
                assert amap.any()
                assert np.all(amap <= np.abs(p).sum(axis=-1, keepdims=True) * (1 + 1e-12))

    def test_attention_maps_nonnegative(self):
        rng = np.random.default_rng(13)
        config = ModelConfig("RJCA", dim_audio=3, dim_visual=3, seq_len=5, depth=2)
        params = FusionParams(config, rng=np.random.default_rng(14))
        state = run_modular(rng.standard_normal((3, 5)), rng.standard_normal((3, 5)), params)
        for m in state.attn_map["audio"] + state.attn_map["visual"]:
            assert np.all(m.value >= 0.0)

    def test_zero_audio_rows_in_joint(self):
        config = ModelConfig("JCA", dim_audio=2, dim_visual=3, seq_len=4, joint_projection=False)
        params = FusionParams(config, rng=np.random.default_rng(15))
        visual = np.random.default_rng(16).standard_normal((3, 4))
        state = run_modular(np.zeros((2, 4)), visual, params)
        assert np.array_equal(state.joint[0].value[:2], np.zeros((2, 4)))
        assert np.array_equal(state.joint[0].value[2:], visual)


class TestAttentionNode:
    """``attention`` is a round's correlation, its two products and the
    relu as one node."""

    @staticmethod
    def composite(x, wj, w_attn, scale):
        corr = ad.tanh(ad.mul_const(x.T @ wj, np.full(x.value.shape[:-2] + (x.cols, x.cols), scale)))
        return ad.relu(x @ w_attn @ corr)

    @pytest.mark.parametrize("batch", [(), (1,), (3,)], ids=["matrix", "B1", "B3"])
    def test_equals_the_plain_node_composite_bit_for_bit(self, batch):
        rng = np.random.default_rng(41)
        x_val = rng.standard_normal((*batch, 5, 7))
        wj_val = rng.standard_normal((*batch, 5, 7))
        w_val = rng.standard_normal((7, 7))
        seed = rng.standard_normal((*batch, 5, 7))
        scale = 1.0 / math.sqrt(10)
        x, wj, w_attn = Tensor(x_val), Tensor(wj_val), Tensor(w_val)
        fused = attention(x, wj, w_attn, scale)
        assert fused._parents == (x, wj, w_attn)
        x_ref, wj_ref, w_ref = Tensor(x_val), Tensor(wj_val), Tensor(w_val)
        composite = self.composite(x_ref, wj_ref, w_ref, scale)
        assert np.array_equal(fused.value, composite.value)
        assert 0 < np.count_nonzero(fused.value) < fused.value.size
        # the round's residual gives x a grad before the node pushes its
        # two terms, so the order of those pushes shows in the bits
        (fused + x).backward(seed)
        (composite + x_ref).backward(seed)
        assert np.array_equal(x.grad, x_ref.grad)
        assert np.array_equal(wj.grad, wj_ref.grad)
        assert np.array_equal(w_attn.grad, w_ref.grad)

    def test_records_the_relu_pattern(self):
        rng = np.random.default_rng(43)
        args = [Tensor(rng.standard_normal(shape)) for shape in ((2, 4, 6), (2, 4, 6), (6, 6))]
        with ad.record_kinks() as fused:
            attention(*args, 0.3)
        with ad.record_kinks() as plain:
            self.composite(*args, 0.3)
        assert len(fused) == len(plain) == 1
        assert np.array_equal(fused[0][0], plain[0][0])
        assert np.array_equal(fused[0][1], plain[0][1])

    def test_gradcheck(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((4, 6)))
        wj = Tensor(rng.standard_normal((4, 6)))
        w_attn = Tensor(rng.standard_normal((6, 6)))
        mix = Tensor(rng.standard_normal((24, 1)))
        params = {"x": x, "wj": wj, "w_attn": w_attn}
        report = gradcheck(lambda: ad.reshape(attention(x, wj, w_attn, 0.4), (1, -1)) @ mix, params)
        assert (report.checked, report.skipped_kinks) == (84, 0)
        assert report.worst < 1e-7, report.per_param

    @pytest.mark.parametrize("members", [1, 5])
    @pytest.mark.parametrize("batch", [(), (12,)], ids=["matrix", "B12"])
    def test_blocks_equal_one_block_bit_for_bit(self, monkeypatch, batch, members):
        # blocks of 1 and of 5 members (the last one short) at L = 192
        # give the value and grads of the whole batch as one block; a
        # matrix is one block whatever the size
        rng = np.random.default_rng(44)
        length = 192
        values = [rng.standard_normal((*batch, 16, length)) for _ in range(2)]
        values.append(rng.standard_normal((length, length)) / length)
        seed = rng.standard_normal((*batch, 16, length))

        def run(block_members):
            monkeypatch.setattr(fusion, "ATTENTION_BLOCK_BYTES", block_members * length * length * 8)
            x, wj, w_attn = (Tensor(v) for v in values)
            out = attention(x, wj, w_attn, 1.0 / math.sqrt(32))
            # the residual gives x a grad before the node's two pushes to it
            (out + x).backward(seed)
            blocks = len(fusion._blocks(x.value))
            return blocks, [out.value, x.grad, wj.grad, w_attn.grad]

        whole_blocks, whole = run(12)
        blocks, blocked = run(members)
        assert (whole_blocks, blocks) == ((1, -(-12 // members)) if batch else (1, 1))
        assert 0 < np.count_nonzero(whole[0]) < whole[0].size
        for got, want in zip(blocked, whole, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "shape, blocks", [((32, 16, 64), 1), ((12, 8, 6), 1), ((12, 16, 192), 4), ((16, 192), 1)]
    )
    def test_default_blocks(self, shape, blocks):
        # one block up to L = 64 at B = 32 and at the gradient audit's 6
        # frames; three members a block at L = 192
        assert len(fusion._blocks(np.empty(shape))) == blocks

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError, match="attention: shapes"):
            attention(Tensor(np.zeros((4, 6))), Tensor(np.zeros((3, 6))), Tensor(np.zeros((6, 6))), 1.0)


class TestGateNode:
    """``gate`` is a gate's softmax, gated sum and relu as one node."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_gradcheck(self, k):
        # a 2-D and a batched gate, each with logits from its last
        # candidate, so the logits' gradient reaches a candidate too
        rng = np.random.default_rng(50 + k)
        flat = [Tensor(rng.standard_normal((3, 5))) for _ in range(k)]
        stacked = [Tensor(rng.standard_normal((2 * 3, 5))) for _ in range(k)]
        w = Tensor(rng.standard_normal((3, k)))
        mix_flat = Tensor(rng.standard_normal((15, 1)))
        mix_stacked = Tensor(rng.standard_normal((30, 1)))

        def loss():
            _, out = gate(flat[-1].T @ w, flat, 0.7)
            batch = [ad.reshape(c, (2, 3, 5)) for c in stacked]
            _, out_batch = gate(batch[-1].T @ w, batch, 0.7)
            return ad.reshape(out, (1, -1)) @ mix_flat + ad.reshape(out_batch, (1, -1)) @ mix_stacked

        params = {"w": w} | {f"flat{i}": c for i, c in enumerate(flat)} | {f"stacked{i}": c for i, c in enumerate(stacked)}
        report = gradcheck(loss, params)
        assert report.checked == 3 * k + k * 15 + k * 30
        assert report.worst < 1e-7, report.per_param

    def test_records_one_kink_pattern_per_gate(self):
        rng = np.random.default_rng(57)
        cands = [Tensor(rng.standard_normal((3, 5))) for _ in range(3)]
        with ad.record_kinks() as patterns:
            _, out = gate(Tensor(rng.standard_normal((5, 3))), cands, 0.5)
        assert len(patterns) == 1
        assert np.array_equal(patterns[0][0], out.value > 0.0)
        # every relu of a fusion pass: one attention map per modality and
        # round, then one per gate (HGRJCA: two per round and two final)
        for mode, relus in (("RJCA", 4), ("GRJCA", 6), ("HGRJCA", 10)):
            config = ModelConfig(mode, dim_audio=3, dim_visual=3, seq_len=5, depth=2)
            params = FusionParams(config, rng=np.random.default_rng(58))
            with ad.record_kinks() as patterns:
                run_modular(rng.standard_normal((3, 5)), rng.standard_normal((3, 5)), params)
            assert len(patterns) == relus, mode


def bits(arr):
    """The raw bits of a float64 array: -0.0 and +0.0 differ, NaNs compare."""
    return np.ascontiguousarray(arr).view(np.int64)


def gate_with_separate_nodes(logits, cands, temperature, g):
    """The gate as a softmax, a gated-sum and a relu node computed it, with
    numpy's row reductions: (y, value, candidate grads, logits grad) for
    upstream grad ``g``."""
    z = logits / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    rows = np.swapaxes(y, -1, -2)
    total = None
    for k, cand in enumerate(cands):
        term = cand * rows[..., k : k + 1, :]
        total = term if total is None else total + term
    positive = total > 0
    g = g * positive
    grad_rows = np.empty_like(rows)
    cand_grads = []
    for k, cand in enumerate(cands):
        cand_grads.append(g * rows[..., k : k + 1, :])
        grad_rows[..., k, :] = (g * cand).sum(axis=-2)
    dy = np.swapaxes(grad_rows, -1, -2)
    inner = (dy * y).sum(axis=-1, keepdims=True)
    return y, np.where(positive, total, 0.0), cand_grads, y * (dy - inner) / temperature


class TestGateKernel:
    """``gate``'s column-wise softmax, in-place gated sum and ``relu_values``
    equal the separate-node formulas bit for bit."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("batch", [(), (12,)])
    def test_equals_separate_nodes(self, k, batch):
        rng = np.random.default_rng(60 + k)
        L = 64
        cands = [rng.standard_normal((*batch, 16, L)) for _ in range(k)]
        logits = rng.standard_normal((*batch, L, k)) * 3.0
        g = rng.standard_normal((*batch, 16, L))
        # time step 5: every candidate negative, so the relu is off and the
        # masked upstream grads are signed zeros; time step 6: one logit
        # far above the rest, so at temperature 0.1 the other weights
        # underflow to +0.0 and their dy * y products are signed zeros
        for cand in cands:
            cand[..., 5] = -np.abs(cand[..., 5]) - 0.1
        logits[..., 6, :] = -100.0
        logits[..., 6, 0] = 100.0
        for temperature in (0.1, 1.0):
            cand_t = [Tensor(c) for c in cands]
            logits_t = Tensor(logits)
            y, out = gate(logits_t, cand_t, temperature)
            out.backward(seed=g)
            want_y, want_out, want_cand, want_logits = gate_with_separate_nodes(logits, cands, temperature, g)
            assert np.array_equal(bits(y.value), bits(want_y))
            assert np.array_equal(bits(out.value), bits(want_out))
            for got, want in zip(cand_t, want_cand):
                assert np.array_equal(bits(got.grad), bits(want))
            assert np.array_equal(bits(logits_t.grad), bits(want_logits))
            assert logits_t.grad.flags.c_contiguous

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_row_sum_equals_numpy_sum(self, k):
        # left to right from +0.0, as numpy sums a short last axis: a row
        # of -0.0 sums to +0.0 (an HGRJCA final gate at depth 1 has k == 1)
        rng = np.random.default_rng(70 + k)
        x = rng.standard_normal((12, 64, k)) * 10.0 ** rng.integers(-8, 9, size=(12, 64, k))
        x[:, 3, :] = -0.0
        x[:, 4, :] = np.where(np.arange(k) % 2, -0.0, 0.0)
        assert np.array_equal(bits(fusion._row_sum(x)), bits(x.sum(axis=-1, keepdims=True)))
        assert np.array_equal(bits(fusion._row_sum(x[0])), bits(x[0].sum(axis=-1, keepdims=True)))


class TestIdentities:
    def test_residual_identity_zero_weights(self):
        # zeroed attention and joint weights telescope to the inputs exactly
        config = ModelConfig("RJCA", dim_audio=3, dim_visual=4, seq_len=5, depth=3)
        params = FusionParams(config, rng=np.random.default_rng(21))
        for p in params.weights.values():
            p.value[...] = 0.0
        rng = np.random.default_rng(22)
        audio = rng.standard_normal((3, 5))
        visual = rng.standard_normal((4, 5))
        state = run_modular(audio, visual, params)
        for t in range(4):
            assert np.array_equal(state.attended["audio"][t].value, audio)
            assert np.array_equal(state.attended["visual"][t].value, visual)

    def test_jca_equals_rjca_depth_one(self):
        kwargs = dict(dim_audio=3, dim_visual=5, seq_len=6, depth=1)
        p_jca = FusionParams(ModelConfig("JCA", **kwargs), rng=np.random.default_rng(31))
        p_rjca = FusionParams(ModelConfig("RJCA", **kwargs), rng=np.random.default_rng(31))
        randomize(p_jca, np.random.default_rng(33))
        randomize(p_rjca, np.random.default_rng(33))
        rng = np.random.default_rng(32)
        audio = rng.standard_normal((3, 6))
        visual = rng.standard_normal((5, 6))
        out_jca = run_modular(audio, visual, p_jca).fused.value
        out_rjca = run_modular(audio, visual, p_rjca).fused.value
        assert np.array_equal(out_jca, out_rjca)


class TestGates:
    def grjca_state(self, depth=2, seed=41, gate_seed=None):
        config = ModelConfig("GRJCA", dim_audio=6, dim_visual=6, seq_len=4, depth=depth)
        params = FusionParams(config, rng=np.random.default_rng(seed))
        randomize(params, np.random.default_rng(seed + 100), include_gates=False)
        if gate_seed is not None:
            rng = np.random.default_rng(gate_seed)
            for name in ("gate_audio", "gate_visual"):
                gate = params.weights[name]
                gate.value[...] = rng.standard_normal(gate.shape)
        rng = np.random.default_rng(seed + 1)
        audio = rng.standard_normal((6, 4))
        visual = rng.standard_normal((6, 4))
        return audio, visual, params

    def test_gate_rows_sum_to_one(self):
        for depth in (1, 2, 3, 4):
            audio, visual, params = self.grjca_state(depth=depth, gate_seed=55)
            state = run_modular(audio, visual, params)
            for gates in state.gates.values():
                assert np.max(np.abs(gates.value.sum(axis=1) - 1.0)) < 1e-12

    def test_hgrjca_gate_rows_sum_to_one(self):
        for depth in (1, 2, 3, 4):
            config = ModelConfig("HGRJCA", dim_audio=4, dim_visual=3, seq_len=5, depth=depth)
            params = FusionParams(config, rng=np.random.default_rng(61))
            randomize(params, np.random.default_rng(64), include_gates=False)
            names = ["final_gate_audio", "final_gate_visual"]
            names += [f"round{t}.iter_gate_audio" for t in range(1, depth + 1)]
            for name in names:
                p = params.weights[name]
                p.value[...] = np.random.default_rng(62).standard_normal(p.shape)
            rng = np.random.default_rng(63)
            state = run_modular(rng.standard_normal((4, 5)), rng.standard_normal((3, 5)), params)
            all_gates = (
                state.iter_gates["audio"]
                + state.iter_gates["visual"]
                + [state.gates["audio"], state.gates["visual"]]
            )
            for gates in all_gates:
                assert np.max(np.abs(gates.value.sum(axis=1) - 1.0)) < 1e-12

    def test_zero_gate_weights_average_candidates(self):
        # equal logits weight every candidate 1/(depth+1)
        audio, visual, params = self.grjca_state(depth=2)
        state = run_modular(audio, visual, params)
        mean_a = sum(t.value for t in state.attended["audio"]) / 3.0
        expected = np.maximum(mean_a, 0.0)
        assert np.max(np.abs(state.final["audio"].value - expected)) < 1e-12

    def test_low_temperature_selects_argmax(self):
        # solve for gate weights that realize a target logit matrix with
        # per-row gaps >= 0.1, then check near-hard selection at T = 1e-3
        config = ModelConfig("GRJCA", dim_audio=6, dim_visual=6, seq_len=4, depth=2, temperature=1e-3)
        params = FusionParams(config, rng=np.random.default_rng(71))
        randomize(params, np.random.default_rng(73), include_gates=False)
        rng = np.random.default_rng(72)
        audio = rng.standard_normal((6, 4))
        visual = rng.standard_normal((6, 4))
        probe = rjca_forward(Tensor(audio), Tensor(visual), params)
        target = np.array(
            [
                [0.9, 0.1, 0.3],
                [0.0, 0.8, 0.2],
                [0.1, 0.4, 1.0],
                [0.7, 0.2, 0.0],
            ]
        )
        for m in ("audio", "visual"):
            attended, gate = probe.attended[m], params.weights[f"gate_{m}"]
            basis = attended[2].value.T
            gate.value[...] = np.linalg.pinv(basis) @ target
            realized = basis @ gate.value
            gaps = np.sort(realized, axis=1)
            assert np.min(gaps[:, -1] - gaps[:, -2]) >= 0.1 - 1e-9
        state = run_modular(audio, visual, params)
        winners = np.argmax(target, axis=1)
        for final, attended in (
            (state.final["audio"], state.attended["audio"]),
            (state.final["visual"], state.attended["visual"]),
        ):
            hard = np.stack([attended[winners[j]].value[:, j] for j in range(4)], axis=1)
            hard = np.maximum(hard, 0.0)
            assert np.max(np.abs(final.value - hard)) < 1e-4

    def test_hgrjca_identical_candidates_ignore_gate(self):
        # a convex combination of equal points is that point
        config = ModelConfig("HGRJCA", dim_audio=3, dim_visual=3, seq_len=4, depth=1)
        params = FusionParams(config, rng=np.random.default_rng(81))
        for name in ("out_audio", "out_visual", "attn_audio", "attn_visual"):
            params.weights[f"round1.{name}"].value[...] = 0.0
        params.weights["round1.iter_gate_audio"].value[...] = np.random.default_rng(82).standard_normal((3, 2))
        rng = np.random.default_rng(83)
        audio = rng.standard_normal((3, 4))
        visual = rng.standard_normal((3, 4))
        # zero output weights make round 1 a pure residual, so both gate
        # candidates equal the inputs
        state = run_modular(audio, visual, params)
        assert np.max(np.abs(state.final["audio"].value - np.maximum(audio, 0.0))) < 1e-12

    def test_gate_column_mismatch_raises(self):
        audio, visual, params = self.grjca_state(depth=2)
        params.weights["gate_audio"] = Tensor(np.zeros((6, 2)))
        with pytest.raises(DimensionError, match="gate"):
            run_modular(audio, visual, params)


class TestDispatch:
    def test_jca_depth_must_be_one(self):
        with pytest.raises(ConfigError, match="depth"):
            ModelConfig("JCA", dim_audio=2, dim_visual=2, seq_len=3, depth=2)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            ModelConfig("DCA", dim_audio=2, dim_visual=2, seq_len=3)

    def test_nonfinite_input_names_round(self):
        config = ModelConfig("RJCA", dim_audio=2, dim_visual=2, seq_len=3, depth=2)
        params = FusionParams(config, rng=np.random.default_rng(111))
        audio = np.full((2, 3), np.inf)
        visual = np.zeros((2, 3))
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="round 1"):
            run_modular(audio, visual, params)


class TestGradients:
    @pytest.mark.parametrize("mode,depth", [("JCA", 1), ("RJCA", 2), ("GRJCA", 2), ("HGRJCA", 2)])
    def test_gradcheck_sum_of_squares(self, mode, depth):
        config = ModelConfig(mode, dim_audio=3, dim_visual=3, seq_len=4, depth=depth)
        params = FusionParams(config, rng=np.random.default_rng(121))
        randomize(params, np.random.default_rng(124))
        rng = np.random.default_rng(122)
        audio = rng.standard_normal((3, 4))
        visual = rng.standard_normal((3, 4))

        def loss():
            state = run_modular(audio, visual, params)
            row = ad.reshape(state.fused, (1, -1))
            return row @ row.T

        report = gradcheck(
            loss,
            params.weights,
            max_entries_per_param=6,
            rng=np.random.default_rng(123),
        )
        assert report.worst < 1e-5, report.per_param

    def test_gradcheck_ccc_loss_through_grjca(self):
        config = ModelConfig("GRJCA", dim_audio=3, dim_visual=3, seq_len=6, depth=2)
        params = FusionParams(config, rng=np.random.default_rng(131))
        randomize(params, np.random.default_rng(134))
        rng = np.random.default_rng(132)
        audio = rng.standard_normal((3, 6))
        visual = rng.standard_normal((3, 6))
        truth = rng.uniform(-1, 1, size=(1, 6))
        pool = np.ones((1, 6))

        def loss():
            state = run_modular(audio, visual, params)
            pred = Tensor(pool) @ state.fused
            return ccc_loss(pred, truth)

        report = gradcheck(
            loss,
            params.weights,
            max_entries_per_param=6,
            rng=np.random.default_rng(133),
        )
        assert report.worst < 1e-5, report.per_param
