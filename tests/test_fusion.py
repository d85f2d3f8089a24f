"""Fusion mechanism tests.

The load-bearing check is oracle equivalence: a straight-line numpy
reimplementation of the same equations, written against the exported
weight dict only, must agree with the modular pipeline within 1e-12
across random small configurations of every mode.
"""

import math
import time

import numpy as np
import pytest

from avfusion import autodiff as ad
from avfusion.autodiff import Tensor, gradcheck
from avfusion.exceptions import ConfigError, DimensionError, NumericError
from avfusion.fusion import (
    FusionParams,
    ModalityFeatures,
    fusion_forward,
    grjca_gate,
    rjca_forward,
)
from avfusion.metrics import ccc_loss
from avfusion.model import ModelConfig


# -- straight-line oracle ----------------------------------------------------


def softmax_rows_oracle(logits, temperature):
    scaled = logits / temperature
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def oracle_fusion(audio, visual, weights, mode, depth, temperature, joint_projection):
    """Independent reimplementation reading only the exported weight dict."""
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


def run_modular(audio, visual, params):
    feats = ModalityFeatures(Tensor(audio), Tensor(visual))
    return fusion_forward(feats, params)


def randomize(params, rng, scale=0.3, include_gates=True):
    # default init zeroes the output projections and gates, which makes
    # every round an identity; fill the weights so tests probe a generic
    # point of the computation
    for name, p in params.parameters().items():
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
                params.export(),
                mode,
                params.depth,
                params.temperature,
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
        expected = oracle_fusion(audio, visual, params.export(), "HGRJCA", 2, 0.1, True)
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
            assert len(state.attended_audio) == depth + 1
            for t in range(depth + 1):
                assert state.attended_audio[t].shape == (3, 6)
                assert state.attended_visual[t].shape == (2, 6)

    def test_joint_shape(self):
        config = ModelConfig("JCA", dim_audio=2, dim_visual=3, seq_len=4)
        params = FusionParams(config, rng=np.random.default_rng(5))
        rng = np.random.default_rng(6)
        state = run_modular(rng.standard_normal((2, 4)), rng.standard_normal((3, 4)), params)
        assert state.joint[0].shape == (5, 4)
        assert state.corr_audio[0].shape == (4, 4)
        assert state.attn_map_audio[0].shape == (2, 4)

    def test_modality_length_mismatch(self):
        with pytest.raises(DimensionError, match="length"):
            ModalityFeatures(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 5))))


class TestRoundPieces:
    def test_correlation_bounded_and_scaled(self):
        # single scalar case evaluates the whole formula by hand:
        # tanh(x^T w j / sqrt(d)) with every value 1 and d = 2
        config = ModelConfig("JCA", dim_audio=1, dim_visual=1, seq_len=1, joint_projection=False)
        params = FusionParams(config, rng=np.random.default_rng(0))
        for p in params.parameters().values():
            p.value[...] = 1.0
        state = run_modular(np.ones((1, 1)), np.ones((1, 1)), params)
        expected = math.tanh(2.0 / math.sqrt(2.0))
        assert abs(state.corr_audio[0].value[0, 0] - expected) < 1e-12

    def test_correlation_range(self):
        rng = np.random.default_rng(11)
        config = ModelConfig("RJCA", dim_audio=4, dim_visual=4, seq_len=6, depth=2)
        params = FusionParams(config, rng=np.random.default_rng(12))
        state = run_modular(10 * rng.standard_normal((4, 6)), 10 * rng.standard_normal((4, 6)), params)
        for corr in state.corr_audio + state.corr_visual:
            assert np.all(np.abs(corr.value) <= 1.0)

    def test_attention_maps_nonnegative(self):
        rng = np.random.default_rng(13)
        config = ModelConfig("RJCA", dim_audio=3, dim_visual=3, seq_len=5, depth=2)
        params = FusionParams(config, rng=np.random.default_rng(14))
        state = run_modular(rng.standard_normal((3, 5)), rng.standard_normal((3, 5)), params)
        for m in state.attn_map_audio + state.attn_map_visual:
            assert np.all(m.value >= 0.0)

    def test_zero_audio_rows_in_joint(self):
        config = ModelConfig("JCA", dim_audio=2, dim_visual=3, seq_len=4, joint_projection=False)
        params = FusionParams(config, rng=np.random.default_rng(15))
        visual = np.random.default_rng(16).standard_normal((3, 4))
        state = run_modular(np.zeros((2, 4)), visual, params)
        assert np.array_equal(state.joint[0].value[:2], np.zeros((2, 4)))
        assert np.array_equal(state.joint[0].value[2:], visual)


class TestIdentities:
    def test_residual_identity_zero_weights(self):
        # zeroed attention and joint weights telescope to the inputs exactly
        config = ModelConfig("RJCA", dim_audio=3, dim_visual=4, seq_len=5, depth=3)
        params = FusionParams(config, rng=np.random.default_rng(21))
        for p in params.parameters().values():
            p.value[...] = 0.0
        rng = np.random.default_rng(22)
        audio = rng.standard_normal((3, 5))
        visual = rng.standard_normal((4, 5))
        state = run_modular(audio, visual, params)
        for t in range(4):
            assert np.array_equal(state.attended_audio[t].value, audio)
            assert np.array_equal(state.attended_visual[t].value, visual)

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
            params.gate_audio.value[...] = rng.standard_normal(params.gate_audio.shape)
            params.gate_visual.value[...] = rng.standard_normal(params.gate_visual.shape)
        rng = np.random.default_rng(seed + 1)
        audio = rng.standard_normal((6, 4))
        visual = rng.standard_normal((6, 4))
        return audio, visual, params

    def test_gate_rows_sum_to_one(self):
        for depth in (1, 2, 3, 4):
            audio, visual, params = self.grjca_state(depth=depth, gate_seed=55)
            state = run_modular(audio, visual, params)
            for gates in (state.gates_audio, state.gates_visual):
                assert np.max(np.abs(gates.value.sum(axis=1) - 1.0)) < 1e-12

    def test_hgrjca_gate_rows_sum_to_one(self):
        for depth in (1, 2, 3, 4):
            config = ModelConfig("HGRJCA", dim_audio=4, dim_visual=3, seq_len=5, depth=depth)
            params = FusionParams(config, rng=np.random.default_rng(61))
            randomize(params, np.random.default_rng(64), include_gates=False)
            for p in (params.final_gate_audio, params.final_gate_visual, *params.iter_gate_audio):
                p.value[...] = np.random.default_rng(62).standard_normal(p.shape)
            rng = np.random.default_rng(63)
            state = run_modular(rng.standard_normal((4, 5)), rng.standard_normal((3, 5)), params)
            all_gates = (
                state.iter_gates_audio
                + state.iter_gates_visual
                + [state.final_gates_audio, state.final_gates_visual]
            )
            for gates in all_gates:
                assert np.max(np.abs(gates.value.sum(axis=1) - 1.0)) < 1e-12

    def test_zero_gate_weights_average_candidates(self):
        # equal logits weight every candidate 1/(depth+1)
        audio, visual, params = self.grjca_state(depth=2)
        state = run_modular(audio, visual, params)
        mean_a = sum(t.value for t in state.attended_audio) / 3.0
        expected = np.maximum(mean_a, 0.0)
        assert np.max(np.abs(state.final_audio.value - expected)) < 1e-12

    def test_low_temperature_selects_argmax(self):
        # solve for gate weights that realize a target logit matrix with
        # per-row gaps >= 0.1, then check near-hard selection at T = 1e-3
        config = ModelConfig("GRJCA", dim_audio=6, dim_visual=6, seq_len=4, depth=2, temperature=1e-3)
        params = FusionParams(config, rng=np.random.default_rng(71))
        randomize(params, np.random.default_rng(73), include_gates=False)
        rng = np.random.default_rng(72)
        audio = rng.standard_normal((6, 4))
        visual = rng.standard_normal((6, 4))
        probe = rjca_forward(ModalityFeatures(Tensor(audio), Tensor(visual)), params)
        target = np.array(
            [
                [0.9, 0.1, 0.3],
                [0.0, 0.8, 0.2],
                [0.1, 0.4, 1.0],
                [0.7, 0.2, 0.0],
            ]
        )
        for attended, gate in (
            (probe.attended_audio, params.gate_audio),
            (probe.attended_visual, params.gate_visual),
        ):
            basis = attended[2].value.T
            gate.value[...] = np.linalg.pinv(basis) @ target
            realized = basis @ gate.value
            gaps = np.sort(realized, axis=1)
            assert np.min(gaps[:, -1] - gaps[:, -2]) >= 0.1 - 1e-9
        state = run_modular(audio, visual, params)
        winners = np.argmax(target, axis=1)
        for final, attended in (
            (state.final_audio, state.attended_audio),
            (state.final_visual, state.attended_visual),
        ):
            hard = np.stack([attended[winners[j]].value[:, j] for j in range(4)], axis=1)
            hard = np.maximum(hard, 0.0)
            assert np.max(np.abs(final.value - hard)) < 1e-4

    def test_hgrjca_identical_candidates_ignore_gate(self):
        # a convex combination of equal points is that point
        config = ModelConfig("HGRJCA", dim_audio=3, dim_visual=3, seq_len=4, depth=1)
        params = FusionParams(config, rng=np.random.default_rng(81))
        for name in ("out_audio", "out_visual", "attn_audio", "attn_visual"):
            getattr(params, name)[0].value[...] = 0.0
        params.iter_gate_audio[0].value[...] = np.random.default_rng(82).standard_normal((3, 2))
        rng = np.random.default_rng(83)
        audio = rng.standard_normal((3, 4))
        visual = rng.standard_normal((3, 4))
        # zero output weights make round 1 a pure residual, so both gate
        # candidates equal the inputs
        state = run_modular(audio, visual, params)
        assert np.max(np.abs(state.final_audio.value - np.maximum(audio, 0.0))) < 1e-12

    def test_gate_column_mismatch_raises(self):
        audio, visual, params = self.grjca_state(depth=2)
        params.gate_audio = Tensor(np.zeros((6, 2)))
        with pytest.raises(DimensionError, match="columns"):
            run_modular(audio, visual, params)

    def test_grjca_gate_requires_grjca_params(self):
        config = ModelConfig("RJCA", dim_audio=2, dim_visual=2, seq_len=3, depth=1)
        params = FusionParams(config, rng=np.random.default_rng(91))
        rng = np.random.default_rng(92)
        state = run_modular(rng.standard_normal((2, 3)), rng.standard_normal((2, 3)), params)
        with pytest.raises(ConfigError, match="GRJCA"):
            grjca_gate(state, params)


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
            return (state.fused * state.fused).sum()

        report = gradcheck(
            loss,
            params.parameters(),
            epsilon=1e-5,
            max_entries_per_param=6,
            rng=np.random.default_rng(123),
        )
        assert report.worst < 1e-5, report.format_lines()

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
            params.parameters(),
            epsilon=1e-5,
            max_entries_per_param=6,
            rng=np.random.default_rng(133),
        )
        assert report.worst < 1e-5, report.format_lines()
