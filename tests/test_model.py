"""The batched model path: one graph per batch of windows, freed on drop."""

import gc
import weakref

import numpy as np
import pytest

from avfusion.autodiff import Tensor, gradcheck
from avfusion.fusion import MODALITIES, MODES
from avfusion.model import EmotionModel, ModelConfig
from avfusion.synthdata import GenConfig, generate, window

from test_autodiff import graph_nodes


def make_model(mode="HGRJCA", seq_len=16, dim=4, depth=2, dropout=0.5, seed=0):
    config = ModelConfig(
        mode=mode, dim_audio=dim, dim_visual=dim, seq_len=seq_len, depth=depth, dropout=dropout
    )
    model = EmotionModel(config, rng=np.random.default_rng(seed))
    # default init zeroes the gates and fusion outputs; use a generic point
    rng = np.random.default_rng(seed + 1)
    for p in model.parameters().values():
        p.value[...] = 0.3 * rng.standard_normal(p.shape)
    return model


def make_windows(frames, seq_len=16, dim=4, seed=0):
    config = GenConfig(num_videos=len(frames), frames=max(frames), dim_audio=dim, dim_visual=dim, seed=seed)
    clips = generate(config)
    out = []
    for clip, n in zip(clips, frames):
        # cut each clip to its length so the last window is zero-padded
        short = window(clip, n, n)[0]
        out.extend(window(short, seq_len, seq_len))
    return out


class TestBatchedForward:
    def test_batch_equals_each_window(self):
        model = make_model()
        wins = make_windows([32, 16, 27])  # 5 windows, the last one padded
        assert len(wins) == 5
        assert not wins[-1].valid.all() and wins[-1].valid.any()
        batched = model.forward(wins).value
        assert batched.shape == (1, 5 * 16)
        for b, win in enumerate(wins):
            single = model.forward([win]).value
            got = batched[0, b * 16 : (b + 1) * 16]
            np.testing.assert_allclose(got, single[0], rtol=0, atol=1e-12)

    def test_dropout_stream_matches_windows_in_turn(self):
        # one draw over the B x d x L batch is B draws of d x L in turn, so
        # window b sees the mask it would see as the b-th of B forwards
        model = make_model()
        wins = make_windows([16, 16, 16])
        batched = model.forward(wins, dropout_rng=np.random.default_rng(4)).value[0]
        rng = np.random.default_rng(4)
        singles = np.concatenate([model.forward([w], dropout_rng=rng).value[0] for w in wins])
        np.testing.assert_allclose(batched, singles, rtol=0, atol=1e-12)


class TestBatchLossGradients:
    def test_gradcheck_over_three_windows_with_different_masks(self):
        # the shared weights' gradients sum over the batch axis
        model = make_model(mode="HGRJCA", seq_len=6, depth=2)
        wins = make_windows([6, 4, 5], seq_len=6)
        assert [int(w.valid.sum()) for w in wins] == [6, 4, 5]

        def loss():
            return model.batch_loss(wins, "valence", dropout_rng=np.random.default_rng(9))

        report = gradcheck(
            loss, model.parameters(), max_entries_per_param=4, rng=np.random.default_rng(2)
        )
        assert report.checked > 100
        assert report.worst < 1e-5


class TestGraphMemory:
    """Graphs hold no reference cycles, so dropping the loss frees them
    without the cyclic garbage collector."""

    @staticmethod
    def graph_nodes(root):
        seen = {}
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) not in seen and node._backward is not None:
                seen[id(node)] = weakref.ref(node)
                stack.extend(node._parents)
        return list(seen.values())

    def check_freed(self, backward):
        model = make_model()
        wins = make_windows([16, 16])
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            loss = model.batch_loss(wins, "valence", dropout_rng=np.random.default_rng(0))
            if backward:
                loss.backward()
            nodes = self.graph_nodes(loss)
            assert len(nodes) > 50
            root = weakref.ref(loss)
            del loss
            assert root() is None
            assert all(ref() is None for ref in nodes)
        finally:
            if was_enabled:
                gc.enable()

    def test_graph_freed_after_backward(self):
        self.check_freed(backward=True)

    def test_forward_only_graph_freed(self):
        self.check_freed(backward=False)


class TestGraphSize:
    @pytest.mark.parametrize(
        "mode, depth, nodes", [("JCA", 1, 23), ("RJCA", 3, 43), ("GRJCA", 3, 49), ("HGRJCA", 3, 71)]
    )
    def test_nodes_per_batch_loss(self, monkeypatch, mode, depth, nodes):
        # the graph a training step builds at dropout 0.0: the forward and
        # the loss, in nodes made with Tensor._make
        model = make_model(mode, depth=depth, dropout=0.0)
        wins = make_windows([16, 16])
        made = []
        make = Tensor._make
        monkeypatch.setattr(Tensor, "_make", staticmethod(lambda *args: made.append(1) or make(*args)))
        model.batch_loss(wins, "valence", dropout_rng=np.random.default_rng(0))
        assert len(made) == nodes


TCN_NAMES = [
    "tcn_audio.level1.tap0",
    "tcn_audio.level1.tap1",
    "tcn_audio.level1.tap2",
    "tcn_audio.level1.bias",
    "tcn_audio.level2.tap0",
    "tcn_audio.level2.tap1",
    "tcn_audio.level2.tap2",
    "tcn_audio.level2.bias",
    "tcn_visual.level1.tap0",
    "tcn_visual.level1.tap1",
    "tcn_visual.level1.tap2",
    "tcn_visual.level1.bias",
    "tcn_visual.level2.tap0",
    "tcn_visual.level2.tap1",
    "tcn_visual.level2.tap2",
    "tcn_visual.level2.bias",
]
HEAD_NAMES = ["head.layer1.weight", "head.layer1.bias", "head.layer2.weight", "head.layer2.bias"]


class TestParameterNames:
    """Saved parameter files and the gradient audit's coordinate sampling
    both follow the name order, so it is pinned literally."""

    @pytest.mark.parametrize(
        "mode, depth, joint_projection, fusion_names",
        [
            (
                "HGRJCA",
                2,
                True,
                [
                    "fusion.round1.corr_audio",
                    "fusion.round1.corr_visual",
                    "fusion.round1.attn_audio",
                    "fusion.round1.attn_visual",
                    "fusion.round1.out_audio",
                    "fusion.round1.out_visual",
                    "fusion.round1.joint_proj",
                    "fusion.round1.iter_gate_audio",
                    "fusion.round1.iter_gate_visual",
                    "fusion.round2.corr_audio",
                    "fusion.round2.corr_visual",
                    "fusion.round2.attn_audio",
                    "fusion.round2.attn_visual",
                    "fusion.round2.out_audio",
                    "fusion.round2.out_visual",
                    "fusion.round2.joint_proj",
                    "fusion.round2.iter_gate_audio",
                    "fusion.round2.iter_gate_visual",
                    "fusion.final_gate_audio",
                    "fusion.final_gate_visual",
                ],
            ),
            (
                "GRJCA",
                1,
                False,
                [
                    "fusion.round1.corr_audio",
                    "fusion.round1.corr_visual",
                    "fusion.round1.attn_audio",
                    "fusion.round1.attn_visual",
                    "fusion.round1.out_audio",
                    "fusion.round1.out_visual",
                    "fusion.gate_audio",
                    "fusion.gate_visual",
                ],
            ),
        ],
    )
    def test_names_in_order(self, mode, depth, joint_projection, fusion_names):
        config = ModelConfig(
            mode=mode, dim_audio=3, dim_visual=2, seq_len=8, depth=depth, joint_projection=joint_projection
        )
        params = EmotionModel(config, rng=np.random.default_rng(0)).parameters()
        assert list(params) == TCN_NAMES + fusion_names + HEAD_NAMES


class TestParametersAreTheGraphWeights:
    """The listed parameters are exactly the weights a training graph reads."""

    @pytest.mark.parametrize("joint_projection", [True, False])
    @pytest.mark.parametrize("mode", MODES)
    def test_leaves_are_parameters_and_inputs(self, mode, joint_projection):
        config = ModelConfig(
            mode=mode,
            dim_audio=4,
            dim_visual=4,
            seq_len=16,
            depth=1 if mode == "JCA" else 2,
            joint_projection=joint_projection,
        )
        model = EmotionModel(config, rng=np.random.default_rng(0))
        wins = make_windows([32, 16, 27])
        loss = model.batch_loss(wins, "valence", dropout_rng=np.random.default_rng(1))
        leaves = [node for node in graph_nodes(loss) if not node._parents]
        params = model.parameters()
        assert params is model.parameters()
        param_ids = {id(p) for p in params.values()}
        assert {id(leaf) for leaf in leaves} >= param_ids
        inputs = [leaf for leaf in leaves if id(leaf) not in param_ids]
        gate = np.stack([win.valid for win in wins])[:, None, :]
        expected = [np.stack([getattr(win, m) for win in wins]).astype(np.float64) * gate for m in MODALITIES]
        assert sorted(leaf.value.tobytes() for leaf in inputs) == sorted(f.tobytes() for f in expected)
