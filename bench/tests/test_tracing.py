import threading

import numpy as np
import pytest

import tracing
from avfusion import autodiff, model, training
from avfusion.model import EmotionModel, ModelConfig
from avfusion.synthdata import GenConfig, generate, window


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_union_length_merges_overlaps_and_clips():
    assert tracing.union_length([], 0.0, 10.0) == 0.0
    assert tracing.union_length([(1, 4), (3, 6), (8, 9)], 0.0, 10.0) == 6.0
    assert tracing.union_length([(-5, 2), (9, 20)], 0.0, 10.0) == 3.0
    assert tracing.union_length([(2, 3), (2, 3)], 0.0, 10.0) == 1.0


def test_self_times_on_a_synthetic_tree():
    spans = [
        (0, "root", 0.0, 10.0, None, 1),
        (1, "a", 1.0, 4.0, 0, 1),
        (2, "b", 3.0, 6.0, 0, 1),  # overlaps a, as work on another thread does
        (3, "leaf", 2.0, 3.0, 1, 1),
        (4, "leaf", 4.0, 5.5, 2, 1),
        (5, "root", 20.0, 21.0, None, 2),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({"root": 10.0 - 5.0 + 1.0, "a": 2.0, "b": 1.5, "leaf": 2.5})


def test_recorder_nests_spans_and_packs_backward_children():
    clock = FakeClock()
    rec = tracing.SpanRecorder(clock=clock)
    rec.run = 7
    root = rec.begin("cli.train")
    clock.now = 1.0
    bwd = rec.begin("autodiff.backward")
    assert rec.current() == "autodiff.backward"
    clock.now = 5.0
    rec.end(bwd)
    rec.add_packed(bwd, {"temporal.tcn.bwd": 1.5, "fusion.gate.bwd": 2.0})
    clock.now = 6.0
    rec.end(root)
    assert rec.current() == "(none)"

    spans = rec.export()
    assert [s[1] for s in spans] == ["cli.train", "autodiff.backward", "temporal.tcn.bwd", "fusion.gate.bwd"]
    assert [s[4] for s in spans] == [None, 0, 1, 1]
    assert {s[5] for s in spans} == {7}
    assert spans[2][2:4] == (1.0, 2.5) and spans[3][2:4] == (2.5, 4.5)
    own = tracing.self_times(spans)
    # backward self time is the walk: its span minus the closures charged to layers
    assert own["autodiff.backward"] == pytest.approx(0.5)
    assert own["cli.train"] == pytest.approx(2.0)


def test_worker_thread_spans_nest_under_the_submitting_span():
    rec = tracing.SpanRecorder()
    outer = rec.begin("training.evaluate")

    def work():
        rec.state().counts["n"] += 1
        rec.end(rec.begin("model.forward"))

    threads = [threading.Thread(target=work) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    rec.end(outer)
    spans = rec.export()
    assert [s[4] for s in spans if s[1] == "model.forward"] == [0, 0, 0]
    assert rec.counts()["n"] == 3


def _windows(mode, seed=0):
    clips = generate(GenConfig(num_videos=2, frames=16, dim_audio=4, dim_visual=4, seed=seed))
    return [w for clip in clips for w in window(clip, 16, 16)]


def _model(mode):
    config = ModelConfig(mode=mode, dim_audio=4, dim_visual=4, seq_len=16, depth=3, dropout=0.0)
    return EmotionModel(config, rng=np.random.default_rng(3))


def _traced_step(mode):
    rec = tracing.SpanRecorder()
    net = _model(mode)
    with tracing.Tracer(rec):
        rec.run = 1
        root = rec.begin("cli.train")
        loss = net.batch_loss(_windows(mode), "valence")
        loss.backward()
        rec.end(root)
    grads = {name: p.grad.copy() for name, p in net.parameters().items()}
    return rec, loss.item(), grads


@pytest.mark.parametrize("mode", ["RJCA", "HGRJCA"])
def test_node_counts_per_window_repeat_exactly(mode):
    first, _, _ = _traced_step(mode)
    second, _, _ = _traced_step(mode)
    assert first.nodes() == second.nodes()
    a = tracing.layer_metrics(first, 1)
    b = tracing.layer_metrics(second, 1)
    for layer in tracing.LAYERS:
        assert a[f"{layer}.nodes"] == b[f"{layer}.nodes"]
    assert a["autodiff.nodes_per_window"] == b["autodiff.nodes_per_window"]
    assert a["fusion.round3.nodes"] > 0
    assert (a["fusion.gate.nodes"] > 0) == (mode == "HGRJCA")
    # every layer that made nodes was charged backward time
    assert all(a[f"{layer}.bwd_s"] > 0 for layer in tracing.LAYERS if a[f"{layer}.nodes"])


def test_tracing_changes_no_result_and_uninstalls():
    originals = (
        vars(autodiff.Tensor)["_make"],
        vars(autodiff.Tensor)["_backward"],
        autodiff.Tensor.backward,
        model.fusion_forward,
        training.adam_step,
    )
    _, traced_loss, traced_grads = _traced_step("HGRJCA")
    after = (
        vars(autodiff.Tensor)["_make"],
        vars(autodiff.Tensor)["_backward"],
        autodiff.Tensor.backward,
        model.fusion_forward,
        training.adam_step,
    )
    assert all(x is y for x, y in zip(originals, after))

    net = _model("HGRJCA")
    loss = net.batch_loss(_windows("HGRJCA"), "valence")
    loss.backward()
    assert loss.item() == traced_loss
    for name, p in net.parameters().items():
        assert np.array_equal(p.grad, traced_grads[name])


def test_per_layer_metrics_are_all_reported():
    rec, _, _ = _traced_step("GRJCA")
    values = tracing.layer_metrics(rec, 1)
    names = {name for name, _, _ in tracing.PER_LAYER}
    # run.py adds these from the untraced and traced iterations
    from_iterations = {"trace.overhead_per_s", "trace.overhead_share"}
    from_iterations |= {f"cli.{command}.wall_s" for command in tracing.COMMANDS}
    assert names - set(values) == from_iterations
    assert set(values) <= names
