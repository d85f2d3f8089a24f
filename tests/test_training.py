"""Optimizer, scheduler, and training-loop tests."""

import gc
import math
import os
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import avfusion.training as training
from avfusion.autodiff import Tensor
from avfusion.exceptions import ConfigError, DimensionError, NumericError, ParameterError
from avfusion.metrics import ccc
from avfusion.model import EmotionModel
from avfusion.synthdata import FRAME_FIELDS, GenConfig, LabeledClip, generate
from avfusion.training import (
    AdamState,
    SchedulerState,
    TrainConfig,
    adam_step,
    best_fold,
    cross_validate,
    evaluate,
    fold_assignments,
    lr_for_epoch,
    map_in_order,
    scheduler_step,
    train,
    usable_cpus,
)


def make_clips(n, frames=64, seed=0, **kwargs):
    return generate(GenConfig(num_videos=n, frames=frames, seed=seed, **kwargs))


def small_config(**overrides):
    base = dict(
        mode="RJCA",
        depth=1,
        batch_size=4,
        init_lr=3e-3,
        warmup_epochs=2,
        max_epochs=3,
        dropout=0.0,
        weight_decay=0.0,
        window_len=64,
        window_stride=64,
        tcn_levels=1,
        head_hidden=(8,),
        folds=2,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.array([[1.0, -2.0]]))
        p.grad = np.zeros((1, 2))
        adam_step({"p": p}, AdamState(), lr=0.1, weight_decay=0.0)
        assert np.array_equal(p.value, np.array([[1.0, -2.0]]))

    def test_unit_step_property(self):
        # constant gradient: bias-corrected moments give steps of size lr
        p = Tensor(np.zeros((1, 1)))
        state = AdamState()
        lr = 0.01
        for _ in range(1000):
            p.grad = np.full((1, 1), 3.0)
            adam_step({"p": p}, state, lr=lr, weight_decay=0.0)
        total = -p.value[0, 0]
        assert abs(total - 1000 * lr) / (1000 * lr) < 0.01

    def test_weight_decay_shrinks_params(self):
        p = Tensor(np.full((1, 1), 4.0))
        state = AdamState()
        for _ in range(10):
            p.grad = np.zeros((1, 1))
            adam_step({"p": p}, state, lr=0.01, weight_decay=0.1)
        assert 0.0 < p.value[0, 0] < 4.0

    def test_missing_gradient_rejected(self):
        from avfusion.exceptions import ParameterError

        p = Tensor(np.zeros((1, 1)))
        with pytest.raises(ParameterError, match="backward"):
            adam_step({"p": p}, AdamState(), lr=0.1)

    def test_nonfinite_gradient_names_param(self):
        p = Tensor(np.zeros((1, 1)))
        p.grad = np.full((1, 1), np.nan)
        with pytest.raises(NumericError, match="mat"):
            adam_step({"mat": p}, AdamState(), lr=0.1)


def adam_loop(params, state, lr, weight_decay):
    """Adam one parameter at a time, the moments in name-keyed dicts; the
    reference the flat update must equal bit for bit."""
    state["step"] += 1
    t = state["step"]
    for name, p in params.items():
        grad = p.grad
        if grad is None:
            raise ParameterError(f"adam_step: no gradient for {name!r}; run backward first")
        if not np.isfinite(grad).all():
            raise NumericError(f"adam_step: non-finite gradient for {name!r}")
        if weight_decay:
            grad = grad + weight_decay * p.value
        m = state["m"].setdefault(name, np.zeros_like(p.value))
        v = state["v"].setdefault(name, np.zeros_like(p.value))
        m *= training.ADAM_BETA1
        m += (1.0 - training.ADAM_BETA1) * grad
        v *= training.ADAM_BETA2
        v += (1.0 - training.ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - training.ADAM_BETA1**t)
        v_hat = v / (1.0 - training.ADAM_BETA2**t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)


class TestFlatAdam:
    SHAPES = {"w": (3, 4), "b": (3, 1), "s": (1, 1), "row": (1, 7), "stack": (2, 3, 5)}

    def params(self, rng):
        return {name: Tensor(rng.standard_normal(shape)) for name, shape in self.SHAPES.items()}

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4, 0.1])
    def test_equals_the_per_parameter_loop(self, weight_decay):
        rng = np.random.default_rng(11)
        flat = self.params(rng)
        loop = {name: Tensor(p.value.copy()) for name, p in flat.items()}
        flat_state, loop_state = AdamState(), {"m": {}, "v": {}, "step": 0}
        for step in range(5):
            for name, p in flat.items():
                # magnitudes across many decades, a zero grad at step 2
                g = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3, size=p.shape)
                p.grad = g * (step != 2)
                loop[name].grad = p.grad.copy()
            lr = 1e-3 * (step + 1)
            adam_step(flat, flat_state, lr, weight_decay)
            adam_loop(loop, loop_state, lr, weight_decay)
            for name, p in flat.items():
                assert np.array_equal(p.value.view(np.int64), loop[name].value.view(np.int64)), (step, name)
            for moment in ("m", "v"):
                want = np.concatenate([loop_state[moment][name].reshape(-1) for name in flat])
                assert np.array_equal(getattr(flat_state, moment).view(np.int64), want.view(np.int64)), (step, moment)
        assert flat_state.step == 5

    @pytest.mark.parametrize(
        "broken",
        [
            {"b": np.nan, "row": None},
            {"b": None, "row": np.inf},
            {"w": -np.inf},
            {"w": None},
            {"stack": None},
            {"s": np.nan, "stack": np.nan},
        ],
    )
    def test_names_the_first_bad_parameter(self, broken):
        # the first parameter in dict order whose grad is missing
        # (ParameterError) or not finite (NumericError), as the loop finds it
        rng = np.random.default_rng(12)
        params = self.params(rng)
        for p in params.values():
            p.grad = rng.standard_normal(p.shape)
        for name, bad in broken.items():
            if bad is None:
                params[name].grad = None
            else:
                params[name].grad.flat[-1] = bad
        with pytest.raises((ParameterError, NumericError)) as want:
            adam_loop(params, {"m": {}, "v": {}, "step": 0}, 0.1, 0.0)
        with pytest.raises(want.type) as got:
            adam_step(params, AdamState(), 0.1)
        assert str(got.value) == str(want.value)

    def test_consumes_the_grads(self):
        # a step without a new backward is refused, naming the first parameter
        rng = np.random.default_rng(13)
        params = self.params(rng)
        for p in params.values():
            p.grad = rng.standard_normal(p.shape)
        state = AdamState()
        adam_step(params, state, 1e-3, 5e-4)
        assert all(p.grad is None for p in params.values())
        with pytest.raises(ParameterError, match="no gradient for 'w'; run backward first"):
            adam_step(params, state, 1e-3, 5e-4)
        assert state.step == 1

    def test_holds_at_most_two_flat_vectors_beyond_the_moments(self):
        # about 10**6 parameters; the moments exist from a first step, so
        # the second step's peak is what it allocates itself: the
        # concatenated grad and the scratch vector, plus 64 KiB for views
        # and lists
        rng = np.random.default_rng(14)
        params = {"a": Tensor(rng.standard_normal((500, 1000))), "b": Tensor(rng.standard_normal((1000, 499)))}
        flat_bytes = sum(p.value.nbytes for p in params.values())
        state = AdamState()
        for _ in range(2):
            for p in params.values():
                p.grad = rng.standard_normal(p.shape)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                adam_step(params, state, 1e-3, 5e-4)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peak <= 2 * flat_bytes + 64 * 1024, (peak, flat_bytes)


class TestScheduler:
    def config(self, **overrides):
        base = dict(init_lr=1e-4, min_lr=1e-8, warmup_epochs=5, plateau_patience=5)
        base.update(overrides)
        return small_config(**base)

    def test_warmup_ramp(self):
        config = self.config()
        state = SchedulerState(lr=config.init_lr)
        seen = []
        for ccc_value in (0.1, 0.2, 0.3, 0.4, 0.5):
            seen.append(lr_for_epoch(state, config))
            scheduler_step(state, ccc_value, config)
        assert seen == pytest.approx([2e-5, 4e-5, 6e-5, 8e-5, 1e-4])
        assert lr_for_epoch(state, config) == pytest.approx(1e-4)

    def test_flat_sequence_drops_exactly_twice(self):
        # five improving warmup epochs, then twelve flat epochs: the
        # plateau counter reaches patience at epochs 9 and 14
        config = self.config()
        state = SchedulerState(lr=config.init_lr)
        lrs = []
        script = [0.1, 0.2, 0.3, 0.4, 0.5] + [0.5] * 12
        for ccc_value in script:
            lrs.append(lr_for_epoch(state, config))
            scheduler_step(state, ccc_value, config)
        assert state.drops == 2
        assert lrs[5] == pytest.approx(1e-4)
        assert lrs[10] == pytest.approx(1e-5)
        assert lrs[15] == pytest.approx(1e-6)
        assert all(lr >= config.min_lr for lr in lrs)

    def test_improving_sequence_never_drops(self):
        config = self.config()
        state = SchedulerState(lr=config.init_lr)
        for epoch in range(20):
            scheduler_step(state, 0.1 + 0.01 * epoch, config)
        assert state.drops == 0
        assert lr_for_epoch(state, config) == pytest.approx(1e-4)

    def test_min_lr_clamp(self):
        config = self.config(min_lr=5e-6)
        state = SchedulerState(lr=config.init_lr)
        for _ in range(5):
            scheduler_step(state, 0.9, config)  # warmup, sets best
        for _ in range(40):
            scheduler_step(state, 0.9, config)  # flat forever
        assert lr_for_epoch(state, config) == pytest.approx(5e-6)

    def test_counter_resets_on_improvement(self):
        config = self.config(warmup_epochs=0)
        state = SchedulerState(lr=config.init_lr)
        for ccc_value in (0.5, 0.5, 0.5, 0.5, 0.6, 0.6, 0.6, 0.6, 0.6):
            scheduler_step(state, ccc_value, config)
        # four stale epochs, an improvement, then four more: never five in a row
        assert state.drops == 0


class TestTrainLoop:
    def test_smoke_one_epoch(self):
        clips = make_clips(3, seed=1)
        config = small_config(max_epochs=1)
        result = train(clips[:2], clips[2:], config)
        assert len(result.history) == 1
        epoch, lr, loss, val = result.history[0]
        assert epoch == 0
        assert math.isfinite(loss) and loss >= 0.0
        assert -1.0 <= val <= 1.0

    def test_one_epoch_takes_one_snapshot(self, monkeypatch):
        # the first validation sets the best, so nothing is snapshotted
        # before training starts
        calls = []
        real_snapshot = EmotionModel.snapshot
        monkeypatch.setattr(EmotionModel, "snapshot", lambda model: calls.append(1) or real_snapshot(model))
        clips = make_clips(3, seed=1)
        train(clips[:2], clips[2:], small_config(max_epochs=1))
        assert len(calls) == 1

    def test_deterministic(self):
        clips = make_clips(3, seed=2)
        config = small_config(max_epochs=2, dropout=0.5)
        a = train(clips[:2], clips[2:], config)
        b = train(clips[:2], clips[2:], config)
        assert a.history == b.history
        pa = {k: v for k, v in a.model.snapshot().items()}
        pb = b.model.snapshot()
        assert all(np.array_equal(pa[k], pb[k]) for k in pa)

    def test_empty_split_rejected(self):
        clips = make_clips(2, seed=3)
        with pytest.raises(ConfigError, match="non-empty"):
            train([], clips, small_config())

    def test_best_snapshot_restored(self, monkeypatch):
        # script the validation score so the best epoch is in the middle
        clips = make_clips(3, seed=4)
        script = iter([0.2, 0.6, 0.3, 0.1])
        snapshots = {}
        real_pooled = training._pooled_ccc

        def fake_pooled(model, clips, config):
            value = next(script)
            snapshots[value] = model.snapshot()
            return [np.full(clip.frames, value) for clip in clips], value

        monkeypatch.setattr(training, "_pooled_ccc", fake_pooled)
        config = small_config(max_epochs=4)
        result = train(clips[:2], clips[2:], config)
        monkeypatch.setattr(training, "_pooled_ccc", real_pooled)
        assert result.best_val_ccc == 0.6
        assert result.best_epoch == 1
        assert result.best_val_ccc == max(h[3] for h in result.history)
        assert [p[0] for p in result.predictions] == [0.6]
        final = result.model.snapshot()
        assert all(np.array_equal(final[k], snapshots[0.6][k]) for k in final)

    def test_numeric_failure_names_epoch_and_batch(self):
        # after the first step at this rate the weights overflow the next
        # batch's forward
        clips = make_clips(6, frames=64)
        config = small_config(init_lr=1e300, warmup_epochs=0, batch_size=2)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match=r" \(epoch 0, batch 1\)$"):
            train(clips[:4], clips[4:], config)

    def test_non_finite_validation_names_epoch(self):
        # at this rate one step leaves attended features finite but the
        # head's output NaN; a NaN score would never set the best
        clips = make_clips(4, dim_audio=4, dim_visual=4, seed=1)
        config = small_config(depth=2, init_lr=1e100, warmup_epochs=0, batch_size=64, max_epochs=1)
        with np.errstate(all="ignore"), pytest.raises(
            NumericError, match=r"^non-finite values in predictions \(epoch 0, validation\)$"
        ):
            train(clips[:3], clips[3:], config)

    def test_wrong_shape_snapshot_rejected(self):
        # a 1x1 bias would broadcast into the 8x1 hidden bias without the check
        model = EmotionModel(small_config().model_config(4, 4), rng=np.random.default_rng(0))
        before = model.snapshot()
        stored = dict(before, **{"head.layer1.bias": np.ones((1, 1))})
        with pytest.raises(ParameterError, match=r"head\.layer1\.bias is \(1, 1\) in the file, \(8, 1\)"):
            model.load_snapshot(stored)
        after = model.snapshot()
        assert all(np.array_equal(after[k], before[k]) for k in before)

    def test_early_stopping(self, monkeypatch):
        clips = make_clips(3, seed=5)
        script = iter([0.5, 0.4, 0.4, 0.4, 0.9, 0.9])
        monkeypatch.setattr(training, "_pooled_ccc", lambda *a: ([], next(script)))
        config = small_config(max_epochs=20, early_stop_patience=3)
        result = train(clips[:2], clips[2:], config)
        # epochs 1-3 are stale, so the run stops after epoch 3
        assert len(result.history) == 4
        assert result.best_val_ccc == 0.5

    def test_masked_frames_have_zero_influence(self):
        # short clip pads its single window; bumping a padded feature
        # frame must change nothing, not even through attention
        clips = make_clips(1, frames=50, seed=6)
        config = small_config()
        model_a = train(clips, clips, small_config(max_epochs=1)).model

        from avfusion.synthdata import window as make_windows

        win = make_windows(clips[0], config.window_len, config.window_len)[0]
        loss = model_a.batch_loss([win], "valence")
        loss.backward()
        grads = {k: p.grad.copy() for k, p in model_a.parameters().items()}

        bumped = make_windows(clips[0], config.window_len, config.window_len)[0]
        bumped.audio = bumped.audio.copy()
        bumped.audio[:, 60] = 99.0  # padded region: frames 50..63
        loss2 = model_a.batch_loss([bumped], "valence")
        loss2.backward()
        assert loss.item() == loss2.item()
        for k, p in model_a.parameters().items():
            assert np.array_equal(grads[k], p.grad)

    def test_one_graph_alive_at_a_time(self, monkeypatch):
        # each batch's loss (and the graph behind it) is dead before Adam
        # makes its flat copies, before the next batch's forward and before
        # validation; with the cyclic collector off, only dropped
        # references can free it
        clips = make_clips(3, seed=8)
        losses = []
        checks = []
        real_batch_loss = EmotionModel.batch_loss
        real_pooled = training._pooled_ccc

        def check_dead(where):
            checks.append(where)
            assert all(ref() is None for ref in losses), where

        def batch_loss(self, *args, **kwargs):
            check_dead("batch_loss")
            loss = real_batch_loss(self, *args, **kwargs)
            losses.append(weakref.ref(loss))
            return loss

        def pooled(*args):
            check_dead("validation")
            return real_pooled(*args)

        def step(*args, **kwargs):
            check_dead("adam_step")
            return adam_step(*args, **kwargs)

        monkeypatch.setattr(EmotionModel, "batch_loss", batch_loss)
        monkeypatch.setattr(training, "_pooled_ccc", pooled)
        monkeypatch.setattr(training, "adam_step", step)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            train(clips[:2], clips[2:], small_config(max_epochs=2, batch_size=1))
        finally:
            if was_enabled:
                gc.enable()
        assert len(losses) == 4
        assert checks == ["batch_loss", "adam_step", "batch_loss", "adam_step", "validation"] * 2

    def test_overfit_single_clip(self):
        # capacity sanity: one clip, shallow model, enough epochs
        clips = make_clips(1, frames=64, seed=7, noise_std=0.0, complementarity=1.0)
        config = small_config(
            mode="RJCA",
            depth=1,
            init_lr=3e-3,
            warmup_epochs=5,
            max_epochs=200,
            early_stop_patience=200,
            plateau_patience=200,
        )
        result = train(clips, clips, config)
        pred = result.model.forward(
            training.window(clips[0], config.window_len, config.window_len)
        ).value[0]
        score = ccc(pred, clips[0].valence)
        assert score > 0.95, f"train ccc {score}"


class TestEvaluate:
    def test_predictions_and_score(self):
        clips = make_clips(3, seed=8)
        config = small_config(max_epochs=1)
        result = train(clips[:2], clips[2:], config)
        clip_preds, value = evaluate(result.model, clips[2:], config)
        assert [preds.shape for preds in clip_preds] == [(64,)]
        assert -1.0 <= value <= 1.0
        assert value == training.ccc(clip_preds[0], clips[2].valence)

    def test_best_validation_pass_is_the_fold_report(self):
        # the fold report is the best epoch's validation pass; it equals a
        # fresh evaluate of the restored best weights
        clips = make_clips(5, frames=80, seed=12)
        config = small_config(max_epochs=3, batch_size=3)
        result = train(clips[:3], clips[3:], config)
        clip_preds, value = evaluate(result.model, clips[3:], config)
        assert value == result.best_val_ccc
        assert all(np.array_equal(a, b) for a, b in zip(clip_preds, result.predictions, strict=True))

    def test_masked_clip_frames_are_stitched_in_place(self):
        # a clip frame marked invalid in the mask file is predicted in place
        # and left out of both the validation and the evaluate score
        clips = make_clips(3, seed=13)
        clips[2].valid[10:20] = False
        config = small_config(max_epochs=1)
        result = train(clips[:2], clips[2:], config)
        wins = training.window(clips[2], config.window_len, config.window_len)
        forward = result.model.forward(wins).value[0][: clips[2].frames]
        assert np.array_equal(result.predictions[0], forward)
        clip_preds, value = evaluate(result.model, clips[2:], config)
        assert np.array_equal(clip_preds[0], forward)
        valid = clips[2].valid
        assert result.best_val_ccc == training.ccc(forward[valid], clips[2].valence[valid])
        assert value == result.best_val_ccc

    def test_no_clips_rejected(self):
        clips = make_clips(2, seed=10)
        config = small_config(max_epochs=1)
        result = train(clips[:1], clips[1:], config)
        with pytest.raises(ConfigError):
            evaluate(result.model, [], config)

    def test_zero_frame_clip_is_dimension_error(self):
        # no windows, so no batch: the pooled score has no samples
        clip = make_clips(1)[0]
        empty = LabeledClip(clip_id="empty", **{name: getattr(clip, name)[..., :0] for name in FRAME_FIELDS})
        config = small_config()
        for workers in (1, 2):
            with pytest.raises(DimensionError, match="got 0$"):
                evaluate(config.new_model(clip), [empty], config, workers)

    def test_first_failing_batch_is_raised(self, monkeypatch):
        # one window per clip and per batch; batch 3 fails while batch 1 sleeps
        clips = make_clips(5, seed=14)
        config = small_config(batch_size=1)
        model = config.new_model(clips[0])
        batch_of = {clip.clip_id: index for index, clip in enumerate(clips)}
        real = EmotionModel.forward

        def failing(self, windows, *args, **kwargs):
            batch = batch_of[windows[0].clip_id]
            if batch == 1:
                time.sleep(0.2)
                raise NumericError("batch 1")
            if batch == 3:
                raise ParameterError("batch 3")
            return real(self, windows, *args, **kwargs)

        monkeypatch.setattr(EmotionModel, "forward", failing)
        for workers in (1, 2):
            if workers > 1 and usable_cpus() < 2:
                pytest.skip("2 workers run serially on one CPU")
            with pytest.raises(NumericError, match="^batch 1$"):
                evaluate(model, clips, config, workers)


class TestCrossValidate:
    def test_fold_partition(self):
        config = small_config(folds=3)
        folds = fold_assignments(7, config)
        assert len(folds) == 3
        flat = sorted(i for fold in folds for i in fold)
        assert flat == list(range(7))

    def test_one_clip_per_fold(self):
        config = small_config(folds=6)
        folds = fold_assignments(6, config)
        assert all(len(fold) == 1 for fold in folds)

    def test_deterministic_assignment(self):
        config = small_config(folds=4)
        assert fold_assignments(10, config) == fold_assignments(10, config)

    def test_too_many_folds(self):
        with pytest.raises(ConfigError, match="folds"):
            fold_assignments(3, small_config(folds=4))

    def test_cross_validate_reports(self):
        clips = make_clips(4, seed=11)
        config = small_config(folds=2, max_epochs=1)
        folds, results = cross_validate(clips, config)
        assert len(results) == 2
        assert folds == fold_assignments(len(clips), config)
        assert sorted(i for fold in folds for i in fold) == list(range(len(clips)))
        # each fold's report is its best validation pass
        for fold, result in zip(folds, results):
            val_clips = [clips[i] for i in fold]
            assert evaluate(result.model, val_clips, config)[1] == result.best_val_ccc
        best = best_fold(results)
        assert results[best].best_val_ccc == max(r.best_val_ccc for r in results)

    def test_one_forward_per_batch_and_no_reevaluation(self, monkeypatch):
        # 5 train clips of 2 windows at batch 4 make 3 train batches; 2 val
        # clips of 2 windows make 1 validation batch.  The fold report reuses
        # the best validation pass, so no fold forwards anything more.
        clips = make_clips(7, frames=128, seed=14)
        config = small_config(folds=2, max_epochs=2, early_stop_patience=5)
        calls = []
        real_forward = EmotionModel.forward

        def counted(model, windows, dropout_rng=None):
            calls.append(len(windows))
            return real_forward(model, windows, dropout_rng=dropout_rng)

        starts = []
        real_train = training.train

        def marked(*args, **kwargs):
            starts.append(len(calls))
            return real_train(*args, **kwargs)

        monkeypatch.setattr(EmotionModel, "forward", counted)
        monkeypatch.setattr(training, "train", marked)
        _, results = cross_validate(clips, config)
        assert [len(r.history) for r in results] == [config.max_epochs] * 2
        counted_per_fold = np.diff(starts + [len(calls)]).tolist()
        expected = []
        for fold in fold_assignments(len(clips), config):
            train_batches = math.ceil(2 * (len(clips) - len(fold)) / config.batch_size)
            val_batches = math.ceil(2 * len(fold) / config.batch_size)
            expected.append(config.max_epochs * (train_batches + val_batches))
        assert counted_per_fold == expected

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(mode="XYZ")
        with pytest.raises(ConfigError):
            small_config(target="both")
        with pytest.raises(ConfigError):
            small_config(plateau_factor=1.5)
        with pytest.raises(ConfigError):
            small_config(init_lr=1e-9, min_lr=1e-8)


class TestMapInOrder:
    def test_one_worker_runs_inline(self):
        parent = os.getpid()
        results = map_in_order(lambda i: (i * i, os.getpid()), 4, 1)
        assert results == [(i * i, parent) for i in range(4)]

    def test_results_in_index_order(self):
        # a closure over local data: it reaches the workers by fork, not pickle
        table = np.arange(7.0) ** 2
        results = map_in_order(lambda i: (float(table[i]), os.getpid()), 7, 2)
        assert [value for value, _ in results] == [float(v) for v in table]
        if len(os.sched_getaffinity(0)) > 1:
            assert os.getpid() not in {pid for _, pid in results}

    def test_first_failing_index_is_raised(self):
        def task(i):
            if i == 1:
                time.sleep(0.2)  # finishes after index 3 has failed
                raise NumericError("task 1")
            if i == 3:
                raise ParameterError("task 3")
            return i

        for workers in (1, 2):
            with pytest.raises(NumericError, match="^task 1$"):
                map_in_order(task, 5, workers)
