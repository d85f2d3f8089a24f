"""Optimizer, scheduler, and training-loop tests."""

import math
import os
import time

import numpy as np
import pytest

import avfusion.training as training
from avfusion.autodiff import Tensor
from avfusion.exceptions import ConfigError, NumericError, ParameterError
from avfusion.metrics import ccc
from avfusion.model import EmotionModel
from avfusion.synthdata import GenConfig, generate
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

    def test_wrong_shape_snapshot_rejected(self):
        # a 1x1 bias would broadcast into the 8x1 hidden bias without the check
        model = EmotionModel(small_config().model_config(4, 4))
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
    def test_report_and_rows(self):
        clips = make_clips(3, seed=8)
        config = small_config(max_epochs=1)
        result = train(clips[:2], clips[2:], config)
        report, rows = evaluate(result.model, clips[2:], config, fold=0)
        assert report.fold == 0
        assert report.frame_count == 64
        assert report.ccc_arousal is None
        assert -1.0 <= report.ccc_valence <= 1.0
        assert len(rows) == 64
        assert rows[0][0] == clips[2].clip_id
        assert [r[1] for r in rows] == [str(i) for i in range(64)]
        assert set(report.per_clip) == {clips[2].clip_id}

    def test_best_validation_pass_is_the_fold_report(self):
        # the fold report reuses the best epoch's validation predictions;
        # they equal a fresh evaluate of the restored best weights
        clips = make_clips(5, frames=80, seed=12)
        config = small_config(max_epochs=3, batch_size=3)
        result = train(clips[:3], clips[3:], config)
        report, rows = evaluate(result.model, clips[3:], config)
        assert report.ccc_valence == result.best_val_ccc
        assert [float(r[2]) for r in rows] == [float(p) for preds in result.predictions for p in preds]

    def test_masked_clip_frames_are_stitched_in_place(self):
        # a clip frame marked invalid in the mask file is predicted in place
        # and left out of the validation score
        clips = make_clips(3, seed=13)
        clips[2].valid[10:20] = False
        config = small_config(max_epochs=1)
        result = train(clips[:2], clips[2:], config)
        wins = training.window(clips[2], config.window_len, config.window_len)
        forward = result.model.forward(wins).value[0][: clips[2].frames]
        assert np.array_equal(result.predictions[0], forward)
        _, rows = evaluate(result.model, clips[2:], config)
        assert np.array_equal([float(r[2]) for r in rows], forward)
        valid = clips[2].valid
        assert result.best_val_ccc == training.ccc_flagged(forward[valid], clips[2].valence[valid])[0]

    def test_no_clips_rejected(self):
        clips = make_clips(2, seed=10)
        config = small_config(max_epochs=1)
        result = train(clips[:1], clips[1:], config)
        with pytest.raises(ConfigError):
            evaluate(result.model, [], config)


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
        outcomes = cross_validate(clips, config)
        assert [o.fold for o in outcomes] == [0, 1]
        validated = sorted(cid for o in outcomes for cid in o.val_clip_ids)
        assert validated == sorted(c.clip_id for c in clips)
        best = best_fold(outcomes)
        assert outcomes[best].val_ccc == max(o.val_ccc for o in outcomes)

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
        outcomes = cross_validate(clips, config)
        assert [len(o.result.history) for o in outcomes] == [config.max_epochs] * 2
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
