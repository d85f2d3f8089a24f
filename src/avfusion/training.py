"""Deterministic training loop.

Adam with classic L2 weight decay, a linear learning-rate warmup
followed by reduce-on-plateau decay driven by validation concordance,
early stopping against a best-parameter snapshot, and clip-level k-fold
cross-validation.  Every random choice (weight init, batch order,
dropout masks, fold assignment) derives from the config seed, so a full
run is a pure function of (dataset, config).
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, NumericError, ParameterError
from .metrics import EvalReport, ccc_flagged
from .model import EmotionModel, ModelConfig
from .synthdata import window

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    mode: str = "RJCA"
    depth: int = 1
    temperature: float = 0.1
    batch_size: int = 12
    init_lr: float = 1e-4
    min_lr: float = 1e-8
    warmup_epochs: int = 5
    plateau_patience: int = 5
    plateau_factor: float = 0.1
    weight_decay: float = 5e-4
    dropout: float = 0.5
    max_epochs: int = 100
    early_stop_patience: int = 10
    folds: int = 6
    seed: int = 0
    target: str = "valence"
    window_len: int = 64
    window_stride: int = 43
    joint_projection: bool = True
    tcn_levels: int = 2
    tcn_kernel: int = 3
    head_hidden: tuple = (16,)

    def __post_init__(self):
        if self.target not in ("valence", "arousal"):
            raise ConfigError(f"target must be 'valence' or 'arousal', got {self.target!r}")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ConfigError(f"plateau_factor must be in (0, 1), got {self.plateau_factor}")
        if self.min_lr > self.init_lr:
            raise ConfigError(f"min_lr {self.min_lr} exceeds init_lr {self.init_lr}")
        if self.plateau_patience < 1 or self.early_stop_patience < 1:
            raise ConfigError("patience values must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("batch_size", "max_epochs", "window_stride", "folds"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.warmup_epochs < 0:
            raise ConfigError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        # the model settings are checked where the model reads them
        self.model_config(1, 1)

    def model_config(self, dim_audio, dim_visual):
        return ModelConfig(
            mode=self.mode,
            dim_audio=dim_audio,
            dim_visual=dim_visual,
            seq_len=self.window_len,
            depth=self.depth,
            temperature=self.temperature,
            joint_projection=self.joint_projection,
            tcn_levels=self.tcn_levels,
            tcn_kernel=self.tcn_kernel,
            head_hidden=self.head_hidden,
            dropout=self.dropout,
        )

    def model_rng(self):
        # deliberately independent of mode: gate weights are zero-init and
        # consume no draws, so every mode at a given (seed, depth, target)
        # starts from identical encoder/attention/head weights
        target_index = 0 if self.target == "valence" else 1
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.depth, target_index]))


# -- process-level helpers ---------------------------------------------------


@functools.cache
def retain_freed_heap():
    """Keep heap memory freed between batches in the process (glibc only).

    A batch's graph frees tens of MB at once.  Under glibc's adaptive
    thresholds the top of the heap then goes back to the OS, and the next
    batch faults it in again: about 66k page faults per 60-clip eval at
    window 192.  Fixed thresholds (mmap above 32 MB, trim above 256 MB)
    keep it.  Runs once per process; elsewhere this does nothing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


_task = None  # in a worker of map_in_order: the function its indices go to


def _set_task(fn):
    global _task
    _task = fn


def _run_task(index):
    return _task(index)


def map_in_order(fn, count: int, workers: int) -> list:
    """``[fn(0), ..., fn(count - 1)]``, in up to ``workers`` forked processes.

    Only the task indices are sent to the workers; ``fn`` and the data it
    reaches come to them through the fork.  Results return in index order,
    and the exception of the first failing index is raised here with its
    type unchanged.  With one worker, one task, one CPU or no ``fork``
    start method the tasks run inline and no process starts.
    """
    if workers > 1 and count > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        processes = min(workers, count, cpus or 1)
        if processes > 1 and "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            # a forked worker inherits initargs; they are never pickled
            with ProcessPoolExecutor(
                processes, mp_context=context, initializer=_set_task, initargs=(fn,)
            ) as pool:
                return list(pool.map(_run_task, range(count)))
    return [fn(index) for index in range(count)]


# -- optimizer ---------------------------------------------------------------


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params: dict, state: AdamState, lr: float, weight_decay: float = 0.0):
    """One Adam update with bias correction; decay enters the gradient
    (classic L2 form)."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        grad = p.grad
        if grad is None:
            raise ParameterError(f"adam_step: no gradient for {name!r}; run backward first")
        if not np.isfinite(grad).all():
            raise NumericError(f"adam_step: non-finite gradient for {name!r}")
        if weight_decay:
            grad = grad + weight_decay * p.value
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.value)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.value)
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# -- scheduler ---------------------------------------------------------------


@dataclass
class SchedulerState:
    """Warmup-then-plateau bookkeeping; ``lr`` is the post-warmup base."""

    lr: float
    epoch: int = 0  # completed epochs
    best: float = -math.inf
    counter: int = 0
    drops: int = 0


def lr_for_epoch(state: SchedulerState, config: TrainConfig) -> float:
    """Learning rate to apply during epoch ``state.epoch``."""
    if state.epoch < config.warmup_epochs:
        ramp = state.lr * (state.epoch + 1) / config.warmup_epochs
        return max(ramp, config.min_lr)
    return state.lr


def scheduler_step(state: SchedulerState, val_ccc: float, config: TrainConfig) -> float:
    """Consume one epoch's validation score; returns the next epoch's lr.

    During warmup only the best score is tracked.  Afterwards, ``patience``
    consecutive epochs without a strictly better score multiply the rate
    by ``plateau_factor`` (clamped at ``min_lr``) and reset the counter.
    """
    if val_ccc > state.best:
        state.best = val_ccc
        state.counter = 0
    elif state.epoch >= config.warmup_epochs:
        state.counter += 1
        if state.counter >= config.plateau_patience:
            dropped = max(state.lr * config.plateau_factor, config.min_lr)
            if dropped < state.lr:
                state.drops += 1
            state.lr = dropped
            state.counter = 0
    state.epoch += 1
    return lr_for_epoch(state, config)


# -- training ----------------------------------------------------------------


@dataclass
class TrainResult:
    model: EmotionModel
    history: list  # (epoch, lr, train_loss, val_ccc)
    best_val_ccc: float
    best_epoch: int
    predictions: list  # per validation clip, the best epoch's frame predictions

    def history_rows(self):
        rows = [["epoch", "lr", "train_loss", "val_ccc"]]
        for epoch, lr, loss, ccc in self.history:
            rows.append([str(epoch), repr(float(lr)), repr(float(loss)), repr(float(ccc))])
        return rows


def _clip_predictions(model: EmotionModel, clips, config: TrainConfig):
    """One prediction per frame of every clip.

    Clips are cut into non-overlapping windows, forwarded
    ``config.batch_size`` windows at a time and stitched back per clip.
    """
    owners = []
    windows = []
    for i, clip in enumerate(clips):
        for win in window(clip, config.window_len, config.window_len):
            owners.append(i)
            windows.append(win)
    clip_preds = [np.empty(clip.frames) for clip in clips]
    for b in range(0, len(windows), config.batch_size):
        batch = windows[b : b + config.batch_size]
        outs = model.forward(batch).value.reshape(len(batch), -1)
        for i, win, out in zip(owners[b : b + config.batch_size], batch, outs):
            start = win.frame_offset - clips[i].frame_offset
            real = min(config.window_len, clips[i].frames - start)
            clip_preds[i][start : start + real] = out[:real]
    return clip_preds


def _pooled_ccc(model: EmotionModel, clips, config: TrainConfig):
    """Validation pass: the per-clip predictions, and their pooled
    concordance with the target over the clips' valid frames."""
    clip_preds = _clip_predictions(model, clips, config)
    valid = np.concatenate([clip.valid for clip in clips])
    truth = np.concatenate([getattr(clip, config.target) for clip in clips])
    value, _ = ccc_flagged(np.concatenate(clip_preds)[valid], truth[valid])
    return clip_preds, value


def train(train_clips, val_clips, config: TrainConfig, fold=None) -> TrainResult:
    """Full training run; deterministic given clips and config.

    A :class:`NumericError` raised by a step or a validation pass is
    raised again with where it happened appended to its message:
    ``(fold F, epoch E, batch B)`` or ``(fold F, epoch E, validation)``,
    without the fold when ``fold`` is None.
    """
    if not train_clips or not val_clips:
        raise ConfigError("train: both splits must be non-empty")
    retain_freed_heap()
    dim_audio = train_clips[0].audio.shape[0]
    dim_visual = train_clips[0].visual.shape[0]
    train_windows = [
        w for clip in train_clips for w in window(clip, config.window_len, config.window_stride)
    ]

    model = EmotionModel(config.model_config(dim_audio, dim_visual), rng=config.model_rng())
    adam = AdamState()
    sched = SchedulerState(lr=config.init_lr)
    best_snapshot = model.snapshot()
    best_ccc = -math.inf
    best_epoch = 0
    best_preds = None
    stale = 0
    history = []
    where = "" if fold is None else f"fold {fold}, "

    for epoch in range(config.max_epochs):
        lr = lr_for_epoch(sched, config)
        order = np.random.default_rng(
            np.random.SeedSequence([config.seed, 1000 + epoch])
        ).permutation(len(train_windows))
        batch_losses = []
        for b in range(0, len(order), config.batch_size):
            batch = [train_windows[i] for i in order[b : b + config.batch_size]]
            dropout_rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, 2000 + epoch, b])
            )
            try:
                loss = model.batch_loss(batch, config.target, dropout_rng=dropout_rng)
                loss.backward()
                adam_step(model.parameters(), adam, lr, config.weight_decay)
            except NumericError as exc:
                raise NumericError(f"{exc} ({where}epoch {epoch}, batch {b // config.batch_size})") from exc
            batch_losses.append(loss.item())
        try:
            val_preds, val_ccc = _pooled_ccc(model, val_clips, config)
        except NumericError as exc:
            raise NumericError(f"{exc} ({where}epoch {epoch}, validation)") from exc
        history.append((epoch, lr, float(np.mean(batch_losses)), val_ccc))
        if val_ccc > best_ccc:
            best_ccc = val_ccc
            best_epoch = epoch
            best_snapshot = model.snapshot()
            best_preds = val_preds
            stale = 0
        else:
            stale += 1
        scheduler_step(sched, val_ccc, config)
        if stale >= config.early_stop_patience:
            break

    model.load_snapshot(best_snapshot)
    return TrainResult(
        model=model, history=history, best_val_ccc=best_ccc, best_epoch=best_epoch, predictions=best_preds
    )


def _report(clips, clip_preds, config: TrainConfig, fold=None):
    """What :func:`evaluate` returns, from per-clip predictions."""
    rows = []
    per_clip = {}
    for clip, preds in zip(clips, clip_preds):
        truth = getattr(clip, config.target)
        for j in range(clip.frames):
            rows.append(
                [clip.clip_id, str(clip.frame_offset + j), repr(float(preds[j])), repr(float(truth[j]))]
            )
        per_clip[clip.clip_id], _ = ccc_flagged(preds, truth)
    pooled_truth = [getattr(clip, config.target) for clip in clips]
    value, degenerate = ccc_flagged(np.concatenate(clip_preds), np.concatenate(pooled_truth))
    report = EvalReport(
        ccc_valence=value if config.target == "valence" else None,
        ccc_arousal=value if config.target == "arousal" else None,
        frame_count=sum(clip.frames for clip in clips),
        fold=fold,
        per_clip=per_clip,
        degenerate=degenerate,
    )
    return report, rows


def evaluate(model: EmotionModel, clips, config: TrainConfig, fold=None):
    """Pooled concordance over every frame of every clip, plus prediction
    rows (clip, frame, pred, truth) for the trained target channel."""
    if not clips:
        raise ConfigError("evaluate: no clips given")
    retain_freed_heap()
    return _report(clips, _clip_predictions(model, clips, config), config, fold)


# -- cross-validation --------------------------------------------------------


@dataclass
class FoldOutcome:
    fold: int
    report: EvalReport
    result: TrainResult
    predictions: list
    val_clip_ids: list

    @property
    def val_ccc(self):
        return self.result.best_val_ccc


def fold_assignments(num_clips: int, config: TrainConfig):
    """Deterministic clip-level partition into ``folds`` contiguous chunks
    of a seeded permutation."""
    if config.folds > num_clips:
        raise ConfigError(f"cannot make {config.folds} folds from {num_clips} clips")
    perm = np.random.default_rng(
        np.random.SeedSequence([config.seed, 3000])
    ).permutation(num_clips)
    return [sorted(chunk.tolist()) for chunk in np.array_split(perm, config.folds)]


def cross_validate(clips, config: TrainConfig, workers: int = 1):
    """Train once per fold, in up to ``workers`` processes; every clip
    validates exactly once."""
    folds = fold_assignments(len(clips), config)

    def run_fold(fold):
        val_set = set(folds[fold])
        train_clips = [c for i, c in enumerate(clips) if i not in val_set]
        val_clips = [clips[i] for i in folds[fold]]
        result = train(train_clips, val_clips, config, fold=fold)
        # the best epoch's validation pass already predicted every val frame
        report, predictions = _report(val_clips, result.predictions, config, fold=fold)
        return FoldOutcome(
            fold=fold,
            report=report,
            result=result,
            predictions=predictions,
            val_clip_ids=[c.clip_id for c in val_clips],
        )

    return map_in_order(run_fold, len(folds), workers)


def best_fold(outcomes) -> int:
    return max(range(len(outcomes)), key=lambda i: outcomes[i].val_ccc)
