"""Deterministic training loop.

Adam with classic L2 weight decay, a linear learning-rate warmup
followed by reduce-on-plateau decay driven by validation concordance,
early stopping against a best-parameter snapshot, and clip-level k-fold
cross-validation.  Every random choice (weight init, batch order,
dropout masks, fold assignment) derives from the config seed, so a full
run is a pure function of (dataset, config).
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import check_finite
from .exceptions import ConfigError, DimensionError, NumericError, ParameterError
from .fusion import MODALITIES
from .metrics import ccc
from .model import EmotionModel, ModelConfig, ModelSettings
from .synthdata import check_fits, check_ranges, window
from .temporal import check_tcn_fits

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig(ModelSettings):
    """The model settings plus the optimizer, schedule, data split and
    windowing of a training run."""

    batch_size: int = 12
    init_lr: float = 1e-4
    min_lr: float = 1e-8
    warmup_epochs: int = 5
    plateau_patience: int = 5
    plateau_factor: float = 0.1
    weight_decay: float = 5e-4
    max_epochs: int = 100
    early_stop_patience: int = 10
    folds: int = 6
    seed: int = 0
    target: str = "valence"
    window_len: int = 64
    window_stride: int = 43

    def __post_init__(self):
        if self.target not in ("valence", "arousal"):
            raise ConfigError(f"target must be 'valence' or 'arousal', got {self.target!r}")
        check_ranges(self, "(0, 1)", "plateau_factor")
        check_ranges(self, "[0, inf)", "min_lr", "weight_decay", "seed", "warmup_epochs")
        check_ranges(
            self, "[1, inf)", "plateau_patience", "early_stop_patience", "batch_size", "max_epochs",
            "window_len", "window_stride",
        )
        # one fold validates, the others train
        check_ranges(self, "[2, inf)", "folds")
        if self.min_lr > self.init_lr:
            raise ConfigError(f"min_lr {self.min_lr} exceeds init_lr {self.init_lr}")
        super().__post_init__()
        # a window holds a row of window_len frames per label, and a head
        # layer a column of each hidden size
        check_fits(window_len=self.window_len)
        for size in self.head_hidden:
            check_fits(head_hidden=size)
        # fusion-only model configs may be shorter than the encoders' reach,
        # so the window is checked against the encoders here
        check_tcn_fits(self.tcn_levels, self.tcn_kernel, self.window_len)

    def model_config(self, dim_audio, dim_visual):
        settings = {f.name: getattr(self, f.name) for f in fields(ModelSettings)}
        return ModelConfig(**settings, dim_audio=dim_audio, dim_visual=dim_visual, seq_len=self.window_len)

    def new_model(self, clip) -> EmotionModel:
        """A freshly initialised model sized for the feature rows of ``clip``."""
        dims = {f"dim_{m}": getattr(clip, m).shape[0] for m in MODALITIES}
        return EmotionModel(self.model_config(**dims), rng=self.model_rng())

    def model_rng(self):
        # deliberately independent of mode: gate weights are zero-init and
        # consume no draws, so every mode at a given (seed, depth, target)
        # starts from identical encoder/attention/head weights
        target_index = 0 if self.target == "valence" else 1
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.depth, target_index]))


# -- process-level helpers ---------------------------------------------------


@functools.cache
def retain_freed_heap(one_arena: bool = False):
    """Keep heap memory freed between batches in the process (glibc only).

    A batch's graph frees tens of MB at once.  Under glibc's adaptive
    thresholds the top of the heap then goes back to the OS, and the next
    batch faults it in again: about 20k page faults per 60-clip eval at
    window 192.  Fixed thresholds (mmap above 32 MB, trim above 256 MB)
    keep it.  With ``one_arena``, threads started later share the one
    arena too, so the forward threads of :func:`_clip_predictions` reuse the
    heap the process already holds; with an arena per thread, eval's peak
    RSS at window 192 went from about 82 to about 110 MB.  Only a process that starts
    such threads asks for it: with one arena from the start, a 6-fold
    ``train`` plus ``gradcheck`` ran 1-5% slower.  Runs once per process
    and argument; elsewhere this does nothing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    if one_arena:
        mallopt(-8, 1)  # M_ARENA_MAX


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

        processes = min(workers, count, usable_cpus())
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
    # the moments, flat over the same parameters every step, in dict order
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0


def adam_step(params: dict, state: AdamState, lr: float, weight_decay: float = 0.0):
    """One Adam update with bias correction; decay enters the gradient
    (classic L2 form).  It runs once on the concatenated grads, with the
    per-parameter arithmetic, so values match a loop over the parameters
    bit for bit; the first parameter in dict order whose grad is missing
    or not finite is named.

    The step consumes the grads: once they are concatenated and checked,
    every parameter's ``grad`` is None, so a step without a new backward
    fails.  Beyond the moments it holds two flat vectors: the
    concatenated grad, which becomes the update, and one scratch vector."""
    names = list(params)
    have = next((i for i, name in enumerate(names) if params[name].grad is None), len(names))
    grad = np.concatenate([params[name].grad.reshape(-1) for name in names[:have]] + [np.empty(0)])
    if not np.isfinite(grad).all():
        bad = next(name for name in names[:have] if not np.isfinite(params[name].grad).all())
        raise NumericError(f"adam_step: non-finite gradient for {bad!r}")
    if have < len(names):
        raise ParameterError(f"adam_step: no gradient for {names[have]!r}; run backward first")
    for p in params.values():
        p.grad = None
    scratch = np.empty_like(grad)
    if weight_decay:
        np.concatenate([p.value.reshape(-1) for p in params.values()], out=scratch)
        scratch *= weight_decay
        grad += scratch
    if state.m is None:
        state.m, state.v = np.zeros_like(grad), np.zeros_like(grad)
    state.step += 1
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grad, out=scratch)
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grad, out=scratch)
    v += np.multiply(scratch, grad, out=scratch)
    # the update lr * m_hat / (sqrt(v_hat) + eps), written over the grad
    np.divide(v, 1.0 - ADAM_BETA2**state.step, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    update = np.divide(m, 1.0 - ADAM_BETA1**state.step, out=grad)
    update *= lr
    update /= scratch
    start = 0
    for p in params.values():
        p.value -= update[start : start + p.value.size].reshape(p.value.shape)
        start += p.value.size


# -- scheduler ---------------------------------------------------------------


@dataclass
class SchedulerState:
    """Warmup-then-plateau bookkeeping; ``lr`` is the post-warmup base."""

    lr: float
    epoch: int = 0  # completed epochs
    best: float = -math.inf  # the best validation score so far, the one train reports
    counter: int = 0
    drops: int = 0


def lr_for_epoch(state: SchedulerState, config: TrainConfig) -> float:
    """Learning rate to apply during epoch ``state.epoch``."""
    if state.epoch < config.warmup_epochs:
        ramp = state.lr * (state.epoch + 1) / config.warmup_epochs
        return max(ramp, config.min_lr)
    return state.lr


def scheduler_step(state: SchedulerState, val_ccc: float, config: TrainConfig):
    """Consume one epoch's validation score; the next lr is :func:`lr_for_epoch`'s.

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


# -- training ----------------------------------------------------------------


@dataclass
class TrainResult:
    model: EmotionModel
    history: list  # (epoch, lr, train_loss, val_ccc)
    best_val_ccc: float
    best_epoch: int
    predictions: list  # per validation clip, the best epoch's frame predictions


def _clip_predictions(model: EmotionModel, clips, config: TrainConfig, workers: int = 1):
    """One prediction per frame of every clip: the first ``clip.frames``
    outputs of its non-overlapping windows, forwarded in clip order.  The
    ``n`` windows make ``ceil(n / batch_size)`` batches, run on ``threads =
    min(workers, batches, CPUs)`` threads; the count is rounded up to a
    multiple of the threads, never past ``n``, and batch ``b`` starts at
    window ``n * b // batches``, so no batch is larger than ``batch_size``.
    Pool threads share one heap arena (:func:`retain_freed_heap`) and run
    each batch in a copy of the caller's context, keeping its
    ``np.errstate``.  Each batch writes its own rows, so the outputs are
    the bytes of a serial pass, and the first failing batch's exception is
    raised."""
    per_clip = [window(clip, config.window_len, config.window_len) for clip in clips]
    windows = [win for wins in per_clip for win in wins]
    n = len(windows)
    outs = np.empty((n, config.window_len))
    batches = -(-n // config.batch_size)
    threads = max(1, min(workers, batches, usable_cpus()))  # 1 if there are no windows
    batches = min(n, -(-batches // threads) * threads)
    cuts = [n * b // batches for b in range(batches)] + [n]

    def forward(b):
        batch = windows[cuts[b] : cuts[b + 1]]
        outs[cuts[b] : cuts[b + 1]] = model.forward(batch).value.reshape(len(batch), -1)

    if threads == 1:
        for b in range(batches):
            forward(b)
    else:
        from concurrent.futures import ThreadPoolExecutor

        retain_freed_heap(one_arena=True)
        with ThreadPoolExecutor(threads) as pool:
            futures = [pool.submit(contextvars.copy_context().run, forward, b) for b in range(batches)]
        for future in futures:
            future.result()
    ends = np.cumsum([len(wins) for wins in per_clip])
    return [rows.reshape(-1)[: clip.frames] for clip, rows in zip(clips, np.split(outs, ends[:-1]))]


def _pooled_ccc(model: EmotionModel, clips, config: TrainConfig, workers: int = 1):
    """Validation pass: the per-clip predictions, and their pooled
    concordance with the target over the clips' valid frames.  The one
    scorer of validation, the fold reports and :func:`evaluate`.  The
    score is finite: non-finite predictions raise :class:`NumericError`."""
    clip_preds = _clip_predictions(model, clips, config, workers)
    valid = np.concatenate([clip.valid for clip in clips])
    truth = np.concatenate([getattr(clip, config.target) for clip in clips])
    preds = np.concatenate(clip_preds)[valid]
    check_finite(preds, "predictions")
    return clip_preds, ccc(preds, truth[valid])


def train(train_clips, val_clips, config: TrainConfig, fold=None) -> TrainResult:
    """Full training run; deterministic given clips and config.

    Each epoch steps Adam over the shuffled training windows, then
    validates.  A validation score above the best so far snapshots the
    parameters; the first always does, so no snapshot is taken before
    training starts.  The best snapshot is loaded back at the end.
    A :class:`NumericError` or :class:`DimensionError` raised by a step or
    a validation pass is raised again with where it happened appended:
    ``(fold F, epoch E, batch B)`` or ``(fold F, epoch E, validation)``,
    without the fold when ``fold`` is None.
    """
    if not train_clips or not val_clips:
        raise ConfigError("train: both splits must be non-empty")
    retain_freed_heap()
    train_windows = [
        w for clip in train_clips for w in window(clip, config.window_len, config.window_stride)
    ]

    model = config.new_model(train_clips[0])
    adam = AdamState()
    sched = SchedulerState(lr=config.init_lr)
    # set by the first validation: _pooled_ccc's score is finite, so it
    # beats the scheduler's starting best of -inf
    best_snapshot = None
    best_epoch = 0
    best_preds = None
    history = []
    where = "" if fold is None else f"fold {fold}, "

    for epoch in range(config.max_epochs):
        lr = lr_for_epoch(sched, config)
        order = np.random.default_rng(
            np.random.SeedSequence([config.seed, 1000 + epoch])
        ).permutation(len(train_windows))
        batch_losses = []
        try:
            for b in range(0, len(order), config.batch_size):
                place = f"batch {b // config.batch_size}"
                batch = [train_windows[i] for i in order[b : b + config.batch_size]]
                dropout_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2000 + epoch, b]))
                loss = model.batch_loss(batch, config.target, dropout_rng=dropout_rng)
                loss.backward()
                batch_losses.append(loss.item())
                # free this batch's graph before Adam makes its flat vectors
                del loss
                adam_step(model.parameters(), adam, lr, config.weight_decay)
            place = "validation"
            val_preds, val_ccc = _pooled_ccc(model, val_clips, config)
        except (NumericError, DimensionError) as exc:
            raise type(exc)(f"{exc} ({where}epoch {epoch}, {place})") from exc
        history.append((epoch, lr, float(np.mean(batch_losses)), val_ccc))
        if val_ccc > sched.best:
            best_epoch = epoch
            best_snapshot = model.snapshot()
            best_preds = val_preds
        scheduler_step(sched, val_ccc, config)
        if epoch - best_epoch >= config.early_stop_patience:
            break

    model.load_snapshot(best_snapshot)
    return TrainResult(
        model=model, history=history, best_val_ccc=sched.best, best_epoch=best_epoch, predictions=best_preds
    )


def evaluate(model: EmotionModel, clips, config: TrainConfig, workers: int = 1):
    """Per-clip predictions of the trained target channel, and their
    pooled concordance over the clips' valid frames, as in validation.
    The forward batches run on up to ``min(workers, batches, CPUs)``
    threads, with the bytes of a one-thread run."""
    if not clips:
        raise ConfigError("evaluate: no clips given")
    retain_freed_heap()
    return _pooled_ccc(model, clips, config, workers)


# -- cross-validation --------------------------------------------------------


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
    validates exactly once.  Returns the fold assignment (positions in
    ``clips``) and one :class:`TrainResult` per fold."""
    folds = fold_assignments(len(clips), config)

    def run_fold(fold):
        val_set = set(folds[fold])
        train_clips = [c for i, c in enumerate(clips) if i not in val_set]
        val_clips = [clips[i] for i in folds[fold]]
        return train(train_clips, val_clips, config, fold=fold)

    return folds, map_in_order(run_fold, len(folds), workers)


def best_fold(results) -> int:
    return max(range(len(results)), key=lambda i: results[i].best_val_ccc)
