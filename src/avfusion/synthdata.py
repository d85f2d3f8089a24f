"""Seeded synthetic audio-visual clips with controllable complementarity.

Each clip is driven by a smooth latent trajectory; valence and arousal
are fixed linear readouts of that latent, so the labels are recoverable
from the features in principle.  The two modalities observe overlapping
subsets of the latent dimensions: ``complementarity`` is the fraction
both see, the rest is split exclusively between them.  Corruption
replaces one modality's features with matched-variance white noise over
Markov bursts, making that modality misleading rather than silent.

Feature files use a small binary container (magic ``AVFS``): header of
magic, version u32, frame count u32, feature dim u32, all little-endian,
then the row-major float32 payload.  Labels and masks live in sidecar
CSVs keyed by absolute frame index.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, FormatError

MAGIC = b"AVFS"
VERSION = 1
HEADER = struct.Struct("<4sIII")


@dataclass
class GenConfig:
    num_videos: int = 8
    frames: int = 192
    dim_audio: int = 16
    dim_visual: int = 16
    latent_dim: int = 8
    smoothness: float = 8.0
    noise_std: float = 0.05
    complementarity: float = 0.5
    corruption_prob: float = 0.0
    corruption_mean_len: float = 8.0
    corruption_target: str = "audio"
    seed: int = 0

    def __post_init__(self):
        for name in ("num_videos", "frames", "dim_audio", "dim_visual", "latent_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.smoothness <= 0:
            raise ConfigError(f"smoothness must be > 0, got {self.smoothness}")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0.0 <= self.complementarity <= 1.0:
            raise ConfigError(f"complementarity must be in [0, 1], got {self.complementarity}")
        if not 0.0 <= self.corruption_prob <= 1.0:
            raise ConfigError(f"corruption_prob must be in [0, 1], got {self.corruption_prob}")
        if self.corruption_mean_len < 1:
            raise ConfigError(f"corruption_mean_len must be >= 1, got {self.corruption_mean_len}")
        if self.corruption_target not in ("audio", "visual"):
            raise ConfigError(
                f"corruption_target must be 'audio' or 'visual', got {self.corruption_target!r}"
            )


@dataclass(eq=False)
class LabeledClip:
    """One clip or clip window.

    Features are float32 (the storage dtype, so file round-trips are
    bitwise).  ``valid`` marks real frames; windowing pads with zeros and
    clears it.  ``frame_offset`` is the window start inside the source
    clip; label/mask CSVs use absolute frame indices (offset + column).
    """

    clip_id: str
    audio: np.ndarray
    visual: np.ndarray
    valence: np.ndarray
    arousal: np.ndarray
    corrupt_audio: np.ndarray
    corrupt_visual: np.ndarray
    valid: np.ndarray = None
    frame_offset: int = 0

    def __post_init__(self):
        if self.valid is None:
            self.valid = np.ones(self.frames, dtype=bool)
        lengths = {
            self.audio.shape[1],
            self.visual.shape[1],
            len(self.valence),
            len(self.arousal),
            len(self.corrupt_audio),
            len(self.corrupt_visual),
            len(self.valid),
        }
        if len(lengths) != 1:
            raise ConfigError(f"clip {self.clip_id}: inconsistent frame counts {sorted(lengths)}")

    @property
    def frames(self):
        return self.audio.shape[1]

    def __eq__(self, other):
        if not isinstance(other, LabeledClip):
            return NotImplemented
        return (
            self.clip_id == other.clip_id
            and self.frame_offset == other.frame_offset
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in (
                    "audio",
                    "visual",
                    "valence",
                    "arousal",
                    "corrupt_audio",
                    "corrupt_visual",
                    "valid",
                )
            )
        )


def _latent_split(config: GenConfig):
    """Index sets of the latent dims each modality observes."""
    k = config.latent_dim
    shared = round(config.complementarity * k)
    exclusive = k - shared
    ex_audio = (exclusive + 1) // 2
    audio_idx = np.concatenate([np.arange(shared), np.arange(shared, shared + ex_audio)])
    visual_idx = np.concatenate([np.arange(shared), np.arange(shared + ex_audio, k)])
    return audio_idx.astype(int), visual_idx.astype(int)


def _dataset_weights(config: GenConfig):
    """Label readouts and mixing matrices, fixed across all clips."""
    readout_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    w_val = readout_rng.standard_normal(config.latent_dim)
    w_aro = readout_rng.standard_normal(config.latent_dim)
    w_val /= np.sum(np.abs(w_val))  # L1 norm 1 keeps labels inside (-1, 1)
    w_aro /= np.sum(np.abs(w_aro))
    audio_idx, visual_idx = _latent_split(config)
    mix_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
    mix_audio = mix_rng.standard_normal((config.dim_audio, len(audio_idx))) / math.sqrt(len(audio_idx))
    mix_visual = mix_rng.standard_normal((config.dim_visual, len(visual_idx))) / math.sqrt(len(visual_idx))
    return w_val, w_aro, audio_idx, visual_idx, mix_audio, mix_visual


def clip_seed(config: GenConfig, index: int) -> int:
    """Recordable per-clip seed; fully determines the clip given the config."""
    return int(np.random.SeedSequence([config.seed, 0, index]).generate_state(1, np.uint64)[0])


def _smooth_latent(rng, config: GenConfig):
    raw = rng.standard_normal((config.latent_dim, config.frames))
    alpha = math.exp(-1.0 / config.smoothness)
    smooth = np.empty_like(raw)
    smooth[:, 0] = raw[:, 0]
    for t in range(1, config.frames):
        smooth[:, t] = alpha * smooth[:, t - 1] + (1.0 - alpha) * raw[:, t]
    mean = smooth.mean(axis=1, keepdims=True)
    std = smooth.std(axis=1) + 1e-12
    return np.tanh((smooth - mean) / std[:, None])


def _corruption_mask(rng, config: GenConfig):
    """Two-state Markov chain; stationary corrupt fraction = corruption_prob."""
    p = config.corruption_prob
    frames = config.frames
    if p == 0.0:
        return np.zeros(frames, dtype=bool)
    if p == 1.0:
        return np.ones(frames, dtype=bool)
    p_exit = 1.0 / config.corruption_mean_len
    p_enter = min(1.0, p * p_exit / (1.0 - p))
    draws = rng.random(frames)
    mask = np.zeros(frames, dtype=bool)
    state = draws[0] < p  # stationary start
    mask[0] = state
    for t in range(1, frames):
        state = (draws[t] >= p_exit) if state else (draws[t] < p_enter)
        mask[t] = state
    return mask


def _generate_clip(index: int, config: GenConfig, weights) -> LabeledClip:
    w_val, w_aro, audio_idx, visual_idx, mix_audio, mix_visual = weights
    base = clip_seed(config, index)
    feature_rng = np.random.default_rng(np.random.SeedSequence([base, 0]))
    corrupt_rng = np.random.default_rng(np.random.SeedSequence([base, 1]))

    latent = _smooth_latent(feature_rng, config)
    valence = w_val @ latent
    arousal = w_aro @ latent
    audio = mix_audio @ latent[audio_idx]
    visual = mix_visual @ latent[visual_idx]
    if config.noise_std > 0:
        audio = audio + config.noise_std * feature_rng.standard_normal(audio.shape)
        visual = visual + config.noise_std * feature_rng.standard_normal(visual.shape)

    mask = _corruption_mask(corrupt_rng, config)
    corrupt_audio = mask if config.corruption_target == "audio" else np.zeros(config.frames, dtype=bool)
    corrupt_visual = mask if config.corruption_target == "visual" else np.zeros(config.frames, dtype=bool)
    for feats, m in ((audio, corrupt_audio), (visual, corrupt_visual)):
        count = int(m.sum())
        if count:
            mean = feats.mean(axis=1, keepdims=True)
            std = feats.std(axis=1, keepdims=True)
            feats[:, m] = mean + std * corrupt_rng.standard_normal((feats.shape[0], count))

    return LabeledClip(
        clip_id=f"clip{index:04d}",
        audio=audio.astype(np.float32),
        visual=visual.astype(np.float32),
        valence=valence,
        arousal=arousal,
        corrupt_audio=corrupt_audio,
        corrupt_visual=corrupt_visual,
    )


def generate(config: GenConfig) -> list:
    """All clips for one dataset, in clip order; pure function of the
    config (seed included)."""
    weights = _dataset_weights(config)
    return [_generate_clip(i, config, weights) for i in range(config.num_videos)]


# -- windowing ---------------------------------------------------------------


def window(clip: LabeledClip, length: int, stride: int) -> list:
    """Overlapping windows; the tail is zero-padded with validity cleared."""
    if length < 1 or stride < 1:
        raise ConfigError(f"window length and stride must be >= 1, got {length}, {stride}")
    windows = []
    for start in range(0, clip.frames, stride):
        end = start + length
        real = min(end, clip.frames) - start
        pad = length - real

        def cut(arr, fill=0):
            piece = arr[..., start : start + real]
            if pad:
                width = [(0, 0)] * (piece.ndim - 1) + [(0, pad)]
                piece = np.pad(piece, width, constant_values=fill)
            return piece

        valid = cut(clip.valid, fill=False)
        windows.append(
            LabeledClip(
                clip_id=clip.clip_id,
                audio=cut(clip.audio),
                visual=cut(clip.visual),
                valence=cut(clip.valence),
                arousal=cut(clip.arousal),
                corrupt_audio=cut(clip.corrupt_audio, fill=False),
                corrupt_visual=cut(clip.corrupt_visual, fill=False),
                valid=valid,
                frame_offset=clip.frame_offset + start,
            )
        )
    return windows


# -- feature file I/O --------------------------------------------------------


def write_avfs(path, matrix: np.ndarray):
    """Binary feature container: magic, version, frames, dim, f32 payload."""
    data = np.ascontiguousarray(matrix, dtype="<f4")
    dim, frames = data.shape
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, VERSION, frames, dim))
        fh.write(data.tobytes())


def read_avfs(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(HEADER.size)
        if len(header) == 0:
            raise FormatError(f"{path}: empty file", offset=0)
        if len(header) < 4 or header[:4] != MAGIC:
            raise FormatError(f"{path}: bad magic, expected {MAGIC!r}", offset=0)
        if len(header) < HEADER.size:
            raise FormatError(f"{path}: truncated header", offset=len(header))
        _, version, frames, dim = HEADER.unpack(header)
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}", offset=4)
        expected = 4 * frames * dim
        payload = fh.read(expected + 1)
    if len(payload) < expected:
        raise FormatError(
            f"{path}: payload truncated at {len(payload)} of {expected} bytes",
            offset=HEADER.size + len(payload),
        )
    if len(payload) > expected:
        raise FormatError(f"{path}: trailing data after payload", offset=HEADER.size + expected)
    return np.frombuffer(payload, dtype="<f4").reshape(dim, frames).copy()


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path, header, parsers):
    """Columns of the rows below ``header``, each cell converted by its
    column's parser.

    A row with the wrong cell count, or a cell its parser rejects, is a
    FormatError naming the file and the 1-based row (the header is row 1).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file", offset=0) from None
        if first != header:
            raise FormatError(f"{path}: expected header {','.join(header)}", offset=0)
        rows = list(reader)
    for number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {number} has {len(row)} cells, expected {len(header)}")
    columns = []
    for index, (name, parse) in enumerate(zip(header, parsers)):
        column = []
        try:
            for row in rows:
                column.append(parse(row[index]))
        except ValueError:
            # the cell that failed is the first one not yet in the column
            bad = rows[len(column)][index]
            raise FormatError(f"{path}: row {len(column) + 2} has a bad {name} {bad!r}") from None
        columns.append(column)
    return columns


def _finite_float(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(cell)
    return value


def write_features(directory, clip: LabeledClip):
    """Four files per clip: two AVFS matrices, labels CSV, masks CSV."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_avfs(directory / f"{clip.clip_id}_audio.avfs", clip.audio)
    write_avfs(directory / f"{clip.clip_id}_visual.avfs", clip.visual)
    frames = [clip.frame_offset + j for j in range(clip.frames)]
    _write_csv(
        directory / f"{clip.clip_id}_labels.csv",
        ["frame", "valence", "arousal"],
        [[f, repr(float(v)), repr(float(a))] for f, v, a in zip(frames, clip.valence, clip.arousal)],
    )
    _write_csv(
        directory / f"{clip.clip_id}_masks.csv",
        ["frame", "audio_corrupt", "visual_corrupt", "valid"],
        [
            [f, int(ca), int(cv), int(va)]
            for f, ca, cv, va in zip(frames, clip.corrupt_audio, clip.corrupt_visual, clip.valid)
        ],
    )


def read_features(directory, clip_id: str) -> LabeledClip:
    directory = Path(directory)
    audio = read_avfs(directory / f"{clip_id}_audio.avfs")
    visual = read_avfs(directory / f"{clip_id}_visual.avfs")
    frames, valence, arousal = _read_csv(
        directory / f"{clip_id}_labels.csv",
        ["frame", "valence", "arousal"],
        (int, _finite_float, _finite_float),
    )
    _, corrupt_audio, corrupt_visual, valid = _read_csv(
        directory / f"{clip_id}_masks.csv",
        ["frame", "audio_corrupt", "visual_corrupt", "valid"],
        (int, int, int, int),
    )
    if len(frames) != audio.shape[1] or len(valid) != audio.shape[1]:
        raise FormatError(
            f"{clip_id}: {audio.shape[1]} feature frames but {len(frames)} label rows "
            f"and {len(valid)} mask rows"
        )
    return LabeledClip(
        clip_id=clip_id,
        audio=audio,
        visual=visual,
        valence=np.array(valence),
        arousal=np.array(arousal),
        corrupt_audio=np.array(corrupt_audio, dtype=bool),
        corrupt_visual=np.array(corrupt_visual, dtype=bool),
        valid=np.array(valid, dtype=bool),
        frame_offset=frames[0] if frames else 0,
    )
