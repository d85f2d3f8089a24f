"""Seeded synthetic audio-visual clips with controllable complementarity.

Each clip is driven by a smooth latent trajectory; valence and arousal
are fixed linear readouts of that latent, so the labels are recoverable
from the features in principle.  The two modalities observe overlapping
subsets of the latent dimensions: ``complementarity`` is the fraction
both see, the rest is split exclusively between them.  Corruption
replaces one modality's features with matched-variance white noise over
Markov bursts, making that modality misleading rather than silent.

Every per-modality step (readout, noise, corruption, feature file) is
written once and run for each modality of
:data:`~avfusion.fusion.MODALITIES` in turn, and :data:`FRAME_FIELDS`
lists the clip's per-frame fields once for its length check, equality
and windowing.

Feature files use a small binary container (magic ``AVFS``): header of
magic, version u32, frame count u32, feature dim u32, all little-endian,
then the row-major float32 payload; one file per modality.  Labels and
masks (0/1 cells) live in sidecar CSVs keyed by absolute frame index.
Every CSV the program writes or reads has one grammar, the one
:func:`_write_csv` writes: UTF-8 lines of cells joined by ``,`` and
ended in CRLF (LF is read too), no cell quoted, a count in plain digits
and a float as ``repr`` writes it.  :func:`_read_csv` reads only that.
Every file the program writes goes through :func:`write_file`, in place.
"""

from __future__ import annotations

import math
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, FormatError
from .fusion import MODALITIES

MAGIC = b"AVFS"
VERSION = 1
HEADER = struct.Struct("<4sIII")

# every per-frame clip field: the features, the labels, then the masks
MASK_FIELDS = (*(f"corrupt_{m}" for m in MODALITIES), "valid")
FRAME_FIELDS = (*MODALITIES, "valence", "arousal", *MASK_FIELDS)
LABELS_HEADER = ["frame", "valence", "arousal"]
MASKS_HEADER = ["frame", *(f"{m}_corrupt" for m in MODALITIES), "valid"]


def check_fits(**sizes):
    """ConfigError, naming the largest size's key, unless a float64 array
    with these sizes (key -> count) fits numpy's limit of intp-max bytes,
    past which numpy raises ValueError or TypeError, not MemoryError."""
    limit = np.iinfo(np.intp).max
    if math.prod(sizes.values()) * 8 > limit:
        key = max(sizes, key=sizes.get)
        raise ConfigError(
            f"{key} {sizes[key]} is too large: an array of {' x '.join(sizes)} float64 values "
            f"would exceed numpy's limit of {limit} bytes"
        )


def check_ranges(config, interval: str, *names):
    """ConfigError, as ``<name> must be in <interval>, got <value>``, unless
    each named field of ``config`` (each entry, for a tuple) lies in
    ``interval``, written like ``[0, 1)`` or ``(0, inf)``."""
    low, high = map(float, interval[1:-1].split(","))
    for name in names:
        value = getattr(config, name)
        for v in value if isinstance(value, tuple) else [value]:
            if not (low < v < high or (v == low and interval[0] == "[") or (v == high and interval[-1] == "]")):
                raise ConfigError(f"{name} must be in {interval}, got {v}")


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
        check_ranges(
            self, "[1, inf)", "num_videos", "frames", "dim_audio", "dim_visual", "latent_dim", "corruption_mean_len"
        )
        check_ranges(self, "(0, inf)", "smoothness")
        check_ranges(self, "[0, inf)", "noise_std", "seed")
        check_ranges(self, "[0, 1]", "complementarity", "corruption_prob")
        if self.corruption_target not in MODALITIES:
            raise ConfigError(f"corruption_target must be one of {MODALITIES}, got {self.corruption_target!r}")
        # the largest arrays gen makes: all clips' latents, and per modality
        # a clip's features and the mixing matrix
        check_fits(num_videos=self.num_videos, latent_dim=self.latent_dim, frames=self.frames)
        for m in MODALITIES:
            for other in ("frames", "latent_dim"):
                check_fits(**{f"dim_{m}": getattr(self, f"dim_{m}"), other: getattr(self, other)})


@dataclass(eq=False)
class LabeledClip:
    """One clip or clip window.

    Every field in :data:`FRAME_FIELDS` holds one column per frame.
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
        lengths = {getattr(self, name).shape[-1] for name in FRAME_FIELDS}
        if len(lengths) != 1:
            raise ConfigError(f"clip {self.clip_id}: inconsistent frame counts {sorted(lengths)}")

    @property
    def frames(self):
        return len(self.valence)

    def __eq__(self, other):
        if not isinstance(other, LabeledClip):
            return NotImplemented
        return (
            self.clip_id == other.clip_id
            and self.frame_offset == other.frame_offset
            and all(np.array_equal(getattr(self, name), getattr(other, name)) for name in FRAME_FIELDS)
        )


def _dataset_weights(config: GenConfig):
    """Label readouts, and per modality the latent dims it observes with
    its mixing matrix; fixed across all clips.

    Every modality sees the first ``round(complementarity * latent_dim)``
    dims; the rest are split into consecutive exclusive blocks, the first
    modality taking the larger half.
    """
    readout_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    w_val = readout_rng.standard_normal(config.latent_dim)
    w_aro = readout_rng.standard_normal(config.latent_dim)
    w_val /= np.sum(np.abs(w_val))  # L1 norm 1 keeps labels inside (-1, 1)
    w_aro /= np.sum(np.abs(w_aro))
    shared = round(config.complementarity * config.latent_dim)
    exclusive = np.array_split(np.arange(shared, config.latent_dim), len(MODALITIES))
    mix_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
    views = {}
    for m, own in zip(MODALITIES, exclusive):
        seen = np.concatenate([np.arange(shared), own])
        dim = getattr(config, f"dim_{m}")
        views[m] = (seen, mix_rng.standard_normal((dim, len(seen))) / math.sqrt(len(seen)))
    return w_val, w_aro, views


def clip_seed(config: GenConfig, index: int) -> int:
    """Recordable per-clip seed; fully determines the clip given the config."""
    return int(np.random.SeedSequence([config.seed, 0, index]).generate_state(1, np.uint64)[0])


def _smooth_latents(rngs, config: GenConfig) -> np.ndarray:
    """Each clip's latent (clips x latent_dim x frames): a raw draw from its
    feature rng, smoothed by one recursion over frames for every clip at
    once, then standardised and squashed per clip."""
    smooth = np.stack([rng.standard_normal((config.latent_dim, config.frames)) for rng in rngs])
    alpha = math.exp(-1.0 / config.smoothness)
    for t in range(1, config.frames):
        smooth[..., t] = alpha * smooth[..., t - 1] + (1.0 - alpha) * smooth[..., t]
    for latent in smooth:
        mean = latent.mean(axis=1, keepdims=True)
        std = latent.std(axis=1) + 1e-12
        latent[...] = np.tanh((latent - mean) / std[:, None])
    return smooth


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


def _clip_rngs(config: GenConfig, index: int):
    """The feature and corruption generators of clip ``index``."""
    base = clip_seed(config, index)
    return tuple(np.random.default_rng(np.random.SeedSequence([base, stream])) for stream in (0, 1))


def _generate_clip(index: int, config: GenConfig, weights, latent, feature_rng, corrupt_rng) -> LabeledClip:
    w_val, w_aro, views = weights
    mask = _corruption_mask(corrupt_rng, config)
    fields = {"valence": w_val @ latent, "arousal": w_aro @ latent}
    for m, (seen, mixing) in views.items():
        feats = mixing @ latent[seen]
        if config.noise_std > 0:
            feats = feats + config.noise_std * feature_rng.standard_normal(feats.shape)
        corrupt = mask if m == config.corruption_target else np.zeros(config.frames, dtype=bool)
        count = int(corrupt.sum())
        if count:
            mean = feats.mean(axis=1, keepdims=True)
            std = feats.std(axis=1, keepdims=True)
            feats[:, corrupt] = mean + std * corrupt_rng.standard_normal((feats.shape[0], count))
        fields[m] = feats.astype(np.float32)
        fields[f"corrupt_{m}"] = corrupt
    return LabeledClip(clip_id=f"clip{index:04d}", **fields)


def generate(config: GenConfig) -> list:
    """All clips for one dataset, in clip order; pure function of the
    config (seed included)."""
    weights = _dataset_weights(config)
    rngs = [_clip_rngs(config, i) for i in range(config.num_videos)]
    latents = _smooth_latents([feature_rng for feature_rng, _ in rngs], config)
    return [_generate_clip(i, config, weights, latents[i], *rngs[i]) for i in range(config.num_videos)]


# -- windowing ---------------------------------------------------------------


def _cut(column, start: int, length: int):
    """Frames ``start .. start + length`` of a per-frame field: a view
    where the field reaches that far, else padded with zeros (False for
    a mask)."""
    piece = column[..., start : start + length]
    pad = length - piece.shape[-1]
    if pad:
        piece = np.pad(piece, [(0, 0)] * (piece.ndim - 1) + [(0, pad)])
    return piece


def window(clip: LabeledClip, length: int, stride: int) -> list:
    """Overlapping windows; the tail is zero-padded with validity cleared."""
    if length < 1 or stride < 1:
        raise ConfigError(f"window length and stride must be >= 1, got {length}, {stride}")
    # a window holds every feature row, padded to window_len frames
    check_fits(feature_rows=max(getattr(clip, m).shape[0] for m in MODALITIES), window_len=length)
    return [
        LabeledClip(
            clip_id=clip.clip_id,
            **{name: _cut(getattr(clip, name), start, length) for name in FRAME_FIELDS},
            frame_offset=clip.frame_offset + start,
        )
        for start in range(0, clip.frames, stride)
    ]


# -- feature file I/O --------------------------------------------------------


def write_file(path, data: bytes):
    """Make ``data`` the whole file at ``path``: every artifact's writer.  An
    existing file is written over in place on the raw descriptor, then cut
    only if it was longer, as truncating it to zero costs a journalled block
    free and writeback at close on ext4.  Nothing is fsynced, so a crash can
    mix old and new bytes, as with ``open(path, "wb")``."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest) :]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_avfs(path, matrix: np.ndarray):
    """Binary feature container: magic, version, frames, dim, f32 payload."""
    data = np.ascontiguousarray(matrix, dtype="<f4")
    dim, frames = data.shape
    write_file(path, HEADER.pack(MAGIC, VERSION, frames, dim) + data.tobytes())


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
        if dim == 0:
            raise FormatError(f"{path}: no feature rows", offset=12)
        expected = 4 * frames * dim
        available = os.fstat(fh.fileno()).st_size - HEADER.size
        if available < expected:
            raise FormatError(
                f"{path}: payload truncated at {available} of {expected} bytes",
                offset=HEADER.size + available,
            )
        if available > expected:
            raise FormatError(f"{path}: trailing data after payload", offset=HEADER.size + expected)
        matrix = np.frombuffer(fh.read(expected), dtype="<f4").reshape(dim, frames)
    _check_finite(path, "feature", matrix, HEADER.size)
    return matrix.copy()


def _check_finite(path, name: str, matrix: np.ndarray, offset: int):
    """A FormatError naming ``name``, the [row, column] and the byte offset of
    the first non-finite entry of a matrix read row-major from ``offset``."""
    finite = np.isfinite(matrix)
    if not finite.all():
        row, col = (int(i) for i in np.argwhere(~finite)[0])
        at = offset + matrix.itemsize * (row * matrix.shape[1] + col)
        raise FormatError(f"{path}: non-finite {name} entry [{row}, {col}]", offset=at)


# -- CSV codec ---------------------------------------------------------------

# A column kind: the regex of the cells the writer makes in that column,
# and the dtype a column of them converts to (str keeps the cells).  A
# count is plain digits, at most 18 so that it fits an int64; a float is
# its repr, without padding, `_`, a leading `+`, nan or inf; a flag is 0/1.
COUNT = (r"[0-9]{1,18}", np.int64)
FLOAT = (r"-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?", np.float64)
FLAG = (r"[01]", np.int8)


def _write_csv(path, header, rows):
    """``header`` and ``rows`` as lines of cells joined by ``,``, each line
    ended in CRLF.  A cell is a Python int, float or str, so ``str`` gives
    a float's repr: values come through ``.tolist()``, never as numpy
    scalars.  No cell holds ``,``, ``"``, CR or LF, so none is quoted."""
    lines = [",".join(map(str, row)) for row in (header, *rows)]
    write_file(path, ("\r\n".join(lines) + "\r\n").encode("utf-8"))


def _read_csv(path, header, kinds):
    """The columns below ``header``, one per column kind: a numpy array of
    the kind's dtype, or a list of str.

    The file is read only in the grammar :func:`_write_csv` writes, with
    lines ended in CRLF or LF.  Bytes that are not UTF-8 are a FormatError
    naming the file and the byte offset; a wrong header, one naming the
    file; otherwise the first row, top to bottom, with the wrong cell count
    or a cell not of its kind (a float that is not finite included), one
    naming the file and the 1-based row (the header is row 1).
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text", offset=exc.start) from None
    if not text:
        raise FormatError(f"{path}: empty file", offset=0)
    first, _, body = text.replace("\r\n", "\n").partition("\n")
    if first != ",".join(header):
        raise FormatError(f"{path}: expected header {','.join(header)}", offset=0)
    if body and not body.endswith("\n"):
        body += "\n"
    row = ",".join(f"(?:{pattern})" for pattern, _ in kinds)
    if re.fullmatch(f"(?:{row}\n)*", body):
        # every line ends in "\n", so the last cell is an empty one
        cells = body.replace("\n", ",").split(",")
        n = len(kinds)
        columns = [
            cells[i:-1:n] if dtype is str else np.array(cells[i:-1:n], dtype=dtype)
            for i, (_, dtype) in enumerate(kinds)
        ]
        if all(np.isfinite(column).all() for column, (_, dtype) in zip(columns, kinds) if dtype is np.float64):
            return columns
    raise _first_bad_row(path, header, kinds, body)


def _first_bad_row(path, header, kinds, body: str) -> FormatError:
    """The error naming the first line of ``body`` (each one ended in
    "\\n") with the wrong cell count or a cell not of its column's kind.
    A bad cell is quoted up to its first 40 characters, then ``...``."""
    for number, line in enumerate(body.split("\n")[:-1], start=2):
        cells = line.split(",") if line else []
        if len(cells) != len(kinds):
            return FormatError(f"{path}: row {number} has {len(cells)} cells, expected {len(kinds)}")
        for name, (pattern, dtype), cell in zip(header, kinds, cells):
            if not re.fullmatch(pattern, cell) or (dtype is np.float64 and not math.isfinite(float(cell))):
                shown = f"{cell[:40]!r}..." if len(cell) > 40 else repr(cell)
                return FormatError(f"{path}: row {number} has a bad {name} {shown}")


def write_features(directory, clip: LabeledClip):
    """Per clip: one AVFS matrix per modality, a labels CSV and a masks CSV."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for m in MODALITIES:
        write_avfs(directory / f"{clip.clip_id}_{m}.avfs", getattr(clip, m))
    frames = range(clip.frame_offset, clip.frame_offset + clip.frames)
    labels = zip(frames, clip.valence.tolist(), clip.arousal.tolist())
    _write_csv(directory / f"{clip.clip_id}_labels.csv", LABELS_HEADER, labels)
    masks = zip(frames, *(getattr(clip, name).astype(int).tolist() for name in MASK_FIELDS))
    _write_csv(directory / f"{clip.clip_id}_masks.csv", MASKS_HEADER, masks)


def _check_frames(path, column, first: int):
    """Frame numbers must count up by one from ``first``; the 1-based
    row of the first one that does not is named (the header is row 1)."""
    expected = np.arange(first, first + len(column))
    wrong = np.flatnonzero(column != expected)
    if wrong.size:
        at = wrong[0]
        raise FormatError(f"{path}: row {at + 2} has frame {column[at]}, expected {expected[at]}")


def read_features(directory, clip_id: str) -> LabeledClip:
    """The clip :func:`write_features` wrote.  A labels CSV without rows,
    a feature file or mask CSV whose frame count differs from the label
    rows (named with the labels CSV), or frames that do not count up by
    one from the labels' first, is a FormatError naming it."""
    directory = Path(directory)
    labels = directory / f"{clip_id}_labels.csv"
    frames, valence, arousal = _read_csv(labels, LABELS_HEADER, (COUNT, FLOAT, FLOAT))
    if not len(frames):
        raise FormatError(f"{labels}: no label rows")
    first = int(frames[0])
    _check_frames(labels, frames, first)
    fields = {"valence": valence, "arousal": arousal}
    for m in MODALITIES:
        path = directory / f"{clip_id}_{m}.avfs"
        fields[m] = read_avfs(path)
        if fields[m].shape[1] != len(frames):
            raise FormatError(f"{path}: {fields[m].shape[1]} frames but {len(frames)} label rows in {labels}")
    path = directory / f"{clip_id}_masks.csv"
    mask_frames, *masks = _read_csv(path, MASKS_HEADER, (COUNT, *(FLAG,) * len(MASK_FIELDS)))
    if len(mask_frames) != len(frames):
        raise FormatError(f"{path}: {len(mask_frames)} rows but {len(frames)} label rows in {labels}")
    _check_frames(path, mask_frames, first)
    fields.update((name, column.astype(bool)) for name, column in zip(MASK_FIELDS, masks))
    return LabeledClip(clip_id=clip_id, **fields, frame_offset=first)
