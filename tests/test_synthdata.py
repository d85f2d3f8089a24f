"""Generator, windowing, and feature-file tests."""

import ast
import csv
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avfusion.autodiff import Tensor
from avfusion.exceptions import ConfigError, FormatError
from avfusion import synthdata
from avfusion.metrics import ccc, ccc_loss
from avfusion.synthdata import (
    HEADER,
    LABELS_HEADER,
    MAGIC,
    MASK_FIELDS,
    MASKS_HEADER,
    VERSION,
    GenConfig,
    LabeledClip,
    generate,
    read_avfs,
    read_features,
    window,
    write_avfs,
    write_features,
    write_file,
)


def linear_probe_ccc(features, labels):
    """Least-squares readout from features to labels, scored by ccc."""
    X = np.concatenate([np.asarray(f, dtype=np.float64) for f in features], axis=1)
    y = np.concatenate(labels)
    design = np.vstack([X, np.ones((1, X.shape[1]))]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return ccc(design @ coef, y)


def smooth_latent_of_one_clip(rng, config):
    """One clip's latent by its own recursion over frames: the reference
    the stacked recursion in ``generate`` must equal bit for bit."""
    raw = rng.standard_normal((config.latent_dim, config.frames))
    alpha = math.exp(-1.0 / config.smoothness)
    smooth = np.empty_like(raw)
    smooth[:, 0] = raw[:, 0]
    for t in range(1, config.frames):
        smooth[:, t] = alpha * smooth[:, t - 1] + (1.0 - alpha) * raw[:, t]
    mean = smooth.mean(axis=1, keepdims=True)
    std = smooth.std(axis=1) + 1e-12
    return np.tanh((smooth - mean) / std[:, None])


class TestGenerate:
    @pytest.mark.parametrize(
        "config",
        [
            GenConfig(num_videos=5, frames=70, latent_dim=6, smoothness=3.0, seed=9),
            GenConfig(num_videos=3, frames=1, latent_dim=2, seed=4),
            GenConfig(num_videos=1, frames=33, smoothness=0.5, seed=2),
        ],
    )
    def test_latents_equal_the_per_clip_recursion(self, config):
        stacked_rngs = [synthdata._clip_rngs(config, i)[0] for i in range(config.num_videos)]
        stacked = synthdata._smooth_latents(stacked_rngs, config)
        assert stacked.shape == (config.num_videos, config.latent_dim, config.frames)
        for i, rng in enumerate(stacked_rngs):
            own_rng = synthdata._clip_rngs(config, i)[0]
            want = smooth_latent_of_one_clip(own_rng, config)
            assert np.array_equal(stacked[i].view(np.int64), want.view(np.int64)), i
            # each clip's feature stream continues where its own draw left it
            assert rng.bit_generator.state == own_rng.bit_generator.state, i

    def test_deterministic(self):
        config = GenConfig(num_videos=3, frames=40, seed=123, corruption_prob=0.4)
        a = generate(config)
        b = generate(config)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate(GenConfig(num_videos=1, frames=40, seed=1))
        b = generate(GenConfig(num_videos=1, frames=40, seed=2))
        assert not np.array_equal(a[0].audio, b[0].audio)

    def test_no_corruption_when_p_zero(self):
        clips = generate(GenConfig(num_videos=4, frames=60, seed=5, corruption_prob=0.0))
        for clip in clips:
            assert not clip.corrupt_audio.any()
            assert not clip.corrupt_visual.any()

    def test_label_range(self):
        clips = generate(GenConfig(num_videos=5, frames=100, seed=6))
        for clip in clips:
            assert np.all(np.abs(clip.valence) <= 1.0)
            assert np.all(np.abs(clip.arousal) <= 1.0)

    def test_feature_dtype_and_shapes(self):
        config = GenConfig(num_videos=2, frames=30, dim_audio=5, dim_visual=7, seed=7)
        clips = generate(config)
        assert len(clips) == 2
        for clip in clips:
            assert clip.audio.dtype == np.float32
            assert clip.audio.shape == (5, 30)
            assert clip.visual.shape == (7, 30)
            assert clip.valid.all()

    def test_full_overlap_probe_recovers_labels(self):
        # both modalities see the whole latent and there is no sensor
        # noise, so a linear readout should align almost perfectly
        config = GenConfig(
            num_videos=6, frames=80, seed=8, complementarity=1.0, noise_std=0.0
        )
        clips = generate(config)
        for pick in ("audio", "visual"):
            score = linear_probe_ccc(
                [getattr(c, pick) for c in clips], [c.valence for c in clips]
            )
            assert score > 0.99, f"{pick} probe ccc {score}"

    def test_corruption_degrades_audio_probe(self):
        base = dict(num_videos=10, frames=128, seed=9, complementarity=1.0, noise_std=0.05)
        clean = generate(GenConfig(**base, corruption_prob=0.0))
        dirty = generate(GenConfig(**base, corruption_prob=0.5))
        clean_score = linear_probe_ccc([c.audio for c in clean], [c.valence for c in clean])
        dirty_score = linear_probe_ccc([c.audio for c in dirty], [c.valence for c in dirty])
        assert clean_score - dirty_score >= 0.15

    def test_corruption_only_touches_masked_frames(self):
        base = dict(num_videos=2, frames=90, seed=10)
        clean = generate(GenConfig(**base, corruption_prob=0.0))
        dirty = generate(GenConfig(**base, corruption_prob=0.4))
        for c, d in zip(clean, dirty):
            assert d.corrupt_audio.any()
            assert np.array_equal(c.audio[:, ~d.corrupt_audio], d.audio[:, ~d.corrupt_audio])
            assert not np.array_equal(c.audio[:, d.corrupt_audio], d.audio[:, d.corrupt_audio])
            assert np.array_equal(c.visual, d.visual)  # audio is the default target

    def test_corrupted_fraction_tracks_probability(self):
        config = GenConfig(num_videos=20, frames=192, seed=11, corruption_prob=0.3)
        clips = generate(config)
        fraction = np.mean(np.concatenate([c.corrupt_audio for c in clips]))
        assert abs(fraction - 0.3) < 0.08

    def test_corruption_comes_in_bursts(self):
        config = GenConfig(
            num_videos=10, frames=192, seed=12, corruption_prob=0.4, corruption_mean_len=8.0
        )
        runs = []
        for clip in generate(config):
            mask = clip.corrupt_audio
            length = 0
            for value in mask:
                if value:
                    length += 1
                elif length:
                    runs.append(length)
                    length = 0
            if length:
                runs.append(length)
        mean_run = np.mean(runs)
        assert 4.0 < mean_run < 16.0  # geometric with mean 8, loose band

    def test_visual_corruption_target(self):
        config = GenConfig(
            num_videos=2, frames=60, seed=13, corruption_prob=0.4, corruption_target="visual"
        )
        clips = generate(config)
        assert any(c.corrupt_visual.any() for c in clips)
        assert not any(c.corrupt_audio.any() for c in clips)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GenConfig(num_videos=0)
        with pytest.raises(ConfigError):
            GenConfig(complementarity=1.5)
        with pytest.raises(ConfigError):
            GenConfig(corruption_prob=-0.1)
        with pytest.raises(ConfigError):
            GenConfig(corruption_target="text")


class TestWindow:
    def make_clip(self, frames, seed=0):
        return generate(GenConfig(num_videos=1, frames=frames, seed=seed, corruption_prob=0.3))[0]

    def test_matching_length_plus_tail(self):
        clip = self.make_clip(300)
        wins = window(clip, 300, 200)
        assert len(wins) == 2
        assert wins[0].valid.all()
        assert wins[1].frame_offset == 200
        assert wins[1].valid.sum() == 100
        assert np.array_equal(wins[1].audio[:, 100:], np.zeros_like(wins[1].audio[:, 100:]))

    def test_start_positions(self):
        clip = self.make_clip(700)
        wins = window(clip, 300, 200)
        assert [w.frame_offset for w in wins] == [0, 200, 400, 600]

    def test_short_clip_single_padded_window(self):
        clip = self.make_clip(50)
        wins = window(clip, 64, 64)
        assert len(wins) == 1
        assert wins[0].valid.sum() == 50
        assert wins[0].frames == 64

    def test_every_frame_covered(self):
        clip = self.make_clip(200)
        wins = window(clip, 64, 43)
        covered = np.zeros(200, dtype=bool)
        for w in wins:
            real = int(w.valid.sum())
            covered[w.frame_offset : w.frame_offset + real] = True
        assert covered.all()

    def test_window_content_matches_source(self):
        clip = self.make_clip(200)
        w = window(clip, 64, 43)[2]
        start = w.frame_offset
        assert np.array_equal(w.audio, clip.audio[:, start : start + 64])
        assert np.array_equal(w.valence, clip.valence[start : start + 64])
        assert np.array_equal(w.corrupt_audio, clip.corrupt_audio[start : start + 64])

    def test_bad_arguments(self):
        clip = self.make_clip(50)
        with pytest.raises(ConfigError):
            window(clip, 0, 10)
        with pytest.raises(ConfigError):
            window(clip, 10, 0)

    def test_padded_frames_get_zero_gradient(self):
        clip = self.make_clip(50)
        win = window(clip, 64, 64)[0]
        pred = Tensor(np.random.default_rng(0).standard_normal((1, 64)))
        ccc_loss(pred, win.valence, valid=win.valid).backward()
        assert np.array_equal(pred.grad[0, 50:], np.zeros(14))
        assert np.any(pred.grad[0, :50] != 0.0)


PER_FRAME_FIELDS = ["audio", "visual", "valence", "arousal", "corrupt_audio", "corrupt_visual", "valid"]


@pytest.mark.parametrize("name", PER_FRAME_FIELDS)
def test_per_frame_field(name):
    # every per-frame field is length-checked, compared and windowed
    clip = generate(GenConfig(num_videos=1, frames=20, seed=30, corruption_prob=0.5))[0]
    fields = {n: getattr(clip, n) for n in PER_FRAME_FIELDS}
    column = fields[name]

    with pytest.raises(ConfigError, match="clip clip0000"):
        LabeledClip(clip.clip_id, **dict(fields, **{name: column[..., :-1]}))

    changed = column.copy()
    changed[..., 3] = ~changed[..., 3] if changed.dtype == bool else changed[..., 3] + 1
    assert LabeledClip(clip.clip_id, **dict(fields, **{name: changed})) != clip
    assert LabeledClip(clip.clip_id, **fields) == clip

    padded = getattr(window(clip, 25, 25)[0], name)
    assert padded.dtype == column.dtype
    assert np.array_equal(padded[..., :20], column)
    assert not padded[..., 20:].any()  # zeros, or False for a mask
    assert np.shares_memory(getattr(window(clip, 10, 10)[1], name), column)


class TestFeatureFiles:
    def test_avfs_round_trip(self, tmp_path):
        matrix = np.random.default_rng(20).standard_normal((5, 9)).astype(np.float32)
        path = tmp_path / "m.avfs"
        write_avfs(path, matrix)
        back = read_avfs(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, matrix)

    def test_clip_round_trip(self, tmp_path):
        clip = generate(GenConfig(num_videos=1, frames=40, seed=21, corruption_prob=0.3))[0]
        write_features(tmp_path, clip)
        assert read_features(tmp_path, clip.clip_id) == clip

    def test_padded_window_round_trip(self, tmp_path):
        clip = generate(GenConfig(num_videos=1, frames=50, seed=22))[0]
        win = window(clip, 64, 64)[0]
        win.clip_id = "clip0000w"
        write_features(tmp_path, win)
        assert read_features(tmp_path, "clip0000w") == win

    def test_write_is_byte_deterministic(self, tmp_path):
        clip = generate(GenConfig(num_videos=1, frames=30, seed=23))[0]
        write_features(tmp_path / "a", clip)
        write_features(tmp_path / "b", clip)
        for suffix in ("_audio.avfs", "_visual.avfs", "_labels.csv", "_masks.csv"):
            fa = (tmp_path / "a" / f"{clip.clip_id}{suffix}").read_bytes()
            fb = (tmp_path / "b" / f"{clip.clip_id}{suffix}").read_bytes()
            assert fa == fb

    def test_write_file_leaves_exactly_the_last_bytes(self, tmp_path):
        # a new path is created; over an existing file the bytes are
        # written in place, so a shorter write must cut the old tail off
        path = tmp_path / "artifact"
        for data in (b"long " * 40, b"short", b"", b"longer again " * 30):
            write_file(path, data)
            assert path.read_bytes() == data

    def test_write_file_creates_with_the_mode_of_open(self, tmp_path):
        write_file(tmp_path / "new", b"x")
        with open(tmp_path / "reference", "wb") as fh:
            fh.write(b"x")
        assert (tmp_path / "new").stat().st_mode == (tmp_path / "reference").stat().st_mode

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.avfs"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(FormatError, match="magic") as info:
            read_avfs(path)
        assert info.value.offset == 0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.avfs"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="empty"):
            read_avfs(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.avfs"
        import struct

        path.write_bytes(struct.pack("<4sIII", b"AVFS", 9, 1, 1) + b"\x00" * 4)
        with pytest.raises(FormatError, match="version") as info:
            read_avfs(path)
        assert info.value.offset == 4

    def test_truncated_payload(self, tmp_path):
        matrix = np.ones((2, 3), dtype=np.float32)
        path = tmp_path / "t.avfs"
        write_avfs(path, matrix)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError, match="truncated") as info:
            read_avfs(path)
        assert info.value.offset == len(data) - 5

    def test_trailing_data(self, tmp_path):
        matrix = np.ones((2, 3), dtype=np.float32)
        path = tmp_path / "x.avfs"
        write_avfs(path, matrix)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            read_avfs(path)

    def test_label_header_checked(self, tmp_path):
        clip = generate(GenConfig(num_videos=1, frames=20, seed=24))[0]
        write_features(tmp_path, clip)
        label_path = tmp_path / f"{clip.clip_id}_labels.csv"
        text = label_path.read_text().replace("frame,valence,arousal", "a,b,c")
        label_path.write_text(text)
        with pytest.raises(FormatError, match="header"):
            read_features(tmp_path, clip.clip_id)


def _opens_for_writing(node) -> bool:
    """A call of ``open`` with a writing mode, of ``write_bytes`` or
    ``write_text``, or a use of ``O_TRUNC``."""
    if isinstance(node, ast.Attribute) and node.attr == "O_TRUNC":
        return True
    if not isinstance(node, ast.Call):
        return False
    name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
    args = [*node.args, *(keyword.value for keyword in node.keywords)]
    modes = [set(arg.value) for arg in args if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
    writing = any(mode <= set("rwxabt+") and mode & set("wxa+") for mode in modes)
    return name in ("write_bytes", "write_text") or (name == "open" and writing)


def test_only_write_file_opens_a_file_for_writing():
    # every file the program writes goes through synthdata.write_file, so
    # no new artifact can go back to truncating its file to zero first
    found = []
    for path in sorted(Path(synthdata.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        writer = {id(n) for f in ast.walk(tree) if getattr(f, "name", None) == "write_file" for n in ast.walk(f)}
        found += [(path.name, id(node) in writer) for node in ast.walk(tree) if _opens_for_writing(node)]
    assert found == [("synthdata.py", True)]


# small sizes reach the payload checks; any 32-bit size may appear
AVFS_SIZE = st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1))
AVFS_BYTES = st.one_of(
    st.binary(max_size=40),
    st.builds(
        lambda version, frames, dim, payload: HEADER.pack(MAGIC, version, frames, dim) + payload,
        st.one_of(st.just(VERSION), st.integers(0, 2**32 - 1)),
        AVFS_SIZE,
        AVFS_SIZE,
        st.binary(max_size=80),
    ),
)


@settings(max_examples=300, deadline=None)
@example(blob=HEADER.pack(MAGIC, VERSION, 2**32 - 1, 2**32 - 1))
@example(blob=HEADER.pack(MAGIC, VERSION, 2, 1) + np.array([0.5, np.nan], dtype="<f4").tobytes())
@example(blob=HEADER.pack(MAGIC, VERSION, 1, 2) + np.array([np.inf, 0.5], dtype="<f4").tobytes())
@example(blob=HEADER.pack(MAGIC, VERSION, 3, 0))
@given(blob=AVFS_BYTES)
def test_any_avfs_bytes_parse_or_are_format_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "any.avfs"
    path.write_bytes(blob)
    try:
        matrix = read_avfs(path)
    except FormatError:
        return
    # what parses has a feature row, is finite, and is exactly what
    # write_avfs would have written
    assert matrix.shape[0] >= 1 and np.isfinite(matrix).all()
    write_avfs(path, matrix)
    assert path.read_bytes() == blob


CSV_CLIP = generate(GenConfig(num_videos=1, frames=6, seed=31))[0]
# the first frame cell, after the header line, and the first label cell
FRAME_CELL = len(",".join(LABELS_HEADER) + "\r\n")
LABEL_CELL = FRAME_CELL + len("0,")
CSV_JUNK = st.one_of(
    st.binary(max_size=8),
    st.text(alphabet="0123456789,.-+_ einfa\r\n\"", max_size=8).map(str.encode),
)


def reference_columns(path, header, rules):
    """A CSV's columns as the csv module and one rule per cell read them:
    the reader may accept less than this reference, never other values."""
    rows = list(csv.reader(io.StringIO(path.read_bytes().decode("utf-8"), newline="")))
    assert rows[0] == header and all(len(row) == len(header) for row in rows[1:])
    return [[rule(row[i]) for row in rows[1:]] for i, rule in enumerate(rules)]


def reference_count(cell):
    assert re.fullmatch(r"[0-9]+", cell)
    return int(cell)


def reference_float(cell):
    assert re.fullmatch(r"-?[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?", cell)
    value = float(cell)
    assert math.isfinite(value)
    return value


def reference_flag(cell):
    assert cell in ("0", "1")
    return cell == "1"


@settings(max_examples=300, deadline=None)
@example(which="labels", at=30, drop=0, junk=b"\xff\xfe")
@example(which="masks", at=30, drop=0, junk=b"\xff\xfe")
@example(which="labels", at=LABEL_CELL, drop=0, junk=b"1" * 200_000)
@example(which="labels", at=FRAME_CELL, drop=1, junk=b" 0 ")  # frame " 0 "
@example(which="labels", at=LABEL_CELL, drop=1, junk=b"1_")  # valence "1_0.22..." for -0.22...
@example(which="labels", at=FRAME_CELL, drop=1, junk=b'"0"')  # a quoted frame
@example(which="labels", at=FRAME_CELL, drop=0, junk=b"00")  # frame "000"
@example(which="labels", at=FRAME_CELL - 2, drop=1, junk=b"")  # the header ends in LF
@example(which="masks", at=10**6, drop=0, junk=b"\n")  # a blank last line
@given(
    which=st.sampled_from(["labels", "masks"]),
    at=st.integers(0, 160),
    drop=st.one_of(st.integers(0, 8), st.just(10**6)),
    junk=CSV_JUNK,
)
def test_any_label_or_mask_bytes_parse_or_are_format_error(tmp_path_factory, which, at, drop, junk):
    directory = tmp_path_factory.getbasetemp() / "any_csv"
    write_features(directory, CSV_CLIP)
    path = directory / f"{CSV_CLIP.clip_id}_{which}.csv"
    blob = path.read_bytes()
    path.write_bytes(blob[:at] + junk + blob[at + drop :])
    try:
        clip = read_features(directory, CSV_CLIP.clip_id)
    except FormatError as exc:
        assert str(exc).startswith(f"{directory / CSV_CLIP.clip_id}_")
        return
    labels, masks = (directory / f"{CSV_CLIP.clip_id}_{kind}.csv" for kind in ("labels", "masks"))
    frames, valence, arousal = reference_columns(labels, LABELS_HEADER, (reference_count, *(reference_float,) * 2))
    flag_rules = (reference_flag,) * len(MASK_FIELDS)
    mask_frames, *flags = reference_columns(masks, MASKS_HEADER, (reference_count, *flag_rules))
    assert frames == mask_frames == list(range(clip.frame_offset, clip.frame_offset + clip.frames))
    for values, name in ((valence, "valence"), (arousal, "arousal")):
        assert np.array_equal(np.array(values).view(np.int64), getattr(clip, name).view(np.int64))
    assert flags == [getattr(clip, name).tolist() for name in MASK_FIELDS]
