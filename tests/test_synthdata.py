"""Generator, windowing, and feature-file tests."""

import numpy as np
import pytest

from avfusion.autodiff import Tensor
from avfusion.exceptions import ConfigError, FormatError
from avfusion.metrics import ccc, ccc_loss
from avfusion.synthdata import (
    GenConfig,
    LabeledClip,
    generate,
    read_avfs,
    read_features,
    window,
    write_avfs,
    write_features,
)


def linear_probe_ccc(features, labels):
    """Least-squares readout from features to labels, scored by ccc."""
    X = np.concatenate([np.asarray(f, dtype=np.float64) for f in features], axis=1)
    y = np.concatenate(labels)
    design = np.vstack([X, np.ones((1, X.shape[1]))]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return ccc(design @ coef, y)


class TestGenerate:
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
