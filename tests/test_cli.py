"""Command-line interface tests.

All pipeline tests run tiny configurations (a few short clips, one or two
epochs) so the whole file stays fast; the CLI is exercised in-process via
``main(argv)`` except for one packaging smoke test.
"""

import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avfusion import autodiff as ad
from avfusion import cli
from avfusion.cli import load_params, main, save_params
from avfusion.config import parse_config
from avfusion.exceptions import ConfigError, FormatError
from avfusion.model import EmotionModel
from avfusion.synthdata import generate, read_avfs, write_avfs
from avfusion.training import TrainConfig, fold_assignments, train, usable_cpus


def experiment_json(out_dir, **overrides):
    base = {
        "out_dir": str(out_dir),
        "generator": {
            "num_videos": 6,
            "frames": 96,
            "dim_audio": 6,
            "dim_visual": 6,
            "latent_dim": 4,
            "seed": 7,
        },
        "training": {
            "mode": "RJCA",
            "depth": 1,
            "init_lr": 0.003,
            "warmup_epochs": 1,
            "max_epochs": 3,
            "early_stop_patience": 5,
            "dropout": 0.0,
            "weight_decay": 0.0,
            "window_len": 48,
            "window_stride": 48,
            "folds": 3,
            "tcn_levels": 1,
            "head_hidden": [8],
        },
    }
    for section, values in overrides.items():
        if isinstance(values, dict):
            base[section].update(values)
        else:
            base[section] = values
    return base


def write_experiment(tmp_path, name="exp.json", **overrides):
    out_dir = tmp_path / "run"
    data = experiment_json(out_dir, **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return path, out_dir


def tree_bytes(root):
    """Relative path -> content hash for every file under root."""
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def mark_every_frame_invalid(out):
    for path in (out / "dataset").glob("*_masks.csv"):
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *(row[: row.rindex(",")] + ",0" for row in rows)]) + "\n")


class TestGen:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        config, out = write_experiment(tmp_path)
        assert main(["gen", "--config", str(config)]) == 0
        dataset = out / "dataset"
        with open(dataset / "manifest.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["clip", "seed", "frames", "audio_corrupt_frames", "visual_corrupt_frames"]
        assert len(rows) - 1 == 6
        for row in rows[1:]:
            assert (dataset / f"{row[0]}_audio.avfs").exists()
            assert (dataset / f"{row[0]}_visual.avfs").exists()
            assert (dataset / f"{row[0]}_labels.csv").exists()
            assert (dataset / f"{row[0]}_masks.csv").exists()
            assert row[2] == "96"
        assert "wrote 6 clips" in capsys.readouterr().out

    def test_clean_config_records_zero_corruption(self, tmp_path):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        with open(out / "dataset" / "manifest.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(row[3] == "0" and row[4] == "0" for row in rows)

    def test_corrupt_config_records_counts(self, tmp_path):
        config, out = write_experiment(
            tmp_path, generator={"corruption_prob": 0.4, "corruption_target": "visual"}
        )
        main(["gen", "--config", str(config)])
        with open(out / "dataset" / "manifest.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert sum(int(row[4]) for row in rows) > 0
        assert all(row[3] == "0" for row in rows)

    def test_threads_do_not_change_bytes(self, tmp_path):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config), "--out", str(tmp_path / "serial")])
        main(["gen", "--config", str(config), "--out", str(tmp_path / "pooled"), "--threads", "4"])
        assert tree_bytes(tmp_path / "serial") == tree_bytes(tmp_path / "pooled")

    def test_shorter_gen_over_longer_matches_fresh(self, tmp_path):
        # files are written over in place: each one must be cut to its new length
        config, _ = write_experiment(tmp_path)
        short, _ = write_experiment(tmp_path, name="short.json", generator={"frames": 48})
        main(["gen", "--config", str(config), "--out", str(tmp_path / "over")])
        main(["gen", "--config", str(short), "--out", str(tmp_path / "over")])
        main(["gen", "--config", str(short), "--out", str(tmp_path / "fresh")])
        assert tree_bytes(tmp_path / "over") == tree_bytes(tmp_path / "fresh")

    def test_seed_override_changes_data(self, tmp_path):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config), "--out", str(tmp_path / "a")])
        main(["gen", "--config", str(config), "--out", str(tmp_path / "b"), "--seed", "99"])
        assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "b")


class TestTrainEval:
    def run_pipeline(self, tmp_path, **overrides):
        config, out = write_experiment(tmp_path, **overrides)
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        assert main(["eval", "--config", str(config)]) == 0
        return config, out

    def test_artifacts_present(self, tmp_path):
        _, out = self.run_pipeline(tmp_path)
        for name in ("history.csv", "params.bin", "predictions.csv", "eval_report.csv", "train_summary.json"):
            assert (out / name).exists(), name
        assert (out / "eval" / "predictions.csv").exists()
        assert (out / "eval" / "eval_report.csv").exists()

    def test_csv_contracts(self, tmp_path):
        _, out = self.run_pipeline(tmp_path)
        with open(out / "history.csv", newline="") as fh:
            history = list(csv.reader(fh))
        assert history[0] == ["epoch", "lr", "train_loss", "val_ccc"]
        assert all(len(row) == 4 for row in history[1:])
        with open(out / "predictions.csv", newline="") as fh:
            preds = list(csv.reader(fh))
        assert preds[0] == ["clip", "frame", "pred", "truth"]
        float(preds[1][2]); float(preds[1][3])
        with open(out / "eval_report.csv", newline="") as fh:
            report = list(csv.reader(fh))
        assert report[0] == ["fold", "mode", "M", "T", "ccc_v", "ccc_a"]
        assert len(report) - 1 == 3  # one row per fold
        assert {row[0] for row in report[1:]} == {"0", "1", "2"}
        with open(out / "eval" / "eval_report.csv", newline="") as fh:
            report = list(csv.reader(fh))
        assert report[0] == ["fold", "mode", "M", "T", "ccc_v", "ccc_a"]
        assert len(report) == 2 and report[1][:4] == ["", "RJCA", "1", "0.1"] and report[1][5] == ""
        with open(out / "eval" / "predictions.csv", newline="") as fh:
            preds = list(csv.reader(fh))[1:]
        # one row per frame of every clip, numbered from the clip's first frame
        assert len(preds) == 6 * 96
        assert [row[1] for row in preds[:96]] == [str(f) for f in range(96)]
        # no numpy reprs may leak into any artifact
        for path in out.rglob("*.csv"):
            assert "np.float" not in path.read_text(), path

    def test_summary_fields(self, tmp_path):
        _, out = self.run_pipeline(tmp_path)
        summary = json.loads((out / "train_summary.json").read_text())
        assert summary["folds"] == 3
        assert 0 <= summary["best_fold"] < 3
        assert summary["best_val_ccc"] == max(summary["per_fold_val_ccc"])
        assert summary["target"] == "valence"
        assert summary["best_fold_val_clips"]

    def test_rerun_byte_identical(self, tmp_path):
        config, out = self.run_pipeline(tmp_path)
        first = tree_bytes(out)
        shutil.rmtree(out)
        for command in ("gen", "train", "eval"):
            main([command, "--config", str(config)])
        assert tree_bytes(out) == first

    def test_eval_reproduces_best_fold_ccc(self, tmp_path):
        # once on clean clips, once with frames 4-13 of every clip marked
        # invalid: each fold's report row is the summary's score for that
        # fold, and evaluating the saved model on a dataset directory
        # holding only the winning fold's validation clips reproduces the
        # best validation concordance
        for masked in (False, True):
            run = tmp_path / ("masked" if masked else "clean")
            run.mkdir()
            config, out = write_experiment(run)
            assert main(["gen", "--config", str(config)]) == 0
            if masked:
                for path in (out / "dataset").glob("*_masks.csv"):
                    lines = path.read_text().splitlines()
                    for frame in range(4, 14):  # the last cell is valid
                        lines[frame + 1] = lines[frame + 1][:-1] + "0"
                    path.write_text("\n".join(lines) + "\n")
            assert main(["train", "--config", str(config)]) == 0
            summary = json.loads((out / "train_summary.json").read_text())
            with open(out / "eval_report.csv", newline="") as fh:
                report = list(csv.reader(fh))
            assert [float(row[4]) for row in report[1:]] == summary["per_fold_val_ccc"]

            fold_out = run / "foldcheck"
            fold_ds = fold_out / "dataset"
            fold_ds.mkdir(parents=True)
            with open(out / "dataset" / "manifest.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            keep = [rows[0]] + [r for r in rows[1:] if r[0] in set(summary["best_fold_val_clips"])]
            with open(fold_ds / "manifest.csv", "w", newline="") as fh:
                csv.writer(fh).writerows(keep)
            for row in keep[1:]:
                for suffix in ("_audio.avfs", "_visual.avfs", "_labels.csv", "_masks.csv"):
                    shutil.copy(out / "dataset" / (row[0] + suffix), fold_ds / (row[0] + suffix))
            shutil.copy(out / "params.bin", fold_out / "params.bin")
            assert main(["eval", "--config", str(config), "--out", str(fold_out)]) == 0
            with open(fold_out / "eval" / "eval_report.csv", newline="") as fh:
                report = list(csv.reader(fh))
            assert abs(float(report[1][4]) - summary["best_val_ccc"]) < 1e-9

    def test_one_frame_clips(self, tmp_path):
        # a one-frame clip has no concordance of its own; validation and
        # eval pool the frames of all their clips
        config, out = self.run_pipeline(tmp_path, generator={"frames": 1})
        with open(out / "eval" / "predictions.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 6

    def test_every_csv_ends_lines_in_crlf(self, tmp_path):
        config, out = write_experiment(
            tmp_path,
            generator={"num_videos": 4, "frames": 48, "dim_audio": 4, "dim_visual": 4, "latent_dim": 3},
            training={"max_epochs": 1, "window_len": 24, "window_stride": 24, "folds": 2, "head_hidden": [6]},
        )
        for command in ("gen", "train", "eval", "ablate"):
            assert main([command, "--config", str(config)]) == 0
        written = sorted(out.rglob("*.csv"))
        names = {path.name for path in written}
        assert {"manifest.csv", "clip0000_labels.csv", "clip0000_masks.csv", "history.csv"} <= names
        assert {"predictions.csv", "eval_report.csv", "ablation.csv"} <= names
        assert len([p for p in written if p.name == "eval_report.csv"]) == 2
        for path in written:
            data = path.read_bytes()
            assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n"), path

    def test_eval_leaves_dataset_untouched(self, tmp_path):
        config, out = self.run_pipeline(tmp_path)
        dataset = out / "dataset"
        before = tree_bytes(dataset)
        os.chmod(dataset, 0o555)
        try:
            assert main(["eval", "--config", str(config)]) == 0
        finally:
            os.chmod(dataset, 0o755)
        assert tree_bytes(dataset) == before

    def test_lf_dataset_evaluates_like_crlf(self, tmp_path):
        # every dataset CSV rewritten with LF line ends reads the same
        config, out = self.run_pipeline(tmp_path)
        crlf = tree_bytes(out / "eval")
        rewritten = sorted((out / "dataset").glob("*.csv"))
        assert len(rewritten) == 1 + 2 * 6
        for path in rewritten:
            blob = path.read_bytes()
            assert b"\r\n" in blob
            path.write_bytes(blob.replace(b"\r\n", b"\n"))
        shutil.rmtree(out / "eval")
        assert main(["eval", "--config", str(config)]) == 0
        assert tree_bytes(out / "eval") == crlf

    def test_shallower_train_over_deeper_matches_fresh(self, tmp_path):
        deep, _ = write_experiment(tmp_path, name="deep.json", training={"depth": 3})
        shallow, _ = write_experiment(tmp_path, name="shallow.json")  # depth 1
        for out, configs in (("over", (deep, shallow)), ("fresh", (shallow,))):
            assert main(["gen", "--config", str(shallow), "--out", str(tmp_path / out)]) == 0
            for config in configs:
                assert main(["train", "--config", str(config), "--out", str(tmp_path / out)]) == 0
        for name in TRAIN_ARTIFACTS:
            assert (tmp_path / "over" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name

    def test_eval_threads_match_serial(self, tmp_path, capsys):
        # 12 windows at batch 5: three batches, the last one partial
        config, out = write_experiment(tmp_path, training={"batch_size": 5})
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        outputs = {}
        for threads in ("1", "2", "3"):
            shutil.rmtree(out / "eval", ignore_errors=True)
            capsys.readouterr()
            assert main(["eval", "--config", str(config), "--threads", threads]) == 0
            outputs[threads] = (capsys.readouterr().out, tree_bytes(out / "eval"))
        assert outputs["1"] == outputs["2"] == outputs["3"]


# the criterion-6 ablation config (tests/test_acceptance.py)
ABLATION_OVERRIDES = {
    "generator": {
        "num_videos": 6,
        "frames": 64,
        "dim_audio": 5,
        "dim_visual": 5,
        "latent_dim": 3,
        "seed": 11,
    },
    "training": {"max_epochs": 2, "window_len": 32, "window_stride": 32, "head_hidden": [6]},
}

TRAIN_ARTIFACTS = (
    "params.bin",
    "predictions.csv",
    "history.csv",
    "eval_report.csv",
    "train_summary.json",
)


class TestThreads:
    """``--threads N`` runs train folds, ablate cells and gradcheck cases in
    forked processes, and eval's forward batches on threads; every output
    must match the serial run's bytes."""

    def run(self, capsys, *argv):
        capsys.readouterr()
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def run_in_shell(self, *argv):
        """``python -m avfusion *argv`` in a new process, as from a shell."""
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-m", "avfusion", *argv], capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout, proc.stderr

    def test_train_matches_serial(self, tmp_path, capsys):
        config, out = write_experiment(tmp_path)
        assert main(["gen", "--config", str(config)]) == 0
        outputs = {}
        for threads in ("1", "2"):
            argv = ["train", "--config", str(config), "--threads", threads]
            code, stdout, _ = self.run(capsys, *argv)
            assert code == 0
            outputs[threads] = (stdout, {name: (out / name).read_bytes() for name in TRAIN_ARTIFACTS})
        assert outputs["1"] == outputs["2"]

    def test_ablate_matches_serial(self, tmp_path, capsys):
        config, out = write_experiment(tmp_path, **ABLATION_OVERRIDES)
        outputs = {}
        for threads in ("1", "2"):
            argv = ["ablate", "--config", str(config), "--threads", threads]
            code, stdout, _ = self.run(capsys, *argv)
            assert code == 0
            outputs[threads] = (stdout, (out / "ablation.csv").read_bytes())
        assert outputs["1"] == outputs["2"]

    def test_gradcheck_matches_serial(self, capsys):
        serial = self.run(capsys, "gradcheck")
        pooled = self.run(capsys, "gradcheck", "--threads", "2")
        assert serial == pooled
        assert serial[0] == 0
        assert serial[1].splitlines()[-1].endswith("over 2092 coordinates, 0 kink skips")

    def test_worker_failure_matches_serial(self, tmp_path):
        # a rate this large overflows the attention in every fold's first
        # step; run from a shell, stderr must hold the one failure line and
        # none of numpy's floating-point warnings, from any process
        config, _ = write_experiment(tmp_path, training={"init_lr": 1e300, "warmup_epochs": 0})
        assert main(["gen", "--config", str(config)]) == 0
        serial, pooled = [self.run_in_shell("train", "--config", str(config), "--threads", t) for t in "12"]
        assert serial == pooled
        code, _, err = serial
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("verification failure: non-finite")

    def test_eval_worker_failure_matches_serial(self, tmp_path):
        # attention weights this large overflow every eval batch; the
        # threads must keep main's errstate, or numpy's overflow warning
        # prints ahead of the one failure line
        config, out = write_experiment(tmp_path, training={"batch_size": 5})
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        snapshot = load_params(out / "params.bin")
        for name in snapshot:
            if ".attn_" in name or ".out_" in name:
                snapshot[name][:] = 1e200
        save_params(out / "params.bin", snapshot)
        serial, pooled = [self.run_in_shell("eval", "--config", str(config), "--threads", t) for t in "12"]
        assert serial == pooled
        dataset = out / "dataset"
        expected = f"verification failure: non-finite values in attended audio features, round 1 ({dataset})\n"
        assert serial == (1, "", expected)

    @pytest.mark.parametrize(
        "command, section, key", [("gen", "generator", "frames"), ("train", "training", "window_len")]
    )
    def test_size_past_memory_is_config_error(self, tmp_path, command, section, key):
        # 10**15 frames need petabytes, past the 128 TiB user address
        # space, so numpy's allocation fails without touching memory
        config, _ = write_experiment(tmp_path)
        assert main(["gen", "--config", str(config)]) == 0
        huge, _ = write_experiment(tmp_path, name="huge.json", **{section: {key: 10**15}})
        for threads in "12":
            code, out, err = self.run_in_shell(command, "--config", str(huge), "--threads", threads)
            assert (code, out) == (2, "")
            assert err.count("\n") == 1
            assert err.startswith(f"configuration error: {huge}: sizes too large for memory: Unable to allocate ")

    @pytest.mark.parametrize(
        "command, section, key",
        [("gen", "generator", "frames"), ("gen", "generator", "dim_audio"), ("train", "training", "window_len")],
    )
    def test_size_past_numpy_limit_is_config_error(self, tmp_path, capsys, command, section, key):
        # numpy refuses an array of more than intp-max bytes with a
        # ValueError or TypeError, so the config check refuses the size
        # when the file is read, before anything is allocated
        huge, out = write_experiment(tmp_path, **{section: {key: 10**20}})
        assert main([command, "--config", str(huge)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"configuration error: {huge}: {key} {10**20} is too large: ")
        assert not out.exists()

    def test_window_past_numpy_limit_with_feature_rows_is_config_error(self, tmp_path):
        # 10**18 frames pass the parse-time check of one label row, but not
        # 6 feature rows of them where train cuts its windows, nor the
        # L x L attention weights eval builds first
        config, _ = write_experiment(tmp_path)
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        huge, _ = write_experiment(tmp_path, name="huge.json", training={"window_len": 10**18})
        for command in ("train", "eval"):
            for threads in "12":
                code, out, err = self.run_in_shell(command, "--config", str(huge), "--threads", threads)
                assert (code, out) == (2, "")
                assert err.count("\n") == 1
                assert err.startswith(f"configuration error: {huge}: window_len {10**18} is too large: ")

    def test_more_folds_than_clips_names_the_config(self, tmp_path, capsys):
        config, out = write_experiment(tmp_path, generator={"num_videos": 4}, training={"folds": 9})
        assert main(["gen", "--config", str(config)]) == 0
        capsys.readouterr()
        for threads in "12":
            assert main(["train", "--config", str(config), "--threads", threads]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"configuration error: {config}: cannot make 9 folds from 4 clips\n"
        assert not (out / "params.bin").exists()

    def test_worker_failure_names_fold_and_epoch(self, tmp_path, capsys):
        # each fold trains on one batch here, so the first forward to
        # overflow is fold 0's first validation pass, serial or pooled
        config, _ = write_experiment(tmp_path, training={"init_lr": 1e300, "warmup_epochs": 0})
        assert main(["gen", "--config", str(config)]) == 0
        capsys.readouterr()
        for threads in ("1", "2"):
            assert main(["train", "--config", str(config), "--threads", threads]) == 1
            err = capsys.readouterr().err
            assert err.startswith("verification failure: non-finite")
            assert err.endswith(" (fold 0, epoch 0, validation)\n")

    def test_pool_is_capped_at_tasks_and_cpus(self, tmp_path, capsys, monkeypatch):
        import concurrent.futures

        asked = []
        real = concurrent.futures.ProcessPoolExecutor

        def recording(max_workers, **kwargs):
            asked.append(max_workers)
            return real(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
        config, _ = write_experiment(tmp_path)  # 3 folds
        assert main(["gen", "--config", str(config), "--threads", "64"]) == 0
        assert main(["train", "--config", str(config), "--threads", "1"]) == 0
        assert asked == []
        assert main(["train", "--config", str(config), "--threads", "64"]) == 0
        cpus = len(os.sched_getaffinity(0))
        assert asked == ([min(3, cpus)] if cpus > 1 else [])

    def test_eval_batches_are_balanced_over_threads(self, tmp_path, monkeypatch):
        # 12 windows at batch 5 make 3 near-equal batches on one thread; on
        # 2 threads the count rounds up to 4, none larger than batch_size
        config, _ = write_experiment(tmp_path, training={"batch_size": 5})
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        sizes = []
        real = EmotionModel.forward

        def recording(self, windows, *args, **kwargs):
            sizes.append(len(windows))
            return real(self, windows, *args, **kwargs)

        monkeypatch.setattr(EmotionModel, "forward", recording)
        assert main(["eval", "--config", str(config), "--threads", "1"]) == 0
        assert sizes == [4, 4, 4]
        if usable_cpus() < 2:
            pytest.skip("--threads 2 runs serially on one CPU")
        sizes.clear()
        assert main(["eval", "--config", str(config), "--threads", "2"]) == 0
        assert sizes == [3, 3, 3, 3]

    def test_eval_thread_pool_is_capped_at_batches_and_cpus(self, tmp_path, monkeypatch):
        import concurrent.futures

        asked = []
        real = concurrent.futures.ThreadPoolExecutor

        def recording(max_workers, **kwargs):
            asked.append(max_workers)
            return real(max_workers, **kwargs)

        # 12 windows: one batch at the default batch size, three at 5
        one_batch, _ = write_experiment(tmp_path, name="one.json")
        three_batches, _ = write_experiment(tmp_path, name="three.json", training={"batch_size": 5})
        assert main(["gen", "--config", str(one_batch)]) == 0
        assert main(["train", "--config", str(one_batch)]) == 0
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        assert main(["eval", "--config", str(three_batches), "--threads", "1"]) == 0
        assert main(["eval", "--config", str(one_batch), "--threads", "64"]) == 0
        assert asked == []
        assert main(["eval", "--config", str(three_batches), "--threads", "64"]) == 0
        threads = min(64, 3, len(os.sched_getaffinity(0)))
        assert asked == ([threads] if threads > 1 else [])


class TestExitCodes:
    def test_directory_at_artifact_path_is_io_error(self, tmp_path, capsys):
        config, out = write_experiment(tmp_path)
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        for command, artifact in (
            ("train", "params.bin"),
            ("train", "train_summary.json"),
            ("gen", "dataset/clip0002_audio.avfs"),
            ("gen", "dataset/manifest.csv"),
        ):
            path = out / artifact
            path.unlink()
            (path / "inside").mkdir(parents=True)
            capsys.readouterr()
            assert main([command, "--config", str(config)]) == 3
            assert capsys.readouterr().err == f"i/o error: [Errno 21] Is a directory: '{path}'\n"
            shutil.rmtree(path)

    def test_missing_dataset_is_config_error(self, tmp_path, capsys):
        config, _ = write_experiment(tmp_path)
        assert main(["train", "--config", str(config)]) == 2
        assert "run the gen command first" in capsys.readouterr().err

    def test_empty_dataset_is_config_error(self, tmp_path, capsys):
        config, out = write_experiment(tmp_path)
        (out / "dataset").mkdir(parents=True)
        (out / "dataset" / "manifest.csv").write_text(
            "clip,seed,frames,audio_corrupt_frames,visual_corrupt_frames\n"
        )
        assert main(["eval", "--config", str(config)]) == 2
        assert "no clips" in capsys.readouterr().err

    def test_missing_params_is_io_error(self, tmp_path, capsys):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        assert main(["eval", "--config", str(config)]) == 3
        assert "run the train command first" in capsys.readouterr().err

    def test_bad_config_names_key_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "training": {\n    "learning_rate": 0.1\n  }\n}')
        assert main(["gen", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "learning_rate" in err and "line 3" in err

    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"out_dir": }')
        assert main(["gen", "--config", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_corrupt_params_is_io_error(self, tmp_path, capsys):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        (out / "params.bin").write_bytes(b"AVFPxxxx")
        assert main(["eval", "--config", str(config)]) == 3
        assert "truncated" in capsys.readouterr().err

    def test_mismatched_params_is_verification_failure(self, tmp_path, capsys):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        main(["train", "--config", str(config)])
        wrong, _ = write_experiment(tmp_path, name="wrong.json", training={"depth": 2, "mode": "GRJCA"})
        capsys.readouterr()
        assert main(["eval", "--config", str(wrong)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"verification failure: {out / 'params.bin'}: saved parameters do not match")
        assert err.count("\n") == 1

    def test_params_entry_name_with_a_flipped_byte_is_verification_failure(self, tmp_path, capsys):
        # the name still decodes and is unique, but names no model weight
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        main(["train", "--config", str(config)])
        path = out / "params.bin"
        blob = bytearray(path.read_bytes())
        name_at = cli._PARAMS_HEAD.size + cli._ENTRY_HEAD.size
        first = sorted(load_params(path))[0]
        assert blob[name_at : name_at + len(first)] == first.encode()
        blob[name_at] ^= 0x01
        path.write_bytes(bytes(blob))
        flipped = chr(ord(first[0]) ^ 0x01) + first[1:]
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"verification failure: {path}: saved parameters do not match the model: "
            f"missing [{first!r}], extra [{flipped!r}]\n"
        )

    def test_eval_with_other_window_len_is_verification_failure(self, tmp_path, capsys):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        main(["train", "--config", str(config)])
        capsys.readouterr()
        other, _ = write_experiment(tmp_path, name="other.json", training={"window_len": 32})
        assert main(["eval", "--config", str(other)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "do not match" in err and "(48, 48) in the file, (32, 32) in the model" in err

    def test_non_utf8_param_name_is_io_error(self, tmp_path, capsys):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        save_params(out / "params.bin", {"head.layer1.bias": np.zeros((8, 1))})
        blob = bytearray((out / "params.bin").read_bytes())
        name_at = cli._PARAMS_HEAD.size + cli._ENTRY_HEAD.size
        blob[name_at + 2] = 0xFF
        (out / "params.bin").write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "not valid UTF-8" in err and f"byte offset {name_at}" in err

    def test_duplicate_param_name_is_io_error(self, tmp_path, capsys):
        # two entries of one name: the later one used to win without a word
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        path = out / "params.bin"
        save_params(path, {"a": np.zeros((1, 1)), "b": np.ones((1, 1))})
        blob = bytearray(path.read_bytes())
        second_at = cli._PARAMS_HEAD.size + 2 * cli._ENTRY_HEAD.size + 1 + cli._ENTRY_SHAPE.size + 8
        assert blob[second_at : second_at + 1] == b"b"
        blob[second_at] = ord("a")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=rf"duplicate entry 'a' \(byte offset {second_at}\)"):
            load_params(path)
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{path}: duplicate entry 'a' (byte offset {second_at})" in err

    @pytest.mark.parametrize(
        "name, row, text",
        [
            ("clip0000_labels.csv", 2, "0,abc,0.1"),
            ("clip0001_labels.csv", 5, "3,0.25"),
            ("clip0000_labels.csv", 3, "1,nan,0.1"),
            ("clip0001_labels.csv", 4, "2,0.2,-inf"),
            ("clip0000_masks.csv", 4, "2,0,1,yes"),
            ("clip0000_masks.csv", 3, "1,0,0,2"),
            ("clip0001_masks.csv", 5, "3,0,0,-3"),
            ("clip0000_labels.csv", 4, "99,0.1,0.1"),
            ("clip0001_labels.csv", 3, "3,0.1,0.1"),
            ("clip0000_masks.csv", 2, "7,0,0,1"),
            ("clip0001_masks.csv", 6, "5,0,0,1"),
            ("manifest.csv", 3, ""),
            ("manifest.csv", 2, "clip0000,7,ninety,0,0"),
            # padding and digit separators that int and float would accept
            ("clip0000_labels.csv", 2, " 0 ,0.5,0.1"),
            ("clip0000_labels.csv", 2, "0,1_0.5,0.1"),
            # a float past the float range, and a quoted cell the csv module would unquote
            ("clip0001_labels.csv", 3, "1,1e999,0.1"),
            ("clip0000_labels.csv", 2, '"0",0.5,0.1'),
            ("clip0000_masks.csv", 3, '1,0,0,"1"'),
        ],
    )
    def test_bad_csv_row_is_io_error(self, tmp_path, capsys, name, row, text):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        path = out / "dataset" / name
        lines = path.read_text().splitlines()
        lines[row - 1] = text
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{name}: row {row} " in err

    @pytest.mark.parametrize(
        "row, text, detail",
        [
            # clip0000's row renamed to clip0001: clip0001 would be read twice
            (2, "clip0001,7,96,0,0", "row 3 repeats clip 'clip0001' of row 2"),
            # ids that are not one plain path component
            (2, "../x/y,7,96,0,0", "row 2 has a bad clip '../x/y'"),
            (3, "..,7,96,0,0", "row 3 has a bad clip '..'"),
            (2, "clip\\0000,7,96,0,0", "row 2 has a bad clip 'clip\\\\0000'"),
            (4, ",7,96,0,0", "row 4 has a bad clip ''"),
            # ids that would need quoting: a comma splits the row, a quote is a bad id
            (3, '"clip,0001",7,96,0,0', "row 3 has 6 cells, expected 5"),
            (2, 'clip"0000,7,96,0,0', "row 2 has a bad clip 'clip\"0000'"),
            (2, '"clip0000",7,96,0,0', "row 2 has a bad clip '\"clip0000\"'"),
            (2, "clip9999,7,96,0,0", "row 2 lists clip 'clip9999', but {dataset}/clip9999_labels.csv is missing"),
            # counts that differ from the clip's files; the seed is not checked
            (2, "clip0000,7,95,0,0", "row 2 lists 95 frames but {dataset}/clip0000_labels.csv has 96"),
            (3, "clip0001,7,96,0,2", "row 3 lists 2 visual corrupt frames but {dataset}/clip0001_masks.csv marks 0"),
        ],
        ids=[
            "repeated",
            "path",
            "dot-dot",
            "backslash",
            "empty",
            "comma",
            "quote",
            "quoted",
            "missing",
            "frames",
            "corrupt",
        ],
    )
    def test_bad_manifest_row_is_io_error(self, tmp_path, capsys, row, text, detail):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        manifest = out / "dataset" / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[row - 1] = text
        manifest.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err == f"i/o error: {manifest}: {detail.format(dataset=manifest.parent)}\n"

    @pytest.mark.parametrize("name", ["clip0001_audio.avfs", "clip0001_visual.avfs", "clip0001_masks.csv"])
    def test_frame_count_mismatch_is_io_error(self, tmp_path, capsys, name):
        # a file with fewer frames than the labels CSV has rows is named
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        path = out / "dataset" / name
        if path.suffix == ".avfs":
            write_avfs(path, read_avfs(path)[:, :80])
        else:
            path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"i/o error: {path}: ") and "but 96 label rows" in err
        assert f"label rows in {out / 'dataset' / 'clip0001_labels.csv'}\n" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_zero_frame_clip_is_io_error(self, tmp_path, capsys, command):
        # a clip cut to no frames, its files and manifest row consistent,
        # is named rather than left out of the score and the predictions
        config, out = write_experiment(tmp_path, generator={"num_videos": 3}, training={"folds": 2})
        main(["gen", "--config", str(config)])
        if command == "eval":
            assert main(["train", "--config", str(config)]) == 0
        dataset = out / "dataset"
        for name in ("clip0001_labels.csv", "clip0001_masks.csv"):
            path = dataset / name
            path.write_text(path.read_text().splitlines()[0] + "\n")
        for m in ("audio", "visual"):
            write_avfs(dataset / f"clip0001_{m}.avfs", np.zeros((6, 0)))
        manifest = dataset / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:2] + ["0", "0", "0"])
        manifest.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err == f"i/o error: {dataset / 'clip0001_labels.csv'}: no label rows\n"

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_feature_row_mismatch_is_io_error(self, tmp_path, capsys, command):
        # one clip's features have fewer rows than the first clip's; the
        # clips could not be stacked into one batch
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        path = out / "dataset" / "clip0003_audio.avfs"
        write_avfs(path, read_avfs(path)[:4])
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"i/o error: {path}: ") and "4 feature rows but clip0000 has 6" in err

    def test_too_few_valid_frames_names_the_batch(self, tmp_path, capsys):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        mark_every_frame_invalid(out)
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("verification failure: ccc_loss: need at least 2 valid frames")
        assert err.endswith("(fold 0, epoch 0, batch 0)\n")

    def test_too_few_valid_frames_in_eval_names_the_dataset(self, tmp_path, capsys):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        main(["train", "--config", str(config)])
        mark_every_frame_invalid(out)
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == f"verification failure: ccc: need at least 2 samples, got 0 ({out / 'dataset'})\n"

    @pytest.mark.parametrize(
        "name, at, junk, detail",
        [
            ("clip0000_labels.csv", 30, b"\xff\xfe", "not UTF-8 text (byte offset 30)"),
            ("clip0000_masks.csv", 30, b"\xff\xfe", "not UTF-8 text (byte offset 30)"),
            ("manifest.csv", 30, b"\xff\xfe", "not UTF-8 text (byte offset 30)"),
            # a 200,000-digit valence: no csv module field limit, but not finite
            ("clip0000_labels.csv", 25, b"1" * 200_000, "row 2 has a bad valence '111111"),
        ],
        ids=["labels-utf8", "masks-utf8", "manifest-utf8", "labels-long-cell"],
    )
    def test_unreadable_csv_bytes_are_io_error(self, tmp_path, capsys, name, at, junk, detail):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        path = out / "dataset" / name
        blob = path.read_bytes()
        path.write_bytes(blob[:at] + junk + blob[at:])
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 300
        assert err.startswith(f"i/o error: {path}: {detail}")

    @pytest.mark.parametrize(
        "name, value, position",
        [
            ("head.layer1.weight", np.inf, (0, 0)),
            ("head.layer2.bias", np.nan, (0, 0)),
            ("fusion.round1.attn_audio", np.nan, (1, 2)),
        ],
    )
    def test_non_finite_params_entry_is_io_error(self, tmp_path, capsys, name, value, position):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        main(["train", "--config", str(config)])
        snapshot = load_params(out / "params.bin")
        snapshot[name][position] = value
        save_params(out / "params.bin", snapshot)
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"params.bin: non-finite {name!r} entry [{position[0]}, {position[1]}] (byte offset " in err

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_is_io_error(self, tmp_path, capsys, value):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        path = out / "dataset" / "clip0002_visual.avfs"
        matrix = read_avfs(path)
        matrix[3, 40] = value
        write_avfs(path, matrix)
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        offset = 16 + 4 * (3 * 96 + 40)  # the header, then rows of 96 float32 frames
        assert err == f"i/o error: {path}: non-finite feature entry [3, 40] (byte offset {offset})\n"

    def test_features_without_rows_are_io_error(self, tmp_path, capsys):
        config, out = write_experiment(tmp_path)
        main(["gen", "--config", str(config)])
        for path in (out / "dataset").glob("*_audio.avfs"):
            write_avfs(path, np.zeros((0, 96)))
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        first = out / "dataset" / "clip0000_audio.avfs"
        assert err == f"i/o error: {first}: no feature rows (byte offset 12)\n"

    @pytest.mark.parametrize(
        "training, key",
        [
            ({"mode": "JCA", "depth": 2}, "depth"),
            ({"temperature": 0}, "temperature"),
            ({"tcn_levels": 0}, "tcn_levels"),
            ({"tcn_kernel": 1}, "tcn_kernel"),
            ({"head_hidden": [0]}, "head_hidden"),
            ({"dropout": 1.0}, "dropout"),
            ({"dropout": -0.5}, "dropout"),
            ({"depth": 1.5}, "depth"),
            ({"tcn_levels": 2, "window_len": 4, "window_stride": 4}, "tcn_levels"),
        ],
    )
    def test_bad_model_setting_fails_at_gen(self, tmp_path, capsys, training, key):
        # model settings are checked when the config is parsed, before any
        # data is written
        config, out = write_experiment(tmp_path, training=training)
        assert main(["gen", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("configuration error: ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, argv, message",
        [
            ({"generator": {"seed": -1}}, [], "seed must be in [0, inf), got -1"),
            ({}, ["--seed", "-1"], "--seed must be >= 0, got -1"),
        ],
        ids=["generator-seed", "seed-flag"],
    )
    def test_negative_seed_is_config_error(self, tmp_path, capsys, overrides, argv, message):
        config, out = write_experiment(tmp_path, **overrides)
        assert main(["gen", "--config", str(config), *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("configuration error: ") and err.endswith(f"{message}\n")
        assert not out.exists()

    def test_window_one_frame_past_tcn_shift_trains(self, tmp_path):
        # kernel 3 at two levels shifts the last level by 4 frames
        training = {"tcn_levels": 2, "window_len": 5, "window_stride": 5, "max_epochs": 1}
        config, out = write_experiment(tmp_path, generator={"frames": 20}, training=training)
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        assert (out / "params.bin").exists()

    @pytest.mark.parametrize(
        "blob, detail",
        [
            (b'{"out_dir": "r\xff"}', "not UTF-8 text (byte offset 14)"),
            (b'{"training": {"seed": ' + b"9" * 5000 + b"}}", "more than 4300 digits"),
            (b"[" * 100000, "nest too deeply"),
        ],
        ids=["non-utf8", "long-integer", "deep-nesting"],
    )
    def test_unreadable_config_is_one_line_naming_file(self, tmp_path, capsys, blob, detail):
        path = tmp_path / "bad.json"
        path.write_bytes(blob)
        assert main(["gen", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"configuration error: {path}: ") and detail in err

    def test_bad_thread_count(self, tmp_path, capsys):
        config, _ = write_experiment(tmp_path)
        assert main(["gen", "--config", str(config), "--threads", "0"]) == 2


class TestReportRow:
    def test_csv_row_shape(self):
        row = cli._report_row(TrainConfig(mode="RJCA", depth=3, temperature=0.1), 0.5, fold=2)
        assert row == ["2", "RJCA", "3", "0.1", repr(0.5), ""]
        # eval's row has no fold; only the trained channel has a score
        row = cli._report_row(TrainConfig(target="arousal"), -0.25)
        assert row == ["", "RJCA", "1", "0.1", "", repr(-0.25)]

    def test_csv_serialization_header(self, tmp_path):
        cli._write_csv(tmp_path / "report.csv", cli.REPORT_HEADER, [])
        assert (tmp_path / "report.csv").read_bytes() == b"fold,mode,M,T,ccc_v,ccc_a\r\n"


class TestParamsFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        snapshot = {
            "fusion.round1.corr_audio": rng.standard_normal((3, 6)),
            "head.layer1.weight": rng.standard_normal((4, 6)),
        }
        path = tmp_path / "p.bin"
        save_params(path, snapshot)
        loaded = load_params(path)
        assert set(loaded) == set(snapshot)
        for name in snapshot:
            assert np.array_equal(loaded[name], snapshot[name])

    def test_deterministic_bytes(self, tmp_path):
        snapshot = {"b": np.ones((2, 2)), "a": np.zeros((1, 3))}
        save_params(tmp_path / "1.bin", snapshot)
        save_params(tmp_path / "2.bin", snapshot)
        assert (tmp_path / "1.bin").read_bytes() == (tmp_path / "2.bin").read_bytes()

    def test_trailing_bytes_rejected(self, tmp_path):
        save_params(tmp_path / "p.bin", {"a": np.zeros((1, 1))})
        blob = (tmp_path / "p.bin").read_bytes() + b"x"
        (tmp_path / "p.bin").write_bytes(blob)
        with pytest.raises(Exception, match="trailing"):
            load_params(tmp_path / "p.bin")


PARAM_SNAPSHOTS = st.dictionaries(
    st.text(max_size=6),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda shape: st.lists(st.floats(), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
            lambda values: np.array(values, dtype=np.float64).reshape(shape)
        )
    ),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@example(snapshot={"fusion.gate_audio": np.array([[0.5, np.nan]])}, at=0, drop=0, junk=b"")
@example(snapshot={"head.layer1.weight": np.array([[np.inf], [0.5]])}, at=0, drop=0, junk=b"")
@given(
    snapshot=PARAM_SNAPSHOTS,
    at=st.integers(0, 120),
    drop=st.one_of(st.integers(0, 8), st.just(10**6)),
    junk=st.binary(max_size=8),
)
def test_any_params_bytes_load_or_are_format_error(tmp_path_factory, snapshot, at, drop, junk):
    # a written file with some bytes replaced, inserted or cut off
    path = tmp_path_factory.getbasetemp() / "any.bin"
    save_params(path, snapshot)
    blob = path.read_bytes()
    path.write_bytes(blob[:at] + junk + blob[at + drop :])
    try:
        loaded = load_params(path)
    except FormatError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert all(m.ndim == 2 and np.isfinite(m).all() for m in loaded.values())


# the first byte of the manifest's first clip row
MANIFEST_ROW = len(",".join(cli.MANIFEST_HEADER) + "\r\n")
MANIFEST_JUNK = st.one_of(
    st.binary(max_size=8),
    st.text(alphabet="clip0123456789,./\\\r\n\"", max_size=8).map(str.encode),
)


@pytest.fixture(scope="module")
def manifest_dataset(tmp_path_factory):
    """A generated dataset of three 4-frame clips with corrupt frames, and
    the bytes of its manifest."""
    config, out = write_experiment(
        tmp_path_factory.mktemp("manifest"), generator={"num_videos": 3, "frames": 4, "corruption_prob": 0.5}
    )
    assert main(["gen", "--config", str(config)]) == 0
    return out, (out / "dataset" / "manifest.csv").read_bytes()


def reference_manifest(path):
    """The manifest's columns as the csv module and one rule per cell read
    them: the reader may accept less than this reference, never other
    values."""
    rows = list(csv.reader(io.StringIO(path.read_bytes().decode("utf-8"), newline="")))
    assert rows[0] == cli.MANIFEST_HEADER and all(len(row) == len(rows[0]) for row in rows[1:])
    ids, *counts = (list(column) for column in zip(*rows[1:]))
    assert all(cell not in ("", ".", "..") and not any(c in cell for c in "/\\\0") for cell in ids)
    assert all(re.fullmatch(r"[0-9]+", cell) for column in counts for cell in column)
    return [ids, *([int(cell) for cell in column] for column in counts)]


@settings(max_examples=300, deadline=None)
@example(at=MANIFEST_ROW + 7, drop=1, junk=b"1")  # clip0000's row renamed to clip0001
@example(at=MANIFEST_ROW, drop=8, junk=b"../x/y")
@example(at=MANIFEST_ROW + 4, drop=0, junk=b",")  # clip,0000: one cell too many
@example(at=MANIFEST_ROW, drop=8, junk=b'"clip0000"')  # a quoted id
@example(at=MANIFEST_ROW - 2, drop=1, junk=b"")  # the header ends in LF
@given(
    at=st.integers(0, 160),
    drop=st.one_of(st.integers(0, 8), st.just(10**6)),
    junk=MANIFEST_JUNK,
)
def test_any_manifest_bytes_load_or_are_format_or_config_error(manifest_dataset, at, drop, junk):
    # a written manifest with some bytes replaced, inserted or cut off
    out, blob = manifest_dataset
    (out / "dataset" / "manifest.csv").write_bytes(blob[:at] + junk + blob[at + drop :])
    try:
        clips = cli._load_dataset(out)
    except (FormatError, ConfigError):
        return
    manifest = out / "dataset" / "manifest.csv"
    ids, seeds, *counts = cli._read_csv(manifest, cli.MANIFEST_HEADER, cli.MANIFEST_KINDS)
    assert [ids, [int(seed) for seed in seeds], *(c.tolist() for c in counts)] == reference_manifest(manifest)
    assert ids == [clip.clip_id for clip in clips]
    assert len(set(ids)) == len(ids)
    assert set(ids) <= {"clip0000", "clip0001", "clip0002"}


class TestAblate:
    def test_table_shape_and_flag(self, tmp_path):
        config, out = write_experiment(
            tmp_path,
            generator={"num_videos": 4, "frames": 48, "dim_audio": 4, "dim_visual": 4, "latent_dim": 3},
            training={"max_epochs": 2, "window_len": 24, "window_stride": 24, "folds": 2, "head_hidden": [6]},
        )
        assert main(["ablate", "--config", str(config)]) == 0
        with open(out / "ablation.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "recursion_depth",
            "rjca_valence",
            "grjca_valence",
            "hgrjca_valence",
            "rjca_arousal",
            "grjca_arousal",
            "hgrjca_arousal",
            "best",
        ]
        assert [row[0] for row in rows[1:]] == ["1", "2", "3", "4"]
        flags = [row[7] for row in rows[1:]]
        assert flags.count("yes") == 1
        for row in rows[1:]:
            for cell in row[1:7]:
                value = float(cell)
                assert np.isfinite(value) and -1.0 <= value <= 1.0

    def test_rjca_depth_one_matches_direct_jca_run(self, tmp_path):
        config, out = write_experiment(
            tmp_path,
            generator={"num_videos": 4, "frames": 48, "dim_audio": 4, "dim_visual": 4, "latent_dim": 3},
            training={"max_epochs": 2, "window_len": 24, "window_stride": 24, "folds": 2, "head_hidden": [6]},
        )
        assert main(["ablate", "--config", str(config)]) == 0
        with open(out / "ablation.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        cell = float(rows[1][1])  # depth 1, rjca_valence
        experiment = parse_config(config.read_text())
        clips = generate(experiment.generator)
        val_idx = set(fold_assignments(len(clips), experiment.training)[0])
        train_clips = [c for i, c in enumerate(clips) if i not in val_idx]
        val_clips = [c for i, c in enumerate(clips) if i in val_idx]
        jca = dataclasses.replace(experiment.training, mode="JCA", depth=1, target="valence")
        direct = train(train_clips, val_clips, jca).best_val_ccc
        assert abs(direct - cell) < 1e-9


class TestGradcheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        # every mode/depth case reports at least one parameter line
        for tag in ("JCA/M1", "RJCA/M3", "GRJCA/M2", "HGRJCA/M3"):
            assert tag in out

    def test_corrupted_backward_fails_naming_parameter(self, capsys, monkeypatch):
        # sabotage the hyperbolic-tangent backward rule by 1 percent; the
        # suite must go red and name affected parameters
        original = ad.tanh

        def crooked_tanh(x):
            out = original(x)
            inner = out._backward

            def corrupted():
                inner()
                x.grad *= 1.01

            out._backward = corrupted
            return out

        monkeypatch.setattr(ad, "tanh", crooked_tanh)
        assert main(["gradcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        failing = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert failing and any("fusion." in line for line in failing)


class TestPackaging:
    def test_module_entry_without_command_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "avfusion"], capture_output=True, text=True
        )
        assert proc.returncode == 2

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--help"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        for name in ("gen", "train", "eval", "ablate", "gradcheck"):
            assert name in out
