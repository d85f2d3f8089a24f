"""Command-line interface tests.

All pipeline tests run tiny configurations (a few short clips, one or two
epochs) so the whole file stays fast; the CLI is exercised in-process via
``main(argv)`` except for one packaging smoke test.
"""

import csv
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from avfusion import autodiff as ad
from avfusion import cli
from avfusion.cli import load_params, main, save_params
from avfusion.config import parse_config
from avfusion.synthdata import generate
from avfusion.training import fold_assignments, train


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
        config, out = self.run_pipeline(tmp_path)
        summary = json.loads((out / "train_summary.json").read_text())
        # rebuild a dataset directory holding only the winning fold's
        # validation clips; evaluating the saved model there must
        # reproduce the reported best validation concordance
        fold_out = tmp_path / "foldcheck"
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

    def test_eval_threads_match_serial(self, tmp_path):
        config, out = self.run_pipeline(tmp_path)
        serial = tree_bytes(out / "eval")
        assert main(["eval", "--config", str(config), "--threads", "3"]) == 0
        assert tree_bytes(out / "eval") == serial


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
    forked processes; every output must match the serial run's bytes."""

    def run(self, capsys, *argv):
        capsys.readouterr()
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

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
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        runs = [
            subprocess.run(
                [sys.executable, "-m", "avfusion", "train", "--config", str(config), "--threads", threads],
                capture_output=True, text=True, env=env,
            )
            for threads in ("1", "2")
        ]
        serial, pooled = [(proc.returncode, proc.stdout, proc.stderr) for proc in runs]
        assert serial == pooled
        code, _, err = serial
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("verification failure: non-finite")

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


class TestExitCodes:
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
        assert main(["eval", "--config", str(wrong)]) == 1
        assert "do not match" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "name, row, text",
        [
            ("clip0000_labels.csv", 2, "0,abc,0.1"),
            ("clip0001_labels.csv", 5, "3,0.25"),
            ("clip0000_labels.csv", 3, "1,nan,0.1"),
            ("clip0001_labels.csv", 4, "2,0.2,-inf"),
            ("clip0000_masks.csv", 4, "2,0,1,yes"),
            ("manifest.csv", 3, ""),
            ("manifest.csv", 2, "clip0000,7,ninety,0,0"),
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

    def test_bad_thread_count(self, tmp_path, capsys):
        config, _ = write_experiment(tmp_path)
        assert main(["gen", "--config", str(config), "--threads", "0"]) == 2


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
