"""The benchmark's workloads.

Each workload writes its experiment config from the workload seed (the
program sees only that config and the dataset it generates), sets up its
working directory, and then runs one closed-loop iteration at a time
through ``avfusion.cli.main``.  Every output an iteration produces is
checked; a non-zero exit or a failed check fails the iteration.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from avfusion import cli

# criterion-5 hyper-parameters (tests/test_acceptance.py), minus the
# epoch count, which each workload fixes
CRITERION5 = {
    "depth": 3,
    "temperature": 0.1,
    "batch_size": 12,
    "init_lr": 1e-3,
    "warmup_epochs": 2,
    "early_stop_patience": 15,
    "plateau_patience": 6,
    "dropout": 0.0,
    "weight_decay": 0.0,
    "target": "valence",
}

# the full gradcheck suite at the commit that added this benchmark
GRADCHECK_COORDS = 2092
GRADCHECK_KINK_SKIPS = 0
GRADCHECK_TOLERANCE = 1e-5

_SUITE_LINE = re.compile(
    r"^(PASS|FAIL): worst relative error (\S+) \((.*)\) over (\d+) coordinates, (\d+) kink skips$"
)


@dataclass
class Iteration:
    """One closed-loop operation: the calls it made and the units of work
    they completed."""

    calls: list
    work: float
    failures: list = field(default_factory=list)
    scores: dict = field(default_factory=dict)  # quality read from the outputs

    @property
    def seconds(self) -> float:
        """Wall time of the operation's commands."""
        return sum(c.seconds for c in self.calls)

    @property
    def commands(self) -> dict:
        """Command name -> its wall seconds."""
        return {c.command: c.seconds for c in self.calls}


@dataclass
class Call:
    command: str
    code: int
    seconds: float
    stdout: str
    stderr: str


class SetupError(RuntimeError):
    """A set-up command failed, so the workload cannot be measured."""


class Client:
    """The closed-loop client: a workload's working directory and the CLI
    commands it issues there, one at a time.

    ``recorder``, when set, opens one root span per command, and each
    command gets its own run id.
    """

    def __init__(self, directory: Path, threads: int):
        self.directory = directory
        self.out = directory / "out"
        self.threads = threads
        self.recorder = None
        self.reference = {}

    def write_configs(self, configs: dict):
        self.directory.mkdir(parents=True, exist_ok=True)
        for name, data in configs.items():
            (self.directory / name).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    def call(self, command: str, config: str, threads: int | None = None) -> Call:
        argv = [
            command,
            "--config", str(self.directory / config),
            "--out", str(self.out),
            "--threads", str(threads or self.threads),
        ]  # fmt: skip
        out, err = io.StringIO(), io.StringIO()
        rec = self.recorder
        root = None
        if rec is not None:
            rec.run += 1
            root = rec.begin(f"cli.{command}")
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except Exception:
            # a command line run would die with this traceback: a failed operation
            code = 1
            err.write(traceback.format_exc())
        finally:
            seconds = time.perf_counter() - start
            if root is not None:
                rec.end(root)
        return Call(command, code, seconds, out.getvalue(), err.getvalue())

    def setup_call(self, command: str, config: str) -> Call:
        # Set-up keeps the CLI's default of one thread.  setup_s is bounded
        # to catch work moved out of the timed commands, and the thread
        # fan-out in gen and eval makes their time swing up to threefold
        # with how busy the host keeps the second CPU.
        result = self.call(command, config, threads=1)
        if result.code != 0:
            raise SetupError(f"set-up {command} exited {result.code}: {result.stderr.strip()}")
        return result


def cold_start(src: Path, directory: Path):
    """Import the CLI in a fresh interpreter, as every command line run does."""
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); import avfusion.cli"],
        cwd=directory,
        check=True,
        timeout=120,
    )


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_code(call: Call, failures: list):
    if call.code != 0:
        failures.append(f"{call.command} exited {call.code}: {call.stderr.strip()[:200]}")


def _check_outputs(check, client: Client, failures: list, scores: dict):
    """Run an output check; an output it cannot read fails the iteration."""
    try:
        check(client, failures, scores)
    except (OSError, ValueError, KeyError, IndexError, TypeError, csv.Error) as exc:
        failures.append(f"unreadable output: {exc!r}")


def _check_ccc(label: str, value, failures: list):
    if not (isinstance(value, float) and math.isfinite(value) and -1.0 <= value <= 1.0):
        failures.append(f"{label} {value!r} is not a finite value in [-1, 1]")


class TrainGradcheck:
    """The autodiff core's two users, one after the other: a 6-fold HGRJCA
    ``train`` (large graphs, backward, gates, Adam) and the full
    ``gradcheck`` suite (thousands of tiny graphs, one backward per case).
    One operation is one ``train`` plus one ``gradcheck``."""

    name = "train-cv-hgrjca-gradcheck"
    epochs = 1
    clips = 240
    frames = 64
    folds = 6

    def configs(self, seed: int) -> dict:
        return {
            "config.json": {
                "out_dir": "out",
                "generator": {
                    "num_videos": self.clips,
                    "frames": self.frames,
                    "dim_audio": 16,
                    "dim_visual": 16,
                    "corruption_prob": 0.5,
                    "seed": seed,
                },
                "training": {
                    **CRITERION5,
                    "mode": "HGRJCA",
                    "max_epochs": self.epochs,
                    "folds": self.folds,
                    "window_len": self.frames,
                    "window_stride": self.frames,
                    "seed": seed,
                },
            }
        }

    def _outputs(self, client: Client) -> dict:
        return {
            "params.bin": client.out / "params.bin",
            "predictions.csv": client.out / "predictions.csv",
        }

    def setup(self, client: Client):
        client.setup_call("gen", "config.json")

    def iterate(self, client: Client) -> Iteration:
        failures = []
        scores = {}
        train = client.call("train", "config.json")
        _check_code(train, failures)
        if not failures:
            _check_outputs(self._check_train, client, failures, scores)
        # the suite's probe points are fixed by the program, not the seed
        grad = client.call("gradcheck", "config.json")
        _check_code(grad, failures)
        _check_gradcheck(grad, failures, scores)
        return Iteration([train, grad], 1, failures, scores)

    def _check_train(self, client: Client, failures: list, scores: dict):
        summary = json.loads((client.out / "train_summary.json").read_text())
        scores["val_ccc"] = summary["best_val_ccc"]
        if summary["folds"] != self.folds:
            failures.append(f"train ran {summary['folds']} folds, expected {self.folds}")
        _check_ccc("best val ccc", summary["best_val_ccc"], failures)
        for fold, value in enumerate(summary["per_fold_val_ccc"]):
            _check_ccc(f"fold {fold} val ccc", value, failures)
        with open(client.out / "history.csv", newline="") as fh:
            epochs = len(list(csv.reader(fh))) - 1
        if epochs != self.epochs:
            failures.append(f"best fold ran {epochs} epochs, expected {self.epochs}")
        # training is deterministic: every train in one benchmark run saves the same bytes
        digests = {name: _digest(path) for name, path in self._outputs(client).items()}
        if not client.reference:
            client.reference = digests
        for name, digest in digests.items():
            if digest != client.reference[name]:
                failures.append(f"{name} differs from the one the first train wrote")


def _check_gradcheck(call: Call, failures: list, scores: dict):
    lines = call.stdout.strip().splitlines()
    match = _SUITE_LINE.match(lines[-1]) if lines else None
    if match is None:
        failures.append("gradcheck printed no summary line")
        return
    verdict, worst, _, coords, kinks = match.groups()
    coords, kinks = int(coords), int(kinks)
    scores["worst_rel_error"] = float(worst)
    if verdict != "PASS" or not float(worst) < GRADCHECK_TOLERANCE:
        failures.append(f"gradcheck worst relative error {worst} is not below {GRADCHECK_TOLERANCE}")
    if coords != GRADCHECK_COORDS:
        failures.append(f"gradcheck checked {coords} coordinates, expected {GRADCHECK_COORDS}")
    if kinks != GRADCHECK_KINK_SKIPS:
        failures.append(f"gradcheck skipped {kinks} kinks, expected {GRADCHECK_KINK_SKIPS}")


class EvalLongRjca:
    name = "eval-long-rjca"
    frames = 192
    train_clips = 24
    eval_clips = 60

    def configs(self, seed: int) -> dict:
        generator = {
            "frames": self.frames,
            "dim_audio": 16,
            "dim_visual": 16,
            "corruption_prob": 0.5,
            "seed": seed,
        }
        training = {
            **CRITERION5,
            "mode": "RJCA",
            "max_epochs": 1,
            "folds": 2,
            "window_len": self.frames,
            "window_stride": self.frames,
            "seed": seed,
        }
        return {
            "train.json": {
                "out_dir": "out",
                "generator": {**generator, "num_videos": self.train_clips},
                "training": training,
            },
            "eval.json": {
                "out_dir": "out",
                "generator": {**generator, "num_videos": self.eval_clips},
                "training": training,
            },
        }

    def _outputs(self, client: Client) -> dict:
        return {
            "manifest.csv": client.out / "dataset" / "manifest.csv",
            "predictions.csv": client.out / "eval" / "predictions.csv",
        }

    def setup(self, client: Client):
        client.setup_call("gen", "train.json")
        client.setup_call("train", "train.json")
        client.setup_call("gen", "eval.json")
        # the reference outputs; every operation must reproduce them, also
        # with the operations' thread count
        client.setup_call("eval", "eval.json")
        client.reference = {name: _digest(p) for name, p in self._outputs(client).items()}

    def iterate(self, client: Client) -> Iteration:
        failures = []
        scores = {}
        gen = client.call("gen", "eval.json")
        _check_code(gen, failures)
        ev = client.call("eval", "eval.json")
        _check_code(ev, failures)
        if not failures:
            _check_outputs(self._check_outputs, client, failures, scores)
        return Iteration([gen, ev], self.eval_clips * self.frames, failures, scores)

    def _check_outputs(self, client: Client, failures: list, scores: dict):
        for name, path in self._outputs(client).items():
            if _digest(path) != client.reference[name]:
                failures.append(f"{name} differs from the one set-up wrote")
        with open(client.out / "eval" / "eval_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        scores["eval_ccc"] = float(rows[0]["ccc_v"])
        _check_ccc("pooled eval ccc", scores["eval_ccc"], failures)
        with open(client.out / "eval" / "predictions.csv", newline="") as fh:
            count = len(list(csv.reader(fh))) - 1
        if count != self.eval_clips * self.frames:
            failures.append(f"eval wrote {count} prediction rows, expected {self.eval_clips * self.frames}")


WORKLOADS = {w.name: w for w in (TrainGradcheck(), EvalLongRjca())}
