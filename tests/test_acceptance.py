"""Release acceptance criteria.

Each test emits exactly one ``criterion N [PASS|FAIL]`` line with the
measured numbers before asserting; conftest echoes the lines in the
terminal summary, so any pytest run doubles as the acceptance report.
Criterion 5 trains thirty-five small models and dominates the runtime
(a few minutes; its budget is fifteen); it and criterion 1 spread their
independent runs over every usable CPU.
"""

import csv
import dataclasses
import json
import os
import shutil
import time

import numpy as np
import pytest

from avfusion.autodiff import Tensor
from avfusion.cli import main
from avfusion.fusion import FusionParams, rjca_forward
from avfusion.metrics import ccc
from avfusion.model import ModelConfig
from avfusion.synthdata import GenConfig, generate
from avfusion.training import (
    SchedulerState,
    TrainConfig,
    lr_for_epoch,
    map_in_order,
    scheduler_step,
    train,
)
from avfusion.verify import TOLERANCE, run_gradcheck_suite

from test_fusion import oracle_fusion, random_case, randomize, run_modular, weight_values


CRITERION_LINES = []

# criteria 1 and 5 spread their independent runs over every usable CPU
CPUS = len(os.sched_getaffinity(0))


def report(number, ok, detail):
    line = f"criterion {number} [{'PASS' if ok else 'FAIL'}]: {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, f"criterion {number}: {detail}"


class TestCriterion1Gradients:
    def test_gradient_suite(self):
        start = time.monotonic()
        result = run_gradcheck_suite(workers=CPUS)
        elapsed = time.monotonic() - start
        name, worst = result.worst_entry()
        ok = result.passed and elapsed < 120.0
        report(
            1,
            ok,
            f"gradient suite worst relative error {worst:.3e} at {name} "
            f"(tolerance {TOLERANCE:.0e}), {result.checked} coordinates, "
            f"{elapsed:.1f}s (budget 120s)",
        )


class TestCriterion2Oracle:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(20250824)
        start = time.monotonic()
        worst = 0.0
        configs = 120
        for i in range(configs):
            mode = ("JCA", "RJCA", "GRJCA", "HGRJCA")[i % 4]
            audio, visual, params = random_case(rng, mode)
            state = run_modular(audio, visual, params)
            expected = oracle_fusion(
                audio,
                visual,
                weight_values(params),
                mode,
                params.config.depth,
                params.config.temperature,
                params.config.joint_projection,
            )
            worst = max(worst, float(np.max(np.abs(state.fused.value - expected))))
        elapsed = time.monotonic() - start
        ok = worst < 1e-12 and elapsed < 30.0
        report(
            2,
            ok,
            f"modular fusion vs straight-line oracle: max abs diff {worst:.3e} "
            f"over {configs} random configs (tolerance 1e-12), {elapsed:.1f}s (budget 30s)",
        )


class TestCriterion3Identities:
    def test_equation_identities(self):
        failures = []

        # recursion depth 1 must reduce to the non-recursive mechanism bit-exact
        kwargs = dict(dim_audio=4, dim_visual=5, seq_len=6, depth=1)
        p_jca = FusionParams(ModelConfig("JCA", **kwargs), rng=np.random.default_rng(1))
        p_rjca = FusionParams(ModelConfig("RJCA", **kwargs), rng=np.random.default_rng(1))
        randomize(p_jca, np.random.default_rng(2))
        randomize(p_rjca, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        audio, visual = rng.standard_normal((4, 6)), rng.standard_normal((5, 6))
        if not np.array_equal(
            run_modular(audio, visual, p_jca).fused.value,
            run_modular(audio, visual, p_rjca).fused.value,
        ):
            failures.append("single-recursion equivalence")

        # zero weights: the residual path must pass inputs through exactly
        p_zero = FusionParams(
            ModelConfig("RJCA", dim_audio=3, dim_visual=4, seq_len=5, depth=3),
            rng=np.random.default_rng(4),
        )
        for p in p_zero.weights.values():
            p.value[...] = 0.0
        audio, visual = rng.standard_normal((3, 5)), rng.standard_normal((4, 5))
        state = run_modular(audio, visual, p_zero)
        if not (
            np.array_equal(state.attended["audio"][-1].value, audio)
            and np.array_equal(state.attended["visual"][-1].value, visual)
        ):
            failures.append("zero-weight residual identity")

        # gate rows are convex weights
        config = ModelConfig("GRJCA", dim_audio=6, dim_visual=6, seq_len=4, depth=3)
        params = FusionParams(config, rng=np.random.default_rng(5))
        randomize(params, np.random.default_rng(6))
        audio, visual = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
        state = run_modular(audio, visual, params)
        gate_err = max(
            float(np.max(np.abs(state.gates["audio"].value.sum(axis=1) - 1.0))),
            float(np.max(np.abs(state.gates["visual"].value.sum(axis=1) - 1.0))),
        )
        if gate_err >= 1e-12:
            failures.append(f"gate normalization ({gate_err:.2e})")

        # near-zero temperature approaches hard argmax selection
        config = ModelConfig(
            "GRJCA", dim_audio=6, dim_visual=6, seq_len=4, depth=2, temperature=1e-3
        )
        params = FusionParams(config, rng=np.random.default_rng(7))
        randomize(params, np.random.default_rng(8), include_gates=False)
        audio, visual = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
        probe = rjca_forward(Tensor(audio), Tensor(visual), params)
        target = np.array([[0.9, 0.1, 0.3], [0.0, 0.8, 0.2], [0.1, 0.4, 1.0], [0.7, 0.2, 0.0]])
        for m in ("audio", "visual"):
            attended, gate = probe.attended[m], params.weights[f"gate_{m}"]
            basis = attended[2].value.T
            gate.value[...] = np.linalg.pinv(basis) @ target
            realized = basis @ gate.value
            gaps = np.sort(realized, axis=1)
            assert np.min(gaps[:, -1] - gaps[:, -2]) >= 0.1 - 1e-9
        state = run_modular(audio, visual, params)
        winners = np.argmax(target, axis=1)
        argmax_err = 0.0
        for final, attended in (
            (state.final["audio"], state.attended["audio"]),
            (state.final["visual"], state.attended["visual"]),
        ):
            hard = np.stack([attended[winners[j]].value[:, j] for j in range(4)], axis=1)
            argmax_err = max(argmax_err, float(np.max(np.abs(final.value - np.maximum(hard, 0.0)))))
        if argmax_err >= 1e-4:
            failures.append(f"hard-selection limit ({argmax_err:.2e})")

        report(
            3,
            not failures,
            "equation identities (single-recursion equivalence, residual pass-through, "
            f"gate normalization, hard-selection limit): {'; '.join(failures) or 'all exact'}",
        )


class TestCriterion4CccAlgebra:
    def test_ccc_closed_forms(self):
        rng = np.random.default_rng(99)
        y = rng.standard_normal(512)
        failures = []
        if abs(ccc(y, y) - 1.0) > 1e-12:
            failures.append("self-agreement")
        z = y - y.mean()
        if abs(ccc(z, -z) + 1.0) > 1e-12:
            failures.append("anti-agreement")
        worst = 0.0
        for c in (0.1, 0.5, 1.0):
            var = z.var()
            expected = 2.0 * var / (2.0 * var + c * c)
            worst = max(worst, abs(ccc(z + c, z) - expected))
        if worst > 1e-10:
            failures.append(f"mean-shift closed form ({worst:.2e})")
        report(
            4,
            not failures,
            f"concordance algebra: worst mean-shift deviation {worst:.3e} "
            f"(tolerance 1e-10); {'; '.join(failures) or 'all identities hold'}",
        )


class TestCriterion5WeakComplementarity:
    SEEDS = (0, 1, 2, 3, 4)

    @staticmethod
    def benchmark_config(mode, seed):
        return TrainConfig(
            mode=mode,
            depth=3,
            temperature=0.1,
            batch_size=12,
            init_lr=1e-3,
            warmup_epochs=2,
            max_epochs=15,
            early_stop_patience=15,
            plateau_patience=6,
            dropout=0.0,
            weight_decay=0.0,
            window_len=64,
            window_stride=64,
            seed=seed,
            target="valence",
        )

    @classmethod
    def dataset(cls, corruption_prob):
        gen = GenConfig(
            num_videos=240,
            frames=64,
            dim_audio=16,
            dim_visual=16,
            latent_dim=8,
            smoothness=8.0,
            noise_std=0.05,
            complementarity=0.5,
            corruption_prob=corruption_prob,
            corruption_mean_len=8.0,
            corruption_target="audio",
            seed=5,
        )
        clips = generate(gen)
        return clips[:200], clips[200:]

    def test_gating_helps_under_corruption(self):
        start = time.monotonic()
        splits = {
            "corrupt": self.dataset(corruption_prob=0.5),
            "clean": self.dataset(corruption_prob=0.0),
        }
        runs = [("corrupt", m, s) for m in ("RJCA", "GRJCA", "HGRJCA") for s in self.SEEDS]
        runs += [("clean", m, s) for m in ("RJCA", "GRJCA") for s in self.SEEDS]

        def run(index):
            data, mode, seed = runs[index]
            return train(*splits[data], self.benchmark_config(mode, seed)).best_val_ccc

        scores = dict(zip(runs, map_in_order(run, len(runs), CPUS)))
        grjca_wins = sum(
            scores[("corrupt", "GRJCA", s)] >= scores[("corrupt", "RJCA", s)] for s in self.SEEDS
        )
        hgrjca_wins = sum(
            scores[("corrupt", "HGRJCA", s)] >= scores[("corrupt", "RJCA", s)] for s in self.SEEDS
        )
        clean = {
            mode: float(np.mean([scores[("clean", mode, s)] for s in self.SEEDS]))
            for mode in ("RJCA", "GRJCA")
        }
        clean_gap = clean["GRJCA"] - clean["RJCA"]
        elapsed = time.monotonic() - start

        ok = grjca_wins >= 4 and hgrjca_wins >= 3 and clean_gap >= -0.05 and elapsed < 900.0
        means = {
            mode: float(np.mean([scores[("corrupt", mode, s)] for s in self.SEEDS]))
            for mode in ("RJCA", "GRJCA", "HGRJCA")
        }
        report(
            5,
            ok,
            "corrupted-audio benchmark: gated recursion beats plain recursion on "
            f"{grjca_wins}/5 seeds (need 4), hierarchical on {hgrjca_wins}/5 (need 3); "
            f"mean val ccc RJCA {means['RJCA']:.4f} / GRJCA {means['GRJCA']:.4f} / "
            f"HGRJCA {means['HGRJCA']:.4f}; clean-data gap {clean_gap:+.4f} (floor -0.05); "
            f"{elapsed:.0f}s (budget 900s)",
        )


class TestCriterion6Ablation:
    def test_ablation_table(self, tmp_path):
        out = tmp_path / "run"
        config = {
            "out_dir": str(out),
            "generator": {
                "num_videos": 6,
                "frames": 64,
                "dim_audio": 5,
                "dim_visual": 5,
                "latent_dim": 3,
                "seed": 11,
            },
            "training": {
                "init_lr": 0.003,
                "warmup_epochs": 1,
                "max_epochs": 2,
                "early_stop_patience": 5,
                "dropout": 0.0,
                "weight_decay": 0.0,
                "window_len": 32,
                "window_stride": 32,
                "folds": 3,
                "tcn_levels": 1,
                "head_hidden": [6],
            },
        }
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["ablate", "--config", str(config_path)]) == 0
        with open(out / "ablation.csv", newline="") as fh:
            rows = list(csv.reader(fh))

        failures = []
        if len(rows) != 5 or [r[0] for r in rows[1:]] != ["1", "2", "3", "4"]:
            failures.append("row structure")
        if len(rows[0]) != 8 or rows[0][7] != "best":
            failures.append("column structure")
        flags = [r[7] for r in rows[1:]]
        if flags.count("yes") != 1:
            failures.append("best-row flag")
        cells = [float(cell) for row in rows[1:] for cell in row[1:7]]
        if not all(np.isfinite(v) and -1.0 <= v <= 1.0 for v in cells):
            failures.append("cell range")

        from avfusion.config import parse_config
        from avfusion.training import fold_assignments

        experiment = parse_config(config_path.read_text())
        clips = generate(experiment.generator)
        val_idx = set(fold_assignments(len(clips), experiment.training)[0])
        jca = dataclasses.replace(experiment.training, mode="JCA", depth=1, target="valence")
        direct = train(
            [c for i, c in enumerate(clips) if i not in val_idx],
            [c for i, c in enumerate(clips) if i in val_idx],
            jca,
        ).best_val_ccc
        gap = abs(direct - float(rows[1][1]))
        if gap >= 1e-9:
            failures.append(f"single-recursion cell vs direct run ({gap:.2e})")

        report(
            6,
            not failures,
            "ablation table: 4 depth rows x 6 metric columns, one flagged best row, "
            f"cells in [-1, 1]; depth-1 recursion cell matches a direct non-recursive "
            f"run within {gap:.1e} (tolerance 1e-9); {'; '.join(failures) or 'structure verified'}",
        )


class TestCriterion7Determinism:
    def test_pipeline_reruns_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        config = {
            "out_dir": str(out),
            "generator": {
                "num_videos": 6,
                "frames": 96,
                "dim_audio": 6,
                "dim_visual": 6,
                "latent_dim": 4,
                "seed": 7,
                "corruption_prob": 0.3,
            },
            "training": {
                "init_lr": 0.003,
                "warmup_epochs": 1,
                "max_epochs": 3,
                "early_stop_patience": 5,
                "window_len": 48,
                "window_stride": 48,
                "folds": 3,
                "tcn_levels": 1,
                "head_hidden": [8],
            },
        }
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")

        def run_all():
            for command in ("gen", "train", "eval"):
                assert main([command, "--config", str(config_path)]) == 0
            return {
                name: (out / name).read_bytes()
                for name in (
                    "dataset/manifest.csv",
                    "history.csv",
                    "predictions.csv",
                    "eval/predictions.csv",
                )
            }

        first = run_all()
        shutil.rmtree(out)
        second = run_all()
        same = {name: first[name] == second[name] for name in first}
        report(
            7,
            all(same.values()),
            "two full generate+train+evaluate runs: manifest, history, and prediction "
            f"files byte-identical = {same}",
        )


class TestCriterion8Scheduler:
    def test_two_drops_on_flat_sequence(self):
        config = TrainConfig(
            init_lr=1e-4,
            min_lr=1e-8,
            warmup_epochs=5,
            plateau_patience=5,
            plateau_factor=0.1,
        )
        state = SchedulerState(lr=config.init_lr)
        improving = [0.1, 0.2, 0.3, 0.4, 0.5]
        flat = [0.5] * 12
        lrs = []
        for score in improving + flat:
            lrs.append(lr_for_epoch(state, config))
            scheduler_step(state, score, config)
        ok = (
            state.drops == 2
            and lrs[5] == pytest.approx(1e-4)
            and lrs[10] == pytest.approx(1e-5)
            and lrs[15] == pytest.approx(1e-6)
            and all(lr >= config.min_lr for lr in lrs)
        )
        report(
            8,
            ok,
            f"scheduler on 12 flat validation epochs after warmup: {state.drops} rate drops "
            f"(need exactly 2), trajectory 1e-4 -> 1e-5 -> 1e-6, floor {config.min_lr:.0e} respected",
        )
