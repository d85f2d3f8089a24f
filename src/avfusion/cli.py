"""Command-line entry point.

Subcommands::

    gen        synthesize a dataset into <out>/dataset
    train      k-fold cross-validation over <out>/dataset, best-fold artifacts
    eval       evaluate saved parameters over <out>/dataset (dataset read-only)
    ablate     recursion-depth x fusion-mode sweep table
    gradcheck  finite-difference verification of every gradient path

Every command is deterministic given config + dataset bytes.  Exit codes:
0 success, 1 verification failure, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import struct
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .exceptions import ConfigError, DimensionError, FormatError, NumericError, ParameterError
from .metrics import EvalReport
from .model import EmotionModel
from .synthdata import _read_csv, _write_csv, clip_seed, generate, read_features, write_features
from .training import (
    best_fold,
    cross_validate,
    evaluate,
    fold_assignments,
    map_in_order,
    retain_freed_heap,
    train,
)
from .verify import run_gradcheck_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3

MANIFEST_HEADER = ["clip", "seed", "frames", "audio_corrupt_frames", "visual_corrupt_frames"]
PREDICTIONS_HEADER = ["clip", "frame", "pred", "truth"]
ABLATION_HEADER = [
    "recursion_depth",
    "rjca_valence",
    "grjca_valence",
    "hgrjca_valence",
    "rjca_arousal",
    "grjca_arousal",
    "hgrjca_arousal",
    "best",
]

# parameter container: magic, version, entry count, then per entry
# (name length u16, utf-8 name, rows u32, cols u32, row-major f64 LE).
# A flat custom format instead of an archive keeps reruns byte-identical.
PARAMS_MAGIC = b"AVFP"
PARAMS_VERSION = 1
_PARAMS_HEAD = struct.Struct("<4sII")
_ENTRY_HEAD = struct.Struct("<H")
_ENTRY_SHAPE = struct.Struct("<II")


def save_params(path, snapshot: dict):
    chunks = [_PARAMS_HEAD.pack(PARAMS_MAGIC, PARAMS_VERSION, len(snapshot))]
    for name in sorted(snapshot):
        encoded = name.encode("utf-8")
        matrix = np.ascontiguousarray(snapshot[name], dtype="<f8")
        chunks.append(_ENTRY_HEAD.pack(len(encoded)))
        chunks.append(encoded)
        chunks.append(_ENTRY_SHAPE.pack(matrix.shape[0], matrix.shape[1]))
        chunks.append(matrix.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_params(path) -> dict:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _PARAMS_HEAD.size:
        raise FormatError(f"{path}: truncated parameter file", offset=len(blob))
    magic, version, count = _PARAMS_HEAD.unpack_from(blob, 0)
    if magic != PARAMS_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}", offset=0)
    if version != PARAMS_VERSION:
        raise FormatError(f"{path}: unsupported version {version}", offset=4)
    pos = _PARAMS_HEAD.size
    out = {}
    for _ in range(count):
        if pos + _ENTRY_HEAD.size > len(blob):
            raise FormatError(f"{path}: truncated entry header", offset=pos)
        (name_len,) = _ENTRY_HEAD.unpack_from(blob, pos)
        pos += _ENTRY_HEAD.size
        try:
            name = blob[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: entry name is not valid UTF-8", offset=pos) from None
        pos += name_len
        if pos + _ENTRY_SHAPE.size > len(blob):
            raise FormatError(f"{path}: truncated shape for {name!r}", offset=pos)
        rows, cols = _ENTRY_SHAPE.unpack_from(blob, pos)
        pos += _ENTRY_SHAPE.size
        nbytes = rows * cols * 8
        if pos + nbytes > len(blob):
            raise FormatError(f"{path}: truncated payload for {name!r}", offset=pos)
        out[name] = np.frombuffer(blob[pos : pos + nbytes], dtype="<f8").reshape(rows, cols).copy()
        pos += nbytes
    if pos != len(blob):
        raise FormatError(f"{path}: trailing bytes", offset=pos)
    return out


def _dataset_dir(out: Path) -> Path:
    return out / "dataset"


def _load_dataset(out: Path):
    """Clips in manifest order; a missing or empty manifest is a config
    problem (run gen first), a missing clip file an I/O one."""
    manifest = _dataset_dir(out) / "manifest.csv"
    if not manifest.exists():
        raise ConfigError(f"no dataset at {manifest.parent}; run the gen command first")
    clip_ids = _read_csv(manifest, MANIFEST_HEADER, (str, int, int, int, int))[0]
    if not clip_ids:
        raise ConfigError(f"{manifest}: dataset lists no clips")
    return [read_features(manifest.parent, clip_id) for clip_id in clip_ids]


def cmd_gen(config: ExperimentConfig, out: Path) -> int:
    clips = generate(config.generator)
    dataset = _dataset_dir(out)
    dataset.mkdir(parents=True, exist_ok=True)
    rows = []
    for index, clip in enumerate(clips):
        write_features(dataset, clip)
        rows.append(
            [
                clip.clip_id,
                str(clip_seed(config.generator, index)),
                str(clip.frames),
                str(int(clip.corrupt_audio.sum())),
                str(int(clip.corrupt_visual.sum())),
            ]
        )
    _write_csv(dataset / "manifest.csv", MANIFEST_HEADER, rows)
    print(f"wrote {len(clips)} clips ({config.generator.frames} frames each) to {dataset}")
    return EXIT_OK


def cmd_train(config: ExperimentConfig, out: Path, threads: int) -> int:
    clips = _load_dataset(out)
    tc = config.training
    outcomes = cross_validate(clips, tc, workers=threads)
    b = best_fold(outcomes)
    chosen = outcomes[b]

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "history.csv", chosen.result.history_rows()[0], chosen.result.history_rows()[1:])
    save_params(out / "params.bin", chosen.result.model.snapshot())
    _write_csv(out / "predictions.csv", PREDICTIONS_HEADER, chosen.predictions)
    report_rows = [o.report.csv_row(tc.mode, tc.depth, tc.temperature) for o in outcomes]
    (out / "eval_report.csv").write_text(EvalReport.rows_to_csv(report_rows), encoding="utf-8")
    summary = {
        "mode": tc.mode,
        "depth": tc.depth,
        "temperature": tc.temperature,
        "target": tc.target,
        "folds": len(outcomes),
        "best_fold": b,
        "best_epoch": chosen.result.best_epoch,
        "best_val_ccc": float(chosen.result.best_val_ccc),
        "per_fold_val_ccc": [float(o.val_ccc) for o in outcomes],
        "best_fold_val_clips": chosen.val_clip_ids,
    }
    with open(out / "train_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    for o in outcomes:
        marker = " *" if o.fold == b else ""
        print(f"fold {o.fold}: best val ccc {o.val_ccc:.4f} at epoch {o.result.best_epoch}{marker}")
    print(f"saved best fold {b} artifacts to {out}")
    return EXIT_OK


def cmd_eval(config: ExperimentConfig, out: Path) -> int:
    clips = _load_dataset(out)
    params_path = out / "params.bin"
    if not params_path.exists():
        raise FileNotFoundError(f"no saved parameters at {params_path}; run the train command first")
    tc = config.training
    model = EmotionModel(
        tc.model_config(clips[0].audio.shape[0], clips[0].visual.shape[0]), rng=tc.model_rng()
    )
    model.load_snapshot(load_params(params_path))
    report, rows = evaluate(model, clips, tc)
    eval_dir = out / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(eval_dir / "predictions.csv", PREDICTIONS_HEADER, rows)
    report_text = EvalReport.rows_to_csv([report.csv_row(tc.mode, tc.depth, tc.temperature)])
    (eval_dir / "eval_report.csv").write_text(report_text, encoding="utf-8")
    pooled = report.ccc_valence if tc.target == "valence" else report.ccc_arousal
    print(f"pooled {tc.target} ccc {pooled:.6f} over {report.frame_count} frames ({len(clips)} clips)")
    return EXIT_OK


def cmd_ablate(config: ExperimentConfig, out: Path, threads: int) -> int:
    clips = generate(config.generator)
    val_idx = set(fold_assignments(len(clips), config.training)[0])
    train_clips = [c for i, c in enumerate(clips) if i not in val_idx]
    val_clips = [c for i, c in enumerate(clips) if i in val_idx]

    depths = (1, 2, 3, 4)
    keys = [
        (depth, mode, target)
        for depth in depths
        for mode in ("RJCA", "GRJCA", "HGRJCA")
        for target in ("valence", "arousal")
    ]

    def run_cell(index):
        depth, mode, target = keys[index]
        tc = dataclasses.replace(config.training, mode=mode, depth=depth, target=target)
        return train(train_clips, val_clips, tc).best_val_ccc

    cells = dict(zip(keys, map_in_order(run_cell, len(keys), threads)))
    best_depth = max(cells, key=lambda key: cells[key])[0]

    rows = []
    for depth in depths:
        rows.append(
            [str(depth)]
            + [
                repr(float(cells[(depth, mode, target)]))
                for target in ("valence", "arousal")
                for mode in ("RJCA", "GRJCA", "HGRJCA")
            ]
            + ["yes" if depth == best_depth else ""]
        )
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "ablation.csv", ABLATION_HEADER, rows)
    print(",".join(ABLATION_HEADER))
    for row in rows:
        cells_fmt = [row[0]] + [f"{float(v):.4f}" for v in row[1:7]] + [row[7]]
        print(",".join(cells_fmt))
    return EXIT_OK


def cmd_gradcheck(threads: int) -> int:
    result = run_gradcheck_suite(workers=threads)
    for line in result.format_lines():
        print(line)
    return EXIT_OK if result.passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avfusion",
        description="Audio-visual fusion experiments: data synthesis, training, "
        "evaluation, ablation, and gradient verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen", "synthesize a labeled dataset into <out>/dataset"),
        ("train", "cross-validate on <out>/dataset and save best-fold artifacts"),
        ("eval", "evaluate saved parameters over <out>/dataset"),
        ("ablate", "sweep recursion depth x fusion mode into <out>/ablation.csv"),
        ("gradcheck", "verify every gradient path by finite differences"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None, help="experiment JSON (defaults apply)")
        p.add_argument("--out", type=Path, default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="override generator and training seeds")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="run train folds, ablate cells and gradcheck cases in up to "
            "min(N, tasks, CPUs) processes; gen and eval run serially",
        )
    return parser


# a numeric failure ends in one NumericError line; numpy's floating-point
# warnings would print ahead of it, once per process under --threads
@np.errstate(all="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    retain_freed_heap()
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        config = load_config(args.config) if args.config is not None else ExperimentConfig()
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            config = dataclasses.replace(
                config,
                generator=dataclasses.replace(config.generator, seed=args.seed),
                training=dataclasses.replace(config.training, seed=args.seed),
            )
        out = args.out if args.out is not None else Path(config.out_dir)
        if args.command == "gen":
            return cmd_gen(config, out)
        if args.command == "train":
            return cmd_train(config, out, args.threads)
        if args.command == "eval":
            return cmd_eval(config, out)
        if args.command == "ablate":
            return cmd_ablate(config, out, args.threads)
        return cmd_gradcheck(args.threads)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FormatError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, ParameterError, DimensionError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
