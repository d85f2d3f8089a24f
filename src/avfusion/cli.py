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
from .fusion import MODALITIES
from .synthdata import (
    COUNT,
    _check_finite,
    _read_csv,
    _write_csv,
    clip_seed,
    generate,
    read_features,
    write_features,
    write_file,
)
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

MANIFEST_HEADER = ["clip", "seed", "frames", *(f"{m}_corrupt_frames" for m in MODALITIES)]
# a clip id is one plain path component that needs no quoting: not empty,
# "." or "..", and without /, \, NUL, a comma, ", CR or LF
CLIP_ID = (r'\.*[^./\\\0,"\r\n][^/\\\0,"\r\n]*|\.{3,}', str)
# the seed is never read back and may not fit an int64, so it stays a str
MANIFEST_KINDS = (CLIP_ID, (r"[0-9]+", str), *(COUNT,) * (len(MANIFEST_HEADER) - 2))
PREDICTIONS_HEADER = ["clip", "frame", "pred", "truth"]
HISTORY_HEADER = ["epoch", "lr", "train_loss", "val_ccc"]
REPORT_HEADER = ["fold", "mode", "M", "T", "ccc_v", "ccc_a"]
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
    write_file(path, b"".join(chunks))


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
        if name in out:
            raise FormatError(f"{path}: duplicate entry {name!r}", offset=pos)
        pos += name_len
        if pos + _ENTRY_SHAPE.size > len(blob):
            raise FormatError(f"{path}: truncated shape for {name!r}", offset=pos)
        rows, cols = _ENTRY_SHAPE.unpack_from(blob, pos)
        pos += _ENTRY_SHAPE.size
        nbytes = rows * cols * 8
        if pos + nbytes > len(blob):
            raise FormatError(f"{path}: truncated payload for {name!r}", offset=pos)
        out[name] = np.frombuffer(blob[pos : pos + nbytes], dtype="<f8").reshape(rows, cols).copy()
        _check_finite(path, repr(name), out[name], pos)
        pos += nbytes
    if pos != len(blob):
        raise FormatError(f"{path}: trailing bytes", offset=pos)
    return out


def _dataset_dir(out: Path) -> Path:
    return out / "dataset"


def _load_dataset(out: Path):
    """Clips in manifest order; no manifest or an empty one is a config problem
    (run gen first).  A clip id that is repeated, missing or not one plain
    path component, or a frame or corrupt count that differs from the clip's
    files, is an I/O one naming the manifest row, and so is a clip whose
    feature rows differ from the first clip's; the seed is not checked."""
    manifest = _dataset_dir(out) / "manifest.csv"
    if not manifest.exists():
        raise ConfigError(f"no dataset at {manifest.parent}; run the gen command first")
    clip_ids, _, frames, *corrupt = _read_csv(manifest, MANIFEST_HEADER, MANIFEST_KINDS)
    if not clip_ids:
        raise ConfigError(f"{manifest}: dataset lists no clips")
    clips, first_row = [], {}
    for number, (clip_id, count, *listed) in enumerate(zip(clip_ids, frames, *corrupt), start=2):
        place, files = f"{manifest}: row {number}", manifest.parent / clip_id
        if first_row.setdefault(clip_id, number) != number:
            raise FormatError(f"{place} repeats clip {clip_id!r} of row {first_row[clip_id]}")
        try:
            clip = read_features(manifest.parent, clip_id)
        except FileNotFoundError as exc:
            raise FormatError(f"{place} lists clip {clip_id!r}, but {exc.filename} is missing") from None
        if clip.frames != count:
            raise FormatError(f"{place} lists {count} frames but {files}_labels.csv has {clip.frames}")
        for m, want in zip(MODALITIES, listed):
            marked = int(getattr(clip, f"corrupt_{m}").sum())
            if marked != want:
                raise FormatError(f"{place} lists {want} {m} corrupt frames but {files}_masks.csv marks {marked}")
        clips.append(clip)
    for clip in clips[1:]:
        for m in MODALITIES:
            rows, first = getattr(clip, m).shape[0], getattr(clips[0], m).shape[0]
            if rows != first:
                path = manifest.parent / f"{clip.clip_id}_{m}.avfs"
                raise FormatError(f"{path}: {rows} feature rows but {clips[0].clip_id} has {first}")
    return clips


def _prediction_rows(clips, clip_preds, target: str):
    """One (clip, frame, pred, truth) row per frame of every clip."""
    return [
        (clip.clip_id, clip.frame_offset + j, pred, truth)
        for clip, preds in zip(clips, clip_preds)
        for j, (pred, truth) in enumerate(zip(preds.tolist(), getattr(clip, target).tolist()))
    ]


def _report_row(tc, ccc: float, fold=None):
    """An eval_report.csv row; the channel not trained for and the fold
    of a plain ``eval`` are empty cells."""
    cells = [repr(float(ccc)), ""] if tc.target == "valence" else ["", repr(float(ccc))]
    return ["" if fold is None else str(fold), tc.mode, str(tc.depth), repr(tc.temperature), *cells]


def cmd_gen(config: ExperimentConfig, out: Path) -> int:
    clips = generate(config.generator)
    dataset = _dataset_dir(out)
    dataset.mkdir(parents=True, exist_ok=True)
    rows = []
    for index, clip in enumerate(clips):
        write_features(dataset, clip)
        corrupt = [str(int(getattr(clip, f"corrupt_{m}").sum())) for m in MODALITIES]
        rows.append([clip.clip_id, str(clip_seed(config.generator, index)), str(clip.frames), *corrupt])
    _write_csv(dataset / "manifest.csv", MANIFEST_HEADER, rows)
    print(f"wrote {len(clips)} clips ({config.generator.frames} frames each) to {dataset}")
    return EXIT_OK


def cmd_train(config: ExperimentConfig, out: Path, threads: int) -> int:
    clips = _load_dataset(out)
    tc = config.training
    folds, results = cross_validate(clips, tc, workers=threads)
    b = best_fold(results)
    best = results[b]
    val_clips = [clips[i] for i in folds[b]]

    out.mkdir(parents=True, exist_ok=True)
    history = [[str(epoch), *(repr(float(x)) for x in values)] for epoch, *values in best.history]
    _write_csv(out / "history.csv", HISTORY_HEADER, history)
    save_params(out / "params.bin", best.model.snapshot())
    predictions = _prediction_rows(val_clips, best.predictions, tc.target)
    _write_csv(out / "predictions.csv", PREDICTIONS_HEADER, predictions)
    # a fold's report is its best validation pass, the score the summary lists
    report = [_report_row(tc, r.best_val_ccc, fold) for fold, r in enumerate(results)]
    _write_csv(out / "eval_report.csv", REPORT_HEADER, report)
    summary = {
        "mode": tc.mode,
        "depth": tc.depth,
        "temperature": tc.temperature,
        "target": tc.target,
        "folds": len(results),
        "best_fold": b,
        "best_epoch": best.best_epoch,
        "best_val_ccc": float(best.best_val_ccc),
        "per_fold_val_ccc": [float(r.best_val_ccc) for r in results],
        "best_fold_val_clips": [clip.clip_id for clip in val_clips],
    }
    write_file(out / "train_summary.json", (json.dumps(summary, indent=2) + "\n").encode("utf-8"))
    for fold, r in enumerate(results):
        marker = " *" if fold == b else ""
        print(f"fold {fold}: best val ccc {r.best_val_ccc:.4f} at epoch {r.best_epoch}{marker}")
    print(f"saved best fold {b} artifacts to {out}")
    return EXIT_OK


def cmd_eval(config: ExperimentConfig, out: Path, threads: int) -> int:
    clips = _load_dataset(out)
    params_path = out / "params.bin"
    if not params_path.exists():
        raise FileNotFoundError(f"no saved parameters at {params_path}; run the train command first")
    tc = config.training
    model = tc.new_model(clips[0])
    try:
        model.load_snapshot(load_params(params_path))
    except ParameterError as exc:
        raise ParameterError(f"{params_path}: {exc}") from None
    try:
        clip_preds, pooled = evaluate(model, clips, tc, workers=threads)
    except (NumericError, DimensionError) as exc:
        raise type(exc)(f"{exc} ({_dataset_dir(out)})") from exc
    eval_dir = out / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(eval_dir / "predictions.csv", PREDICTIONS_HEADER, _prediction_rows(clips, clip_preds, tc.target))
    _write_csv(eval_dir / "eval_report.csv", REPORT_HEADER, [_report_row(tc, pooled)])
    frames = sum(int(clip.valid.sum()) for clip in clips)
    print(f"pooled {tc.target} ccc {pooled:.6f} over {frames} frames ({len(clips)} clips)")
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
            "min(N, tasks, CPUs) processes, and eval's forward batches on up to "
            "min(N, batches, CPUs) threads; gen runs serially",
        )
    return parser


# a numeric failure ends in one NumericError line; numpy's floating-point
# warnings would print ahead of it, once per process or thread under --threads
@np.errstate(all="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    retain_freed_heap()
    source = args.config if args.config is not None else "the default configuration"
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
        try:
            if args.command == "gen":
                return cmd_gen(config, out)
            if args.command == "train":
                return cmd_train(config, out, args.threads)
            if args.command == "eval":
                return cmd_eval(config, out, args.threads)
            if args.command == "ablate":
                return cmd_ablate(config, out, args.threads)
            return cmd_gradcheck(args.threads)
        except ConfigError as exc:
            # the config checked against the dataset: name the file, as parsing does
            raise ConfigError(f"{source}: {exc}") from None
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"configuration error: {source}: sizes too large for memory: {exc}", file=sys.stderr)
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
