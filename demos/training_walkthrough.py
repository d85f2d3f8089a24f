"""One full training run, narrated: windows, warmup, plateau, evaluation.

Generates a small clean dataset, trains a gated fusion model on the
valence channel, prints the epoch history (watch the learning rate ramp
up over the warmup epochs), then evaluates frame-level predictions per
clip and restores the best snapshot from a round trip through plain
arrays.  The model settings (mode, depth, window, TCN, head, dropout)
come from the training config, which copies them into the one
``ModelConfig`` and checks them when it is built.
"""

import numpy as np

from avfusion.model import EmotionModel
from avfusion.synthdata import GenConfig, generate, window
from avfusion.training import TrainConfig, TrainResult, evaluate, train


def main():
    gen = GenConfig(
        num_videos=30,
        frames=96,
        dim_audio=12,
        dim_visual=12,
        latent_dim=6,
        smoothness=8.0,
        noise_std=0.05,
        seed=21,
    )
    clips = generate(gen)
    train_clips, val_clips = clips[:24], clips[24:]

    config = TrainConfig(
        mode="GRJCA",
        depth=2,
        temperature=0.1,
        batch_size=8,
        init_lr=1e-3,
        warmup_epochs=3,
        max_epochs=10,
        early_stop_patience=10,
        dropout=0.0,
        weight_decay=0.0,
        window_len=48,
        window_stride=24,
        seed=0,
        target="valence",
    )
    windows = [w for clip in train_clips for w in window(clip, config.window_len, config.window_stride)]
    print(
        f"{len(train_clips)} training clips x {gen.frames} frames -> "
        f"{len(windows)} windows of {config.window_len} (stride {config.window_stride})"
    )
    print()

    result: TrainResult = train(train_clips, val_clips, config)
    print(f"{'epoch':<7}{'lr':>10}{'train loss':>12}{'val ccc':>9}")
    for epoch, lr, loss, val in result.history:
        marker = "  <- best" if epoch == result.best_epoch else ""
        print(f"{epoch:<7}{lr:>10.2e}{loss:>12.4f}{val:>9.4f}{marker}")
    print()

    # rebuild a fresh model from the best snapshot: plain name -> array
    # dicts, so persistence needs no framework
    snapshot = result.model.snapshot()
    restored = EmotionModel(config.model_config(gen.dim_audio, gen.dim_visual))
    restored.load_snapshot(snapshot)
    report, rows = evaluate(restored, val_clips, config)
    print(f"held-out clips, frame-level predictions pooled per clip:")
    per_clip = {}
    for clip_id, _, pred, truth in rows:
        per_clip.setdefault(clip_id, ([], []))
        per_clip[clip_id][0].append(float(pred))
        per_clip[clip_id][1].append(float(truth))
    from avfusion.metrics import ccc

    for clip_id, (preds, truths) in per_clip.items():
        print(f"  {clip_id}: ccc {ccc(np.array(preds), np.array(truths)):.4f} over {len(preds)} frames")
    print(f"pooled val ccc {report.ccc_valence:.4f} (training reported {result.best_val_ccc:.4f})")
    # training keeps the best epoch's validation predictions, stitched per
    # clip like evaluate's; cross-validation builds its fold report from them
    kept = np.concatenate(result.predictions)
    same = np.array_equal(kept, [float(row[2]) for row in rows])
    print(f"restored weights reproduce the best epoch's {kept.size} kept predictions: {same}")


if __name__ == "__main__":
    main()
