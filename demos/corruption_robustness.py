"""Gated and plain recursive fusion when one modality intermittently fails.

Generates a synthetic benchmark where audio features are replaced by
matched-variance noise in random bursts, inspects the corruption masks,
then trains the plain recursive fusion against its gated variants on the
same data and seeds.  On the acceptance test's corrupted data, the
learned GRJCA gate loses to a uniform average of the same rounds on 3 of
5 seeds, and no learned gate treats corrupted frames differently from
clean ones: the gap is at most 0.023.  So this comparison cannot
separate the learned gate from the pooling it applies.  Takes about 15
seconds on one core.
"""

import time

import numpy as np

from avfusion.synthdata import GenConfig, generate
from avfusion.training import TrainConfig, train


def main():
    gen = GenConfig(
        num_videos=80,
        frames=64,
        dim_audio=16,
        dim_visual=16,
        latent_dim=8,
        smoothness=8.0,
        noise_std=0.05,
        complementarity=0.5,
        corruption_prob=0.5,
        corruption_mean_len=8.0,
        corruption_target="audio",
        seed=5,
    )
    clips = generate(gen)
    train_clips, val_clips = clips[:64], clips[64:]

    corrupted = [c for c in clips if c.corrupt_audio.any()]
    frames = sum(int(c.corrupt_audio.sum()) for c in clips)
    runs = []
    for clip in corrupted:
        mask = np.flatnonzero(np.diff(np.concatenate([[0], clip.corrupt_audio, [0]])))
        runs.extend((mask[1::2] - mask[::2]).tolist())
    print(
        f"{len(clips)} clips, {len(corrupted)} with corrupted audio bursts; "
        f"{frames} corrupted frames total, mean burst {np.mean(runs):.1f} frames"
    )
    sample = corrupted[0]
    print(f"example mask ({sample.clip_id}):")
    print("  " + "".join("X" if bad else "." for bad in sample.corrupt_audio))
    print()

    def config(mode, seed):
        return TrainConfig(
            mode=mode,
            depth=3,
            temperature=0.1,
            batch_size=12,
            init_lr=1e-3,
            warmup_epochs=2,
            max_epochs=10,
            early_stop_patience=10,
            plateau_patience=6,
            dropout=0.0,
            weight_decay=0.0,
            window_len=64,
            window_stride=64,
            seed=seed,
            target="valence",
        )

    print(f"{'seed':<6}{'RJCA':>8}{'GRJCA':>8}{'HGRJCA':>8}")
    start = time.monotonic()
    means = {}
    for seed in (0, 1, 2):
        row = {}
        for mode in ("RJCA", "GRJCA", "HGRJCA"):
            # identical weights at a fixed seed except for the gates; a
            # gated mode also pools the rounds, so a gap between modes
            # mixes the learned gate with that pooling
            row[mode] = train(train_clips, val_clips, config(mode, seed)).best_val_ccc
            means.setdefault(mode, []).append(row[mode])
        print(f"{seed:<6}{row['RJCA']:>8.4f}{row['GRJCA']:>8.4f}{row['HGRJCA']:>8.4f}")
    print(
        f"{'mean':<6}"
        + "".join(f"{np.mean(means[mode]):>8.4f}" for mode in ("RJCA", "GRJCA", "HGRJCA"))
    )
    print(f"({time.monotonic() - start:.0f}s for 9 short training runs)")


if __name__ == "__main__":
    main()
