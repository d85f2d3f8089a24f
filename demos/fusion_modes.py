"""Walk through the four fusion modes on one toy clip.

Shows the shared machinery (joint correlation, cross-attention, residual
rounds) and what each mode adds on top: recursion, soft gating over the
recursion trajectory, and per-round hierarchical gating.
"""

import numpy as np

from avfusion.autodiff import Tensor
from avfusion.fusion import FusionParams, fusion_forward
from avfusion.model import ModelConfig


def run(mode, audio, visual, depth=3, seed=0, temperature=0.1):
    # the fusion stack reads its settings from the model's one config
    config = ModelConfig(
        mode=mode,
        dim_audio=audio.shape[0],
        dim_visual=visual.shape[0],
        seq_len=audio.shape[1],
        depth=1 if mode == "JCA" else depth,
        temperature=temperature,
    )
    params = FusionParams(config, rng=np.random.default_rng(seed))
    # fresh parameters start every round as the identity; fill the output
    # projections and gates so the demo shows a generic operating point
    jitter = np.random.default_rng(seed + 1)
    for p in params.weights.values():
        p.value[...] = 0.3 * jitter.standard_normal(p.shape)
    state = fusion_forward(Tensor(audio), Tensor(visual), params)
    return state


def main():
    rng = np.random.default_rng(42)
    d_a, d_v, frames = 6, 4, 8
    audio = rng.standard_normal((d_a, frames))
    visual = rng.standard_normal((d_v, frames))
    print(f"inputs: audio {audio.shape}, visual {visual.shape}")
    print()

    for mode in ("JCA", "RJCA", "GRJCA", "HGRJCA"):
        state = run(mode, audio, visual)
        rounds = len(state.attended["audio"]) - 1  # slot 0 holds the raw input
        print(f"{mode}: fused {state.fused.value.shape}, attention rounds {rounds}")
        if mode == "GRJCA":
            # one softmax row per frame over the recursion trajectory
            # (raw input + one candidate per round)
            print(f"  trajectory gate rows (audio), frames x candidates:")
            for row in state.gates["audio"].value[:3]:
                print("   ", np.array2string(row, precision=3))
        if mode == "HGRJCA":
            print(f"  hierarchical final gate spans {state.gates['audio'].value.shape[1]} rounds")
        print()

    # each round adds a learned update on top of the previous features;
    # the residual connection keeps every round reachable from the input
    state = run("RJCA", audio, visual, depth=4)
    print("RJCA round-to-round change of attended audio features:")
    for t in range(1, 5):
        attended = state.attended["audio"]
        delta = np.linalg.norm(attended[t].value - attended[t - 1].value)
        print(f"  round {t}: {delta:.4f}")
    print()

    # the gate softmax sharpens as temperature drops
    for temperature in (1.0, 0.1, 0.01):
        state = run("GRJCA", audio, visual, temperature=temperature)
        peak = state.gates["audio"].value.max(axis=1).mean()
        print(f"GRJCA temperature {temperature:>4}: mean winning gate weight {peak:.3f}")


if __name__ == "__main__":
    main()
