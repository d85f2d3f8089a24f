"""Joint cross-attention fusion of two modality streams, with gating variants.

Four mechanisms over audio features (d_a x L) and visual features
(d_v x L), all producing a fused (d_a + d_v) x L matrix for the
prediction head:

* ``JCA``   - one round of joint cross-attention.
* ``RJCA``  - the same round applied recursively ``depth`` times, each
  round re-deriving the joint representation from the previous round's
  attended features and adding a residual connection.
* ``GRJCA`` - RJCA plus a per-time-step softmax gate (temperature
  ``temperature``) that mixes the original features and every round's
  attended features.
* ``HGRJCA`` - a two-way gate inside every round (round input vs round
  output), then a final gate across the per-round gated outputs.

One round, with ``d = d_a + d_v`` and X the current per-modality features:

    joint = P [X_audio ; X_visual]             (optional d x d projection P)
    corr  = tanh(X^T W_corr joint / sqrt(d))   (L x L)
    amap  = relu(X W_attn corr)                (d_mod x L)
    att   = amap W_out + X_prev                (residual)

Gate scores always normalize across candidates per time step, so every
row of every gate matrix sums to 1.

Every feature matrix may carry a leading batch axis (B x d_mod x L, and
B x L x L correlations); the weights are shared across it.

:class:`FusionParams` is built from a :class:`~avfusion.model.ModelConfig`,
which validates the mode, depth and temperature; it reads the mode, the
sizes, ``depth``, ``temperature`` and ``joint_projection`` from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ConfigError, DimensionError

if TYPE_CHECKING:
    from .model import ModelConfig

MODES = ("JCA", "RJCA", "GRJCA", "HGRJCA")


@dataclass
class ModalityFeatures:
    """Paired per-frame feature matrices for one clip window, or for a
    batch of windows stacked on a leading axis."""

    audio: Tensor
    visual: Tensor

    def __post_init__(self):
        if self.audio.cols != self.visual.cols:
            raise DimensionError(
                f"modalities disagree on length: audio {self.audio.shape}, "
                f"visual {self.visual.shape}"
            )

    @property
    def seq_len(self):
        return self.audio.cols

    @property
    def dim_audio(self):
        return self.audio.rows

    @property
    def dim_visual(self):
        return self.visual.rows


def xavier_uniform(rng, rows, cols, fan=None):
    """Xavier-uniform draw; ``fan`` overrides (fan_in, fan_out) when the
    matrix is one tap of a larger summed operation."""
    fan_in, fan_out = fan if fan is not None else (cols, rows)
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(rows, cols))


class FusionParams:
    """All learnable weights of one fusion stack, as named leaf tensors.

    Correlation, attention-map, and joint-projection weights are
    Xavier-uniform.  Output projections and gate weights start at zero:
    each round then opens as the identity and each gate opens uniform, so
    the stack is well scaled at any depth and the attention branch grows
    from zero during training.  Weight layout per round t (1-based):

    ====================  ===================  =========================
    attribute             shape                role
    ====================  ===================  =========================
    corr_audio[t-1]       d_a x d              correlation vs joint
    corr_visual[t-1]      d_v x d
    attn_audio[t-1]       L x L                attention map
    attn_visual[t-1]      L x L
    out_audio[t-1]        L x L                attended-feature output
    out_visual[t-1]       L x L
    joint_proj[t-1]       d x d                joint projection (optional)
    ====================  ===================  =========================

    GRJCA adds ``gate_audio`` (d_a x (depth+1)) / ``gate_visual``;
    HGRJCA adds per-round ``iter_gate_*`` (d_mod x 2) and final
    ``final_gate_*`` (d_mod x depth).
    """

    def __init__(self, config: ModelConfig, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.config = config
        c = config
        d = c.dim_joint
        L = c.seq_len

        def weight(rows, cols):
            return Tensor(xavier_uniform(rng, rows, cols))

        def zeros(rows, cols):
            return Tensor(np.zeros((rows, cols)))

        self.corr_audio = []
        self.corr_visual = []
        self.attn_audio = []
        self.attn_visual = []
        self.out_audio = []
        self.out_visual = []
        self.joint_proj = []
        for _ in range(c.depth):
            self.corr_audio.append(weight(c.dim_audio, d))
            self.corr_visual.append(weight(c.dim_visual, d))
            self.attn_audio.append(weight(L, L))
            self.attn_visual.append(weight(L, L))
            # Output projections start at zero so every round opens as the
            # identity (residual only).  The attention-map product sums L
            # terms twice; at L ~ 64 a non-zero start compounds across
            # rounds, saturates the bounded head, and kills gradients.
            self.out_audio.append(zeros(L, L))
            self.out_visual.append(zeros(L, L))
            if c.joint_projection:
                self.joint_proj.append(weight(d, d))

        self.gate_audio = None
        self.gate_visual = None
        self.iter_gate_audio = []
        self.iter_gate_visual = []
        self.final_gate_audio = None
        self.final_gate_visual = None
        if c.mode == "GRJCA":
            self.gate_audio = zeros(c.dim_audio, c.depth + 1)
            self.gate_visual = zeros(c.dim_visual, c.depth + 1)
        elif c.mode == "HGRJCA":
            for _ in range(c.depth):
                self.iter_gate_audio.append(zeros(c.dim_audio, 2))
                self.iter_gate_visual.append(zeros(c.dim_visual, 2))
            self.final_gate_audio = zeros(c.dim_audio, c.depth)
            self.final_gate_visual = zeros(c.dim_visual, c.depth)

    @property
    def depth(self):
        return self.config.depth

    @property
    def temperature(self):
        return self.config.temperature

    def parameters(self, prefix="") -> dict:
        """Stable name -> leaf tensor map (rounds are 1-based in names)."""
        out = {}
        for t in range(self.config.depth):
            tag = f"{prefix}round{t + 1}"
            out[f"{tag}.corr_audio"] = self.corr_audio[t]
            out[f"{tag}.corr_visual"] = self.corr_visual[t]
            out[f"{tag}.attn_audio"] = self.attn_audio[t]
            out[f"{tag}.attn_visual"] = self.attn_visual[t]
            out[f"{tag}.out_audio"] = self.out_audio[t]
            out[f"{tag}.out_visual"] = self.out_visual[t]
            if self.config.joint_projection:
                out[f"{tag}.joint_proj"] = self.joint_proj[t]
            if self.config.mode == "HGRJCA":
                out[f"{tag}.iter_gate_audio"] = self.iter_gate_audio[t]
                out[f"{tag}.iter_gate_visual"] = self.iter_gate_visual[t]
        if self.config.mode == "GRJCA":
            out[f"{prefix}gate_audio"] = self.gate_audio
            out[f"{prefix}gate_visual"] = self.gate_visual
        elif self.config.mode == "HGRJCA":
            out[f"{prefix}final_gate_audio"] = self.final_gate_audio
            out[f"{prefix}final_gate_visual"] = self.final_gate_visual
        for name, tensor in out.items():
            tensor.name = tensor.name or name
        return out

    def export(self) -> dict:
        return {name: t.value.copy() for name, t in self.parameters().items()}


@dataclass
class FusionState:
    """Every intermediate of one fusion forward pass.

    ``attended_audio[0]`` / ``attended_visual[0]`` are the unattended
    inputs; index t holds round t's attended features.  Gate fields stay
    None for modes that do not use them.
    """

    joint: list = field(default_factory=list)
    corr_audio: list = field(default_factory=list)
    corr_visual: list = field(default_factory=list)
    attn_map_audio: list = field(default_factory=list)
    attn_map_visual: list = field(default_factory=list)
    attended_audio: list = field(default_factory=list)
    attended_visual: list = field(default_factory=list)
    gates_audio: Tensor | None = None
    gates_visual: Tensor | None = None
    iter_gates_audio: list = field(default_factory=list)
    iter_gates_visual: list = field(default_factory=list)
    iter_gated_audio: list = field(default_factory=list)
    iter_gated_visual: list = field(default_factory=list)
    final_gates_audio: Tensor | None = None
    final_gates_visual: Tensor | None = None
    final_audio: Tensor | None = None
    final_visual: Tensor | None = None
    fused: Tensor | None = None

    @property
    def depth(self):
        return len(self.joint)


# -- one round, piecewise ----------------------------------------------------


def joint_representation(audio: Tensor, visual: Tensor, params: FusionParams, round_index: int = 1) -> Tensor:
    """Row-stack the modalities, then the optional d x d projection."""
    joint = ad.concat_rows(audio, visual)
    if params.config.joint_projection:
        joint = params.joint_proj[round_index - 1] @ joint
    return joint


def joint_correlation(audio, visual, joint, params, round_index=1):
    """tanh-bounded correlation of each modality against the joint features.

    Scaled by 1/sqrt(d) inside the tanh; outputs are L x L in [-1, 1].
    ``X^T (W_corr joint)`` is grouped so that the L x L product's inner
    dimension is the modality's, not the joint one.
    """
    t = round_index - 1
    inv_sqrt_d = 1.0 / math.sqrt(params.config.dim_joint)
    corr_a = ad.tanh((audio.T @ (params.corr_audio[t] @ joint)) * inv_sqrt_d)
    corr_v = ad.tanh((visual.T @ (params.corr_visual[t] @ joint)) * inv_sqrt_d)
    return corr_a, corr_v


def attention_maps(audio, visual, corr_audio, corr_visual, params, round_index=1):
    """Nonnegative attention maps (d_mod x L) from the correlation matrices."""
    t = round_index - 1
    map_a = ad.relu(audio @ params.attn_audio[t] @ corr_audio)
    map_v = ad.relu(visual @ params.attn_visual[t] @ corr_visual)
    return map_a, map_v


def attended_features(prev_audio, prev_visual, map_audio, map_visual, params, round_index=1):
    """Project the attention maps and add the previous round's features."""
    t = round_index - 1
    att_a = map_audio @ params.out_audio[t] + prev_audio
    att_v = map_visual @ params.out_visual[t] + prev_visual
    return att_a, att_v


def rjca_forward(feats: ModalityFeatures, params: FusionParams) -> FusionState:
    """Run ``depth`` recursion rounds, re-deriving the joint features each round."""
    state = FusionState()
    state.attended_audio.append(feats.audio)
    state.attended_visual.append(feats.visual)
    for t in range(1, params.depth + 1):
        cur_a = state.attended_audio[-1]
        cur_v = state.attended_visual[-1]
        joint = joint_representation(cur_a, cur_v, params, t)
        corr_a, corr_v = joint_correlation(cur_a, cur_v, joint, params, t)
        map_a, map_v = attention_maps(cur_a, cur_v, corr_a, corr_v, params, t)
        att_a, att_v = attended_features(cur_a, cur_v, map_a, map_v, params, t)
        ad.check_finite(att_a.value, f"attended audio features, round {t}")
        ad.check_finite(att_v.value, f"attended visual features, round {t}")
        state.joint.append(joint)
        state.corr_audio.append(corr_a)
        state.corr_visual.append(corr_v)
        state.attn_map_audio.append(map_a)
        state.attn_map_visual.append(map_v)
        state.attended_audio.append(att_a)
        state.attended_visual.append(att_v)
    return state


# -- gating ------------------------------------------------------------------


def grjca_gate(state: FusionState, params: FusionParams):
    """Soft-select, per time step, among the original and all attended features.

    Gate logits come from the last round's attended features through the
    d_mod x (depth+1) gate layer; scores are a temperature softmax over
    the depth+1 candidates (column 0 is the unattended input, column t is
    round t).
    """
    depth = params.depth
    if params.gate_audio is None:
        raise ConfigError("grjca_gate: params were not built for GRJCA")
    if params.gate_audio.cols != depth + 1:
        raise DimensionError(
            f"grjca_gate: gate weights have {params.gate_audio.cols} columns, "
            f"expected depth+1 = {depth + 1}"
        )
    outputs = []
    for attended, gate_w in (
        (state.attended_audio, params.gate_audio),
        (state.attended_visual, params.gate_visual),
    ):
        logits = attended[depth].T @ gate_w
        gates = ad.softmax_temp(logits, params.temperature)
        outputs.append((gates, ad.relu(ad.gated_sum(attended, gates))))
    (state.gates_audio, gated_a), (state.gates_visual, gated_v) = outputs
    return gated_a, gated_v


def hgrjca_iteration_gate(prev: Tensor, cur: Tensor, params: FusionParams, round_index: int, modality: str) -> Tensor:
    """Two-way gate between a round's input and output features.

    Column 0 weights the round input (previous features), column 1 the
    round output.  Logits come from the round output.
    """
    weights = {
        "audio": params.iter_gate_audio,
        "visual": params.iter_gate_visual,
    }[modality]
    gate_w = weights[round_index - 1]
    logits = cur.T @ gate_w
    gates = ad.softmax_temp(logits, params.temperature)
    gated = ad.relu(ad.gated_sum([prev, cur], gates))
    return gates, gated


def hgrjca_final_gate(gated_audio, gated_visual, params: FusionParams):
    """Gate across every round's gated output.

    The paper leaves the final gate's input unspecified; logits are taken
    from the elementwise sum of the per-round gated features through a
    d_mod x depth layer, mirroring the per-round gate pattern.
    """
    depth = params.depth
    if len(gated_audio) != depth or len(gated_visual) != depth:
        raise DimensionError(
            f"hgrjca_final_gate: expected {depth} gated feature sets, "
            f"got {len(gated_audio)}/{len(gated_visual)}"
        )
    outputs = []
    for gated, gate_w in ((gated_audio, params.final_gate_audio), (gated_visual, params.final_gate_visual)):
        pooled = gated[0]
        for g in gated[1:]:
            pooled = pooled + g
        logits = pooled.T @ gate_w
        gates = ad.softmax_temp(logits, params.temperature)
        outputs.append((gates, ad.relu(ad.gated_sum(gated, gates))))
    (gates_a, final_a), (gates_v, final_v) = outputs
    return (gates_a, gates_v), (final_a, final_v)


# -- dispatch ----------------------------------------------------------------


def fusion_forward(feats: ModalityFeatures, params: FusionParams) -> FusionState:
    """Full fusion pass in the mode the parameters were built for;
    ``state.fused`` holds the (d_a + d_v) x L output."""
    mode = params.config.mode
    state = rjca_forward(feats, params)
    if mode in ("JCA", "RJCA"):
        final_a = state.attended_audio[params.depth]
        final_v = state.attended_visual[params.depth]
    elif mode == "GRJCA":
        final_a, final_v = grjca_gate(state, params)
    else:  # HGRJCA
        for t in range(1, params.depth + 1):
            gates_a, gated_a = hgrjca_iteration_gate(
                state.attended_audio[t - 1], state.attended_audio[t], params, t, "audio"
            )
            gates_v, gated_v = hgrjca_iteration_gate(
                state.attended_visual[t - 1], state.attended_visual[t], params, t, "visual"
            )
            state.iter_gates_audio.append(gates_a)
            state.iter_gates_visual.append(gates_v)
            state.iter_gated_audio.append(gated_a)
            state.iter_gated_visual.append(gated_v)
        (state.final_gates_audio, state.final_gates_visual), (final_a, final_v) = hgrjca_final_gate(
            state.iter_gated_audio, state.iter_gated_visual, params
        )
    state.final_audio = final_a
    state.final_visual = final_v
    state.fused = ad.concat_rows(final_a, final_v)
    return state
