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

One round, with ``d = d_a + d_v`` and X the current features of each
modality m in :data:`MODALITIES`:

    joint  = P [X_a ; X_v]                       (optional d x d projection P)
    corr_m = tanh(X_m^T W_corr,m joint / sqrt(d))  (L x L)
    amap_m = relu(X_m W_attn,m corr_m)             (d_m x L)
    att_m  = amap_m W_out,m + X_m                  (residual)

Every step is written once and applied to each modality in turn.
``corr_m`` and ``amap_m`` are one graph node (:func:`attention`) given
``W_corr,m joint``.  It keeps no L x L array: its backward recomputes
the correlation, and both passes make the correlations a block of batch
members at a time.  The
modes differ only in the gate, and each gate is one :func:`gate` node
on the logits ``source^T W_gate`` (L x K): a temperature softmax over
the K candidates per time step (so every row sums to 1), then the relu
of the gated sum of the candidates.

Every feature matrix may carry a leading batch axis (B x d_m x L, and
b x L x L correlations for a block of b members inside
:func:`attention`); the weights are shared across it.

:class:`FusionParams` is built from a :class:`~avfusion.model.ModelConfig`,
which validates the mode, depth and temperature; it reads the mode, the
sizes, ``depth``, ``temperature`` and ``joint_projection`` from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import DimensionError

if TYPE_CHECKING:
    from .model import ModelConfig

MODES = ("JCA", "RJCA", "GRJCA", "HGRJCA")
MODALITIES = ("audio", "visual")

# :func:`attention` makes its L x L arrays for a block of whole batch
# members at a time, as many as fit in this many bytes (at least one)
ATTENTION_BLOCK_BYTES = 1 << 20


def xavier_uniform(rng, rows, cols, fan=None):
    """Xavier-uniform draw; ``fan`` overrides (fan_in, fan_out) when the
    matrix is one tap of a larger summed operation."""
    fan_in, fan_out = fan if fan is not None else (cols, rows)
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(rows, cols))


class FusionParams:
    """All learnable weights of one fusion stack, in ``weights``: stable
    name -> leaf tensor, in a fixed order (rounds are 1-based in names).

    Correlation, attention-map, and joint-projection weights are
    Xavier-uniform.  Output projections and gate weights start at zero:
    each round then opens as the identity and each gate opens uniform, so
    the stack is well scaled at any depth and the attention branch grows
    from zero during training.  For each modality m with d_m rows:

    ========================  ===============  =============================
    name                      shape            role
    ========================  ===============  =============================
    round{t}.corr_{m}         d_m x d          correlation vs joint
    round{t}.attn_{m}         L x L            attention map
    round{t}.out_{m}          L x L            attended-feature output
    round{t}.joint_proj       d x d            joint projection (optional)
    round{t}.iter_gate_{m}    d_m x 2          HGRJCA round gate
    gate_{m}                  d_m x (depth+1)  GRJCA gate
    final_gate_{m}            d_m x depth      HGRJCA final gate
    ========================  ===============  =============================
    """

    def __init__(self, config: ModelConfig, rng):
        self.config = c = config
        d = c.dim_joint
        L = c.seq_len
        w = self.weights = {}
        for t in range(1, c.depth + 1):
            for m in MODALITIES:
                w[f"round{t}.corr_{m}"] = Tensor(xavier_uniform(rng, c.dims[m], d))
            for m in MODALITIES:
                w[f"round{t}.attn_{m}"] = Tensor(xavier_uniform(rng, L, L))
            # Output projections start at zero so every round opens as the
            # identity (residual only).  The attention-map product sums L
            # terms twice; at L ~ 64 a non-zero start compounds across
            # rounds, saturates the bounded head, and kills gradients.
            for m in MODALITIES:
                w[f"round{t}.out_{m}"] = Tensor(np.zeros((L, L)))
            if c.joint_projection:
                w[f"round{t}.joint_proj"] = Tensor(xavier_uniform(rng, d, d))
            if c.mode == "HGRJCA":
                for m in MODALITIES:
                    w[f"round{t}.iter_gate_{m}"] = Tensor(np.zeros((c.dims[m], 2)))
        for m in MODALITIES:
            if c.mode == "GRJCA":
                w[f"gate_{m}"] = Tensor(np.zeros((c.dims[m], c.depth + 1)))
            elif c.mode == "HGRJCA":
                w[f"final_gate_{m}"] = Tensor(np.zeros((c.dims[m], c.depth)))


def _per_modality():
    return field(default_factory=lambda: {m: [] for m in MODALITIES})


@dataclass
class FusionState:
    """Every intermediate of one fusion forward pass, per modality.

    ``attended[m][0]`` is modality m's unattended input; index t holds
    round t's attended features and ``attn_map[m][t - 1]`` its attention
    map; no L x L correlation is kept.  ``iter_gates``/``iter_gated`` hold
    HGRJCA's per-round gates and gated outputs.  ``gates[m]`` is the last
    gate of a gated mode (GRJCA's gate, HGRJCA's final gate) and stays
    empty otherwise; ``final[m]`` is the modality's fused-in features.
    """

    joint: list = field(default_factory=list)
    attn_map: dict = _per_modality()
    attended: dict = _per_modality()
    iter_gates: dict = _per_modality()
    iter_gated: dict = _per_modality()
    gates: dict = field(default_factory=dict)
    final: dict = field(default_factory=dict)
    fused: Tensor | None = None


# -- one round, piecewise ----------------------------------------------------
#
# Each piece maps a modality -> tensor dict to another.


def joint_representation(current: dict, params: FusionParams, round_index: int) -> Tensor:
    """Row-stack the modalities, then the optional d x d projection."""
    joint = ad.concat_rows(*(current[m] for m in MODALITIES))
    if params.config.joint_projection:
        joint = params.weights[f"round{round_index}.joint_proj"] @ joint
    return joint


def _correlation(x: np.ndarray, wj: np.ndarray, scale: float):
    """``x^T`` as a contiguous copy, and ``tanh(x^T wj * scale)`` (L x L),
    scaled and squashed in place."""
    xt = np.ascontiguousarray(np.swapaxes(x, -1, -2))
    y = xt @ wj
    y *= scale
    np.tanh(y, out=y)
    return xt, y


def _blocks(x: np.ndarray) -> list:
    """Indices of the blocks of whole batch members whose L x L float64
    arrays fit in :data:`ATTENTION_BLOCK_BYTES`; a matrix is one block."""
    if x.ndim < 3:
        return [...]
    size = max(1, ATTENTION_BLOCK_BYTES // (x.shape[-1] ** 2 * x.itemsize))
    return [slice(start, start + size) for start in range(0, x.shape[0], size)]


def attention(x: Tensor, wj: Tensor, w_attn: Tensor, scale: float) -> Tensor:
    """``relu(x W_attn tanh(x^T wj * scale))`` as one node: ``x`` and
    ``wj`` are d_m x L (or B x d_m x L), ``w_attn`` and the correlation
    L x L, the output d_m x L.

    The correlation is a temporary, made for one block of batch members
    at a time (:func:`_blocks`).  The node keeps ``P = x W_attn`` and the
    relu pattern, and its backward recomputes the correlation y block by
    block.  With ``G`` the masked grad, each block writes P's grad
    ``G y^T`` and, with ``dz = P^T G * (1 - y^2) * scale``, the
    correlation's grads ``(dz wj^T)^T`` to x and ``x dz`` to wj into
    whole-batch arrays.  P's grad then pushes to x and ``W_attn`` as a
    product does, with one GEMM over the batch for ``W_attn``, and the
    correlation's grads follow.  numpy's stacked products make one GEMM
    per member, so these are the products, operand layouts and push
    order of a correlation node, two matrix-product nodes and a relu
    node, and value and gradients equal theirs bit for bit.
    """
    if x.value.shape != wj.value.shape:
        raise DimensionError(f"attention: shapes {x.value.shape} and {wj.value.shape} differ")
    p = x.value @ w_attn.value
    blocks = _blocks(p)
    q = np.empty_like(p)
    for blk in blocks:
        q[blk] = p[blk] @ _correlation(x.value[blk], wj.value[blk], scale)[1]
    positive = ad.relu_pattern(q)

    def backward(g):
        g = g * positive
        gp, gx, gwj = np.empty_like(p), np.empty_like(p), np.empty_like(p)
        for blk in blocks:
            xt, y = _correlation(x.value[blk], wj.value[blk], scale)
            gp[blk], dz = ad.matmul_grads(p[blk], y, g[blk])
            y *= y
            np.subtract(1.0, y, out=y)
            dz *= y
            dz *= scale
            gx[blk] = np.swapaxes(dz @ np.swapaxes(wj.value[blk], -1, -2), -1, -2)
            gwj[blk] = np.swapaxes(xt, -1, -2) @ dz
        ga, gw = ad.matmul_grads(x.value, w_attn.value, gp)
        ad.accumulate(x, ga)
        ad.accumulate(w_attn, gw)
        ad.accumulate(x, gx)
        ad.accumulate(wj, gwj)

    return Tensor._make(ad.relu_values(q), (x, wj, w_attn), backward)


def joint_correlation(joint: Tensor, params: FusionParams, round_index: int) -> dict:
    """Each modality's correlation weights applied to the joint features:
    ``W_corr,m joint`` (d_m x L), which :func:`attention_maps` correlates
    with the modality.  Grouped so, ``X^T (W_corr joint)`` is an L x L
    product over the modality's dimension, not the joint one."""
    return {m: params.weights[f"round{round_index}.corr_{m}"] @ joint for m in MODALITIES}


def attention_maps(current: dict, wj: dict, params: FusionParams, round_index: int) -> dict:
    """Nonnegative attention maps (d_m x L), one :func:`attention` node
    each, the correlation scaled by 1/sqrt(d) inside its tanh."""
    inv_sqrt_d = 1.0 / math.sqrt(params.config.dim_joint)
    return {
        m: attention(current[m], wj[m], params.weights[f"round{round_index}.attn_{m}"], inv_sqrt_d)
        for m in MODALITIES
    }


def attended_features(prev: dict, maps: dict, params: FusionParams, round_index: int) -> dict:
    """Project the attention maps and add the previous round's features."""
    return {m: maps[m] @ params.weights[f"round{round_index}.out_{m}"] + prev[m] for m in MODALITIES}


def rjca_forward(audio: Tensor, visual: Tensor, params: FusionParams) -> FusionState:
    """Run ``depth`` recursion rounds, re-deriving the joint features each round."""
    state = FusionState()
    current = dict(zip(MODALITIES, (audio, visual)))
    for m in MODALITIES:
        state.attended[m].append(current[m])
    for t in range(1, params.config.depth + 1):
        joint = joint_representation(current, params, t)
        wj = joint_correlation(joint, params, t)
        maps = attention_maps(current, wj, params, t)
        current = attended_features(current, maps, params, t)
        state.joint.append(joint)
        for m in MODALITIES:
            ad.check_finite(current[m].value, f"attended {m} features, round {t}")
            state.attn_map[m].append(maps[m])
            state.attended[m].append(current[m])
    return state


# -- gating ------------------------------------------------------------------


def gate(logits: Tensor, candidates: list, temperature: float):
    """Per-time-step gate over ``candidates`` (each d_m x L) as one node:
    the row softmax y of ``logits`` (L x K) at ``temperature``, then
    ``relu(sum_k candidate_k * y[:, k])``.  Returns y as a constant and
    the node.  The backward masks by the relu pattern (which the kink
    recorders see) and makes the products a softmax, a gated-sum and a
    relu node would, so value and gradients equal theirs bit for bit.
    Row maxima and sums over the K <= depth + 1 columns run column by
    column, the sums left to right from +0.0 as numpy sums a short axis.
    """
    shape = candidates[0].value.shape
    want = shape[:-2] + (shape[-1], len(candidates))
    if logits.value.shape != want or any(c.value.shape != shape for c in candidates):
        raise DimensionError(
            f"gate: {len(candidates)} candidates of shape {shape} need logits {want}, "
            f"got {[c.value.shape for c in candidates]} and {logits.value.shape}"
        )
    y = logits.value / temperature
    y -= functools.reduce(np.maximum, _columns(y))[..., None]
    np.exp(y, out=y)
    y /= _row_sum(y)
    rows = np.ascontiguousarray(np.swapaxes(y, -1, -2))  # row k weights candidate k
    total = candidates[0].value * rows[..., 0:1, :]
    for k, cand in enumerate(candidates[1:], start=1):
        total += cand.value * rows[..., k : k + 1, :]
    positive = ad.relu_pattern(total)

    def backward(g):
        g = g * positive
        dy = np.empty_like(y)
        for k, cand in enumerate(candidates):
            ad.accumulate(cand, g * rows[..., k : k + 1, :])
            dy[..., k] = (g * cand.value).sum(axis=-2)
        ad.accumulate(logits, y * (dy - _row_sum(dy * y)) / temperature)

    return Tensor(y), Tensor._make(ad.relu_values(total), (*candidates, logits), backward)


def _columns(x):
    return [x[..., k] for k in range(x.shape[-1])]


def _row_sum(x):
    """``x.sum(axis=-1, keepdims=True)`` for a short last axis, summed the same way."""
    return sum(_columns(x), 0.0)[..., None]


def grjca_gate(state: FusionState, params: FusionParams):
    """Soft-select, per time step, among the original and all attended features.

    Gate logits come from the last round's attended features through the
    d_m x (depth+1) gate layer; column 0 is the unattended input, column t
    is round t.  Sets ``state.gates`` and ``state.final``.
    """
    for m in MODALITIES:
        attended = state.attended[m]
        logits = attended[-1].T @ params.weights[f"gate_{m}"]
        state.gates[m], state.final[m] = gate(logits, attended, params.config.temperature)


def hgrjca_iteration_gate(state: FusionState, params: FusionParams, round_index: int):
    """Two-way gate between round ``round_index``'s input and output features.

    Column 0 weights the round input (previous features), column 1 the
    round output.  Logits come from the round output.  Appends to
    ``state.iter_gates`` and ``state.iter_gated``.
    """
    for m in MODALITIES:
        prev, cur = state.attended[m][round_index - 1 : round_index + 1]
        logits = cur.T @ params.weights[f"round{round_index}.iter_gate_{m}"]
        gates, gated = gate(logits, [prev, cur], params.config.temperature)
        state.iter_gates[m].append(gates)
        state.iter_gated[m].append(gated)


def hgrjca_final_gate(state: FusionState, params: FusionParams):
    """Gate across every round's gated output.

    The paper leaves the final gate's input unspecified; logits are taken
    from the elementwise sum of the per-round gated features through a
    d_m x depth layer, mirroring the per-round gate pattern.  Sets
    ``state.gates`` and ``state.final``.
    """
    for m in MODALITIES:
        gated = state.iter_gated[m]
        pooled = gated[0]
        for g in gated[1:]:
            pooled = pooled + g
        logits = pooled.T @ params.weights[f"final_gate_{m}"]
        state.gates[m], state.final[m] = gate(logits, gated, params.config.temperature)


# -- dispatch ----------------------------------------------------------------


def fusion_forward(audio: Tensor, visual: Tensor, params: FusionParams) -> FusionState:
    """Full fusion pass in the mode the parameters were built for;
    ``state.fused`` holds the (d_a + d_v) x L output."""
    mode = params.config.mode
    state = rjca_forward(audio, visual, params)
    if mode == "GRJCA":
        grjca_gate(state, params)
    elif mode == "HGRJCA":
        for t in range(1, params.config.depth + 1):
            hgrjca_iteration_gate(state, params, t)
        hgrjca_final_gate(state, params)
    else:
        state.final = {m: state.attended[m][-1] for m in MODALITIES}
    state.fused = ad.concat_rows(*(state.final[m] for m in MODALITIES))
    return state
