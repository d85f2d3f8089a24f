"""End-to-end regression model: per-modality temporal encoders, fusion,
dropout on the fused features, and the frame-wise prediction head."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ParameterError
from .fusion import FusionConfig, FusionParams, ModalityFeatures, fusion_forward
from .metrics import ccc_loss
from .temporal import (
    HeadConfig,
    HeadParams,
    TcnConfig,
    TcnParams,
    apply_dropout,
    head_forward,
    tcn_forward,
)


@dataclass
class ModelConfig:
    mode: str
    dim_audio: int
    dim_visual: int
    seq_len: int
    depth: int = 1
    temperature: float = 0.1
    joint_projection: bool = True
    tcn: TcnConfig = field(default_factory=TcnConfig)
    head_hidden: tuple = (16,)
    dropout: float = 0.5

    def fusion_config(self):
        return FusionConfig(
            mode=self.mode,
            dim_audio=self.dim_audio,
            dim_visual=self.dim_visual,
            seq_len=self.seq_len,
            depth=self.depth,
            temperature=self.temperature,
            joint_projection=self.joint_projection,
        )


class EmotionModel:
    """Owns every parameter tensor; forward maps a batch of clip windows to
    per-frame predictions in [-1, 1].

    The same ``rng`` drives all weight draws, and gate weights consume no
    randomness (zero init), so two models differing only in mode share
    identical encoder, attention, and head weights.  That makes mode
    comparisons at a fixed seed controlled experiments.
    """

    def __init__(self, config: ModelConfig, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.config = config
        self.tcn_audio = TcnParams(config.dim_audio, config.tcn, rng=rng)
        self.tcn_visual = TcnParams(config.dim_visual, config.tcn, rng=rng)
        self.fusion = FusionParams(config.fusion_config(), rng=rng)
        fused_dim = config.dim_audio + config.dim_visual  # the encoders keep each dimension
        self.head = HeadParams(fused_dim, HeadConfig(hidden=tuple(config.head_hidden)), rng=rng)

    def parameters(self) -> dict:
        out = {}
        out.update(self.tcn_audio.parameters(prefix="tcn_audio."))
        out.update(self.tcn_visual.parameters(prefix="tcn_visual."))
        for name, tensor in self.fusion.parameters().items():
            key = f"fusion.{name}"
            tensor.name = key
            out[key] = tensor
        out.update(self.head.parameters(prefix="head."))
        for name, tensor in out.items():
            tensor.name = name
        return out

    def forward(self, windows, dropout_rng=None) -> Tensor:
        """Predict one target channel per frame for a batch of B windows of
        L frames, as one 1 x (B*L) row in window order; dropout only when
        an rng is supplied (training mode).

        The windows go through the network as one B x d x L batch.  Input
        features are zeroed at invalid (padded) frames before they enter
        the network, so those frames cannot influence any gradient even
        through the global attention maps.
        """
        gate = np.stack([win.valid for win in windows])[:, None, :]
        audio = np.stack([win.audio for win in windows]).astype(np.float64) * gate
        visual = np.stack([win.visual for win in windows]).astype(np.float64) * gate
        audio = tcn_forward(Tensor(audio), self.tcn_audio)
        visual = tcn_forward(Tensor(visual), self.tcn_visual)
        state = fusion_forward(ModalityFeatures(audio, visual), self.fusion)
        fused = apply_dropout(state.fused, self.config.dropout, dropout_rng)
        pred = head_forward(fused, self.head)
        return ad.reshape(pred, (1, -1))

    def batch_loss(self, windows, target: str, dropout_rng=None):
        """Pooled masked loss over a batch of clip windows.

        Predictions and labels are concatenated frame-wise; padded frames
        are excluded through the validity mask, contributing zero
        gradient.
        """
        truth = np.concatenate([getattr(win, target) for win in windows]).reshape(1, -1)
        valid = np.concatenate([win.valid for win in windows]).reshape(1, -1)
        return ccc_loss(self.forward(windows, dropout_rng=dropout_rng), truth, valid=valid)

    def snapshot(self) -> dict:
        return {name: p.value.copy() for name, p in self.parameters().items()}

    def load_snapshot(self, stored: dict):
        """Copy ``stored`` into the parameters; names and shapes must match exactly."""
        params = self.parameters()
        if set(stored) != set(params):
            missing = sorted(set(params) - set(stored))
            extra = sorted(set(stored) - set(params))
            raise ParameterError(
                f"saved parameters do not match the model: missing {missing}, extra {extra}"
            )
        for name, p in params.items():
            if stored[name].shape != p.shape:
                raise ParameterError(
                    f"saved parameters do not match the model: {name} is "
                    f"{stored[name].shape} in the file, {p.shape} in the model"
                )
        for name, p in params.items():
            p.value[...] = stored[name]
