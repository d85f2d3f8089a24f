"""End-to-end regression model: per-modality temporal encoders, fusion,
dropout on the fused features, and the frame-wise prediction head.

:class:`ModelConfig` is the one record of model settings.  Every part of
the network reads its sizes from it, and its checks run when it is
built, so a training config that copies its settings into one is
validated when the config file is parsed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ConfigError, ParameterError
from .fusion import MODES, FusionParams, ModalityFeatures, fusion_forward
from .metrics import ccc_loss
from .temporal import HeadParams, TcnParams, apply_dropout, head_forward, tcn_forward


@dataclass
class ModelConfig:
    """Shape and behavior of one model.

    ``seq_len`` is the window length the L x L attention weights are
    sized for.  ``depth`` is the number of fusion recursion rounds (JCA
    requires 1).  ``temperature`` scales the gate softmax; smaller
    approaches hard selection.  ``joint_projection`` toggles the
    learnable d x d map on the concatenated joint representation.  Each
    temporal encoder has ``tcn_levels`` dilated convolutions of
    ``tcn_kernel`` taps; the head has one relu layer per ``head_hidden``
    entry.  ``dropout`` is the rate applied to the fused features while
    training.
    """

    mode: str
    dim_audio: int
    dim_visual: int
    seq_len: int
    depth: int = 1
    temperature: float = 0.1
    joint_projection: bool = True
    tcn_levels: int = 2
    tcn_kernel: int = 3
    head_hidden: tuple = (16,)
    dropout: float = 0.5

    def __post_init__(self):
        self.head_hidden = tuple(self.head_hidden)
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.mode == "JCA" and self.depth != 1:
            raise ConfigError(f"JCA is single-round; depth must be 1, got {self.depth}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        for name in ("dim_audio", "dim_visual", "tcn_levels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seq_len < 1:
            raise ConfigError(f"seq_len (the window_len) must be >= 1, got {self.seq_len}")
        if self.tcn_kernel < 2:
            raise ConfigError(f"tcn_kernel must be >= 2, got {self.tcn_kernel}")
        if any(n < 1 for n in self.head_hidden):
            raise ConfigError(f"head_hidden sizes must be >= 1, got {list(self.head_hidden)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def dim_joint(self):
        return self.dim_audio + self.dim_visual


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
        self.tcn_audio = TcnParams(config.dim_audio, config.tcn_levels, config.tcn_kernel, rng=rng)
        self.tcn_visual = TcnParams(config.dim_visual, config.tcn_levels, config.tcn_kernel, rng=rng)
        self.fusion = FusionParams(config, rng=rng)
        # the encoders keep each dimension, so the fused features have dim_joint rows
        self.head = HeadParams(config.dim_joint, config.head_hidden, rng=rng)

    def parameters(self) -> dict:
        out = {}
        out.update(self.tcn_audio.parameters(prefix="tcn_audio."))
        out.update(self.tcn_visual.parameters(prefix="tcn_visual."))
        out.update(self.fusion.parameters(prefix="fusion."))
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
