"""End-to-end regression model: per-modality temporal encoders, fusion,
dropout on the fused features, and the frame-wise prediction head.

The model loops over :data:`~avfusion.fusion.MODALITIES` wherever the
two streams are handled alike: ``EmotionModel.tcn`` holds one encoder
per modality, and the fusion stack keeps its own per-modality weights.

Each part keeps a ``weights`` dict (local name -> leaf tensor), and
``EmotionModel.weights``, built once, is their union with each name
prefixed by its part (``tcn_audio.``, ``tcn_visual.``, ``fusion.``, ``head.``).

:class:`ModelSettings` holds the model settings and their checks once.
The training config extends it, so they are checked when the config file
is parsed; :class:`ModelConfig` extends it with the feature dims and the
window length, and every part of the network reads its sizes from that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ConfigError, ParameterError
from .fusion import MODALITIES, MODES, FusionParams, fusion_forward
from .metrics import ccc_loss
from .synthdata import check_fits, check_ranges
from .temporal import HeadParams, TcnParams, apply_dropout, head_forward, tcn_forward


@dataclass
class ModelSettings:
    """The model settings a training config shares with :class:`ModelConfig`.

    ``depth`` is the number of fusion recursion rounds (JCA requires 1).
    ``temperature`` scales the gate softmax; smaller approaches hard
    selection.  ``joint_projection`` toggles the learnable d x d map on
    the concatenated joint representation.  Each temporal encoder has
    ``tcn_levels`` dilated convolutions of ``tcn_kernel`` taps; the head
    has one relu layer per ``head_hidden`` entry.  ``dropout`` is the
    rate applied to the fused features while training.
    """

    mode: str = "RJCA"
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
        check_ranges(self, "[1, inf)", "depth", "tcn_levels", "head_hidden")
        if self.mode == "JCA" and self.depth != 1:
            raise ConfigError(f"JCA is single-round; depth must be 1, got {self.depth}")
        check_ranges(self, "(0, inf)", "temperature")
        check_ranges(self, "[2, inf)", "tcn_kernel")
        check_ranges(self, "[0, 1)", "dropout")


@dataclass(kw_only=True)
class ModelConfig(ModelSettings):
    """Shape and behavior of one model: the shared settings, the feature
    rows per modality, and ``seq_len``, the window length the L x L
    attention weights are sized for."""

    dim_audio: int
    dim_visual: int
    seq_len: int

    def __post_init__(self):
        super().__post_init__()
        check_ranges(self, "[1, inf)", "dim_audio", "dim_visual", "seq_len")
        # the L x L attention weights; seq_len is the training config's window_len
        check_fits(window_len=self.seq_len, seq_len=self.seq_len)

    @property
    def dims(self):
        """Feature rows per modality."""
        return {m: getattr(self, f"dim_{m}") for m in MODALITIES}

    @property
    def dim_joint(self):
        return sum(self.dims.values())


class EmotionModel:
    """Owns every parameter tensor (an encoder per modality in ``tcn``,
    the fusion stack in ``fusion``, the head in ``head``) and lists them
    once in ``weights``; forward maps a batch of clip windows to per-frame
    predictions in [-1, 1].

    The same ``rng`` drives all weight draws, and gate weights consume no
    randomness (zero init), so models differing only in mode start from
    identical weights at a fixed seed.  The gate is not their only
    difference: RJCA keeps only its last round, while GRJCA and HGRJCA
    pool the whole trajectory.
    """

    def __init__(self, config: ModelConfig, rng):
        self.config = config
        self.tcn = {m: TcnParams(config.dims[m], config.tcn_levels, config.tcn_kernel, rng=rng) for m in MODALITIES}
        self.fusion = FusionParams(config, rng=rng)
        # the encoders keep each dimension, so the fused features have dim_joint rows
        self.head = HeadParams(config.dim_joint, config.head_hidden, rng=rng)
        parts = {f"tcn_{m}": self.tcn[m] for m in MODALITIES} | {"fusion": self.fusion, "head": self.head}
        self.weights = {f"{part}.{name}": t for part, params in parts.items() for name, t in params.weights.items()}

    def parameters(self) -> dict:
        """``weights``: the encoders', the fusion stack's, then the head's."""
        return self.weights

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
        encoded = []
        for m in MODALITIES:
            feats = np.stack([getattr(win, m) for win in windows]).astype(np.float64) * gate
            encoded.append(tcn_forward(Tensor(feats), self.tcn[m]))
        state = fusion_forward(*encoded, self.fusion)
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
