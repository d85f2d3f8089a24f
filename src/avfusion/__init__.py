"""Audio-visual fusion library: recursive joint cross-attention with gating.

Implements the JCA / RJCA / GRJCA / HGRJCA fusion family for two-modality
continuous valence/arousal regression, together with a concordance-based
loss, dilated causal temporal encoders, a seeded synthetic benchmark with
controllable modality corruption, and a deterministic training loop.
Built on a small self-verifying reverse-mode differentiation core.
"""

__version__ = "0.1.0"

from .autodiff import Tensor, gradcheck
from .exceptions import (
    ConfigError,
    DimensionError,
    FormatError,
    NumericError,
    ParameterError,
)
