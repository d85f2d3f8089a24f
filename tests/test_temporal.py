"""Temporal encoder and prediction head tests."""

import numpy as np
import pytest

from avfusion.autodiff import Tensor, gradcheck
from avfusion.exceptions import ConfigError
from avfusion.model import ModelConfig
from avfusion.temporal import (
    HeadParams,
    TcnParams,
    apply_dropout,
    head_forward,
    receptive_field,
    tcn_forward,
)


def run_tcn(x, params):
    return tcn_forward(Tensor(x), params)


class TestTcnShapes:
    def test_length_preserved(self):
        params = TcnParams(4, 1, 2, rng=np.random.default_rng(1))
        out = run_tcn(np.random.default_rng(2).standard_normal((4, 9)), params)
        assert out.shape == (4, 9)

    def test_zero_input_no_bias(self):
        # biases start at zero, so a fresh encoder maps zeros to zeros
        params = TcnParams(3, 2, 3, rng=np.random.default_rng(5))
        out = run_tcn(np.zeros((3, 10)), params)
        assert np.array_equal(out.value, np.zeros((3, 10)))

    def test_sequence_too_short_raises(self):
        # level 2 at dilation 2 needs 4 frames of padding
        params = TcnParams(3, 2, 3, rng=np.random.default_rng(6))
        with pytest.raises(ConfigError, match="padding"):
            run_tcn(np.zeros((3, 4)), params)

    def test_config_validation(self):
        # the encoder settings are checked by the one model config
        sizes = dict(mode="RJCA", dim_audio=3, dim_visual=3, seq_len=16)
        with pytest.raises(ConfigError, match="tcn_levels"):
            ModelConfig(**sizes, tcn_levels=0)
        with pytest.raises(ConfigError, match="tcn_kernel"):
            ModelConfig(**sizes, tcn_kernel=1)

    def test_receptive_field_formula(self):
        assert receptive_field(levels=1, kernel_size=3) == 3
        assert receptive_field(levels=2, kernel_size=3) == 7
        assert receptive_field(levels=3, kernel_size=2) == 8


class TestCausality:
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_perturbation_probe(self, levels):
        # frames before the perturbed one must be bitwise unchanged
        L = 16
        params = TcnParams(3, levels, 3, rng=np.random.default_rng(7))
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, L))
        base = run_tcn(x, params).value
        for j in range(L):
            bumped = x.copy()
            bumped[:, j] += 1.0
            out = run_tcn(bumped, params).value
            assert np.array_equal(out[:, :j], base[:, :j]), f"frame {j} leaked backward"

    def test_receptive_field_bounds_influence(self):
        # levels=2, kernel=3, base=2 sees at most 7 frames back
        params = TcnParams(3, 2, 3, rng=np.random.default_rng(9))
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 12))
        base = run_tcn(x, params).value
        bumped = x.copy()
        bumped[:, 0] += 1.0
        out = run_tcn(bumped, params).value
        rf = receptive_field(2, 3)
        assert rf == 7
        assert np.array_equal(out[:, rf:], base[:, rf:])
        assert not np.array_equal(out[:, :rf], base[:, :rf])


class TestTcnGradients:
    def test_gradcheck(self):
        params = TcnParams(3, 2, 3, rng=np.random.default_rng(11))
        x = np.random.default_rng(12).standard_normal((3, 8))

        def loss():
            out = run_tcn(x, params)
            return (out * out).sum()

        report = gradcheck(
            loss,
            params.parameters(),
            epsilon=1e-5,
            max_entries_per_param=8,
            rng=np.random.default_rng(13),
        )
        assert report.worst < 1e-5, report.format_lines()


class TestHead:
    def test_zero_weights_zero_output(self):
        params = HeadParams(5, (4,), rng=np.random.default_rng(14))
        for p in params.parameters().values():
            p.value[...] = 0.0
        out = head_forward(Tensor(np.random.default_rng(15).standard_normal((5, 7))), params)
        assert np.array_equal(out.value, np.zeros((1, 7)))

    def test_output_bounded(self):
        params = HeadParams(4, (8, 8), rng=np.random.default_rng(16))
        huge = 1e6 * np.random.default_rng(17).standard_normal((4, 9))
        out = head_forward(Tensor(huge), params)
        assert out.shape == (1, 9)
        assert np.all(np.abs(out.value) <= 1.0)

    def test_head_config_validation(self):
        # the head sizes are checked by the one model config
        with pytest.raises(ConfigError, match="head_hidden"):
            ModelConfig("RJCA", dim_audio=3, dim_visual=3, seq_len=16, head_hidden=(0,))
        with pytest.raises(ConfigError, match="head_hidden"):
            ModelConfig("RJCA", dim_audio=3, dim_visual=3, seq_len=16, head_hidden=(8, -1))

    def test_gradcheck(self):
        params = HeadParams(4, (6,), rng=np.random.default_rng(18))
        x = np.random.default_rng(19).standard_normal((4, 10))

        def loss():
            out = head_forward(Tensor(x), params)
            return (out * out).sum()

        report = gradcheck(
            loss,
            params.parameters(),
            epsilon=1e-5,
            rng=np.random.default_rng(20),
        )
        assert report.worst < 1e-5, report.format_lines()


class TestDropout:
    def test_identity_when_disabled(self):
        x = Tensor(np.random.default_rng(21).standard_normal((3, 5)))
        assert apply_dropout(x, 0.0, np.random.default_rng(0)) is x
        assert apply_dropout(x, 0.5, None) is x

    def test_mask_values_and_rate(self):
        x = Tensor(np.ones((40, 50)))
        out = apply_dropout(x, 0.5, np.random.default_rng(22))
        values = np.unique(out.value)
        assert set(values).issubset({0.0, 2.0})
        dropped = np.mean(out.value == 0.0)
        assert abs(dropped - 0.5) < 0.05

    def test_seeded_mask_reproducible(self):
        x = Tensor(np.random.default_rng(23).standard_normal((6, 6)))
        a = apply_dropout(x, 0.3, np.random.default_rng(99)).value
        b = apply_dropout(x, 0.3, np.random.default_rng(99)).value
        assert np.array_equal(a, b)

    def test_gradient_is_mask(self):
        x = Tensor(np.random.default_rng(24).standard_normal((3, 4)))
        out = apply_dropout(x, 0.5, np.random.default_rng(25))
        out.sum().backward()
        mask = np.where(out.value != 0.0, 2.0, 0.0)
        assert np.array_equal(x.grad, mask)
