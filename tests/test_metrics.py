"""CCC metric and loss: closed-form oracles, properties, gradients."""

import warnings

import numpy as np
import pytest

from avfusion import autodiff as ad
from avfusion import metrics
from avfusion.exceptions import DimensionError


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestCccValues:
    def test_self_agreement(self, rng):
        y = rng.standard_normal(50)
        assert abs(metrics.ccc(y, y) - 1.0) < 1e-12

    def test_affine_self_agreement(self, rng):
        y = 3.0 * rng.standard_normal(40) + 0.7
        assert abs(metrics.ccc(y, y) - 1.0) < 1e-12

    def test_zero_mean_anticorrelation(self, rng):
        # cov(y, -y) = -var, means 0: ccc = -2 var / 2 var = -1.
        y = rng.standard_normal(64)
        y = y - y.mean()
        assert abs(metrics.ccc(y, -y) + 1.0) < 1e-12

    def test_constant_prediction_scores_zero(self, rng):
        truth = rng.standard_normal(30)
        # covariance is zero up to roundoff
        assert abs(metrics.ccc(np.full(30, 0.3), truth)) < 1e-15

    def test_both_constant_is_degenerate(self):
        # a zero denominator scores 0.0 without dividing 0 by 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert metrics.ccc(np.full(10, 1.5), np.full(10, 1.5)) == 0.0

    def test_shift_closed_form(self, rng):
        # ccc(y + c, y) = 2 var / (2 var + c^2)
        y = rng.standard_normal(200)
        var = y.var()
        for c in (0.1, 0.5, 1.0):
            expect = 2 * var / (2 * var + c * c)
            assert abs(metrics.ccc(y + c, y) - expect) < 1e-10

    def test_symmetry(self, rng):
        a = rng.standard_normal(25)
        b = rng.standard_normal(25)
        assert metrics.ccc(a, b) == pytest.approx(metrics.ccc(b, a), abs=1e-15)

    def test_bounded_property(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            a = rng.uniform(-3, 3, n)
            b = rng.uniform(-3, 3, n)
            assert abs(metrics.ccc(a, b)) <= 1.0 + 1e-12

    def test_length_checks(self):
        with pytest.raises(DimensionError):
            metrics.ccc([1.0, 2.0], [1.0])
        with pytest.raises(DimensionError):
            metrics.ccc([1.0], [1.0])


class TestCccLoss:
    def test_perfect_prediction_zero_loss(self, rng):
        y = rng.standard_normal(20)
        loss = metrics.ccc_loss(ad.Tensor(y.reshape(1, -1)), y)
        assert abs(loss.item()) < 1e-12

    def test_anticorrelated_single_target_loss_two(self, rng):
        y = rng.standard_normal(32)
        y = y - y.mean()
        loss = metrics.ccc_loss(ad.Tensor(-y.reshape(1, -1)), y)
        assert abs(loss.item() - 2.0) < 1e-12

    def test_gradcheck(self, rng):
        truth = rng.standard_normal(12)
        pred = ad.Tensor(rng.standard_normal((1, 12)))
        report = ad.gradcheck(lambda: metrics.ccc_loss(pred, truth), {"pred": pred})
        assert report.worst < 1e-6

    def test_gradcheck_with_mask(self, rng):
        truth = rng.standard_normal(15)
        valid = (rng.uniform(size=15) > 0.3).astype(float)
        valid[:4] = 1.0  # ensure enough valid frames
        pred = ad.Tensor(rng.standard_normal((1, 15)))
        report = ad.gradcheck(
            lambda: metrics.ccc_loss(pred, truth, valid=valid), {"pred": pred}
        )
        assert report.worst < 1e-6

    def test_masked_frames_get_zero_gradient(self, rng):
        truth = rng.standard_normal(10)
        valid = np.ones(10)
        valid[3] = 0.0
        valid[7] = 0.0
        pred = ad.Tensor(rng.standard_normal((1, 10)))
        loss = metrics.ccc_loss(pred, truth, valid=valid)
        loss.backward()
        assert pred.grad[0, 3] == 0.0
        assert pred.grad[0, 7] == 0.0
        assert np.any(pred.grad != 0.0)

    def test_masked_frames_do_not_affect_value(self, rng):
        truth = rng.standard_normal(10)
        valid = np.ones(10)
        valid[5] = 0.0
        base = rng.standard_normal((1, 10))
        bumped = base.copy()
        bumped[0, 5] += 100.0
        a = metrics.ccc_loss(ad.Tensor(base), truth, valid=valid).item()
        b = metrics.ccc_loss(ad.Tensor(bumped), truth, valid=valid).item()
        assert a == b

    def test_degenerate_flag_propagates(self):
        # both inputs constant: ccc is 0 and no frame gets a gradient
        pred = ad.Tensor(np.zeros((1, 8)))
        truth = np.zeros(8)
        assert metrics.ccc(pred.value, truth) == 0.0
        loss = metrics.ccc_loss(pred, truth)
        assert loss.item() == 1.0  # 1 - 0
        loss.backward()
        np.testing.assert_array_equal(pred.grad, np.zeros((1, 8)))

    def test_value_is_one_minus_eval_score_bitwise(self, rng):
        # the loss and the evaluation score share one moment helper, so the
        # training objective and the reported score cannot drift apart
        for n in (2, 7, 64, 300):
            truth = rng.uniform(-1, 1, n)
            pred = rng.uniform(-1, 1, (1, n))
            valid = rng.uniform(size=n) > 0.25
            valid[:2] = True
            loss = metrics.ccc_loss(ad.Tensor(pred), truth, valid=valid).item()
            score = metrics.ccc(pred[0, valid], truth[valid])
            assert loss == 1.0 - score

    def test_mask_and_shape_checked(self):
        pred = ad.Tensor(np.zeros((1, 4)))
        with pytest.raises(DimensionError, match="2 valid frames"):
            metrics.ccc_loss(pred, np.arange(4.0), valid=[1, 0, 0, 0])
        with pytest.raises(DimensionError, match="mask length"):
            metrics.ccc_loss(pred, np.arange(4.0), valid=[1, 1, 1])
        with pytest.raises(DimensionError, match="4 targets"):
            metrics.ccc_loss(ad.Tensor(np.zeros((2, 2))), np.arange(4.0))

