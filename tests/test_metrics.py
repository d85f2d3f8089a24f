"""CCC metric and loss: closed-form oracles, properties, gradients."""

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
        value, degenerate = metrics.ccc_flagged(np.full(30, 0.3), truth)
        assert abs(value) < 1e-15  # covariance is zero up to roundoff
        assert not degenerate

    def test_both_constant_is_degenerate(self):
        value, degenerate = metrics.ccc_flagged(np.full(10, 1.5), np.full(10, 1.5))
        assert value == 0.0
        assert degenerate

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
        pred = ad.Tensor(rng.standard_normal((1, 12)), name="pred")
        report = ad.gradcheck(lambda: metrics.ccc_loss(pred, truth), {"pred": pred})
        assert report.worst < 1e-6

    def test_gradcheck_with_mask(self, rng):
        truth = rng.standard_normal(15)
        valid = (rng.uniform(size=15) > 0.3).astype(float)
        valid[:4] = 1.0  # ensure enough valid frames
        pred = ad.Tensor(rng.standard_normal((1, 15)), name="pred")
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
        pred = ad.Tensor(np.zeros((1, 8)))
        truth = np.zeros(8)
        loss, degenerate = metrics.ccc_loss(pred, truth, return_flags=True)
        assert degenerate is True
        assert loss.item() == 1.0  # 1 - 0


class TestEvalReport:
    def test_csv_row_shape(self):
        report = metrics.EvalReport(ccc_valence=0.5, ccc_arousal=None, fold=2)
        row = report.csv_row("RJCA", 3, 0.1)
        assert row[0] == "2"
        assert row[1] == "RJCA"
        assert row[4] == repr(0.5)
        assert row[5] == ""

    def test_csv_serialization_header(self):
        text = metrics.EvalReport.rows_to_csv([])
        assert text.splitlines()[0] == "fold,mode,M,T,ccc_v,ccc_a"
