"""The gradcheck suite's stacked probe against the one-coordinate-at-a-time
reference, and the suite against a deliberately broken backward rule."""

import dataclasses
import warnings

import numpy as np
import pytest

from avfusion import autodiff as ad
from avfusion import verify
from avfusion.exceptions import NumericError
from avfusion.metrics import ccc_flagged
from avfusion.model import EmotionModel, ModelConfig


def serial_gradcheck(f, params, probe, **kwargs):
    """The suite's gradcheck with its probe dropped: two calls of the
    one-window loss per coordinate."""
    return ad.gradcheck(f, params, **kwargs)


def test_stacked_suite_equals_serial_bitwise(monkeypatch):
    stacked = verify.run_gradcheck_suite()
    monkeypatch.setattr(verify, "gradcheck", serial_gradcheck)
    serial = verify.run_gradcheck_suite()
    assert len(stacked.entries) == 357
    assert stacked.entries == serial.entries  # errors compared with ==
    assert (stacked.checked, stacked.skipped_kinks) == (serial.checked, serial.skipped_kinks)
    assert stacked.passed


def test_shared_mask_is_the_one_window_stream():
    # at B = 1 the suite's loss draws the mask the plain generator draws
    shared = verify.SharedMask(7)
    plain = np.random.default_rng(7)
    for shape in [(1, 16, 6), (1, 16, 6), (1, 3, 5)]:
        assert np.array_equal(shared.random(shape), plain.random(shape))
    stack = verify.SharedMask(7).random((4, 16, 6))
    assert all(np.array_equal(member, stack[0]) for member in stack)


def test_parameters_are_restored_in_place(monkeypatch):
    def spying_gradcheck(f, params, **kwargs):
        before = {name: (p.value, p.value.tobytes()) for name, p in params.items()}
        report = ad.gradcheck(f, params, **kwargs)
        for name, p in params.items():
            array, data = before[name]
            assert p.value is array, name
            assert p.value.tobytes() == data, name
        return report

    monkeypatch.setattr(verify, "gradcheck", spying_gradcheck)
    assert verify.run_gradcheck_suite().checked == 2092


def test_a_suite_that_checked_nothing_fails():
    result = verify.SuiteResult(entries=[("JCA/M1/w", 0.0)], checked=0, skipped_kinks=6)
    assert not result.passed
    assert result.format_lines()[-1].startswith("FAIL: ")


def probe_case():
    """An RJCA model at a generic point, a probe window like the suite's,
    and its one-window loss."""
    rng = np.random.default_rng(3)
    config = ModelConfig(
        mode="RJCA", dim_audio=8, dim_visual=8, seq_len=6, tcn_levels=2, tcn_kernel=3
    )
    model = EmotionModel(config, rng=rng)
    for p in model.parameters().values():
        p.value[...] = 0.3 * rng.standard_normal(p.shape)
    win = verify._probe_window(8, 8, 6, rng)
    drop_seed = 11

    def loss():
        return model.batch_loss([win], "valence", dropout_rng=verify.SharedMask(drop_seed))

    return model, win, drop_seed, loss


def test_one_kink_crossing_coordinate_is_skipped():
    model, win, drop_seed, loss = probe_case()
    bias = model.tcn_audio.biases[0]
    # put one first-level pre-activation 5e-7 above its kink: every step of
    # the ladder moves it across, and no other coordinate of this bias
    # reaches it
    x = ad.Tensor(np.stack([win.audio]).astype(np.float64) * win.valid)
    conv = ad.causal_conv(x, model.tcn_audio.taps[0], 1).value
    bias.value[3, 0] = 5e-7 - conv[0, 3, 2]
    params = {"bias": bias}

    stacked = ad.gradcheck(loss, params, probe=verify.stacked_probe(model, win, drop_seed))
    serial = ad.gradcheck(loss, params)
    assert (stacked.skipped_kinks, stacked.checked) == (1, 7)
    assert (serial.skipped_kinks, serial.checked) == (1, 7)
    assert stacked.per_param == serial.per_param
    assert stacked.worst < verify.TOLERANCE


def test_constant_prediction_member_scores_one_without_warning():
    model, win, drop_seed, loss = probe_case()
    # a zero output layer and zero targets: every member predicts exactly 0
    # against constant truth, so its CCC denominator is 0
    model.head.weights[-1].value[...] = 0.0
    model.head.biases[-1].value[...] = 0.0
    win = dataclasses.replace(win, valence=np.zeros_like(win.valence))
    pred = model.forward([win], dropout_rng=verify.SharedMask(drop_seed)).value
    assert ccc_flagged(pred[0, win.valid], win.valence[win.valid]) == (0.0, True)
    probe = verify.stacked_probe(model, win, drop_seed)
    coords = [(0, 0), (1, 2), (3, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hi, lo, crossed = probe(model.head.weights[0], coords, 1e-5)
    assert hi == lo == [1.0, 1.0, 1.0]
    assert crossed == [False, False, False]


def test_nonfinite_member_loss_names_the_parameter():
    model, win, drop_seed, loss = probe_case()
    probe = verify.stacked_probe(model, win, drop_seed)

    def poisoned(p, coords, step):
        hi, lo, crossed = probe(p, coords, step)
        lo[-1] = np.nan
        return hi, lo, crossed

    params = {"head.layer1.weight": model.head.weights[0]}
    with pytest.raises(NumericError, match="head.layer1.weight"):
        ad.gradcheck(loss, params, max_entries_per_param=4, probe=poisoned)


def test_suite_catches_a_typo_sized_backward_bug(monkeypatch):
    original = ad.tanh

    def broken_tanh(x):
        # the right forward, with the backward rule scaled by 1%
        out = original(x)
        real_backward = out._backward

        def backward():
            real_backward()
            x.grad *= 1.01

        out._backward = backward
        return out

    monkeypatch.setattr(ad, "tanh", broken_tanh)
    result = verify.run_gradcheck_suite()
    assert not result.passed
    assert result.failures()
