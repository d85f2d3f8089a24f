"""The gradcheck suite's stacked probe against the one-value-at-a-time
reference, and the suite against a deliberately broken backward rule."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from avfusion import autodiff as ad
from avfusion import fusion, temporal, verify
from avfusion.exceptions import NumericError
from avfusion.metrics import ccc
from avfusion.model import EmotionModel, ModelConfig


def serial_gradcheck(f, params, probe, **kwargs):
    """The suite's gradcheck with its probe dropped: one call of the
    one-window loss per stacked parameter value."""
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
    dim, length = verify.PROBE_DIM, verify.PROBE_LEN
    config = ModelConfig(
        mode="RJCA", dim_audio=dim, dim_visual=dim, seq_len=length, tcn_levels=2, tcn_kernel=3
    )
    model = EmotionModel(config, rng=rng)
    for p in model.parameters().values():
        p.value[...] = 0.3 * rng.standard_normal(p.shape)
    win = verify._probe_window(rng)
    drop_seed = 11

    def loss():
        return model.batch_loss([win], "valence", dropout_rng=verify.SharedMask(drop_seed))

    return model, win, drop_seed, loss


def test_one_kink_crossing_coordinate_is_skipped():
    model, win, drop_seed, loss = probe_case()
    tcn = model.tcn["audio"]
    bias = tcn.weights["level1.bias"]
    # put one first-level pre-activation 5e-7 above its kink: the -step
    # probe moves it across, and no other coordinate of this bias reaches it
    # frame 2's conv at dilation 1 reads frames 0, 1, 2 with taps 0, 1, 2
    x = win.audio.astype(np.float64) * win.valid
    conv = sum(tcn.weights[f"level1.tap{j}"].value @ x[:, j] for j in range(tcn.kernel_size))
    bias.value[3, 0] = 5e-7 - conv[3]
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
    model.head.weights["layer2.weight"].value[...] = 0.0
    model.head.weights["layer2.bias"].value[...] = 0.0
    win = dataclasses.replace(win, valence=np.zeros_like(win.valence))
    pred = model.forward([win], dropout_rng=verify.SharedMask(drop_seed)).value
    assert not pred[0, win.valid].any()
    assert ccc(pred[0, win.valid], win.valence[win.valid]) == 0.0
    probe = verify.stacked_probe(model, win, drop_seed)
    weight = model.head.weights["layer1.weight"]
    stack = np.repeat(weight.value[None], 6, axis=0)
    for k, (r, c) in enumerate([(0, 0), (1, 2), (3, 1)]):
        stack[k, r, c] += 1e-5
        stack[k + 3, r, c] -= 1e-5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        losses, patterns = probe(weight, stack)
    assert losses.tolist() == [1.0] * 6
    # members k and k+3 land on the same relu branches
    for sign, band in patterns:
        assert np.array_equal(sign[:3], sign[3:]) and np.array_equal(band[:3], band[3:])


def test_nonfinite_member_loss_names_the_parameter():
    model, win, drop_seed, loss = probe_case()
    probe = verify.stacked_probe(model, win, drop_seed)

    def poisoned(p, stack):
        losses, patterns = probe(p, stack)
        losses[-1] = np.nan
        return losses, patterns

    params = {"head.layer1.weight": model.head.weights["layer1.weight"]}
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


def test_suite_catches_an_attention_backward_bug(monkeypatch):
    original = fusion.attention

    def broken_attention(x, wj, w_attn, scale):
        # the right forward, with the node's gradient to x scaled by 1%
        out = original(x, wj, w_attn, scale)
        real_backward = out._backward

        def backward():
            before = 0.0 if x.grad is None else x.grad.copy()
            real_backward()
            x.grad = before + 1.01 * (x.grad - before)

        out._backward = backward
        return out

    monkeypatch.setattr(fusion, "attention", broken_attention)
    result = verify.run_gradcheck_suite()
    assert not result.passed
    names = [name for name, _ in result.failures()]
    pattern = r"\w+/M\d/fusion\.round\d\.(corr|attn)_(audio|visual)"
    assert any(re.fullmatch(pattern, name) for name in names), names


def test_suite_catches_a_gate_backward_bug(monkeypatch):
    original = fusion.gate

    def broken_gate(logits, candidates, temperature):
        # the right forward, with the node's gradient to the logits scaled by 1%
        gates, out = original(logits, candidates, temperature)
        real_backward = out._backward

        def backward():
            before = 0.0 if logits.grad is None else logits.grad.copy()
            real_backward()
            logits.grad = before + 1.01 * (logits.grad - before)

        out._backward = backward
        return gates, out

    monkeypatch.setattr(fusion, "gate", broken_gate)
    result = verify.run_gradcheck_suite()
    assert not result.passed
    names = [name for name, _ in result.failures()]
    pattern = r"\w+/M\d/fusion\.(gate|final_gate|round\d\.iter_gate)_(audio|visual)"
    assert any(re.fullmatch(pattern, name) for name in names), names


def test_suite_catches_a_tcn_tap_backward_bug(monkeypatch):
    original = temporal.tcn_level

    def broken_level(x, taps, bias, dilation):
        # the right forward, with the node's gradient to the taps scaled by 1%
        out = original(x, taps, bias, dilation)
        real_backward = out._backward

        def backward():
            before = [0.0 if tap.grad is None else tap.grad.copy() for tap in taps]
            real_backward()
            for tap, old in zip(taps, before):
                tap.grad = old + 1.01 * (tap.grad - old)

        out._backward = backward
        return out

    monkeypatch.setattr(temporal, "tcn_level", broken_level)
    result = verify.run_gradcheck_suite()
    assert not result.passed
    names = [name for name, _ in result.failures()]
    pattern = r"\w+/M\d/tcn_(audio|visual)\.level\d\.tap\d"
    assert any(re.fullmatch(pattern, name) for name in names), names
