"""Why train on concordance instead of plain correlation.

Pearson correlation ignores calibration: a prediction can be perfectly
correlated with the target yet systematically shifted or scaled.  The
concordance coefficient folds that calibration error into the score, and
its (1 - ccc) loss produces gradients that fix it.
"""

import numpy as np

import avfusion.autodiff as ad
from avfusion.metrics import ccc, ccc_loss


def pearson(a, b):
    return float(np.corrcoef(a, b)[0, 1])


def main():
    rng = np.random.default_rng(3)
    truth = np.cumsum(rng.standard_normal(400)) * 0.05
    truth -= truth.mean()

    print(f"{'prediction':<28}{'pearson':>10}{'ccc':>10}")
    cases = [
        ("perfect", truth.copy()),
        ("shifted by +0.5", truth + 0.5),
        ("scaled by 2", truth * 2.0),
        ("shifted and noisy", truth + 0.3 + 0.1 * rng.standard_normal(truth.size)),
        ("anti-correlated", -truth),
    ]
    for label, pred in cases:
        print(f"{label:<28}{pearson(pred, truth):>10.4f}{ccc(pred, truth):>10.4f}")
    print()

    # closed form for a pure mean shift: ccc = 2 var / (2 var + shift^2)
    var = truth.var()
    for shift in (0.1, 0.5, 1.0):
        measured = ccc(truth + shift, truth)
        predicted = 2.0 * var / (2.0 * var + shift * shift)
        print(f"shift {shift}: measured {measured:.6f}, closed form {predicted:.6f}")
    print()

    # gradient descent on (1 - ccc) removes a calibration error that a
    # correlation loss would never see
    pred = ad.Tensor((truth * 2.0 + 0.5).reshape(1, -1))
    target = truth.reshape(1, -1)
    for step in range(201):
        loss = ccc_loss(pred, target)
        if step % 50 == 0:
            print(
                f"step {step:>3}: loss {loss.value[0, 0]:.4f}, "
                f"pred mean {pred.value.mean():+.3f}, pred std {pred.value.std():.3f}"
            )
        loss.backward()
        pred.value -= 2.0 * pred.grad
    print(f"target mean {target.mean():+.3f}, target std {target.std():.3f}")


if __name__ == "__main__":
    main()
