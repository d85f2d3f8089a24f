"""Whole-model gradient verification.

Runs central-difference gradient checks through the complete pipeline
(temporal encoders, every fusion mode at several recursion depths,
dropout on the fused features, the prediction head, and the masked
concordance loss) and reports the worst relative error per parameter
matrix.  This is the release gate: everything must come in under the
tolerance with kink coordinates excluded.

Gradcheck moves the n sampled coordinates of one weight matrix in a
stack of 2n values (+step in members 0..n-1, -step in members n..2n-1)
and itself compares the ReLU patterns of members k and n+k.  The
suite's probe evaluates the stack in one forward: the weight holds the
stack, against the probe window repeated 2n times.
Every member's loss, ``1 - ccc`` of its valid frames and the one-window
loss bit for bit, comes from one set of row-wise moments.  Dropout
draws one mask and shares it across the stack (:class:`SharedMask`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import gradcheck, record_kinks
from .fusion import MODALITIES
from .metrics import _moments
from .model import EmotionModel, ModelConfig
from .synthdata import LabeledClip
from .training import map_in_order

TOLERANCE = 1e-5
SEED = 0
PROBE_DIM = 8  # feature rows of each modality
PROBE_LEN = 6  # frames of the probe window
SAMPLES_PER_PARAM = 6  # probed coordinates per weight matrix, sampled reproducibly

# every mode, recursion depths 1..3 where the mode supports them
CASES = (
    ("JCA", 1),
    ("RJCA", 1),
    ("RJCA", 2),
    ("RJCA", 3),
    ("GRJCA", 1),
    ("GRJCA", 2),
    ("GRJCA", 3),
    ("HGRJCA", 1),
    ("HGRJCA", 2),
    ("HGRJCA", 3),
)


@dataclass
class SuiteResult:
    entries: list = field(default_factory=list)  # (case/param name, rel err)
    checked: int = 0
    skipped_kinks: int = 0

    @property
    def worst(self):
        return max((err for _, err in self.entries), default=0.0)

    def worst_entry(self):
        if not self.entries:
            return ("", 0.0)
        return max(self.entries, key=lambda item: item[1])

    @property
    def passed(self):
        # a suite whose every probe was a kink skip has verified nothing
        return self.checked > 0 and self.worst < TOLERANCE

    def failures(self):
        return [(name, err) for name, err in self.entries if err >= TOLERANCE]

    def format_lines(self):
        lines = []
        for name, err in self.entries:
            status = "ok  " if err < TOLERANCE else "FAIL"
            lines.append(f"{status} {name} {err:.3e}")
        name, err = self.worst_entry()
        lines.append(
            f"{'PASS' if self.passed else 'FAIL'}: worst relative error {err:.3e} "
            f"({name}) over {self.checked} coordinates, {self.skipped_kinks} kink skips"
        )
        return lines


def _probe_window(rng) -> LabeledClip:
    fields = {m: rng.standard_normal((PROBE_DIM, PROBE_LEN)).astype(np.float32) for m in MODALITIES}
    fields["valence"] = rng.uniform(-0.8, 0.8, size=PROBE_LEN)
    fields["arousal"] = rng.uniform(-0.8, 0.8, size=PROBE_LEN)
    fields.update((f"corrupt_{m}", np.zeros(PROBE_LEN, dtype=bool)) for m in MODALITIES)
    # last two frames invalid so the masked-loss path is exercised
    fields["valid"] = np.arange(PROBE_LEN) < PROBE_LEN - 2
    return LabeledClip(clip_id="probe", **fields)


class SharedMask:
    """Dropout source that gives every member of a batch one mask:
    ``random(shape)`` draws ``shape[1:]`` and broadcasts it over the
    batch axis, so at B = 1 it is the stream of ``default_rng(seed)``."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, shape):
        return np.broadcast_to(self._rng.random(shape[1:]), shape)


def stacked_probe(model: EmotionModel, win: LabeledClip, drop_seed: int):
    """A gradcheck probe that evaluates every stacked value of one
    parameter in one forward of ``win`` repeated along the batch axis.

    One set of row-wise moments over the valid frames
    (:func:`metrics._moments`, the helper ``ccc`` and ``ccc_loss`` use)
    gives every member's loss ``1 - ccc``, bit for bit the one-window
    loss; a member with a zero denominator scores 1.0, as ``ccc_loss``
    does.
    """
    truth = win.valence[win.valid]

    def probe(p, stack):
        base = p.value
        p.value = stack
        try:
            with record_kinks() as patterns:
                pred = model.forward([win] * len(stack), dropout_rng=SharedMask(drop_seed))
        finally:
            p.value = base
        *_, ccc = _moments(pred.value.reshape(len(stack), -1)[:, win.valid], truth)
        return 1.0 - ccc, patterns

    return probe


def run_gradcheck_suite(workers=1) -> SuiteResult:
    """Gradient-check the full training loss for every fusion mode.

    At most ``SAMPLES_PER_PARAM`` coordinates are probed per weight matrix
    to keep the suite fast; every matrix still appears in the report
    exactly once per case.  The cases run in up to ``workers`` processes
    and are reported in case order.
    """

    def check_case(case_index):
        mode, depth = CASES[case_index]
        rng = np.random.default_rng(np.random.SeedSequence([SEED, case_index]))
        config = ModelConfig(
            mode=mode,
            dim_audio=PROBE_DIM,
            dim_visual=PROBE_DIM,
            seq_len=PROBE_LEN,
            depth=depth,
            tcn_levels=2,
            tcn_kernel=3,
            dropout=0.5,
        )
        model = EmotionModel(config, rng=rng)
        # default init zeroes gates and fusion output projections; probe a
        # generic point instead so no gradient path is trivially zero
        for p in model.parameters().values():
            p.value[...] = 0.3 * rng.standard_normal(p.shape)
        win = _probe_window(rng)
        drop_seed = int(rng.integers(0, 2**32))

        def loss():
            return model.batch_loss([win], target="valence", dropout_rng=SharedMask(drop_seed))

        return gradcheck(
            loss,
            model.parameters(),
            max_entries_per_param=SAMPLES_PER_PARAM,
            rng=np.random.default_rng(np.random.SeedSequence([SEED, case_index, 1])),
            probe=stacked_probe(model, win, drop_seed),
        )

    result = SuiteResult()
    for (mode, depth), report in zip(CASES, map_in_order(check_case, len(CASES), workers)):
        for name, err in report.per_param.items():
            result.entries.append((f"{mode}/M{depth}/{name}", err))
        result.checked += report.checked
        result.skipped_kinks += report.skipped_kinks
    return result
