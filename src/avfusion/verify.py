"""Whole-model gradient verification.

Runs central-difference gradient checks through the complete pipeline
(temporal encoders, every fusion mode at several recursion depths,
dropout on the fused features, the prediction head, and the masked
concordance loss) and reports the worst relative error per parameter
matrix.  This is the release gate: everything must come in under the
tolerance with kink coordinates excluded.

Each rung of gradcheck's step ladder probes the open coordinates of one
weight matrix in one forward: the weight holds 2n stacked copies, +step
at the n coordinates in members 0..n-1 and -step in members n..2n-1,
against the probe window repeated 2n times.  Every member's loss,
``1 - ccc`` of its valid frames and the one-window loss bit for bit,
comes from one set of row-wise moments, and members k and n+k compare
ReLU patterns.  Dropout draws one mask and shares it across the stack
(:class:`SharedMask`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import gradcheck, record_kinks
from .metrics import _moments
from .model import EmotionModel, ModelConfig
from .synthdata import LabeledClip
from .training import map_in_order

TOLERANCE = 1e-5

# every mode, recursion depths 1..3 where the mode supports them
DEFAULT_CASES = (
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


def _probe_window(dim_audio, dim_visual, seq_len, rng) -> LabeledClip:
    # last two frames invalid so the masked-loss path is exercised
    valid = np.ones(seq_len, dtype=bool)
    valid[-2:] = False
    return LabeledClip(
        clip_id="probe",
        audio=rng.standard_normal((dim_audio, seq_len)).astype(np.float32),
        visual=rng.standard_normal((dim_visual, seq_len)).astype(np.float32),
        valence=rng.uniform(-0.8, 0.8, size=seq_len),
        arousal=rng.uniform(-0.8, 0.8, size=seq_len),
        corrupt_audio=np.zeros(seq_len, dtype=bool),
        corrupt_visual=np.zeros(seq_len, dtype=bool),
        valid=valid,
    )


class SharedMask:
    """Dropout source that gives every member of a batch one mask:
    ``random(shape)`` draws ``shape[1:]`` and broadcasts it over the
    batch axis, so at B = 1 it is the stream of ``default_rng(seed)``."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, shape):
        return np.broadcast_to(self._rng.random(shape[1:]), shape)


def stacked_probe(model: EmotionModel, win: LabeledClip, drop_seed: int):
    """A gradcheck probe that evaluates all ± perturbations of one
    parameter in one forward of ``win`` repeated along the batch axis.

    All 2n members are scored at once.  One set of row-wise moments over
    the valid frames (:func:`metrics._moments`, the helper ``ccc_flagged``
    and ``ccc_loss`` use) gives every member's loss ``1 - ccc``, bit for
    bit the one-window loss; a member with a zero denominator scores 1.0,
    as ``ccc_flagged`` does.  One comparison per recorded ReLU pattern
    flags the members k whose sign or kink-band state differs from member
    n+k's.
    """
    truth = win.valence[win.valid]

    def probe(p, coords, step):
        n = len(coords)
        rows, cols = np.array(coords).T
        base = p.value
        stack = np.repeat(base[None], 2 * n, axis=0)
        stack[np.arange(n), rows, cols] += step
        stack[np.arange(n, 2 * n), rows, cols] -= step
        p.value = stack
        try:
            with record_kinks([]) as patterns:
                pred = model.forward([win] * (2 * n), dropout_rng=SharedMask(drop_seed))
        finally:
            p.value = base
        _, cov, denom = _moments(pred.value.reshape(2 * n, -1)[:, win.valid], truth)
        ccc = np.divide(2.0 * cov, denom, out=np.zeros_like(denom), where=denom != 0.0)
        losses = (1.0 - ccc).tolist()
        crossed = np.zeros(n, dtype=bool)
        for sign, band in patterns:
            differ = (sign[:n] != sign[n:]) | (band[:n] != band[n:])
            crossed |= differ.reshape(n, -1).any(axis=1)
        return losses[:n], losses[n:], crossed.tolist()

    return probe


def run_gradcheck_suite(
    dim_audio=8,
    dim_visual=8,
    seq_len=6,
    cases=DEFAULT_CASES,
    samples_per_param=6,
    seed=0,
    workers=1,
) -> SuiteResult:
    """Gradient-check the full training loss for every fusion mode.

    ``samples_per_param`` caps the probed coordinates per weight matrix
    (sampled reproducibly) to keep the suite fast; every matrix still
    appears in the report exactly once per case.  The cases run in up to
    ``workers`` processes and are reported in case order.
    """

    def check_case(case_index):
        mode, depth = cases[case_index]
        rng = np.random.default_rng(np.random.SeedSequence([seed, case_index]))
        config = ModelConfig(
            mode=mode,
            dim_audio=dim_audio,
            dim_visual=dim_visual,
            seq_len=seq_len,
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
        win = _probe_window(dim_audio, dim_visual, seq_len, rng)
        drop_seed = int(rng.integers(0, 2**32))

        def loss():
            return model.batch_loss([win], target="valence", dropout_rng=SharedMask(drop_seed))

        return gradcheck(
            loss,
            model.parameters(),
            epsilon=1e-5,
            max_entries_per_param=samples_per_param,
            rng=np.random.default_rng(np.random.SeedSequence([seed, case_index, 1])),
            probe=stacked_probe(model, win, drop_seed),
        )

    result = SuiteResult()
    for (mode, depth), report in zip(cases, map_in_order(check_case, len(cases), workers)):
        for name, err in report.per_param.items():
            result.entries.append((f"{mode}/M{depth}/{name}", err))
        result.checked += report.checked
        result.skipped_kinks += report.skipped_kinks
    return result
