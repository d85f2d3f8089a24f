"""Span recorder and the wrappers that time avfusion's layers from outside.

A traced run installs wrappers at the attributes avfusion's callers look
up (``avfusion.model.fusion_forward``, ``avfusion.training.adam_step``,
``avfusion.autodiff.Tensor.backward``, ...); nothing under ``src/`` changes.
Each wrapped call records one span: name, start, end, parent span and run
id.  Spans stay in memory until the benchmark writes them out.

Backward time is charged to the layer that created each node.  While
tracing, every ``_backward`` closure a node receives is wrapped with a
timer keyed by the innermost span open when the node was made.  After a
backward pass the time charged to each layer becomes one child span of
the ``autodiff.backward`` span, named ``<layer>.bwd``.  These children are
packed end to end from the parent's start: their lengths are measured,
their positions are not.  The backward span's self time is then the walk:
the topological sort and the ``zeros_like`` grad buffers.

Every ``_s`` metric is self time (span duration minus the part of it that
child spans cover), summed over the traced iterations and divided by their
number.  Counts are per traced iteration too.
"""

from __future__ import annotations

import gzip
import inspect
import json
import statistics
import threading
import time
from collections import Counter, defaultdict

from avfusion import autodiff, cli, fusion, model, training, verify
from avfusion.synthdata import HEADER

# layers whose forward self time, backward time and node count are reported
LAYERS = (
    "temporal.tcn",
    "temporal.head",
    "fusion.round1",
    "fusion.round2",
    "fusion.round3",
    "fusion.gate",
    "metrics.ccc_loss",
)

# metric -> span whose self time it reports
PHASES = {
    "autodiff.backward.walk_s": "autodiff.backward",
    "training.adam_step_s": "training.adam_step",
    "training.validate_s": "training.validate",
    "training.evaluate_s": "training.evaluate",
    "synthdata.generate_s": "synthdata.generate",
    "synthdata.write_features_s": "synthdata.write_features",
    "synthdata.read_features_s": "synthdata.read_features",
    "synthdata.window_s": "synthdata.window",
    "cli.load_params_s": "cli.load_params",
    "cli.save_params_s": "cli.save_params",
    "cli.write_csv_s": "cli.write_csv",
}

# commands whose untraced wall time a traced run reports
COMMANDS = ("gen", "train", "eval", "gradcheck")

COUNTS = (
    "synthdata.bytes_written",
    "synthdata.bytes_read",
    "verify.loss_evals",
    "verify.coords_checked",
    "verify.kink_skips",
)


def _per_layer():
    out = [
        ("autodiff.backward.walk_s", "s", "lower"),
        ("autodiff.nodes_per_window", "count", "lower"),
    ]
    for layer in LAYERS:
        out += [
            (f"{layer}.fwd_s", "s", "lower"),
            (f"{layer}.bwd_s", "s", "lower"),
            (f"{layer}.nodes", "count", "lower"),
        ]
    out += [(name, "s", "lower") for name in PHASES if name != "autodiff.backward.walk_s"]
    out += [
        ("training.step_ms.p50", "ms", "lower"),
        ("training.step_ms.p95", "ms", "lower"),
        ("training.step_ms.samples", "count", "higher"),
        ("synthdata.bytes_written", "B", "lower"),
        ("synthdata.bytes_read", "B", "lower"),
        ("verify.loss_evals", "count", "lower"),
        ("verify.coords_checked", "count", "higher"),
        ("verify.kink_skips", "count", "lower"),
        ("verify.useful_ratio", "ratio", "higher"),
        ("trace.uncovered_share", "ratio", "lower"),
        *((f"cli.{command}.wall_s", "s", "lower") for command in COMMANDS),
        ("trace.overhead_per_s", "1/s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return tuple(out)


# (name, unit, better) of every metric a traced run prints
PER_LAYER = _per_layer()


class _ThreadState:
    __slots__ = ("stack", "nodes", "counts", "bwd", "step_start")

    def __init__(self):
        self.stack = []  # open span records, innermost last
        self.nodes = Counter()  # layer -> Tensor._make calls
        self.counts = Counter()
        self.bwd = None  # layer -> seconds, while a traced backward runs
        self.step_start = None


class SpanRecorder:
    """In-memory spans plus per-thread counters.

    A span record is ``[name, start, end, parent_record, run]``.  A span
    opened on a thread with nothing open gets the innermost open span of
    the thread that made the recorder as its parent, so work that avfusion
    fans out to a thread pool nests under the call that submitted it.
    Counters are kept per thread and summed on read, so no increment is
    lost to a thread switch.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.run = 0
        self.step_ms = []
        self._local = threading.local()
        self._states = []
        self._home = self.state()

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            self._states.append(st)
            return st

    def begin(self, name, st=None):
        st = st or self.state()
        if st.stack:
            parent = st.stack[-1]
        elif self._home.stack:
            parent = self._home.stack[-1]
        else:
            parent = None
        rec = [name, self.clock(), None, parent, self.run]
        self.spans.append(rec)
        st.stack.append(rec)
        return rec

    def end(self, rec, st=None):
        rec[2] = self.clock()
        (st or self.state()).stack.pop()

    def current(self, st=None):
        """Name of the innermost span open on this thread."""
        st = st or self.state()
        return st.stack[-1][0] if st.stack else "(none)"

    def add_packed(self, parent, durations: dict):
        """Child spans of the given lengths, laid end to end from the parent's start."""
        start = parent[1]
        for name, seconds in durations.items():
            self.spans.append([name, start, start + seconds, parent, parent[4]])
            start += seconds

    def nodes(self) -> Counter:
        total = Counter()
        for st in self._states:
            total.update(st.nodes)
        return total

    def counts(self) -> Counter:
        total = Counter()
        for st in self._states:
            total.update(st.counts)
        return total

    def export(self):
        """Closed spans as ``(id, name, start, end, parent_id, run)`` tuples."""
        ids = {}
        out = []
        for rec in self.spans:
            if rec[2] is None:
                continue
            ids[id(rec)] = len(out)
            parent = ids.get(id(rec[3])) if rec[3] is not None else None
            out.append((len(out), rec[0], rec[1], rec[2], parent, rec[4]))
        return out


def union_length(intervals, lo, hi) -> float:
    """Length of the union of ``intervals``, each clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span name -> summed self time, for exported ``(id, name, start, end,
    parent_id, run)`` spans.  Self time is duration minus the part of the
    span's interval that its children cover (children may overlap)."""
    children = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(float)
    for sid, name, start, end, _, _ in spans:
        out[name] += (end - start) - union_length(children.get(sid, ()), start, end)
    return dict(out)


def write_spans(path, spans):
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for span in spans:
            fh.write(json.dumps(span))
            fh.write("\n")


def _feature_bytes(clip) -> int:
    return 2 * HEADER.size + 4 * (clip.audio.size + clip.visual.size)


class Tracer:
    """Context manager that installs the span wrappers and removes them on exit."""

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self._saved = []

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _span(self, fn, name):
        rec = self.rec

        def wrapper(*args, **kwargs):
            st = rec.state()
            span = rec.begin(name, st)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(span, st)

        return wrapper

    def _round_span(self, fn):
        rec = self.rec
        params = inspect.signature(fn).parameters
        index = list(params).index("round_index")
        default = params["round_index"].default

        def wrapper(*args, **kwargs):
            t = args[index] if len(args) > index else kwargs.get("round_index", default)
            st = rec.state()
            span = rec.begin(f"fusion.round{t}", st)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(span, st)

        return wrapper

    def __enter__(self):
        rec = self.rec
        span = self._span
        for owner, attr, name in (
            (model, "tcn_forward", "temporal.tcn"),
            (model, "fusion_forward", "fusion"),
            (model, "head_forward", "temporal.head"),
            (model, "ccc_loss", "metrics.ccc_loss"),
            (model.EmotionModel, "forward", "model.forward"),
            (fusion, "grjca_gate", "fusion.gate"),
            (fusion, "hgrjca_iteration_gate", "fusion.gate"),
            (fusion, "hgrjca_final_gate", "fusion.gate"),
            (training, "train", "training.train"),
            (training, "_pooled_ccc", "training.validate"),
            (training, "evaluate", "training.evaluate"),
            (training, "window", "synthdata.window"),
            (cli, "evaluate", "training.evaluate"),
            (cli, "generate", "synthdata.generate"),
            (cli, "load_params", "cli.load_params"),
            (cli, "save_params", "cli.save_params"),
            (cli, "_write_csv", "cli.write_csv"),
        ):
            self._patch(owner, attr, span(getattr(owner, attr), name))
        for attr in ("joint_representation", "joint_correlation", "attention_maps", "attended_features"):
            self._patch(fusion, attr, self._round_span(getattr(fusion, attr)))

        # a training step runs from batch_loss through adam_step
        batch_loss = span(model.EmotionModel.batch_loss, "model.batch_loss")

        def traced_batch_loss(*args, **kwargs):
            st = rec.state()
            if any(s[0] == "training.train" for s in st.stack):
                st.step_start = rec.clock()
            return batch_loss(*args, **kwargs)

        self._patch(model.EmotionModel, "batch_loss", traced_batch_loss)
        adam_step = span(training.adam_step, "training.adam_step")

        def traced_adam_step(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            st = rec.state()
            if st.step_start is not None:
                rec.step_ms.append((rec.clock() - st.step_start) * 1000.0)
                st.step_start = None
            return out

        self._patch(training, "adam_step", traced_adam_step)

        write_features = span(cli.write_features, "synthdata.write_features")

        def traced_write_features(directory, clip, *args, **kwargs):
            rec.state().counts["synthdata.bytes_written"] += _feature_bytes(clip)
            return write_features(directory, clip, *args, **kwargs)

        self._patch(cli, "write_features", traced_write_features)
        read_features = span(cli.read_features, "synthdata.read_features")

        def traced_read_features(*args, **kwargs):
            clip = read_features(*args, **kwargs)
            rec.state().counts["synthdata.bytes_read"] += _feature_bytes(clip)
            return clip

        self._patch(cli, "read_features", traced_read_features)
        gradcheck = span(verify.gradcheck, "verify.gradcheck")

        def traced_gradcheck(f, *args, **kwargs):
            counts = rec.state().counts

            def counted():
                counts["verify.loss_evals"] += 1
                return f()

            report = gradcheck(counted, *args, **kwargs)
            counts["verify.coords_checked"] += report.checked
            counts["verify.kink_skips"] += report.skipped_kinks
            return report

        self._patch(verify, "gradcheck", traced_gradcheck)
        self._install_autodiff(autodiff.Tensor)
        return self

    def _install_autodiff(self, tensor_cls):
        rec = self.rec
        clock = rec.clock
        make = tensor_cls._make

        def counted_make(value, parents, backward):
            st = rec.state()
            st.nodes[st.stack[-1][0] if st.stack else "(none)"] += 1
            return make(value, parents, backward)

        self._patch(tensor_cls, "_make", staticmethod(counted_make))

        def charged(fn, layer):
            def closure():
                acc = rec.state().bwd
                if acc is None:
                    return fn()
                t0 = clock()
                fn()
                acc[layer] = acc.get(layer, 0.0) + (clock() - t0)

            return closure

        slot = vars(tensor_cls)["_backward"]

        class ChargedSlot:
            """The ``_backward`` slot, wrapping each closure stored in it with
            a timer charged to the layer open when the node was made."""

            def __get__(self, obj, owner=None):
                return self if obj is None else slot.__get__(obj, owner)

            def __set__(self, obj, fn):
                if fn is not None:
                    fn = charged(fn, rec.current())
                slot.__set__(obj, fn)

        self._patch(tensor_cls, "_backward", ChargedSlot())
        backward = tensor_cls.backward

        def traced_backward(node, seed=None):
            st = rec.state()
            span = rec.begin("autodiff.backward", st)
            acc = st.bwd = {}
            try:
                return backward(node, seed)
            finally:
                st.bwd = None
                rec.end(span, st)
                rec.add_packed(span, {f"{layer}.bwd": s for layer, s in acc.items()})

        self._patch(tensor_cls, "backward", traced_backward)

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def layer_metrics(recorder: SpanRecorder, iterations: int) -> dict:
    """Per-layer metric values per traced iteration (see :data:`PER_LAYER`)."""
    spans = recorder.export()
    own = self_times(spans)
    nodes = recorder.nodes()
    counts = recorder.counts()
    per = 1.0 / iterations
    windows = sum(1 for s in spans if s[1] == "model.forward")

    out = {}
    for name, span in PHASES.items():
        out[name] = own.get(span, 0.0) * per
    out["autodiff.nodes_per_window"] = sum(nodes.values()) / windows if windows else 0.0
    for layer in LAYERS:
        out[f"{layer}.fwd_s"] = own.get(layer, 0.0) * per
        out[f"{layer}.bwd_s"] = own.get(f"{layer}.bwd", 0.0) * per
        out[f"{layer}.nodes"] = nodes.get(layer, 0) * per
    steps = recorder.step_ms
    if len(steps) >= 2:
        out["training.step_ms.p50"] = statistics.median(steps)
        out["training.step_ms.p95"] = statistics.quantiles(steps, n=20, method="inclusive")[18]
    else:
        out["training.step_ms.p50"] = out["training.step_ms.p95"] = steps[0] if steps else 0.0
    out["training.step_ms.samples"] = len(steps) * per
    for name in COUNTS:
        out[name] = counts.get(name, 0) * per
    evals = counts.get("verify.loss_evals", 0)
    out["verify.useful_ratio"] = counts.get("verify.coords_checked", 0) / evals if evals else 0.0

    roots = [s for s in spans if s[4] is None and s[1].startswith("cli.")]
    wall = sum(s[3] - s[2] for s in roots)
    out["trace.uncovered_share"] = sum(own.get(n, 0.0) for n in {s[1] for s in roots}) / wall if wall else 0.0
    return out
