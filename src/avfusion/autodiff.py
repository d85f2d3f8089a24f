"""Dense matrix arithmetic with reverse-mode differentiation.

Every value in the library is a real matrix (row-major float64 ``numpy``
array) or a batch of B matrices of one shape stacked on a leading axis
(B x r x c).  A :class:`Tensor` wraps one such array together with its
gradient buffer and the links needed to replay the computation
backwards.  Operations build the graph eagerly; calling
:meth:`Tensor.backward` on a scalar output visits each node exactly once
in reverse topological order and accumulates gradients into every
upstream tensor.  Every node's backward pushes a gradient to each of
its parents.  Grads start empty: a node's first contribution is
assigned (copied only when it is another node's grad or a view of one)
and later ones are added.  A node's closure is the only reader of its
grad, so the walk frees that grad as soon as the closure has run: only
leaves (parameters and inputs) end the walk with a grad, and no two live
grads share memory.  The walk consumes the graph: once a node's closure
has run, the node drops the closure and its parent links, so the arrays
the closure held and every value nothing else references are freed
during the walk.  A graph is walked once; a walk that reaches a consumed
node raises :class:`ParameterError`.
Each node reaches itself from its backward closure only through a weak
reference, so graphs hold no reference cycles and a dropped graph is
freed at once.  Inside :func:`no_graph` the ops build no graph at all:
each node keeps its value only, as inference needs.

The op set is what the model uses: matrix product, elementwise
tanh/relu/add, product with a constant array, a bias column added to
every column, transpose, row stacking and reshape.  Each fused op
outside this module (the CCC loss in ``metrics``; in ``temporal``, a
TCN level ``relu(causal_conv(X) + b) + X``; in ``fusion``, the rounds'
attention ``relu(X W_attn tanh(X^T W J * s))`` and the gate, a
softmax-weighted sum of candidates under a relu) is one node built with
:meth:`Tensor._make` that pushes its gradient with :func:`accumulate`,
using :func:`matmul_grads` for its products.  Ops act on the last two axes.
The only broadcasting is of a matrix across a batch, in a matrix product
(a weight applied to every member) or as a bias column; its gradient is
summed over the batch.  There is no rank above 3.

:func:`gradcheck` verifies any scalar-valued function of named parameters
against central finite differences, skipping coordinates whose
perturbation crosses a ReLU kink.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import weakref
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, NumericError, ParameterError

# Distance from a ReLU kink below which a pre-activation is treated as
# sitting on the kink (its subgradient is taken as 0 and gradcheck skips it).
KINK_TOL = 1e-6

# gradcheck's central-difference step: a probe moves one coordinate by +/- this.
GRADCHECK_STEP = 1e-5

# The innermost open record_kinks() scope's list; relu_pattern() appends to it.
_kink_record = contextvars.ContextVar("kink_record", default=None)

# False inside no_graph(): new nodes keep no parents and no closure.
_build_graph = contextvars.ContextVar("build_graph", default=True)


@contextlib.contextmanager
def no_graph():
    """Build no graph in this scope: each op's node keeps its value but
    no parents and no backward closure, so a forward pass holds only the
    values still referenced.  The scope is held in a context variable, so
    it covers the thread that enters it and copies of its context."""
    token = _build_graph.set(False)
    try:
        yield
    finally:
        _build_graph.reset(token)


@contextlib.contextmanager
def record_kinks():
    """Collect, in the list this yields, each relu's (x > 0) pattern and
    its entries within ``KINK_TOL`` of 0, as ``(sign, band)`` pairs.  Only
    the innermost open scope records, and the scope builds no graph
    (:func:`no_graph`): gradcheck reads these forwards, never walks them."""
    patterns = []
    token = _kink_record.set(patterns)
    try:
        with no_graph():
            yield patterns
    finally:
        _kink_record.reset(token)


def _as_matrix(value):
    arr = np.atleast_2d(np.asarray(value, dtype=np.float64))
    if arr.ndim > 3:
        raise DimensionError(
            f"expected a matrix or a batch of matrices, got array of rank {arr.ndim}"
        )
    return arr


def accumulate(t: "Tensor", g: np.ndarray, shared: bool = False):
    """Add ``g`` into ``t.grad``, summing over a batch axis ``t`` was broadcast across.

    The first contribution is assigned: an array the caller just computed
    is kept as is, while a ``shared`` one (the node's own grad, or a view of
    it) is copied, so no two nodes' grads share memory.
    """
    if g.ndim > t.value.ndim:
        g = g.sum(axis=0)
        shared = False
    if t.grad is None:
        t.grad = g.copy() if shared else g
    else:
        t.grad += g


class Tensor:
    """A matrix, or a batch of matrices, in a reverse-mode differentiation graph.

    Parameters
    ----------
    value : array-like
        2-D real data (1-D input is promoted to a single row), or a 3-D
        stack of B matrices of one shape (B x r x c), stored as float64.

    Notes
    -----
    Values are treated as immutable once wrapped; ops never write to an
    operand's ``value``.  ``grad`` is populated by :meth:`backward` and has
    the same shape and dtype as ``value``: every node pushes a gradient
    to each of its parents, the first contribution a node receives is
    assigned and later ones are added.  An inner node's grad, closure
    and parent links are dropped once its closure has pushed the grad on,
    so after the walk only leaves hold a grad and the graph cannot be
    walked again.  No two live grads share memory.
    ``rows`` and ``cols`` are the last two axes, the ones every op acts on.
    """

    __slots__ = ("value", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, value):
        self.value = _as_matrix(value)
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.value.shape

    @property
    def rows(self):
        return self.value.shape[-2]

    @property
    def cols(self):
        return self.value.shape[-1]

    @property
    def dtype(self):
        return self.value.dtype

    def item(self):
        if self.value.size != 1:
            raise DimensionError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.value[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"

    # -- graph plumbing ------------------------------------------------------

    @staticmethod
    def _make(value, parents, backward):
        """A node whose ``backward(grad)`` pushes a gradient to each of ``parents``.

        The stored zero-argument closure reaches the node through a weak
        reference, so a graph holds no reference cycle and is freed as soon
        as it is dropped.  Inside :func:`no_graph` the node keeps neither
        ``parents`` nor ``backward``.
        """
        out = Tensor.__new__(Tensor)
        out.value = value
        out.grad = None
        if _build_graph.get():
            out._parents = parents
            ref = weakref.ref(out)
            out._backward = lambda: backward(ref().grad)
        else:
            out._parents = ()
            out._backward = None
        return out

    def backward(self, seed=None):
        """Accumulate gradients of this (scalar) node into the whole graph.

        ``seed`` overrides the initial adjoint (defaults to ones).  Each
        non-leaf node's closure runs once, in reverse topological order,
        and the walk pops the node and then drops its grad, its closure and
        its parent links: only leaves keep a grad, and each inner value is
        freed once no consumer needs it.  The graph is consumed, so a
        second walk of it, or of a graph sharing one of its inner nodes,
        raises :class:`ParameterError` before any closure runs.
        """
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise ParameterError("backward: the graph was already walked; build it again")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        for node in order:
            node.grad = None
        if seed is None:
            self.grad = np.ones_like(self.value)
        else:
            seed = _as_matrix(seed)
            if seed.shape != self.value.shape:
                raise DimensionError(
                    f"backward: seed shape {seed.shape} does not match {self.value.shape}"
                )
            self.grad = seed
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward()
                node.grad = node._backward = node._parents = None

    # -- operators -----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self):
        return transpose(self)


# -- elementwise -------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"add: shapes {a.value.shape} and {b.value.shape} differ")

    def backward(g):
        accumulate(a, g, shared=True)
        accumulate(b, g, shared=True)

    return Tensor._make(a.value + b.value, (a, b), backward)


def mul_const(a: Tensor, arr: np.ndarray) -> Tensor:
    """Elementwise product with a constant array (no gradient to the constant).

    The constant must already have the operand's shape; masks and dropout
    keep the library free of implicit broadcasting.
    """
    arr = np.asarray(arr, dtype=a.value.dtype)
    if arr.shape != a.value.shape:
        raise DimensionError(f"mul_const: shapes {a.value.shape} and {arr.shape} differ")

    def backward(g):
        accumulate(a, g * arr)

    return Tensor._make(a.value * arr, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.value)

    def backward(g):
        accumulate(a, g * (1.0 - y * y))

    return Tensor._make(y, (a,), backward)


def relu_pattern(x: np.ndarray) -> np.ndarray:
    """The (x > 0) pattern of a relu's input, recorded in the innermost
    open :func:`record_kinks` scope together with the entries in the kink band."""
    positive = x > 0.0
    patterns = _kink_record.get()
    if patterns is not None:
        patterns.append((positive, np.abs(x) < KINK_TOL))
    return positive


def relu_values(x: np.ndarray) -> np.ndarray:
    """``np.where(x > 0, x, 0.0)`` bit for bit (NaN, signed zeros included)
    in a sixth of its time: ``fmax`` drops NaN, and +0.0 turns -0.0 to +0.0."""
    out = np.fmax(x, 0.0)
    out += 0.0
    return out


def relu(a: Tensor) -> Tensor:
    """``max(x, 0)``: values by :func:`relu_values`, mask by :func:`relu_pattern`."""
    positive = relu_pattern(a.value)

    def backward(g):
        # Subgradient at exactly 0 is taken as 0.
        accumulate(a, g * positive)

    return Tensor._make(relu_values(a.value), (a,), backward)


# -- structural --------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; a matrix operand multiplies
    every member of a batch operand."""
    sa, sb = a.value.shape, b.value.shape
    if sa[-1] != sb[-2] or (len(sa) == len(sb) == 3 and sa[0] != sb[0]):
        raise DimensionError(f"matmul: shapes do not align, {sa} x {sb}")

    def backward(g):
        ga, gb = matmul_grads(a.value, b.value, g)
        accumulate(a, ga)
        accumulate(b, gb)

    return Tensor._make(a.value @ b.value, (a, b), backward)


def matmul_grads(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    """The grads of the operands of ``a @ b`` for the product's grad ``g``:
    ``g b^T`` and ``a^T g``, the latter summed over the batch when a
    matrix ``b`` was applied to every member."""
    ga = g @ np.swapaxes(b, -1, -2)
    if b.ndim < g.ndim:
        # one GEMM over the stacked rows instead of B products and a sum
        return ga, a.reshape(-1, b.shape[-2]).T @ g.reshape(-1, b.shape[-1])
    return ga, np.swapaxes(a, -1, -2) @ g


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        accumulate(a, np.swapaxes(g, -1, -2), shared=True)

    return Tensor._make(np.ascontiguousarray(np.swapaxes(a.value, -1, -2)), (a,), backward)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Stack ``a`` on top of ``b``; gradients split back by row ranges."""
    if a.value.shape[:-2] != b.value.shape[:-2] or a.cols != b.cols:
        raise DimensionError(f"concat_rows: shapes {a.value.shape} and {b.value.shape} do not stack")
    split = a.rows

    def backward(g):
        accumulate(a, g[..., :split, :], shared=True)
        accumulate(b, g[..., split:, :], shared=True)

    return Tensor._make(np.concatenate([a.value, b.value], axis=-2), (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    """The same entries in row-major order in another shape; pools a
    B x 1 x L batch of predictions into one 1 x (B*L) row."""

    def backward(g):
        accumulate(a, g.reshape(a.value.shape), shared=True)

    return Tensor._make(a.value.reshape(shape), (a,), backward)


# -- bias column -------------------------------------------------------------


def add_colvec(a: Tensor, b: Tensor) -> Tensor:
    """Add the column vector ``b`` (d x 1) to every column of ``a`` (d x L)."""
    if b.cols != 1 or b.rows != a.rows:
        raise DimensionError(
            f"add_colvec: expected {a.rows}x1 vector, got {b.value.shape}"
        )

    def backward(g):
        accumulate(a, g, shared=True)
        accumulate(b, g.sum(axis=-1, keepdims=True))

    return Tensor._make(a.value + b.value, (a, b), backward)


# -- verification ------------------------------------------------------------


@dataclass
class GradcheckReport:
    """Outcome of a finite-difference sweep over named parameters."""

    per_param: dict = field(default_factory=dict)  # name -> worst relative error
    checked: int = 0
    skipped_kinks: int = 0

    @property
    def worst(self) -> float:
        return max(self.per_param.values(), default=0.0)


def gradcheck(
    f,
    params: dict,
    max_entries_per_param: int | None = None,
    rng=None,
    probe=None,
) -> GradcheckReport:
    """Compare analytic gradients of ``f`` against central differences.

    Parameters
    ----------
    f : callable
        Builds a fresh graph from the current parameter values and returns
        a 1x1 loss tensor.
    params : dict
        Name -> leaf :class:`Tensor`.  Entries are perturbed in place and
        restored.
    max_entries_per_param : int, optional
        Cap on probed coordinates per parameter (sampled without
        replacement); all coordinates when omitted.
    rng : numpy Generator, optional
        Source for coordinate sampling; fixed seed when omitted.
    probe : callable, optional
        ``probe(param, stack) -> (losses, patterns)``: the loss with
        ``param.value`` at each value stacked on the first axis of
        ``stack``, as an array along that axis, and the ``(sign, band)``
        relu patterns :func:`record_kinks` collected, each with the same
        leading axis.  ``param.value`` must be left as found.  The default
        calls ``f`` once per stacked value.

    Returns
    -------
    GradcheckReport
        Worst relative error per parameter; ``report.worst`` is the max.
        Relative error is |ga - gn| / max(1e-8, |ga| + |gn|), with gn the
        central difference at :data:`GRADCHECK_STEP`: one ``probe`` call per
        parameter gets 2n stacked values, where members k and n+k move the
        k-th sampled coordinate by +step and -step (a wrong gradient fails
        at any step, so no other step is tried).  Pairs whose members
        disagree on any ReLU's sign or kink-band pattern are skipped (kink
        crossings make the central difference meaningless), and pairs
        whose disagreement falls below the roundoff noise floor
        of the difference quotient (~ulp(loss)/2step) count as agreeing;
        differences that small are not measurable by this method.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if probe is None:
        probe = functools.partial(_serial_probe, f)

    loss = f()
    if loss.value.size != 1:
        raise DimensionError(f"gradcheck: f must return a 1x1 tensor, got {loss.shape}")
    if not np.isfinite(loss.value).all():
        raise NumericError("gradcheck: loss is not finite at the base point")
    loss.backward()
    analytic = {name: p.grad.copy() for name, p in params.items()}

    report = GradcheckReport()
    for name, p in params.items():
        idx = np.arange(p.value.size)
        if max_entries_per_param is not None and idx.size > max_entries_per_param:
            idx = rng.choice(idx.size, size=max_entries_per_param, replace=False)
        n = len(idx)
        stack = np.repeat(p.value[None], 2 * n, axis=0)
        members = stack.reshape(2 * n, -1)
        members[np.arange(n), idx] += GRADCHECK_STEP
        members[np.arange(n, 2 * n), idx] -= GRADCHECK_STEP
        losses, patterns = probe(p, stack)
        # a pair lands on different relu branches somewhere, or an affected
        # pre-activation enters or leaves the kink band (|x| < KINK_TOL)
        crossed = np.zeros(n, dtype=bool)
        for sign, band in patterns:
            differ = (sign[:n] != sign[n:]) | (band[:n] != band[n:])
            crossed |= differ.reshape(n, -1).any(axis=1)
        errors = []
        for i, plus, minus, kink in zip(idx, losses[:n], losses[n:], crossed):
            if not (np.isfinite(plus) and np.isfinite(minus)):
                raise NumericError(f"gradcheck: non-finite loss while perturbing {name!r}")
            if kink:
                report.skipped_kinks += 1
                continue
            ga = analytic[name].flat[i]
            numeric = (plus - minus) / (2.0 * GRADCHECK_STEP)
            # (plus - minus) carries roundoff of order ulp(loss), so the
            # quotient has an absolute noise floor; a disagreement
            # below it is not measurable by this method
            noise = 16.0 * np.finfo(np.float64).eps * max(1.0, abs(plus), abs(minus)) / (2.0 * GRADCHECK_STEP)
            miss = abs(ga - numeric)
            errors.append(0.0 if miss <= noise else miss / max(1e-8, abs(ga) + abs(numeric)))
        report.checked += len(errors)
        report.per_param[name] = max(errors, default=0.0)
    return report


def _serial_probe(f, p, stack):
    """The default gradcheck probe: one evaluation of ``f`` per stacked
    value, each relu's per-value patterns stacked in turn."""
    base = p.value
    losses, runs = [], []
    try:
        for value in stack:
            p.value = value
            with record_kinks() as patterns:
                losses.append(f().item())
            runs.append(patterns)
    finally:
        p.value = base
    if len({tuple(sign.shape for sign, _ in run) for run in runs}) > 1:
        raise DimensionError("gradcheck: f evaluates other relus at another parameter value")
    return np.array(losses), [tuple(map(np.stack, zip(*pairs))) for pairs in zip(*runs)]


def check_finite(arr: np.ndarray, context: str):
    """Raise :class:`NumericError` naming ``context`` if ``arr`` is not finite."""
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {context}")
