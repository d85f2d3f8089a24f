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
grads share memory.
Each node reaches itself from its backward closure only through a weak
reference, so graphs hold no reference cycles and a dropped graph is
freed at once.

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
import functools
import weakref
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, NumericError

# Distance from a ReLU kink below which a pre-activation is treated as
# sitting on the kink (its subgradient is taken as 0 and gradcheck skips it).
KINK_TOL = 1e-6

# gradcheck's central-difference step: a probe moves one coordinate by +/- this.
GRADCHECK_STEP = 1e-5

# Active kink recorders; relu_pattern() appends to each.
_kink_recorders: list[list] = []


@contextlib.contextmanager
def record_kinks(out: list):
    """Collect the (x > 0) pattern of every relu evaluated in this scope.

    Also records whether any pre-activation sat within ``KINK_TOL`` of 0.
    Used by gradcheck to discard finite-difference probes that cross a kink.
    """
    _kink_recorders.append(out)
    try:
        yield out
    finally:
        # by identity: a nested recorder with equal contents is another list
        del _kink_recorders[next(i for i, rec in enumerate(_kink_recorders) if rec is out)]


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
    assigned and later ones are added.  An inner node's grad is freed
    once its closure has pushed it on, so after the walk only leaves
    hold a grad.  No two live grads share memory.
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
        as it is dropped.
        """
        out = Tensor.__new__(Tensor)
        out.value = value
        out.grad = None
        out._parents = parents
        ref = weakref.ref(out)
        out._backward = lambda: backward(ref().grad)
        return out

    def backward(self, seed=None):
        """Accumulate gradients of this (scalar) node into the whole graph.

        ``seed`` overrides the initial adjoint (defaults to ones).  Each
        non-leaf node's closure runs once, in reverse topological order,
        and its grad is set to None right after: only leaves keep a grad.
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
        for node in reversed(order):
            if node._backward is not None:
                node._backward()
                node.grad = None

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
    """The (x > 0) pattern of a relu's input, recorded in every open
    :func:`record_kinks` scope together with the entries in the kink band."""
    positive = x > 0.0
    if _kink_recorders:
        in_band = np.abs(x) < KINK_TOL
        for rec in _kink_recorders:
            rec.append((positive, in_band))
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
        ``probe(param, coords, step) -> (hi, lo, crossed)``: the losses
        with ``param`` moved by +step and by -step at each (row, col) in
        ``coords``, one coordinate at a time, and whether each pair's ReLU
        sign patterns disagree; ``step`` is :data:`GRADCHECK_STEP`.
        ``param.value`` must be left as found.  The default calls ``f``
        twice per coordinate.

    Returns
    -------
    GradcheckReport
        Worst relative error per parameter; ``report.worst`` is the max.
        Relative error is |ga - gn| / max(1e-8, |ga| + |gn|), with gn the
        central difference at :data:`GRADCHECK_STEP`.  Each parameter's
        sampled coordinates are probed in one ``probe`` call at that step: a
        wrong gradient fails at any step, so no other step is tried.
        Probes whose +/- evaluations disagree on any ReLU sign pattern are
        skipped (kink crossings make the central difference meaningless),
        and probes whose disagreement falls below the roundoff noise floor
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
        n = p.value.size
        if max_entries_per_param is not None and n > max_entries_per_param:
            idx = rng.choice(n, size=max_entries_per_param, replace=False)
        else:
            idx = np.arange(n)
        coords = [np.unravel_index(i, p.value.shape) for i in idx]
        hi, lo, crossed = probe(p, coords, GRADCHECK_STEP)
        errors = []
        for i, plus, minus, kink in zip(idx, hi, lo, crossed):
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


def _serial_probe(f, p, coords, step):
    """The default gradcheck probe: two evaluations of ``f`` per coordinate."""
    hi, lo, crossed = [], [], []
    for r, c in coords:
        original = p.value[r, c]
        try:
            p.value[r, c] = original + step
            with record_kinks([]) as pattern_hi:
                hi.append(f().item())
            p.value[r, c] = original - step
            with record_kinks([]) as pattern_lo:
                lo.append(f().item())
        finally:
            p.value[r, c] = original
        crossed.append(_patterns_disagree(pattern_hi, pattern_lo))
    return hi, lo, crossed


def _patterns_disagree(hi, lo):
    # A probe is invalid when the two evaluations land on different relu
    # branches anywhere, or when an affected pre-activation enters/leaves
    # the kink band (|x| < KINK_TOL).  Entries with identical state on both
    # sides, including exact zeros untouched by the perturbation, are fine.
    if len(hi) != len(lo):
        return True
    for (sign_hi, band_hi), (sign_lo, band_lo) in zip(hi, lo):
        if sign_hi.shape != sign_lo.shape:
            return True
        if not np.array_equal(sign_hi, sign_lo) or not np.array_equal(band_hi, band_lo):
            return True
    return False


def check_finite(arr: np.ndarray, context: str):
    """Raise :class:`NumericError` naming ``context`` if ``arr`` is not finite."""
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {context}")
