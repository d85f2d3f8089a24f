"""Dense matrix arithmetic with reverse-mode differentiation.

Every value in the library is a real matrix (row-major float64 ``numpy``
array) or a batch of B matrices of one shape stacked on a leading axis
(B x r x c).  A :class:`Tensor` wraps one such array together with its
gradient buffer and the links needed to replay the computation
backwards.  Operations build the graph eagerly; calling
:meth:`Tensor.backward` on a scalar output visits each node exactly once
in reverse topological order and accumulates gradients into every
upstream tensor.  Grads start empty: a node's first contribution is
assigned (copied only when it is another node's grad or a view of one),
later ones are added, a node that has received nothing pushes nothing,
and every node still empty after the walk gets zeros.  Each node
reaches itself from its backward closure only through a weak reference,
so graphs hold no reference cycles and a dropped graph is freed at once.

The op set is what the model uses and no more: matrix product,
elementwise tanh/relu/add/mul, scaling by a float, product with a
constant array, a bias column added to every column, the sum of all
entries, transpose, row stacking, reshape, a dilated causal convolution,
a gated sum of candidates, and a temperature-scaled softmax.  A fused op
outside this module (the CCC loss) is one node built with
:meth:`Tensor._make` that pushes its gradient with :func:`accumulate`.
Ops act on the last two axes.  The only
broadcasting is of a matrix across a batch, in a matrix product (a
weight applied to every member) or as a bias column; its gradient is
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

from .exceptions import DimensionError, NumericError, ParameterError

# Distance from a ReLU kink below which a pre-activation is treated as
# sitting on the kink (its subgradient is taken as 0 and gradcheck skips it).
KINK_TOL = 1e-6

# Active kink recorders; relu() appends its sign pattern to each.
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
    name : str, optional
        Identifier used in diagnostics; parameters get stable names.

    Notes
    -----
    Values are treated as immutable once wrapped; ops never write to an
    operand's ``value``.  ``grad`` is populated by :meth:`backward` and has
    the same shape and dtype as ``value``: the first contribution a node
    receives is assigned and later ones are added, and a node that
    receives no gradient gets zeros.  No two nodes' grads share memory.
    ``rows`` and ``cols`` are the last two axes, the ones every op acts on.
    """

    __slots__ = ("value", "grad", "name", "_parents", "_backward", "__weakref__")

    def __init__(self, value, name=None):
        self.value = _as_matrix(value)
        self.grad = None
        self.name = name
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
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{tag})"

    # -- graph plumbing ------------------------------------------------------

    @staticmethod
    def _make(value, parents, backward):
        """A node whose ``backward(grad)`` pushes its gradient to ``parents``.

        The stored zero-argument closure reaches the node through a weak
        reference, so a graph holds no reference cycle and is freed as soon
        as it is dropped.
        """
        out = Tensor.__new__(Tensor)
        out.value = value
        out.grad = None
        out.name = None
        out._parents = parents
        ref = weakref.ref(out)
        out._backward = lambda: backward(ref().grad)
        return out

    def backward(self, seed=None):
        """Accumulate gradients of this (scalar) node into the whole graph.

        ``seed`` overrides the initial adjoint (defaults to ones).  Each
        node's closure runs at most once, in reverse topological order,
        and is skipped when no gradient reached the node.
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
            # a node whose consumers pushed nothing (the degenerate CCC loss) has nothing to pass on
            if node._backward is not None and node.grad is not None:
                node._backward()
        for node in order:
            if node.grad is None:
                node.grad = np.zeros_like(node.value)

    # -- operators -----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self):
        return transpose(self)

    def sum(self):
        return sum_all(self)


def _binary_shape_check(op, a, b):
    if a.value.shape != b.value.shape:
        raise DimensionError(f"{op}: shapes {a.value.shape} and {b.value.shape} differ")


# -- elementwise -------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shape_check("add", a, b)

    def backward(g):
        accumulate(a, g, shared=True)
        accumulate(b, g, shared=True)

    return Tensor._make(a.value + b.value, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product."""
    _binary_shape_check("mul", a, b)

    def backward(g):
        accumulate(a, g * b.value)
        accumulate(b, g * a.value)

    return Tensor._make(a.value * b.value, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    def backward(g):
        accumulate(a, g * c)

    return Tensor._make(a.value * c, (a,), backward)


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


def relu(a: Tensor) -> Tensor:
    positive = a.value > 0.0
    if _kink_recorders:
        in_band = np.abs(a.value) < KINK_TOL
        for rec in _kink_recorders:
            rec.append((positive, in_band))

    def backward(g):
        # Subgradient at exactly 0 is taken as 0.
        accumulate(a, g * positive)

    return Tensor._make(np.where(positive, a.value, 0.0), (a,), backward)


# -- structural --------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; a matrix operand multiplies
    every member of a batch operand."""
    sa, sb = a.value.shape, b.value.shape
    if sa[-1] != sb[-2] or (len(sa) == len(sb) == 3 and sa[0] != sb[0]):
        raise DimensionError(f"matmul: shapes do not align, {sa} x {sb}")

    def backward(g):
        accumulate(a, g @ np.swapaxes(b.value, -1, -2))
        if b.value.ndim < g.ndim:
            # a weight applied across a batch: one GEMM over the stacked
            # rows instead of B products and a sum
            accumulate(b, a.value.reshape(-1, sb[-2]).T @ g.reshape(-1, sb[-1]))
        else:
            accumulate(b, np.swapaxes(a.value, -1, -2) @ g)

    return Tensor._make(a.value @ b.value, (a, b), backward)


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


def causal_conv(x: Tensor, taps, dilation: int) -> Tensor:
    """Dilated causal convolution of ``x`` (d_in x L): the sum over taps j
    of ``taps[j] @ x`` shifted right by (k-1-j)*dilation columns.

    The shift zero-fills on the left, so output column i sees only input
    columns <= i, and the last tap reads the current column.  A shift
    spanning the whole width contributes nothing.
    """
    k = len(taps)
    L = x.cols
    offsets = [(k - 1 - j) * dilation for j in range(k)]
    inputs = []
    for offset in offsets:
        if offset == 0:
            inputs.append(x.value)
            continue
        shifted = np.zeros_like(x.value)
        if offset < L:
            shifted[..., offset:] = x.value[..., :-offset]
        inputs.append(shifted)
    acc = None
    for tap, inp in zip(taps, inputs):
        term = tap.value @ inp
        acc = term if acc is None else acc + term

    def backward(g):
        for tap, inp in zip(taps, inputs):
            accumulate(tap, g @ np.swapaxes(inp, -1, -2))
        # the last tap reads the current column, so its term covers every column
        grad_x = taps[-1].value.T @ g
        for tap, offset in zip(taps[:-1], offsets[:-1]):
            if offset < L:
                grad_x[..., : L - offset] += (tap.value.T @ g)[..., offset:]
        accumulate(x, grad_x)

    return Tensor._make(acc, (x, *taps), backward)


def gated_sum(candidates, gates: Tensor) -> Tensor:
    """Sum over k of candidate k (d x L) times gate column k (L x K),
    that column weighting every row of its candidate."""
    shape = candidates[0].value.shape
    want = shape[:-2] + (shape[-1], len(candidates))
    if gates.value.shape != want or any(c.value.shape != shape for c in candidates):
        raise DimensionError(
            f"gated_sum: {len(candidates)} candidates of shape {shape} need gates {want}, "
            f"got {[c.value.shape for c in candidates]} and {gates.value.shape}"
        )
    rows = np.swapaxes(gates.value, -1, -2)  # row k weights candidate k
    total = None
    for k, cand in enumerate(candidates):
        term = cand.value * rows[..., k : k + 1, :]
        total = term if total is None else total + term

    def backward(g):
        grad_rows = np.empty_like(rows)
        for k, cand in enumerate(candidates):
            accumulate(cand, g * rows[..., k : k + 1, :])
            grad_rows[..., k, :] = (g * cand.value).sum(axis=-2)
        accumulate(gates, np.swapaxes(grad_rows, -1, -2))

    return Tensor._make(total, (*candidates, gates), backward)


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


# -- reductions and softmax --------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        accumulate(a, np.full_like(a.value, g[0, 0]))

    return Tensor._make(a.value.sum(keepdims=True).reshape(1, 1), (a,), backward)


def softmax_temp(logits: Tensor, temperature: float) -> Tensor:
    """Temperature-scaled softmax over each row.

    Computed with max-subtraction; each normalized row sums to 1.  Small
    temperatures sharpen the distribution toward the per-row argmax.
    """
    if temperature <= 0.0:
        raise ParameterError(f"softmax_temp: temperature must be > 0, got {temperature}")
    z = logits.value / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        accumulate(logits, y * (g - inner) / temperature)

    return Tensor._make(y, (logits,), backward)


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

    def format_lines(self):
        width = max((len(n) for n in self.per_param), default=0)
        return [
            f"{name.ljust(width)}  {err:.3e}"
            for name, err in sorted(self.per_param.items())
        ]


def gradcheck(
    f,
    params: dict,
    epsilon: float = 1e-5,
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
    epsilon : float
        Central-difference step, required to lie in [1e-7, 1e-3].
    max_entries_per_param : int, optional
        Cap on probed coordinates per parameter (sampled without
        replacement); all coordinates when omitted.
    rng : numpy Generator, optional
        Source for coordinate sampling; fixed seed when omitted.
    probe : callable, optional
        ``probe(param, coords, step) -> (hi, lo, crossed)``: the losses
        with ``param`` moved by +step and by -step at each (row, col) in
        ``coords``, one coordinate at a time, and whether each pair's ReLU
        sign patterns disagree.  ``param.value`` must be left as found.
        The default calls ``f`` twice per coordinate.

    Returns
    -------
    GradcheckReport
        Worst relative error per parameter; ``report.worst`` is the max.
        Relative error is |ga - gn| / max(1e-8, |ga| + |gn|), minimized
        over a small ladder of step sizes around ``epsilon`` (kept inside
        [1e-7, 1e-3]) because curvature-limited and roundoff-limited
        coordinates want opposite steps; an incorrect gradient fails at
        every step.  Each rung probes, in one ``probe`` call, the
        coordinates no earlier rung resolved.  Probes whose +/- evaluations
        disagree on any ReLU sign pattern are skipped at that step (kink
        crossings make the central difference meaningless), and probes
        whose disagreement falls below the roundoff noise floor of the
        difference quotient (~ulp(loss)/2eps) count as agreeing;
        differences that small are not measurable by this method.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ParameterError(f"gradcheck: epsilon must be in [1e-7, 1e-3], got {epsilon}")
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
        # no single step size suits every coordinate: large curvature wants
        # a small step, derivatives near roundoff want a large one, so
        # unresolved coordinates escalate through this ladder
        ladder = [epsilon]
        for scale in (10.0, 100.0, 0.1):
            step = epsilon * scale
            if 1e-7 <= step <= 1e-3 and step not in ladder:
                ladder.append(step)

        best = dict.fromkeys(idx.tolist())
        pending = list(best)
        for step in ladder:
            if not pending:
                break
            coords = [np.unravel_index(i, p.value.shape) for i in pending]
            hi, lo, crossed = probe(p, coords, step)
            for i, plus, minus, kink in zip(pending, hi, lo, crossed):
                if not (np.isfinite(plus) and np.isfinite(minus)):
                    raise NumericError(f"gradcheck: non-finite loss while perturbing {name!r}")
                if kink:
                    continue
                ga = analytic[name].flat[i]
                numeric = (plus - minus) / (2.0 * step)
                # (plus - minus) carries roundoff of order ulp(loss), so the
                # quotient has an absolute noise floor; a disagreement
                # below it is not measurable by this method
                noise = 16.0 * np.finfo(np.float64).eps * max(1.0, abs(plus), abs(minus)) / (2.0 * step)
                miss = abs(ga - numeric)
                rel = 0.0 if miss <= noise else miss / max(1e-8, abs(ga) + abs(numeric))
                best[i] = rel if best[i] is None else min(best[i], rel)
            pending = [i for i in pending if best[i] is None or best[i] >= 1e-6]

        resolved = [err for err in best.values() if err is not None]
        report.skipped_kinks += len(best) - len(resolved)
        report.checked += len(resolved)
        report.per_param[name] = max(resolved, default=0.0)
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
