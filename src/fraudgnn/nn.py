"""Minimal dense-matrix substrate with reverse-mode gradients and Adam.

Every value is a 2-D float64 matrix wrapped in a Tensor. Operations record
a trace while any input requires gradients; backward() replays the trace in
reverse topological order. The op set is exactly what the model needs, not
a general autodiff library: the output head's ops and the loss. A model
layer is one op of its own (model.layer_forward), built on record and on
the array-level kernels over compressed neighbor rows here.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.sparse import _sparsetools

from .errors import FraudGnnError, ShapeError


PROB_CLAMP = 1e-7  # bce clamps p into [PROB_CLAMP, 1 - PROB_CLAMP]
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class UsageError(FraudGnnError, RuntimeError):
    """Autodiff misuse, e.g. backward() on a trace-free tensor."""


def _as2d(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D; got array of shape {arr.shape}")
    return arr


class Tensor:
    """2-D float64 matrix; set requires_grad=True to make it a trainable leaf.
    An op's result requires gradients, and is traced, when an input does."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as2d(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def record(out_data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """An op's result: traced, with vjp(g) giving one gradient (or None)
    per parent, when a parent requires gradients."""
    out = Tensor(out_data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.cols != b.rows:
        raise ShapeError(f"matmul mismatch: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    da, db = a.requires_grad, b.requires_grad

    def vjp(g):  # a constant operand gets no gradient
        return (g @ b.data.T if da else None), (a.data.T @ g if db else None)

    return record(out, (a, b), vjp)


def _slice(a, key) -> Tensor:
    a = _wrap(a)

    def vjp(g):
        da = np.zeros_like(a.data)
        da[key] = g
        return (da,)

    return record(a.data[key].copy(), (a,), vjp)


def slice_cols(a, c0: int, c1: int) -> Tensor:
    return _slice(a, np.s_[:, c0:c1])


def pick_rows(a, rows) -> Tensor:
    """a[rows] for distinct rows. Its gradient is assigned into zeros,
    with no scatter."""
    return _slice(a, np.asarray(rows, dtype=np.int64))


# ---------------------------------------------------------------------------
# array kernels over compressed neighbor rows
# ---------------------------------------------------------------------------

class CompressedRows:
    """Rows of entries: row i owns entries indptr[i]:indptr[i + 1], and
    entry k names row nbr[k] of a value table; src[k] is entry k's row.
    A per-entry array is a column (or a vector) in entry order."""

    def __init__(self, indptr: np.ndarray, nbr: np.ndarray):
        self.indptr, self.nbr = indptr, nbr
        counts = np.diff(indptr)
        self.n_rows = len(counts)
        self.src = np.repeat(np.arange(self.n_rows), counts)
        self._filled = counts > 0

    @cached_property
    def sparse_index(self) -> tuple[np.ndarray, np.ndarray]:
        """nbr and indptr in the one index dtype the sparse kernels of
        neighbor_sum take."""
        return (self.nbr.astype(np.intp, copy=False),
                self.indptr.astype(np.intp, copy=False))

    def row_sum(self, x: np.ndarray) -> np.ndarray:
        """Each row's entries of x added in entry order from +0.0."""
        return np.bincount(self.src, weights=x, minlength=self.n_rows)

    def row_max(self, x: np.ndarray) -> np.ndarray:
        """Each row's largest entry of x; -inf for a row with none."""
        out = np.full(self.n_rows, -np.inf)
        if len(x):
            out[self._filled] = np.maximum.reduceat(
                x, self.indptr[:-1][self._filled])
        return out

    def row_softmax(self, x: np.ndarray) -> np.ndarray:
        """Softmax of x over each row's entries, shifted by the row's
        largest finite entry; a row whose entries sum to no positive
        value divides by 1."""
        top = self.row_max(x)
        top[~np.isfinite(top)] = 0.0
        e = np.exp(x - top[self.src])
        s = self.row_sum(e)
        s[~(s > 0)] = 1.0
        return e / s[self.src]


def neighbor_sum(weights: np.ndarray, values: np.ndarray,
                 layout: CompressedRows) -> np.ndarray:
    """out[i] = sum over row i's entries k of weights[k] * values[nbr[k]]
    ((n_entries,1),(m,d) -> (n,d)): A @ values for the sparse A whose row i
    holds row i's entries.

    scipy's csr_matvecs kernel runs on the layout's index arrays
    (sparse_index) and the weights, with no matrix object; it adds a row's
    products in entry order from +0.0.
    """
    if weights.shape != (len(layout.nbr), 1):
        raise ShapeError(f"neighbor_sum expects {len(layout.nbr)} entry "
                         f"weights, got {weights.shape}")
    x = np.ascontiguousarray(values, dtype=np.float64)
    out = np.zeros((layout.n_rows, x.shape[1]))
    nbr, indptr = layout.sparse_index
    _sparsetools.csr_matvecs(layout.n_rows, len(x), x.shape[1], indptr, nbr,
                             weights.ravel(), x.ravel(), out.ravel())
    return out


def neighbor_sum_transpose(weights: np.ndarray, g: np.ndarray,
                           layout: CompressedRows, m: int) -> np.ndarray:
    """A.T @ g ((n,d) -> (m,d)), neighbor_sum's values gradient, by
    scipy's csc_matvecs on the same arrays: it walks the entries in order
    and equals numpy's add.at of the products bit for bit, including which
    NaN survives when two meet."""
    x = np.ascontiguousarray(g, dtype=np.float64)
    out = np.zeros((m, x.shape[1]))
    nbr, indptr = layout.sparse_index
    _sparsetools.csc_matvecs(m, layout.n_rows, x.shape[1], indptr, nbr,
                             weights.ravel(), x.ravel(), out.ravel())
    return out


# ---------------------------------------------------------------------------
# output head and loss
# ---------------------------------------------------------------------------

def softmax_rows(a) -> Tensor:
    """Row-wise softmax, overflow-safe via per-row max subtraction."""
    a = _wrap(a)
    rowmax = a.data.max(axis=1, keepdims=True)
    rowmax[~np.isfinite(rowmax)] = 0.0
    e = np.exp(a.data - rowmax)
    s = e.sum(axis=1, keepdims=True)
    s[~(s > 0)] = 1.0
    out = np.divide(e, s, out=e)
    return record(out, (a,), lambda g: (
        out * (g - (g * out).sum(axis=1, keepdims=True)),))


def bce(p, y) -> Tensor:
    """Mean binary cross-entropy of probabilities p, an (n, 1) column,
    against 0/1 labels y, with p clamped into [PROB_CLAMP, 1 - PROB_CLAMP]
    (no gradient where the clamp bites).

    The forward and vjp compute the floats of the chain clamp, log, mul,
    sub, log, mul, add, mean and neg, in that chain's order.
    """
    p = _wrap(p)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    if p.shape != y.shape:
        raise ShapeError(f"bce expects an (n, 1) column and n labels, "
                         f"got {p.shape} and {len(y)}")
    lo, hi = PROB_CLAMP, 1.0 - PROB_CLAMP
    pc = np.clip(p.data, lo, hi)
    inside = (p.data > lo) & (p.data < hi)
    s = y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)

    def vjp(g):
        d = np.full_like(s, -g[0, 0] / s.size)
        # keep + -drop, as the chain added them: keep - drop can differ in
        # which NaN survives when p is NaN
        keep, drop = (d * y) / pc, (d * (1.0 - y)) / (1.0 - pc)
        return ((keep + -drop) * inside,)

    return record(-np.array([[s.mean()]]), (p,), vjp)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor):
    """Populate .grad for every tensor reachable from a scalar loss."""
    if loss.shape != (1, 1):
        raise UsageError(f"backward expects a 1x1 loss, got {loss.shape}")
    if loss._vjp is None:
        raise UsageError("backward before forward: the loss records no trace")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))

    loss.grad = np.ones((1, 1))
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


# ---------------------------------------------------------------------------
# initialization and optimization
# ---------------------------------------------------------------------------

def glorot_uniform(rows: int, cols: int, rng: np.random.Generator) -> Tensor:
    """Uniform(-b, b) with b = sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)


class AdamState:
    """Adam with bias correction; step() consumes and zeroes the gradients."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.step_count)
            v_hat = self.v[i] / (1 - b2 ** self.step_count)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            p.grad = None
