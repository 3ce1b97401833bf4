"""Minimal dense-matrix substrate with reverse-mode gradients and Adam.

Every value is a 2-D float64 matrix wrapped in a Tensor. Operations record
a trace while any input requires gradients; backward() replays the trace in
reverse topological order. The op set is exactly what the model needs, not
a general autodiff library.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .errors import FraudGnnError, ShapeError


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
    """2-D float64 matrix; set requires_grad=True to make it a trainable leaf."""

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


def _traced(t: Tensor) -> bool:
    """Whether backward() reaches t: a trainable leaf or a traced result."""
    return t.requires_grad or bool(t._parents)


def _record(out_data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(out_data)
    if any(_traced(p) for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] > 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] > 1:
        g = g.sum(axis=1, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.cols != b.rows:
        raise ShapeError(f"matmul mismatch: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    da, db = _traced(a), _traced(b)

    def vjp(g):  # a constant operand gets no gradient
        return (g @ b.data.T if da else None), (a.data.T @ g if db else None)

    return _record(out, (a, b), vjp)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add broadcast mismatch: {a.shape} + {b.shape}") from None

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub broadcast mismatch: {a.shape} - {b.shape}") from None

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul broadcast mismatch: {a.shape} * {b.shape}") from None
    da, db = _traced(a), _traced(b)

    def vjp(g):  # a constant operand gets no gradient
        return (_unbroadcast(g * b.data, a.shape) if da else None,
                _unbroadcast(g * a.data, b.shape) if db else None)

    return _record(out, (a, b), vjp)


def neg(a) -> Tensor:
    a = _wrap(a)
    return _record(-a.data, (a,), lambda g: (-g,))


def concat(a, b) -> Tensor:
    """Column-wise concatenation: (n,p) || (n,q) -> (n,p+q)."""
    a, b = _wrap(a), _wrap(b)
    if a.rows != b.rows:
        raise ShapeError(f"concat needs equal row counts: {a.shape} || {b.shape}")
    out = np.concatenate([a.data, b.data], axis=1)
    p = a.cols

    def vjp(g):
        return g[:, :p], g[:, p:]

    return _record(out, (a, b), vjp)


def _slice(a, key) -> Tensor:
    a = _wrap(a)

    def vjp(g):
        da = np.zeros_like(a.data)
        da[key] = g
        return (da,)

    return _record(a.data[key].copy(), (a,), vjp)


def slice_rows(a, r0: int, r1: int) -> Tensor:
    return _slice(a, np.s_[r0:r1, :])


def slice_cols(a, c0: int, c1: int) -> Tensor:
    return _slice(a, np.s_[:, c0:c1])


def pick_rows(a, rows) -> Tensor:
    """a[rows] for distinct rows; the adjoint of put_rows. Its gradient is
    assigned into zeros, with no scatter."""
    return _slice(a, np.asarray(rows, dtype=np.int64))


def put_rows(a, rows, m: int) -> Tensor:
    """(len(rows), d) -> (m, d): row i of a lands at distinct row rows[i]
    and every other row is zero; the gradient is pick_rows'."""
    a = _wrap(a)
    rows = np.asarray(rows, dtype=np.int64)
    out = np.zeros((m, a.cols))
    out[rows] = a.data
    return _record(out, (a,), lambda g: (g[rows],))


def _scatter_rows(coef: np.ndarray, cols: np.ndarray, indptr: np.ndarray,
                  g: np.ndarray, m: int) -> np.ndarray:
    """out[cols[k]] += coef[k] * g[i] for each entry k of row i, as (m, d).

    Row i owns entries indptr[i]:indptr[i + 1]. As A.T @ g, scipy's
    csc_matvecs adds the products to each target row in entry order from
    +0.0, so the result equals numpy's add.at of the same products bit for
    bit, including which NaN survives when two meet.
    """
    a_t = scipy.sparse.csc_matrix((coef, cols, indptr),
                                  shape=(m, len(indptr) - 1))
    return a_t @ g


def take_rows(a, idx) -> Tensor:
    """Gather rows by integer index (duplicates allowed)."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = a.data[idx, :]

    def vjp(g):
        return (_scatter_rows(np.ones(len(idx)), idx,
                              np.arange(len(idx) + 1), g, a.rows),)

    return _record(out, (a,), vjp)


# ---------------------------------------------------------------------------
# per-entry ops over width-bucketed neighbor tables
# ---------------------------------------------------------------------------

NARROW_WIDTH = 8


class CellLayout:
    """Compressed neighbor rows laid out as cells in width buckets.

    Row i owns entries indptr[i]:indptr[i + 1] of nbr. Rows of at most
    NARROW_WIDTH entries form the narrow bucket at min(width, NARROW_WIDTH);
    the others form the bucket at width. Entry k of row i sits in cell
    (bucket start + i's place in its bucket * bucket width + k - indptr[i]);
    the other cells are padding, with neighbor row 0 and mask False.
    A bucket of every row has rows slice(None), so its blocks are views.
    A per-entry tensor is an (n_cells, 1) column of the buckets' cells.
    Results equal the padded table's bit for bit (README, determinism)."""

    def __init__(self, indptr: np.ndarray, nbr: np.ndarray, width: int):
        self.indptr, self.nbr, self.width = indptr, nbr, width
        counts = np.diff(indptr)
        self.n_rows = n = len(counts)
        self.src = np.repeat(np.arange(n), counts)  # each entry's row
        narrow = counts <= NARROW_WIDTH
        groups = [(np.flatnonzero(narrow), min(width, NARROW_WIDTH)),
                  (np.flatnonzero(~narrow), width)]
        groups = [g for g in groups if len(g[0])] or groups[:1]
        self.buckets, self.n_cells = [], 0
        first_cell = np.zeros(n, dtype=np.int64)
        for rows, w in groups:
            start, self.n_cells = self.n_cells, self.n_cells + w * len(rows)
            first_cell[rows] = np.arange(start, self.n_cells, w)
            self.buckets.append((rows if len(groups) > 1 else slice(None),
                                 w, start, self.n_cells))
        self.entry_cells = ((first_cell - indptr[:-1])[self.src]
                            + np.arange(len(nbr)))
        self.idx, self.mask = self.put(nbr), self.put(np.ones(len(nbr), bool))

    def put(self, values: np.ndarray) -> np.ndarray:  # entries -> cells
        """One value per entry, in entry order -> one per cell; padding 0."""
        cells = np.zeros(self.n_cells, dtype=values.dtype)
        cells[self.entry_cells] = values
        return cells

    def views(self, cells: np.ndarray) -> list[np.ndarray]:  # cells -> blocks
        return [cells[lo:hi].reshape(-1, w) for _, w, lo, hi in self.buckets]

    def join_cells(self, blocks: list[np.ndarray]) -> np.ndarray:  # inverse
        if len(blocks) == 1:
            return blocks[0].reshape(-1, 1)
        return np.concatenate([x.reshape(-1, 1) for x in blocks])

    def row_blocks(self, a: np.ndarray) -> list[np.ndarray]:  # rows -> blocks
        return [a[rows] for rows, _, _, _ in self.buckets]

    def join_rows(self, blocks: list[np.ndarray]) -> np.ndarray:  # inverse
        if len(blocks) == 1:
            return blocks[0]
        out = np.empty((self.n_rows,) + blocks[0].shape[1:])
        for (rows, _, _, _), block in zip(self.buckets, blocks):
            out[rows] = block
        return out


def gather(values, layout: CellLayout) -> Tensor:
    """A column vector (m,1) read at every cell's neighbor row -> cells."""
    values = _wrap(values)
    if values.cols != 1:
        raise ShapeError(f"gather expects a column vector, got {values.shape}")

    def vjp(g):
        # bincount sums each bin in entry order from +0.0 and, like the 1-D
        # add.at it replaces, keeps the running sum's NaN when two NaNs meet
        dv = np.bincount(layout.nbr, weights=g[layout.entry_cells, 0],
                         minlength=values.rows)
        return (dv.reshape(-1, 1),)

    return _record(values.data[layout.idx], (values,), vjp)


def add_rows(col, cells, layout: CellLayout) -> Tensor:
    """col[i] + cells[c] for every cell c of row i: ((n,1), cells) -> cells."""
    col, cells = _wrap(col), _wrap(cells)
    out = layout.join_cells([c + x for c, x in zip(
        layout.row_blocks(col.data), layout.views(cells.data))])

    def vjp(g):
        sums = [x.sum(axis=1, keepdims=True) for x in layout.views(g)]
        return layout.join_rows(sums), g

    return _record(out, (col, cells), vjp)


def softmax_cells(a, layout: CellLayout) -> Tensor:
    """Softmax over each row's real cells; padding and empty rows get 0."""
    a = _wrap(a)
    out = layout.join_cells([_softmax(x, m) for x, m in zip(
        layout.views(a.data), layout.views(layout.mask))])
    return _record(out, (a,), lambda g: (layout.join_cells([
        _softmax_vjp(o, gb) for o, gb in zip(layout.views(out),
                                             layout.views(g))]),))


def neighbor_sum(weights, values, layout: CellLayout) -> Tensor:
    """out[i] = sum over row i's cells c of weights[c] * values[nbr(c)]
    ((n_cells,1),(m,d) -> (n,d)). Padding cells must carry weight 0."""
    weights, values = _wrap(weights), _wrap(values)
    if weights.shape != layout.idx.shape + (1,):
        raise ShapeError(f"neighbor_sum expects {len(layout.idx)} cell "
                         f"weights, got {weights.shape}")
    gathered = [np.take(values.data, idx, axis=0)  # (rows, width, d)
                for idx in layout.views(layout.idx)]
    out = layout.join_rows([np.einsum("nz,nzd->nd", w, x) for w, x in zip(
        layout.views(weights.data), gathered)])

    def vjp(g):
        dw = layout.join_cells([np.einsum("nd,nzd->nz", gb, x) for gb, x in
                                zip(layout.row_blocks(g), gathered)])
        return dw, _scatter_rows(weights.data[layout.entry_cells, 0],
                                 layout.nbr, layout.indptr, g,
                                 values.rows)

    return _record(out, (weights, values), vjp)


# ---------------------------------------------------------------------------
# nonlinearities and reductions
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = _wrap(a)
    out = np.maximum(a.data, 0.0)
    return _record(out, (a,), lambda g: (g * (a.data > 0),))


def leaky_relu(a, slope: float = 0.01) -> Tensor:
    a = _wrap(a)
    out = np.where(a.data > 0, a.data, slope * a.data)
    return _record(out, (a,), lambda g: (g * np.where(a.data > 0, 1.0, slope),))


def identity(a) -> Tensor:
    a = _wrap(a)
    return _record(a.data.copy(), (a,), lambda g: (g,))


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _record(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a) -> Tensor:
    a = _wrap(a)
    out = np.tanh(a.data)
    return _record(out, (a,), lambda g: (g * (1.0 - out * out),))


def log(a) -> Tensor:
    a = _wrap(a)
    out = np.log(a.data)
    return _record(out, (a,), lambda g: (g / a.data,))


def clamp(a, lo: float, hi: float) -> Tensor:
    a = _wrap(a)
    out = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)
    return _record(out, (a,), lambda g: (g * inside,))


def _softmax(x: np.ndarray, valid: np.ndarray) -> np.ndarray:
    e = np.where(valid, x, -np.inf)
    rowmax = e.max(axis=1, keepdims=True)
    rowmax[~np.isfinite(rowmax)] = 0.0
    np.exp(np.subtract(e, rowmax, out=e), out=e)  # invalid entries: +0.0
    s = e.sum(axis=1, keepdims=True)
    s[~(s > 0)] = 1.0
    return np.divide(e, s, out=e)


def _softmax_vjp(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    return out * (g - (g * out).sum(axis=1, keepdims=True))


def softmax_rows(a) -> Tensor:
    """Row-wise softmax, overflow-safe via per-row max subtraction."""
    a = _wrap(a)
    out = _softmax(a.data, True)
    return _record(out, (a,), lambda g: (_softmax_vjp(out, g),))


def l2_normalize_rows(a) -> Tensor:
    """Scale each row to unit L2 norm; all-zero rows are left at zero."""
    a = _wrap(a)
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    out = a.data / safe

    def vjp(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        da = (g - out * dot) / safe
        return (np.where(norms > 0, da, 0.0),)

    return _record(out, (a,), vjp)


def mean_all(a) -> Tensor:
    a = _wrap(a)
    n = a.data.size
    out = np.array([[a.data.mean()]])
    return _record(out, (a,), lambda g: (np.full_like(a.data, g[0, 0] / n),))


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
            if id(p) not in seen and _traced(p):
                stack.append((p, False))

    loss.grad = np.ones((1, 1))
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not _traced(parent):
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

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.step_count)
            v_hat = self.v[i] / (1 - b2 ** self.step_count)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.grad = None
