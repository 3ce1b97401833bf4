"""Dense float64 arrays with hand-written gradients, and Adam.

A training step's gradient is a straight chain of stages: the model's
layers, its output head and the loss. Each stage's forward returns its
output with a vjp, and a forward pass appends (vjp, parameter slots) to a
list only when its caller passes one, so inference keeps no vjp alive.
backward() runs the chain in reverse. Besides the loss (bce), nn holds
the array-level kernels over compressed neighbor rows that the layers use.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.sparse import _sparsetools

from .errors import ShapeError


PROB_CLAMP = 1e-7  # bce clamps p into [PROB_CLAMP, 1 - PROB_CLAMP]
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
# loss and backward pass
# ---------------------------------------------------------------------------

class Loss(NamedTuple):
    """A scalar loss and the stages that led to it, first stage first. A
    stage is (vjp, slots): vjp(g, need_input) takes the gradient of the
    stage's output and gives its input's gradient (None when need_input
    is false) followed by one gradient (or None) per parameter slot."""

    value: float
    stages: list


def bce(p: np.ndarray, y, stages: list | None = None) -> Loss:
    """Mean binary cross-entropy of probabilities p, an (n, 1) column,
    against 0/1 labels y, with p clamped into [PROB_CLAMP, 1 - PROB_CLAMP]
    (no gradient where the clamp bites). The loss is the last of `stages`.

    The value and vjp compute the floats of the chain clamp, log, mul,
    sub, log, mul, add, mean and neg, in that chain's order.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    if p.shape != y.shape:
        raise ShapeError(f"bce expects an (n, 1) column and n labels, "
                         f"got {p.shape} and {len(y)}")
    lo, hi = PROB_CLAMP, 1.0 - PROB_CLAMP
    pc = np.clip(p, lo, hi)
    inside = (p > lo) & (p < hi)
    s = y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)

    def vjp(g, need_input):
        d = np.full_like(s, -g[0, 0] / s.size)
        # keep + -drop, as the chain added them: keep - drop can differ in
        # which NaN survives when p is NaN
        keep, drop = (d * y) / pc, (d * (1.0 - y)) / (1.0 - pc)
        return ((keep + -drop) * inside,)

    stages = [] if stages is None else stages
    stages.append((vjp, ()))
    return Loss(float(-s.mean()), stages)


def backward(loss: Loss) -> dict[int, np.ndarray]:
    """Every parameter slot's gradient, from the loss stage back to the
    first stage, whose input (the features) gets none."""
    grads: dict[int, np.ndarray] = {}
    g = np.ones((1, 1))
    for k in range(len(loss.stages) - 1, -1, -1):
        vjp, slots = loss.stages[k]
        g, *parts = vjp(g, k > 0)
        for slot, part in zip(slots, parts):
            if part is not None:
                grads[slot] = part
    return grads


# ---------------------------------------------------------------------------
# initialization and optimization
# ---------------------------------------------------------------------------

def glorot_uniform(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform(-b, b) with b = sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


class AdamState:
    """Adam with bias correction over parameter arrays, updated in place.
    A slot missing from step()'s gradients moves as if its gradient were
    zero."""

    def __init__(self, params: list[np.ndarray], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads: dict[int, np.ndarray]):
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for i, p in enumerate(self.params):
            g = grads[i] if i in grads else np.zeros_like(p)
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.step_count)
            v_hat = self.v[i] / (1 - b2 ** self.step_count)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
