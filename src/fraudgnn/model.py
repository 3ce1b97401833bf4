"""Gated attention layers over sampled transaction neighborhoods.

A model is a stack of identical layers plus a two-logit output head. Each
layer attends over a node's sampled neighbors with scores damped by the
transaction time gap, scales the aggregated neighbor message by a
label-diversity gate, and applies a concat-update with row normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import nn
from .errors import CheckpointError, ConfigError, ShapeError, unreadable
from .nn import Tensor
from .tgraph import TransactionGraph

# name -> (forward, vjp); the vjp takes the upstream gradient and the
# forward's output (relu's output is positive exactly where its input is)
ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0), lambda g, y: g * (y > 0)),
    "tanh": (np.tanh, lambda g, y: g * (1.0 - y * y)),
    "sigmoid": (lambda x: 1.0 / (1.0 + np.exp(-x)),
                lambda g, y: g * y * (1.0 - y)),
    "identity": (lambda x: x, lambda g, y: g),
}

LEAKY_SLOPE = 0.01  # of the LeakyReLU on attention scores

TIME_MODES = ("decay", "interval")

CHECKPOINT_MAGIC = "fraudgnn-checkpoint"
CHECKPOINT_VERSION = 1

INIT_SEED_TAG = 2


@dataclass
class ModelConfig:
    """Architecture knobs shared by training and inference."""

    k_layers: int = 3
    hidden_dim: int = 32
    tau_seconds: float = 1800.0
    activation: str = "relu"
    time_mode: str = "decay"
    use_attention: bool = True
    use_gate: bool = True

    def __post_init__(self):
        if self.k_layers < 1:
            raise ConfigError(f"k_layers must be >= 1, got {self.k_layers}")
        if self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if not self.tau_seconds > 0:
            raise ConfigError(f"tau_seconds must be positive, got {self.tau_seconds}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"unknown activation {self.activation!r}; "
                f"choose from {sorted(ACTIVATIONS)}")
        if self.time_mode not in TIME_MODES:
            raise ConfigError(
                f"unknown time_mode {self.time_mode!r}; choose from {TIME_MODES}")


@dataclass
class LayerParams:
    """One layer's trainables.

    W combines concat(own state, gated neighbor message), so its row count is
    twice the input width. attn scores a neighbor pair from the projected
    states of both endpoints; the projection is W's neighbor-facing row block,
    so attn has one entry per projected output of each endpoint.
    """

    W: Tensor
    attn: Tensor

    @property
    def d_in(self) -> int:
        return self.W.rows // 2

    @property
    def d_out(self) -> int:
        return self.W.cols


@dataclass
class ModelParams:
    feature_dim: int
    config: ModelConfig
    layers: list[LayerParams] = field(default_factory=list)
    head: Tensor | None = None

    def parameters(self) -> list[Tensor]:
        out = []
        for layer in self.layers:
            out.append(layer.W)
            out.append(layer.attn)
        out.append(self.head)
        return out

    def untraced(self) -> ModelParams:
        """The same arrays as constants: a forward pass on them records no
        tape, and gives the bits a traced pass gives."""
        return ModelParams(
            self.feature_dim, self.config,
            [LayerParams(W=Tensor(layer.W.data), attn=Tensor(layer.attn.data))
             for layer in self.layers],
            Tensor(self.head.data))


def init_params(feature_dim: int, config: ModelConfig, seed: int) -> ModelParams:
    """Seeded glorot-uniform initialization for every layer and the head."""
    if feature_dim < 1:
        raise ConfigError(f"feature_dim must be >= 1, got {feature_dim}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, INIT_SEED_TAG)))
    params = ModelParams(feature_dim=feature_dim, config=config)
    d_in = feature_dim
    for _ in range(config.k_layers):
        d_out = config.hidden_dim
        W = nn.glorot_uniform(2 * d_in, d_out, rng)
        attn = nn.glorot_uniform(2 * d_out, 1, rng)
        params.layers.append(LayerParams(W=W, attn=attn))
        d_in = d_out
    params.head = nn.glorot_uniform(d_in, 2, rng)
    return params


# ---------------------------------------------------------------------------
# neighborhood batching
# ---------------------------------------------------------------------------

class Neighborhoods(nn.CompressedRows):
    """One layer's sampled neighbors of each node row, as compressed rows.

    Node row i's neighbor rows are nbr[indptr[i]:indptr[i + 1]], and dt
    holds each entry's |timestamp gap| in seconds. The layer's per-entry
    weight columns are built on first use and kept here, so the arrays
    must not change after that.
    """

    def __init__(self, indptr: np.ndarray, nbr: np.ndarray, dt: np.ndarray):
        super().__init__(indptr, nbr)
        self.dt = dt
        self._time_columns: dict = {}

    @property
    def n_nodes(self) -> int:
        return self.n_rows

    def take(self, rows: np.ndarray,
             within: np.ndarray | None = None) -> Neighborhoods:
        """The rows `rows` alone, in their order. nbr names positions in
        `within`, ascending rows that hold every neighbor of `rows`, or
        rows of the whole node table when within is None."""
        counts = np.diff(self.indptr)[rows]
        indptr = np.concatenate(([0], np.cumsum(counts)))
        pos = (np.repeat(self.indptr[rows] - indptr[:-1], counts)
               + np.arange(indptr[-1]))
        nbr = self.nbr[pos]
        if within is not None:
            nbr = np.searchsorted(within, nbr)
        return Neighborhoods(indptr, nbr, self.dt[pos])

    @cached_property
    def uniform_column(self) -> np.ndarray:
        return uniform_weights(self).reshape(-1, 1)

    def time_column(self, config: ModelConfig) -> np.ndarray:
        """time_factors as one column; tau keys decay mode only."""
        key = (config.time_mode, config.time_mode == "decay" and config.tau_seconds)
        if key not in self._time_columns:
            self._time_columns[key] = time_factors(self, config).reshape(-1, 1)
        return self._time_columns[key]


def pack_rows(graph: TransactionGraph, src: np.ndarray,
              nbr: np.ndarray) -> Neighborhoods:
    """(node row, neighbor row) pairs grouped by ascending node row, as
    compressed rows; a row keeps its pairs' order."""
    counts = np.bincount(src, minlength=graph.n_nodes)
    ts = graph.timestamps
    return Neighborhoods(np.concatenate(([0], np.cumsum(counts))), nbr,
                         np.abs(ts[nbr] - ts[src]).astype(np.float64))


def time_factors(nb: Neighborhoods, config: ModelConfig) -> np.ndarray:
    """Per-entry damping in (0,1] from the transaction time gap.

    decay mode shrinks with the gap (nearby interactions matter more).
    interval mode is the literal per-node min-max rescaling of the gap,
    kept behind the config switch; rows with a single distinct gap get 1.
    """
    if config.time_mode == "decay":
        return np.exp(-nb.dt / config.tau_seconds)
    counts = np.diff(nb.indptr)
    counts = counts[counts > 0]
    starts = np.cumsum(counts) - counts
    lo = np.repeat(np.minimum.reduceat(nb.dt, starts), counts)
    span = np.repeat(np.maximum.reduceat(nb.dt, starts), counts) - lo
    degenerate = ~np.isfinite(span) | (span <= 0)
    safe = np.where(degenerate, 1.0, span)
    return np.where(degenerate, 1.0, (nb.dt - lo) / safe)


# ---------------------------------------------------------------------------
# diversity gate
# ---------------------------------------------------------------------------

def neighbor_diversity(labels: np.ndarray, nb: Neighborhoods) -> np.ndarray:
    """Label entropy of each node's sampled neighborhood (natural log).

    labels holds an effective 0/1 class per node row. Empty neighborhoods
    get diversity 0. Pure neighborhoods land on exactly 0.0 and balanced
    ones on exactly ln 2.
    """
    counts = np.diff(nb.indptr).astype(np.float64)
    ones = nb.row_sum(np.asarray(labels)[nb.nbr])  # 0/1 sums are exact
    safe = np.where(counts > 0, counts, 1.0)
    p1 = ones / safe
    p0 = (safe - ones) / safe

    def xlogx(p):
        return np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)

    d = -(xlogx(p0) + xlogx(p1))
    return np.where(counts > 0, d, 0.0)


def aggregation_gate(diversity: np.ndarray) -> np.ndarray:
    """Sigmoid of the negated batch-normalized diversity, one gate per node.

    Normalization uses the population variance with a 1e-5 guard inside the
    square root, so an all-equal batch maps to gates of exactly 0.5.
    """
    d = np.asarray(diversity, dtype=np.float64)
    mean = d.mean()
    var = d.var()
    norm = (d - mean) / np.sqrt(var + 1e-5)
    return 1.0 / (1.0 + np.exp(norm))


@dataclass
class DiversityStats:
    """Per-node diversity and the gates derived from it."""

    diversity: np.ndarray
    gate: np.ndarray


def diversity_stats(labels: np.ndarray, nb: Neighborhoods) -> DiversityStats:
    d = neighbor_diversity(labels, nb)
    return DiversityStats(diversity=d, gate=aggregation_gate(d))


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

class Attention(NamedTuple):
    """A layer's attention coefficients, with the arrays its vjp reads.
    All but proj are (n_entries, 1) columns in entry order."""

    weights: np.ndarray  # alpha damped by the time factors
    alpha: np.ndarray    # softmax over each row of the LeakyReLU'd scores
    raw: np.ndarray      # pair scores before the LeakyReLU
    proj: np.ndarray     # h_prev's rows by W's neighbor-facing row block


def attention_weights(h_prev: np.ndarray, nb: Neighborhoods,
                      layer: LayerParams, config: ModelConfig,
                      own: np.ndarray | None = None) -> Attention:
    """Per-neighbor coefficients: damped softmax of pair scores.

    Each endpoint is projected by W's neighbor-facing row block; the attn
    vector scores the concatenated projections, split here into a self part
    and a neighbor part so no pairwise concat is materialized. Scores pass
    through LeakyReLU, a softmax over each node's neighbors, and the
    time-gap damping. There is one coefficient per entry of nb.

    nb's rows are h_prev's rows at `own` (every row of h_prev when own is
    None) and its nbr names rows of h_prev; the products run on h_prev's
    rows.
    """
    d_in, d_out = layer.d_in, layer.d_out
    W, attn = layer.W.data, layer.attn.data
    # the blocks are copies, as the op chain's slices were, so BLAS gets
    # operands of the same alignment here and in the vjp
    proj = h_prev @ W[d_in:].copy()
    score_self = proj @ attn[:d_out].copy()
    score_neigh = proj @ attn[d_out:].copy()
    if own is not None:
        score_self = score_self[own]
    raw = score_self[nb.src] + score_neigh[nb.nbr]
    alpha = nb.row_softmax(
        np.where(raw > 0, raw, LEAKY_SLOPE * raw)[:, 0]).reshape(-1, 1)
    return Attention(alpha * nb.time_column(config), alpha, raw, proj)


def uniform_weights(nb: Neighborhoods) -> np.ndarray:
    """Plain averaging coefficients: 1/|neighbors| for each entry."""
    return 1.0 / np.diff(nb.indptr)[nb.src]


def _placed(g: np.ndarray, key, shape: tuple[int, ...]) -> np.ndarray:
    """g written at key into zeros: the gradient a row block or a row pick
    sends back to the whole array."""
    out = np.zeros(shape)
    out[key] = g
    return out


def layer_forward(h_prev: Tensor, nb: Neighborhoods, layer: LayerParams,
                  gates: np.ndarray | None, config: ModelConfig,
                  own: np.ndarray | None = None) -> Tensor:
    """One layer: weighted neighbor sum, gate, concat update, row normalize.

    The layer produces nb's rows, which are h_prev's rows at `own` (every
    row of h_prev when own is None); nb's nbr names rows of h_prev. gates
    is a column of constants, one per row of nb (no gradient flows through
    it); pass None to skip gating (treated as all ones).

    The layer is one tape node over h_prev, W and attn. Its vjp gives the
    floats of the chain of single ops in tests/reference.py
    (chain_layer_forward), in that chain's order. Where a parent fed
    several ops, its parts add up as nn.backward added them: h_prev's as
    (own rows + neighbor sum) + projection, W's as update product + the
    projection block, attn's as self block + neighbor block, each block
    padded with zeros, which turns a -0.0 into +0.0.
    """
    if h_prev.cols != layer.d_in:
        raise ShapeError(
            f"layer expects width {layer.d_in}, got {h_prev.cols}")
    d_in, d_out = layer.d_in, layer.d_out
    h, W = h_prev.data, layer.W.data
    att = (attention_weights(h, nb, layer, config, own)
           if config.use_attention else None)
    weights = nb.uniform_column if att is None else att.weights
    agg = nn.neighbor_sum(weights, h, nb)
    gate = None
    if config.use_gate and gates is not None:
        gate = np.asarray(gates, dtype=np.float64).reshape(-1, 1)
        agg = agg * gate
    cat = np.concatenate([h if own is None else h[own], agg], axis=1)
    activate, activation_vjp = ACTIVATIONS[config.activation]
    post = activate(cat @ W)
    norms = np.linalg.norm(post, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    out = post / safe

    def vjp(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        g = activation_vjp(np.where(norms > 0, (g - out * dot) / safe, 0.0),
                           post)
        dW = cat.T @ g
        if not h_prev.requires_grad and att is None:
            return None, dW
        d_cat = g @ W.T
        d_agg = d_cat[:, d_in:] if gate is None else d_cat[:, d_in:] * gate
        dh = None
        if h_prev.requires_grad:
            dh = (d_cat[:, :d_in] if own is None
                  else _placed(d_cat[:, :d_in], own, h.shape))
            dh = dh + nn.neighbor_sum_transpose(weights, d_agg, nb, len(h))
        if att is None:
            return dh, dW
        # time damping, softmax, LeakyReLU, then the scores' two sums
        d_alpha = (np.vecdot(d_agg[nb.src], h[nb.nbr])[:, None]
                   * nb.time_column(config))
        alpha = att.alpha
        d_soft = alpha * (d_alpha - nb.row_sum(
            (d_alpha * alpha)[:, 0])[nb.src, None])
        d_raw = d_soft * np.where(att.raw > 0, 1.0, LEAKY_SLOPE)
        d_self = nb.row_sum(d_raw[:, 0]).reshape(-1, 1)
        if own is not None:
            d_self = _placed(d_self, own, (len(h), 1))
        d_neigh = np.bincount(nb.nbr, weights=d_raw[:, 0],
                              minlength=len(h)).reshape(-1, 1)
        attn = layer.attn.data
        d_proj = (d_self @ attn[:d_out].copy().T
                  + d_neigh @ attn[d_out:].copy().T)
        d_attn = (_placed(att.proj.T @ d_self, np.s_[:d_out], attn.shape)
                  + _placed(att.proj.T @ d_neigh, np.s_[d_out:], attn.shape))
        if dh is not None:
            dh = dh + d_proj @ W[d_in:].copy().T
        dW = dW + _placed(h.T @ d_proj, np.s_[d_in:], W.shape)
        return dh, dW, d_attn

    parents = (h_prev, layer.W) + (() if att is None else (layer.attn,))
    return nn.record(out, parents, vjp)


def receptive_rows(neighborhoods: list[Neighborhoods],
                   rows: np.ndarray | None) -> list[np.ndarray | None]:
    """The rows each layer must produce for the output at `rows`.

    The last layer produces `rows`; each layer below produces the rows
    above it plus their sampled neighbors. Sets come ascending. A set of
    more than half the graph, and every set below it, is None: that layer
    runs on every row with its cached table.
    """
    out: list[np.ndarray | None] = [None] * len(neighborhoods)
    if rows is None:
        return out
    n = neighborhoods[0].n_nodes
    need = np.zeros(n, dtype=bool)
    need[rows] = True
    for k in range(len(neighborhoods) - 1, -1, -1):
        field_rows = np.flatnonzero(need)
        if 2 * len(field_rows) > n:
            break
        out[k] = field_rows
        nb = neighborhoods[k]
        need[nb.nbr[need[nb.src]]] = True
    return out


def forward(params: ModelParams, features: np.ndarray,
            neighborhoods: list[Neighborhoods], gates: np.ndarray | None,
            rows: np.ndarray | None = None) -> Tensor:
    """Fraud probabilities as a column: one per node, or with `rows`
    (distinct node rows) one per entry of rows, in their order.

    With rows, each layer's state holds its receptive_rows only, and every
    product runs on those rows (README, determinism).
    """
    if len(neighborhoods) != params.config.k_layers:
        raise ShapeError(
            f"need {params.config.k_layers} neighborhood sets, "
            f"got {len(neighborhoods)}")
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.feature_dim:
        raise ShapeError(
            f"features must be (n, {params.feature_dim}), got {features.shape}")
    h = Tensor(features)
    below = None  # the rows of h, ascending; None: every node
    for layer, nb, field_rows in zip(params.layers, neighborhoods,
                                     receptive_rows(neighborhoods, rows)):
        layer_gates, own = gates, None
        if field_rows is not None:
            nb = nb.take(field_rows, below)
            own = (field_rows if below is None
                   else np.searchsorted(below, field_rows))
            if gates is not None:
                layer_gates = np.asarray(gates)[field_rows]
        h = layer_forward(h, nb, layer, layer_gates, params.config, own)
        below = field_rows
    logits = nn.matmul(h, params.head)
    probs = nn.slice_cols(nn.softmax_rows(logits), 1, 2)
    if rows is None:
        return probs
    return nn.pick_rows(probs, rows if below is None
                        else np.searchsorted(below, rows))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _tensor_lines(name: str, t: Tensor) -> list[str]:
    lines = [f"TENSOR {name} {t.rows} {t.cols}"]
    for row in t.data:
        lines.append(" ".join(float(x).hex() for x in row))
    return lines


def checkpoint_text(params: ModelParams) -> str:
    """Versioned text dump; floats stored as hex so round-trips are bit-exact."""
    cfg = params.config
    lines = [
        f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}",
        f"feature_dim {params.feature_dim}",
        f"k_layers {cfg.k_layers}",
        f"hidden_dim {cfg.hidden_dim}",
        f"tau_seconds {repr(float(cfg.tau_seconds))}",
        f"activation {cfg.activation}",
        f"time_mode {cfg.time_mode}",
        f"use_attention {int(cfg.use_attention)}",
        f"use_gate {int(cfg.use_gate)}",
    ]
    for i, layer in enumerate(params.layers):
        lines.extend(_tensor_lines(f"layer{i}.W", layer.W))
        lines.extend(_tensor_lines(f"layer{i}.attn", layer.attn))
    lines.extend(_tensor_lines("head", params.head))
    lines.append("END")
    return "\n".join(lines) + "\n"


def _number(what: str, text: str, parse=int):
    try:
        return parse(text)
    except (ValueError, OverflowError):
        raise CheckpointError(f"checkpoint {what}: malformed number {text!r}") from None


def _read_tensor(lines: list[str], pos: int, expect_name: str) -> tuple[Tensor, int]:
    if pos >= len(lines):
        raise CheckpointError(f"checkpoint truncated before {expect_name}")
    parts = lines[pos].split()
    if len(parts) != 4 or parts[0] != "TENSOR" or parts[1] != expect_name:
        raise CheckpointError(
            f"expected tensor {expect_name!r} at line {pos + 1}, got {lines[pos]!r}")
    rows = _number(f"tensor {expect_name} rows", parts[2])
    cols = _number(f"tensor {expect_name} cols", parts[3])
    if rows < 1 or cols < 1:
        raise CheckpointError(f"tensor {expect_name} has shape {(rows, cols)}")
    if pos + rows >= len(lines):
        raise CheckpointError(f"checkpoint truncated inside tensor {expect_name}")
    data = []
    for r in range(rows):
        fields = lines[pos + 1 + r].split()
        if len(fields) != cols:
            raise CheckpointError(
                f"tensor {expect_name}: row {r} has {len(fields)} values, "
                f"expected {cols}")
        data.append([_number(f"tensor {expect_name} row {r}", f, float.fromhex)
                     for f in fields])
    return Tensor(np.array(data), requires_grad=True), pos + 1 + rows


def load_params(path: str) -> ModelParams:
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise unreadable("checkpoint", path, exc) from None
    if not lines or not lines[0].startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"not a model checkpoint: {path}")
    version = lines[0].split()[-1]
    if version != f"v{CHECKPOINT_VERSION}":
        raise CheckpointError(f"unsupported checkpoint version {version}")

    header: dict[str, str] = {}
    pos = 1
    while pos < len(lines) and not lines[pos].startswith("TENSOR"):
        key, _, value = lines[pos].partition(" ")
        header[key] = value
        pos += 1
    try:
        config = ModelConfig(
            k_layers=_number("k_layers", header["k_layers"]),
            hidden_dim=_number("hidden_dim", header["hidden_dim"]),
            tau_seconds=_number("tau_seconds", header["tau_seconds"], float),
            activation=header["activation"],
            time_mode=header["time_mode"],
            use_attention=bool(_number("use_attention", header["use_attention"])),
            use_gate=bool(_number("use_gate", header["use_gate"])),
        )
        feature_dim = _number("feature_dim", header["feature_dim"])
    except KeyError as exc:
        raise CheckpointError(f"checkpoint header missing field {exc}") from None

    params = ModelParams(feature_dim=feature_dim, config=config)
    d_in = feature_dim
    for i in range(config.k_layers):
        W, pos = _read_tensor(lines, pos, f"layer{i}.W")
        attn, pos = _read_tensor(lines, pos, f"layer{i}.attn")
        if W.shape != (2 * d_in, config.hidden_dim):
            raise CheckpointError(
                f"layer{i}.W has shape {W.shape}, expected "
                f"{(2 * d_in, config.hidden_dim)}")
        if attn.shape != (2 * config.hidden_dim, 1):
            raise CheckpointError(
                f"layer{i}.attn has shape {attn.shape}, expected "
                f"{(2 * config.hidden_dim, 1)}")
        params.layers.append(LayerParams(W=W, attn=attn))
        d_in = config.hidden_dim
    head, pos = _read_tensor(lines, pos, "head")
    if head.shape != (d_in, 2):
        raise CheckpointError(
            f"head has shape {head.shape}, expected {(d_in, 2)}")
    params.head = head
    if pos >= len(lines) or lines[pos] != "END":
        raise CheckpointError("checkpoint missing END marker")
    return params
