"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: quadratic pair scans, per-node scalar
loops, and brute-force pair counting. These implementations share as little
structure as possible with the library's vectorized code paths so that
agreement between the two is meaningful evidence. The per-node sampler
(sample_neighborhood and the functions it calls) and pack_neighborhoods make
sampler.sample_layer's and model.pack_rows' picks one node at a time;
loop_sample_layer (a lexsort per wide row) and loop_fraud_extras (one fraud
node at a time) are the row loops that sample_layer's degree-bucket
partition and _fraud_extras' batched pair scores replaced. The padded
(n, width) neighbor table, which model.Neighborhoods' compressed rows
replaced, is kept here with the functions and the layer that read it, as
their oracle.
loop_edge_scores normalizes the edge scores one row at a time, the
oracle of edge_scores' degree groups.
scipy.stats.rankdata and the per-score ROC loop are the oracles of
metrics.auc's and metrics.roc_points' tie groups. The random modes' race
over hashed uniforms is redone here in Python integers (splitmix64,
race_uniform, race_pick); the draws it replaced, a numpy Generator per
node (choice_pick) and one stream per layer in row order
(uniform_neighborhoods), are kept as oracles of the old path.
The elementwise ops nn had before nn.bce (add, sub, neg, ln, clamp,
mean_all) are glue for gradient tests and the padded attention here;
chain_bce, the nine-node loss they built, is nn.bce's bit oracle.
The per-layer ops nn had before model.layer_forward became one tape node
(mul, concat, slice_rows, gather, add_rows, softmax_entries, the
activations, l2_normalize_rows, and neighbor_sum on a scipy matrix
object) build chain_layer_forward, that op's bit oracle.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse
import scipy.stats

from fraudgnn import nn
from fraudgnn.datagen import (_FIXED_COLUMNS, DOWNSAMPLE_SEED_TAG,
                              SPLIT_SEED_TAG, DataSchema, IngestResult,
                              SplitSpec)
from fraudgnn.errors import (ConfigError, IngestError, InputError, ShapeError,
                             unreadable)
from fraudgnn.model import LEAKY_SLOPE, ModelConfig, Neighborhoods, forward
from fraudgnn.sampler import SamplerConfig, _entry_keys, combine_seed
from fraudgnn.tgraph import (UNLABELED, Proposition, TransactionGraph,
                             TransactionRecord, pair_scores)

log = logging.getLogger(__name__)


def evaluate_proposition(p: Proposition, a: TransactionRecord, b: TransactionRecord) -> bool:
    """True iff the named raw fields are equal and the time gap fits the window (inclusive)."""
    if a.id == b.id:
        raise InputError("proposition is defined over distinct records only")
    for r in (a, b):
        if p.field not in r.raw:
            raise ConfigError(
                f"proposition {p.name!r} references raw field {p.field!r} "
                f"missing from record {r.id}"
            )
    if a.raw[p.field] != b.raw[p.field]:
        return False
    return abs(a.timestamp - b.timestamp) <= p.window_seconds


def naive_build_graph(records, props):
    """Quadratic construction: test every pair against every proposition."""
    adj = {r.id: [] for r in records}
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            for pi, p in enumerate(props):
                if evaluate_proposition(p, a, b):
                    adj[a.id].append((b.id, pi))
                    adj[b.id].append((a.id, pi))
    for v in adj:
        adj[v].sort()
    return adj


def typed_neighbors(g: TransactionGraph, v) -> list:
    """Node v's sorted (neighbor id, proposition index) pairs, from g.edges."""
    row, (a, b, k) = g.index_of(v), g.edges.T
    nbr = np.concatenate([b[a == row], a[b == row]])
    prop = np.concatenate([k[a == row], k[b == row]])
    return sorted(zip(np.array(g.node_ids)[nbr].tolist(), prop.tolist()))


def adjacency(g: TransactionGraph) -> dict:
    """Node id -> typed_neighbors, the per-node lists g.adj once held."""
    return {v: typed_neighbors(g, v) for v in g.node_ids}


def naive_max_weight(records_by_id, props, a_id, b_id):
    best = 0
    a, b = records_by_id[a_id], records_by_id[b_id]
    for p in props:
        if evaluate_proposition(p, a, b):
            best = max(best, p.weight)
    return best


def naive_similarity(a: TransactionRecord, b: TransactionRecord) -> float:
    def unit(v):
        n = math.sqrt(sum(float(x) * float(x) for x in v))
        return [float(x) / n for x in v] if n > 0 else [0.0] * len(v)

    ua, ub = unit(a.attrs), unit(b.attrs)
    return math.exp(sum(x * y for x, y in zip(ua, ub)))


def naive_selection_probabilities(records, props, v_id):
    """Weight x similarity over v's neighbors, from first principles."""
    by_id = {r.id: r for r in records}
    adj = naive_build_graph(records, props)
    neighbor_ids = sorted({u for u, _ in adj[v_id]})
    scores = {}
    for u in neighbor_ids:
        w = naive_max_weight(by_id, props, v_id, u)
        scores[u] = w * naive_similarity(by_id[v_id], by_id[u])
    total = sum(scores.values())
    if total == 0:
        return {}
    return {u: s / total for u, s in scores.items()}


def naive_topz(probs: dict, z: int) -> list:
    """Sort by probability descending, ids ascending, keep z, return sorted ids."""
    ranked = sorted(probs.items(), key=lambda kv: (-kv[1], kv[0]))
    return sorted(u for u, _ in ranked[:z])


@dataclass
class SampledNeighborhood:
    """Selected neighbor ids for one node plus their selection probabilities.

    Over-sampled fraud extras are not part of the probability model and carry
    probability 0.0.
    """

    node: int
    selected: list[int] = field(default_factory=list)
    probabilities: list[float] = field(default_factory=list)


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def similarity(a: TransactionRecord, b: TransactionRecord) -> float:
    """exp(dot of the L2-normalized feature vectors); zero vectors stay zero."""
    if a.attrs.shape != b.attrs.shape or a.attrs.size == 0:
        raise InputError(
            f"attr length mismatch: {a.attrs.shape[0] if a.attrs.size else 0} vs "
            f"{b.attrs.shape[0] if b.attrs.size else 0}"
        )
    return float(np.exp(np.dot(_unit(a.attrs), _unit(b.attrs))))


def _row(g: TransactionGraph, v: int,
         scores: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor ids of v, ascending, and their selection probabilities.

    Slices ``scores`` (``g.edge_scores``) when given, else scores v's
    neighbors alone.
    """
    row = g.index_of(v)
    csr = g.csr
    span = csr.span(row)
    if scores is None:
        raw = pair_scores(g.unit_features, np.full(span.stop - span.start, row),
                          csr.rows[span], csr.weight[span])
        return csr.ids[span], raw / raw.sum()
    if len(scores) != len(csr.ids):
        raise InputError(f"scores cover {len(scores)} edges but the graph "
                         f"has {len(csr.ids)}; pass g.edge_scores")
    return csr.ids[span], scores[span]


def selection_probabilities(g: TransactionGraph, v: int) -> dict[int, float]:
    """Per-neighbor selection probability: weight x similarity, normalized.

    Isolated nodes get an empty map; callers fall back to a self-only
    neighborhood.
    """
    ids, p = _row(g, v, None)
    return dict(zip(ids.tolist(), p.tolist()))


_U64 = (1 << 64) - 1
_SEED_MASK = (1 << 63) - 1


def splitmix64(x: int) -> int:
    """splitmix64's output function on a Python integer, modulo 2**64."""
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def race_uniform(seed: int, v: int, nb: int) -> float:
    """The uniform of the (node v, neighbor nb) entry under seed; negative
    ids enter as their two's complement."""
    h = splitmix64(int(seed) & _SEED_MASK)
    h = splitmix64(splitmix64(h ^ (int(v) & _U64)) ^ (int(nb) & _U64))
    return ((h >> 11) + 0.5) * 2.0 ** -53


def race_pick(seed: int, v: int, ids, p, z: int) -> list[int]:
    """Node v's z first finishers, id-sorted: neighbor i finishes at
    -log(u_i) / p_i, or at -log(u_i) when p is None (uniform), ties by
    ascending id."""
    weights = [1.0] * len(ids) if p is None else p
    finish = sorted((-math.log(race_uniform(seed, v, i)) / w, i)
                    for i, w in zip(ids, weights))
    return sorted(i for _, i in finish[:z])


def choice_pick(cfg: SamplerConfig, v: int, ids, p, z: int) -> list[int]:
    """Weighted mode's draw before the race: Generator.choice of z ids
    without replacement, in proportion to p, from node v's own stream,
    keyed by (seed, node id)."""
    p = np.asarray(p, dtype=np.float64)
    rng = np.random.default_rng((cfg.seed & _SEED_MASK, v & _SEED_MASK))
    chosen = rng.choice(np.asarray(ids), size=z, replace=False, p=p / p.sum())
    return sorted(int(i) for i in chosen)


def sample_topz(g: TransactionGraph, v: int, k: int, cfg: SamplerConfig,
                scores: np.ndarray | None = None) -> list[int]:
    """Select up to z_hat[k] neighbors of v by selection probability.

    Deterministic mode keeps the top probabilities (ties broken by ascending
    id); weighted mode keeps the race's first finishers (race_pick);
    uniform mode is rejected with ConfigError.
    ``scores`` is g.edge_scores; without it v's neighbors are scored here.
    """
    if cfg.mode == "uniform":
        raise ConfigError("sample_topz serves the adaptive modes, not uniform")
    ids, p = _row(g, v, scores)
    z = cfg.z_hat[k]
    if len(ids) <= z:
        return ids.tolist()
    if cfg.mode == "deterministic_topz":
        order = np.lexsort((ids, -p))[:z]
        return sorted(ids[order].tolist())
    return race_pick(cfg.seed, v, ids.tolist(), p.tolist(), z)


def oversample_fraud(
    g: TransactionGraph,
    v: int,
    base: list[int],
    cfg: SamplerConfig,
    fraud_pool: list[int] | None = None,
) -> list[int]:
    """Extend a fraud node's neighborhood with similar non-adjacent fraud nodes.

    Candidates must be labeled fraud, must not be v, must not already be graph
    neighbors or selected, and must clear the similarity floor. The
    ``oversample_count`` most similar qualify. ``fraud_pool`` restricts the
    candidate ids (the trainer passes train-split fraud so ground truth is
    never read off held-out nodes).
    """
    if cfg.oversample_count == 0:
        return list(base)
    if fraud_pool is None:
        fraud_pool = [r.id for r in g.records if r.label == 1]
    excluded = set(base) | set(g.neighbors(v)) | {v}
    cand = [c for c in fraud_pool if c not in excluded and g.record(c).label == 1]
    if not cand:
        return list(base)
    u = g.unit_features
    uv = u[g.index_of(v)]
    sims = np.array([math.exp(float(np.dot(uv, u[g.index_of(c)]))) for c in cand])
    keep = sims >= cfg.similarity_floor
    cand = [c for c, k in zip(cand, keep) if k]
    sims = sims[keep]
    if not len(cand):
        return list(base)
    order = np.lexsort((np.array(cand), -sims))[: cfg.oversample_count]
    extras = sorted(int(cand[i]) for i in order)
    return list(base) + extras


def sample_neighborhood(
    g: TransactionGraph,
    v: int,
    k: int,
    cfg: SamplerConfig,
    oversample: bool = False,
    fraud_pool: list[int] | None = None,
    scores: np.ndarray | None = None,
) -> SampledNeighborhood:
    """Full per-node sampling: top-z filtering plus optional fraud over-sampling.

    ``scores`` is g.edge_scores, shared by every node and layer of a pass.
    """
    ids, p = _row(g, v, scores)
    chosen = sample_topz(g, v, k, cfg, scores=scores)
    probabilities = p[np.searchsorted(ids, chosen)].tolist()
    selected = chosen
    if oversample and g.record(v).label == 1:
        selected = oversample_fraud(g, v, chosen, cfg, fraud_pool=fraud_pool)
    # over-sampled extras are appended after the top-z picks
    probabilities += [0.0] * (len(selected) - len(chosen))
    return SampledNeighborhood(node=v, selected=selected,
                               probabilities=probabilities)


def loop_selection_probabilities(g: TransactionGraph, v) -> dict:
    """The sampler's scoring before cached edge scores: one neighbor at a time.

    Reads neighbors and pair weights straight off ``typed_neighbors`` and keeps the
    library's arithmetic (np.dot of unit rows, math.exp, numpy row sum), so
    the vectorized path must match it bit for bit.
    """
    best_w = {}
    for nb, pi in typed_neighbors(g, v):
        best_w[nb] = max(best_w.get(nb, 0), g.propositions[pi].weight)
    nbrs = sorted(best_w)
    if not nbrs:
        return {}
    x = g.features
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    u = np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)
    vi = g.index_of(v)
    scores = np.empty(len(nbrs))
    for j, nb in enumerate(nbrs):
        scores[j] = best_w[nb] * math.exp(float(np.dot(u[vi], u[g.index_of(nb)])))
    total = scores.sum()
    return {nb: float(s / total) for nb, s in zip(nbrs, scores)}


def loop_sample_topz(g: TransactionGraph, v, k: int, cfg) -> list:
    """Top-z (or weighted draw) over loop_selection_probabilities."""
    probs = loop_selection_probabilities(g, v)
    if not probs:
        return []
    z = cfg.z_hat[k]
    ids = np.array(sorted(probs))
    p = np.array([probs[i] for i in ids])
    if len(ids) <= z:
        return [int(i) for i in ids]
    if cfg.mode == "deterministic_topz":
        order = np.lexsort((ids, -p))[:z]
        return sorted(int(ids[i]) for i in order)
    return race_pick(cfg.seed, v, ids.tolist(), p.tolist(), z)


def loop_sample_neighborhood(g: TransactionGraph, v, k: int, cfg,
                             oversample: bool = False, fraud_pool=None,
                             scores=None):
    """sample_neighborhood over the loop scorer; ``scores`` is ignored."""
    probs = loop_selection_probabilities(g, v)
    selected = loop_sample_topz(g, v, k, cfg)
    if oversample and g.record(v).label == 1:
        selected = oversample_fraud(g, v, selected, cfg, fraud_pool=fraud_pool)
    return SampledNeighborhood(
        node=v, selected=selected,
        probabilities=[probs.get(s, 0.0) for s in selected])


def loop_edge_scores(g: TransactionGraph) -> np.ndarray:
    """TransactionGraph.edge_scores normalized one row slice at a time."""
    csr = g.csr
    src = np.repeat(np.arange(g.n_nodes), np.diff(csr.indptr))
    raw = pair_scores(g.unit_features, src, csr.rows, csr.weight)
    probs = np.empty_like(raw)
    for lo, hi in zip(csr.indptr[:-1].tolist(), csr.indptr[1:].tolist()):
        probs[lo:hi] = raw[lo:hi] / raw[lo:hi].sum()
    return probs


def put_rows(a, rows, m: int) -> nn.Tensor:
    """(len(rows), d) -> (m, d): row i of a lands at distinct row rows[i]
    and every other row is zero: the adjoint of nn.pick_rows, whose
    gradient is this function's."""
    a = nn._wrap(a)
    rows = np.asarray(rows, dtype=np.int64)
    out = np.zeros((m, a.cols))
    out[rows] = a.data
    return nn.record(out, (a,), lambda g: (g[rows],))


def add_at_gather_vjp(m: int, idx, g) -> np.ndarray:
    """nn.gather's gradient before bincount: np.add.at into an (m, 1) column."""
    dv = np.zeros((m, 1))
    np.add.at(dv[:, 0], np.asarray(idx, dtype=np.int64).ravel(), g.ravel())
    return dv


def add_at_neighbor_sum_vjp(weights, m: int, idx, g) -> np.ndarray:
    """nn.neighbor_sum's values gradient before the sparse A.T @ g:
    np.add.at of every (n, z, d) product weights[i, j] * g[i]."""
    dv = np.zeros((m, g.shape[1]))
    np.add.at(dv, np.asarray(idx, dtype=np.int64),
              weights[:, :, None] * g[:, None, :])
    return dv


class Rectangle(NamedTuple):
    """A padded (n, width) neighbor table: idx holds neighbor rows, mask
    marks real entries, dt holds |timestamp gap| in seconds. Padding points
    at row 0 with mask False and gap 0."""

    idx: np.ndarray
    mask: np.ndarray
    dt: np.ndarray


class Table(Neighborhoods):
    """Neighborhoods read off a padded table `width` columns wide."""

    def __init__(self, indptr, nbr, dt, width: int):
        super().__init__(indptr, nbr, dt)
        self.width = width


def rectangle(nb: Neighborhoods) -> Rectangle:
    """nb as a padded table: row i's entries, in order, fill columns
    0 .. count - 1. A Table keeps its width; other Neighborhoods get their
    longest row's entry count, at least 1."""
    counts = np.diff(nb.indptr)
    width = (nb.width if isinstance(nb, Table)
             else max(int(counts.max(initial=0)), 1))
    col = np.arange(len(nb.nbr)) - nb.indptr[nb.src]
    idx = np.zeros((nb.n_nodes, width), dtype=np.int64)
    mask = np.zeros((nb.n_nodes, width), dtype=bool)
    dt = np.zeros((nb.n_nodes, width))
    idx[nb.src, col], mask[nb.src, col], dt[nb.src, col] = nb.nbr, True, nb.dt
    return Rectangle(idx, mask, dt)


def neighborhoods(idx, mask, dt) -> Table:
    """A padded table as a Table: each row's real entries, in column order,
    are the row's entries. rectangle() gives a table of left-packed rows
    (real entries first) back unchanged."""
    mask = np.asarray(mask, dtype=bool)
    return Table(np.concatenate(([0], np.cumsum(mask.sum(axis=1)))),
                 np.asarray(idx, dtype=np.int64)[mask],
                 np.asarray(dt, dtype=np.float64)[mask], mask.shape[1])


def padded(nb: Neighborhoods, entries) -> np.ndarray:
    """Per-entry values of nb laid out as its padded table (rectangle):
    the entries' values, zero on padding."""
    mask = rectangle(nb).mask
    out = np.zeros(mask.shape)
    out[mask] = np.ravel(entries)
    return out


def padded_pack_rows(graph: TransactionGraph, src: np.ndarray,
                     nbr: np.ndarray) -> Rectangle:
    """model.pack_rows before compressed rows: pad (node row, neighbor row)
    pairs grouped by ascending node row into a rectangle; a row keeps its
    pairs' order."""
    counts = np.bincount(src, minlength=graph.n_nodes)
    width = max(int(counts.max()), 1)
    col = np.arange(len(src)) - (np.cumsum(counts) - counts)[src]
    idx = np.zeros((graph.n_nodes, width), dtype=np.int64)
    mask = np.zeros((graph.n_nodes, width), dtype=bool)
    dt = np.zeros((graph.n_nodes, width), dtype=np.float64)
    ts = graph.timestamps
    idx[src, col] = nbr
    mask[src, col] = True
    dt[src, col] = np.abs(ts[nbr] - ts[src])
    return Rectangle(idx=idx, mask=mask, dt=dt)


def padded_time_factors(t: Rectangle, config: ModelConfig) -> np.ndarray:
    """model.time_factors on a padded table; padding gets 0."""
    if config.time_mode == "decay":
        out = np.exp(-t.dt / config.tau_seconds)
    else:
        lo = np.where(t.mask, t.dt, np.inf).min(axis=1, keepdims=True)
        hi = np.where(t.mask, t.dt, -np.inf).max(axis=1, keepdims=True)
        span = hi - lo
        degenerate = ~np.isfinite(span) | (span <= 0)
        safe = np.where(degenerate, 1.0, span)
        out = np.where(degenerate, 1.0, (t.dt - lo) / safe)
    return np.where(t.mask, out, 0.0)


def padded_uniform_weights(t: Rectangle) -> np.ndarray:
    """model.uniform_weights on a padded table; padding gets 0."""
    counts = t.mask.sum(axis=1, keepdims=True).astype(np.float64)
    return np.where(t.mask, 1.0 / np.where(counts > 0, counts, 1.0), 0.0)


def padded_neighbor_diversity(labels: np.ndarray, t: Rectangle) -> np.ndarray:
    """model.neighbor_diversity on a padded table."""
    labels = np.asarray(labels)
    counts = t.mask.sum(axis=1).astype(np.float64)
    ones = (labels[t.idx] * t.mask).sum(axis=1).astype(np.float64)
    safe = np.where(counts > 0, counts, 1.0)
    p1 = ones / safe
    p0 = (safe - ones) / safe

    def xlogx(p):
        return np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)

    d = -(xlogx(p0) + xlogx(p1))
    return np.where(counts > 0, d, 0.0)


def padded_scatter_rows(coef: np.ndarray, idx: np.ndarray, g: np.ndarray,
                        m: int) -> np.ndarray:
    """nn's scatter over a padded (n, z) table: every cell, padding
    included, as A.T @ g in (i, j) order."""
    n, z = idx.shape
    a = scipy.sparse.csr_matrix(
        (coef.ravel(), idx.ravel(), np.arange(0, n * z + 1, z)), shape=(n, m))
    return a.T @ g


def padded_gather(values, idx) -> nn.Tensor:
    """nn.gather on a padded table: a column vector (m,1) indexed with an
    (n,z) index matrix -> (n,z)."""
    values = nn._wrap(values)
    if values.cols != 1:
        raise ShapeError(f"gather expects a column vector, got {values.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    out = values.data[idx, 0]

    def vjp(g):
        dv = np.bincount(idx.ravel(), weights=g.ravel(), minlength=values.rows)
        return (dv.reshape(-1, 1),)

    return nn.record(out, (values,), vjp)


def padded_neighbor_sum(weights, values, idx) -> nn.Tensor:
    """nn.neighbor_sum on a padded table:
    out[i] = sum_j weights[i,j] * values[idx[i,j]]  ((n,z),(m,d),(n,z) -> (n,d))."""
    weights, values = nn._wrap(weights), nn._wrap(values)
    idx = np.asarray(idx, dtype=np.int64)
    if weights.shape != idx.shape:
        raise ShapeError(f"neighbor_sum weights {weights.shape} vs idx {idx.shape}")
    gathered = np.take(values.data, idx, axis=0)  # (n, z, d)
    out = np.einsum("nz,nzd->nd", weights.data, gathered)

    def vjp(g):
        dw = np.einsum("nd,nzd->nz", g, gathered)
        return dw, padded_scatter_rows(weights.data, idx, g, values.rows)

    return nn.record(out, (weights, values), vjp)


def padded_softmax_rows(a, mask) -> nn.Tensor:
    """nn.softmax_rows' masked form on a padded table: row-wise softmax
    over the entries of a padded table that mask marks; the rest get 0, and
    rows with no marked entry come out all zero."""
    a = nn._wrap(a)
    x = a.data
    valid = np.asarray(mask, dtype=bool)
    if valid.shape != x.shape:
        raise ShapeError(f"softmax mask {valid.shape} vs data {x.shape}")
    neg = np.where(valid, x, -np.inf)
    rowmax = neg.max(axis=1, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)
    e = np.where(valid, np.exp(np.where(valid, x, 0.0) - rowmax), 0.0)
    s = e.sum(axis=1, keepdims=True)
    out = e / np.where(s > 0, s, 1.0)

    def vjp(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return nn.record(out, (a,), vjp)


def padded_attention_weights(h_prev, nb: Neighborhoods, layer,
                             config) -> nn.Tensor:
    """model.attention_weights on the padded table: every op runs on the
    whole (n, width) table and returns it."""
    t = rectangle(nb)
    d_in, d_out = layer.d_in, layer.d_out
    proj = nn.matmul(h_prev, slice_rows(layer.W, d_in, 2 * d_in))
    score_self = nn.matmul(proj, slice_rows(layer.attn, 0, d_out))
    score_neigh = nn.matmul(proj, slice_rows(layer.attn, d_out, 2 * d_out))
    raw = add(score_self, padded_gather(score_neigh, t.idx))
    alpha = padded_softmax_rows(leaky_relu(raw), t.mask)
    return mul(alpha, padded_time_factors(t, config))


def padded_layer_forward(h_prev, nb: Neighborhoods, layer, gates,
                         config) -> nn.Tensor:
    """model.layer_forward on the padded table."""
    if h_prev.cols != layer.d_in:
        raise ShapeError(
            f"layer expects width {layer.d_in}, got {h_prev.cols}")
    t = rectangle(nb)
    if config.use_attention:
        weights = padded_attention_weights(h_prev, nb, layer, config)
    else:
        weights = nn.Tensor(padded_uniform_weights(t))
    h_agg = padded_neighbor_sum(weights, h_prev, t.idx)
    if config.use_gate and gates is not None:
        h_agg = mul(h_agg, np.asarray(gates).reshape(-1, 1))
    combined = nn.matmul(concat(h_prev, h_agg), layer.W)
    activated = ACTIVATION_OPS[config.activation](combined)
    return l2_normalize_rows(activated)


def pack_neighborhoods(graph: TransactionGraph,
                       sampled: list[SampledNeighborhood]) -> Neighborhoods:
    """Pack per-node samples like pack_rows: its oracle."""
    n = len(sampled)
    width = max((len(s.selected) for s in sampled), default=0)
    width = max(width, 1)
    idx = np.zeros((n, width), dtype=np.int64)
    mask = np.zeros((n, width), dtype=bool)
    dt = np.zeros((n, width), dtype=np.float64)
    ts = graph.timestamps
    for row, s in enumerate(sampled):
        if graph.index_of(s.node) != row:
            raise ShapeError("sampled neighborhoods must follow graph node order")
        m = len(s.selected)
        if m == 0:
            continue
        cols = np.array([graph.index_of(v) for v in s.selected], dtype=np.int64)
        idx[row, :m] = cols
        mask[row, :m] = True
        dt[row, :m] = np.abs(ts[cols] - ts[row])
    return neighborhoods(idx, mask, dt)


def loop_sample_layers(graph: TransactionGraph, scfg: SamplerConfig,
                       epoch: int, fraud_pool, scores) -> list:
    """train._sample_layers' adaptive path before per-z reuse: every layer
    samples every node itself."""
    if scfg.mode == "weighted_without_replacement":
        scfg = replace(scfg, seed=combine_seed(scfg.seed, epoch))
    fraud_set = set(fraud_pool)
    out = []
    for k in range(len(scfg.z_hat)):
        sampled = [sample_neighborhood(
            graph, rec.id, k, scfg, oversample=rec.id in fraud_set,
            fraud_pool=fraud_pool, scores=scores) for rec in graph.records]
        out.append(pack_neighborhoods(graph, sampled))
    return out


def loop_sample_layer(g: TransactionGraph, z: int, cfg: SamplerConfig,
                      extras=None) -> tuple[np.ndarray, np.ndarray]:
    """sample_layer before its degree-bucket partition: every row wider
    than z selects on its own CSR slice with np.lexsort((ids, key))[:z]."""
    csr = g.csr
    bounds, ids, degree = csr.indptr.tolist(), csr.ids, np.diff(csr.indptr)
    src = np.repeat(np.arange(g.n_nodes), degree)
    key = _entry_keys(g, cfg, src)
    keep = np.ones(len(ids), dtype=bool)  # rows of at most z keep every entry
    for row in np.flatnonzero(degree > z).tolist():
        lo, hi = bounds[row], bounds[row + 1]
        keep[lo:hi] = False
        keep[lo + np.lexsort((ids[lo:hi], key[lo:hi]))[:z]] = True
    src, nbr = src[keep], csr.rows[keep]
    if extras is None or not len(extras[0]):
        return src, nbr
    x_src, x_nbr = extras
    src, nbr = np.concatenate([src, x_src]), np.concatenate([nbr, x_nbr])
    order = np.argsort(src, kind="stable")  # extras after a row's neighbors
    return src[order], nbr[order]


def loop_fraud_extras(g: TransactionGraph, cfg: SamplerConfig,
                      fraud_pool) -> tuple[np.ndarray, np.ndarray]:
    """_fraud_extras before it scored every pair at once: one pooled fraud
    node at a time, its candidates masked and ranked on their own."""
    if cfg.mode == "uniform" or cfg.oversample_count == 0:
        fraud_pool = ()
    pool = g.rows_of(fraud_pool)
    pool = pool[g.labels[pool] == 1]
    src, extra = [], []  # grouped by ascending node row
    csr, u, ids = g.csr, g.unit_features, g.node_ids
    near = np.zeros(g.n_nodes, dtype=bool)  # v and its neighbors, reset per v
    for r in np.unique(pool).tolist():
        nbrs = csr.rows[csr.span(r)]
        near[nbrs] = near[r] = True
        cand = pool[~near[pool]]
        near[nbrs] = near[r] = False
        sims = pair_scores(u, np.full(len(cand), r), cand, 1.0)
        ok = sims >= cfg.similarity_floor
        cand, sims = cand[ok], sims[ok]
        picked = cand[np.lexsort((ids[cand], -sims))[:cfg.oversample_count]]
        src += [r] * len(picked)
        extra += picked[np.argsort(ids[picked], kind="stable")].tolist()
    return np.array(src, dtype=np.int64), np.array(extra, dtype=np.int64)


def uniform_sample(graph: TransactionGraph, node: int, z: int,
                   rng: np.random.Generator) -> list[int]:
    """Up to z distinct graph neighbors drawn uniformly, id-sorted."""
    nbrs = graph.neighbors(node)
    if len(nbrs) <= z:
        return list(nbrs)
    picked = rng.choice(len(nbrs), size=z, replace=False)
    return sorted(nbrs[i] for i in picked)


def uniform_neighborhoods(graph: TransactionGraph, z: int,
                          rng: np.random.Generator) -> Neighborhoods:
    """Uniform-random neighborhoods for every node, packed for the model:
    one layer of uniform mode before the race, one stream read row after
    row in record order."""
    return pack_neighborhoods(graph, [
        SampledNeighborhood(node=rec.id,
                            selected=uniform_sample(graph, rec.id, z, rng))
        for rec in graph.records])


def race_uniform_neighborhoods(graph: TransactionGraph, z: int,
                               seed: int) -> Neighborhoods:
    """One layer of uniform mode, node by node: each node's z first
    finishers of the uniform race (race_pick with p None), packed."""
    return pack_neighborhoods(graph, [
        SampledNeighborhood(node=rec.id, selected=race_pick(
            seed, rec.id, graph.neighbors(rec.id), None, z))
        for rec in graph.records])


_ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "identity": lambda x: x,
}


def baseline_layer_forward(h_prev: np.ndarray, nb: Neighborhoods,
                           W: np.ndarray, activation: str = "relu") -> np.ndarray:
    """Mean-aggregation layer: h = norm(act(concat(h, mean of neighbors) @ W)).

    The plain-numpy layer that model.layer_forward reduces to with attention
    and gate switched off. Nodes without neighbors aggregate the zero
    vector. Output rows are L2-normalized, with all-zero rows left alone.
    """
    h_prev = np.asarray(h_prev, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if W.shape[0] != 2 * h_prev.shape[1]:
        raise ShapeError(
            f"combine matrix expects {2 * h_prev.shape[1]} rows, got {W.shape[0]}")
    if activation not in _ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}")
    t = rectangle(nb)
    counts = t.mask.sum(axis=1, keepdims=True).astype(np.float64)
    gathered = h_prev[t.idx] * t.mask[:, :, None]
    mean = gathered.sum(axis=1) / np.where(counts > 0, counts, 1.0)
    combined = np.concatenate([h_prev, mean], axis=1) @ W
    out = _ACTIVATIONS[activation](combined)
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return out / np.where(norms > 0, norms, 1.0)


def sum_all(a) -> nn.Tensor:
    """Scalar sum of every entry as a 1x1 nn tensor: a loss for gradient
    tests, which the model itself never takes."""
    a = nn._wrap(a)
    out = np.array([[a.data.sum()]])
    return nn.record(out, (a,), lambda g: (np.full_like(a.data, g[0, 0]),))


def full_graph_batch_loss(params, features, neighborhoods, gates, rows, y):
    """train.batch_loss as it was before receptive-field batches: a forward
    pass over every node, then the loss on the batch rows."""
    p_all = forward(params, features, neighborhoods, gates)
    return nn.bce(nn.pick_rows(p_all, rows), y)


# nn's ops from before model.layer_forward became one tape node: the links
# of chain_layer_forward, that op's bit oracle, and of the padded layer.

def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] > 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] > 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def mul(a, b) -> nn.Tensor:
    a, b = nn._wrap(a), nn._wrap(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul broadcast mismatch: {a.shape} * {b.shape}") from None
    da, db = a.requires_grad, b.requires_grad

    def vjp(g):  # a constant operand gets no gradient
        return (_unbroadcast(g * b.data, a.shape) if da else None,
                _unbroadcast(g * a.data, b.shape) if db else None)

    return nn.record(out, (a, b), vjp)


def concat(a, b) -> nn.Tensor:
    """Column-wise concatenation: (n,p) || (n,q) -> (n,p+q)."""
    a, b = nn._wrap(a), nn._wrap(b)
    if a.rows != b.rows:
        raise ShapeError(f"concat needs equal row counts: {a.shape} || {b.shape}")
    out = np.concatenate([a.data, b.data], axis=1)
    p = a.cols

    def vjp(g):
        return g[:, :p], g[:, p:]

    return nn.record(out, (a, b), vjp)


def slice_rows(a, r0: int, r1: int) -> nn.Tensor:
    return nn._slice(a, np.s_[r0:r1, :])


def gather(values, layout: nn.CompressedRows) -> nn.Tensor:
    """A column vector (m,1) read at every entry's neighbor row."""
    values = nn._wrap(values)
    if values.cols != 1:
        raise ShapeError(f"gather expects a column vector, got {values.shape}")

    def vjp(g):
        # bincount sums each bin in entry order from +0.0 and, like the 1-D
        # add.at it replaces, keeps the running sum's NaN when two NaNs meet
        dv = np.bincount(layout.nbr, weights=g[:, 0], minlength=values.rows)
        return (dv.reshape(-1, 1),)

    return nn.record(values.data[layout.nbr], (values,), vjp)


def add_rows(col, x, layout: nn.CompressedRows) -> nn.Tensor:
    """col[i] + x[k] for each entry k of row i: ((n,1), entries) -> entries."""
    col, x = nn._wrap(col), nn._wrap(x)
    return nn.record(col.data[layout.src] + x.data, (col, x),
                     lambda g: (layout.row_sum(g[:, 0]).reshape(-1, 1), g))


def softmax_entries(a, layout: nn.CompressedRows) -> nn.Tensor:
    """Softmax over each row's entries."""
    a = nn._wrap(a)
    top = layout.row_max(a.data[:, 0])
    top[~np.isfinite(top)] = 0.0
    e = np.exp(a.data[:, 0] - top[layout.src])
    s = layout.row_sum(e)
    s[~(s > 0)] = 1.0
    out = (e / s[layout.src]).reshape(-1, 1)

    def vjp(g):
        dot = layout.row_sum((g * out)[:, 0])[layout.src, None]
        return (out * (g - dot),)

    return nn.record(out, (a,), vjp)


def sparse_rows(weights: np.ndarray, layout: nn.CompressedRows,
                m: int) -> scipy.sparse.csr_matrix:
    """The sparse (n, m) matrix A whose row i holds row i's entries."""
    dtype = scipy.sparse.get_index_dtype((layout.nbr, layout.indptr),
                                         check_contents=True)
    return scipy.sparse.csr_matrix(
        (np.ravel(weights), layout.nbr.astype(dtype),
         layout.indptr.astype(dtype)), shape=(layout.n_rows, m))


def neighbor_sum(weights, values, layout: nn.CompressedRows) -> nn.Tensor:
    """nn.neighbor_sum as a tape op on a scipy matrix object: A @ values,
    with A.T @ g as the values gradient. nn's direct kernels must equal
    this pair bit for bit."""
    weights, values = nn._wrap(weights), nn._wrap(values)
    if weights.shape != (len(layout.nbr), 1):
        raise ShapeError(f"neighbor_sum expects {len(layout.nbr)} entry "
                         f"weights, got {weights.shape}")
    a = sparse_rows(weights.data, layout, values.rows)
    dw, dv = weights.requires_grad, values.requires_grad

    def vjp(g):  # a constant operand gets no gradient
        return (np.vecdot(g[layout.src], values.data[layout.nbr])[:, None]
                if dw else None), (a.T @ g if dv else None)

    return nn.record(a @ values.data, (weights, values), vjp)


def relu(a) -> nn.Tensor:
    a = nn._wrap(a)
    out = np.maximum(a.data, 0.0)
    return nn.record(out, (a,), lambda g: (g * (a.data > 0),))


def leaky_relu(a) -> nn.Tensor:
    a = nn._wrap(a)
    out = np.where(a.data > 0, a.data, LEAKY_SLOPE * a.data)
    return nn.record(out, (a,), lambda g: (
        g * np.where(a.data > 0, 1.0, LEAKY_SLOPE),))


def identity(a) -> nn.Tensor:
    a = nn._wrap(a)
    return nn.record(a.data.copy(), (a,), lambda g: (g,))


def sigmoid(a) -> nn.Tensor:
    a = nn._wrap(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return nn.record(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a) -> nn.Tensor:
    a = nn._wrap(a)
    out = np.tanh(a.data)
    return nn.record(out, (a,), lambda g: (g * (1.0 - out * out),))


ACTIVATION_OPS = {"relu": relu, "tanh": tanh, "sigmoid": sigmoid,
                  "identity": identity}


def l2_normalize_rows(a) -> nn.Tensor:
    """Scale each row to unit L2 norm; all-zero rows are left at zero."""
    a = nn._wrap(a)
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    out = a.data / safe

    def vjp(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        da = (g - out * dot) / safe
        return (np.where(norms > 0, da, 0.0),)

    return nn.record(out, (a,), vjp)


def chain_attention_weights(h_prev, nb: Neighborhoods, layer, config,
                            own=None) -> nn.Tensor:
    """model.attention_weights' coefficients as a chain of tape ops."""
    d_in, d_out = layer.d_in, layer.d_out
    proj = nn.matmul(h_prev, slice_rows(layer.W, d_in, 2 * d_in))
    score_self = nn.matmul(proj, slice_rows(layer.attn, 0, d_out))
    score_neigh = nn.matmul(proj, slice_rows(layer.attn, d_out, 2 * d_out))
    if own is not None:
        score_self = nn.pick_rows(score_self, own)
    raw = add_rows(score_self, gather(score_neigh, nb), nb)
    alpha = softmax_entries(leaky_relu(raw), nb)
    return mul(alpha, nb.time_column(config))


def chain_layer_forward(h_prev, nb: Neighborhoods, layer, gates, config,
                        own=None) -> nn.Tensor:
    """model.layer_forward as the chain of single tape ops it replaced:
    its bit oracle, output and gradients both."""
    if h_prev.cols != layer.d_in:
        raise ShapeError(
            f"layer expects width {layer.d_in}, got {h_prev.cols}")
    weights = (chain_attention_weights(h_prev, nb, layer, config, own)
               if config.use_attention else nb.uniform_column)
    h_agg = neighbor_sum(weights, h_prev, nb)
    if config.use_gate and gates is not None:
        h_agg = mul(h_agg, np.asarray(gates).reshape(-1, 1))
    h_self = h_prev if own is None else nn.pick_rows(h_prev, own)
    combined = nn.matmul(concat(h_self, h_agg), layer.W)
    return l2_normalize_rows(ACTIVATION_OPS[config.activation](combined))


# nn's elementwise ops from before nn.bce: glue for gradient tests and the
# padded attention, and the links of chain_bce.

def add(a, b) -> nn.Tensor:
    a, b = nn._wrap(a), nn._wrap(b)
    return nn.record(a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> nn.Tensor:
    a, b = nn._wrap(a), nn._wrap(b)
    return nn.record(a.data - b.data, (a, b), lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def neg(a) -> nn.Tensor:
    a = nn._wrap(a)
    return nn.record(-a.data, (a,), lambda g: (-g,))


def ln(a) -> nn.Tensor:
    a = nn._wrap(a)
    return nn.record(np.log(a.data), (a,), lambda g: (g / a.data,))


def clamp(a, lo: float, hi: float) -> nn.Tensor:
    a = nn._wrap(a)
    inside = (a.data > lo) & (a.data < hi)
    return nn.record(np.clip(a.data, lo, hi), (a,), lambda g: (g * inside,))


def mean_all(a) -> nn.Tensor:
    a = nn._wrap(a)
    n = a.data.size
    return nn.record(np.array([[a.data.mean()]]), (a,),
                      lambda g: (np.full_like(a.data, g[0, 0] / n),))


def chain_bce(p, y) -> nn.Tensor:
    """The training loss as nine tape nodes, nn.bce's oracle: its loss and
    p's gradient are what nn.bce must give, bit for bit."""
    y_col = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    p = clamp(p, nn.PROB_CLAMP, 1.0 - nn.PROB_CLAMP)
    keep = mul(y_col, ln(p))
    drop = mul(1.0 - y_col, ln(sub(1.0, p)))
    return neg(mean_all(add(keep, drop)))


def reference_layer_forward(graph: TransactionGraph, h_prev: np.ndarray,
                            neighborhoods: dict, W: np.ndarray,
                            attn: np.ndarray, gates: dict | None,
                            tau: float = 1800.0,
                            activation: str = "relu") -> np.ndarray:
    """Straight-line per-node evaluation of one layer, scalar math throughout.

    neighborhoods maps node id -> list of neighbor ids; gates maps node id ->
    float (None means no gating). The attention projection is the bottom half
    of W (the rows that multiply the aggregated neighbor part of the concat),
    applied to both endpoints.
    """
    d_in = h_prev.shape[1]
    d_out = W.shape[1]
    proj = W[d_in:, :]
    ts = {r.id: r.timestamp for r in graph.records}
    out = np.zeros((len(graph.records), d_out))

    for row, rec in enumerate(graph.records):
        hv = h_prev[graph.index_of(rec.id)]
        nbrs = neighborhoods.get(rec.id, [])
        h_agg = [0.0] * d_in
        if nbrs:
            pv = [sum(hv[i] * proj[i][j] for i in range(d_in))
                  for j in range(d_out)]
            raw = []
            for u in nbrs:
                hu = h_prev[graph.index_of(u)]
                pu = [sum(hu[i] * proj[i][j] for i in range(d_in))
                      for j in range(d_out)]
                e = (sum(attn[j][0] * pv[j] for j in range(d_out))
                     + sum(attn[d_out + j][0] * pu[j] for j in range(d_out)))
                raw.append(e if e > 0 else 0.01 * e)
            m = max(raw)
            exps = [math.exp(x - m) for x in raw]
            denom = sum(exps)
            for u, ex in zip(nbrs, exps):
                delta = math.exp(-abs(ts[rec.id] - ts[u]) / tau)
                alpha = delta * ex / denom
                hu = h_prev[graph.index_of(u)]
                for i in range(d_in):
                    h_agg[i] += alpha * float(hu[i])
        g = 1.0 if gates is None else gates[rec.id]
        cat = [float(x) for x in hv] + [g * x for x in h_agg]
        z = [sum(cat[i] * W[i][j] for i in range(2 * d_in))
             for j in range(d_out)]
        if activation == "relu":
            act = [x if x > 0 else 0.0 for x in z]
        elif activation == "tanh":
            act = [math.tanh(x) for x in z]
        elif activation == "sigmoid":
            act = [1.0 / (1.0 + math.exp(-x)) for x in z]
        else:
            act = z
        norm = math.sqrt(sum(x * x for x in act))
        if norm > 0:
            act = [x / norm for x in act]
        out[row] = act
    return out


def pairwise_auc(scores, labels) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, ties half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def oracle_ranks(scores) -> np.ndarray:
    """scipy's average ranks: ties share the mean of their 1-based ranks."""
    return scipy.stats.rankdata(np.asarray(scores, dtype=np.float64),
                                method="average")


def oracle_rank_auc(scores, labels) -> float:
    """metrics.auc's rank-sum formula over scipy's ranks."""
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    pos_rank_sum = float(oracle_ranks(scores)[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def loop_roc_points(scores, labels) -> list[tuple[float, float]]:
    """(fpr, tpr) after each group of tied scores, walked one score at a time.

    Never returns on a NaN score: NaN == NaN is False, so the inner loop
    does not advance.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    order = np.argsort(-scores, kind="stable")
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            tp += int(labels[order[j]] == 1)
            fp += int(labels[order[j]] == 0)
            j += 1
        points.append((fp / n_neg, tp / n_pos))
        i = j
    return points


def fd_gradient(loss_fn, tensor, step: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar loss over one parameter tensor."""
    grad = np.zeros_like(tensor.data)
    it = np.nditer(tensor.data, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = tensor.data[idx]
        tensor.data[idx] = old + step
        up = loss_fn()
        tensor.data[idx] = old - step
        down = loss_fn()
        tensor.data[idx] = old
        grad[idx] = (up - down) / (2 * step)
        it.iternext()
    return grad


def random_transaction_records(rng: np.random.Generator, n: int,
                               n_devices: int = 6, n_ips: int = 8,
                               span: int = 7200, dim: int = 4,
                               label_rate: float = 0.3):
    """Unstructured random records for oracle-equivalence sweeps."""
    records = []
    for i in range(n):
        records.append(TransactionRecord(
            id=i,
            attrs=rng.uniform(0, 1, size=dim),
            raw={"device": f"d{rng.integers(n_devices)}",
                 "ip": f"ip{rng.integers(n_ips)}"},
            timestamp=int(rng.integers(0, span)),
            label=int(rng.random() < label_rate),
        ))
    return records


# ---------------------------------------------------------------------------
# CSV ingest one row at a time: each row parsed into a dict, stub records
# for the split, and features scaled one Python float at a time. The
# columnar datagen.ingest_csv must match it on every result and error text.
# ---------------------------------------------------------------------------

def loop_split_records(records: list[TransactionRecord], spec: SplitSpec,
                       seed: int) -> tuple[list[int], list[int]]:
    """Return (train_ids, test_ids). Unlabeled records never train."""
    ids = [r.id for r in records]
    if spec.kind == "all":
        return list(ids), []
    if spec.kind == "cutoff":
        train = [r.id for r in records if r.timestamp <= spec.cutoff_timestamp]
        test = [r.id for r in records if r.timestamp > spec.cutoff_timestamp]
        return train, test
    if spec.kind == "explicit":
        known = set(ids)
        for v in (*spec.train_ids, *spec.test_ids):
            if v not in known:
                raise InputError(f"explicit split references unknown id {v}")
        overlap = set(spec.train_ids) & set(spec.test_ids)
        if overlap:
            raise InputError(
                f"explicit split overlaps on ids {sorted(overlap)[:5]}")
        return list(spec.train_ids), list(spec.test_ids)

    rng = np.random.default_rng(np.random.SeedSequence((seed, SPLIT_SEED_TAG)))
    train: list[int] = []
    test: list[int] = []
    by_label: dict[int, list[int]] = {}
    for r in sorted(records, key=lambda r: r.id):
        by_label.setdefault(r.label, []).append(r.id)
    for label in sorted(by_label):
        group = by_label[label]
        if label == UNLABELED:
            test.extend(group)
            continue
        perm = rng.permutation(len(group))
        n_test = round(spec.test_fraction * len(group))
        chosen = {group[i] for i in perm[:n_test]}
        for v in group:
            (test if v in chosen else train).append(v)
    return sorted(train), sorted(test)


def loop_parse_rows(path: str, schema: DataSchema):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise unreadable("data CSV", path, exc) from None
    if not rows:
        raise IngestError(f"{path}: empty file, header required")
    header, rows = rows[0], rows[1:]

    if tuple(header[:3]) != _FIXED_COLUMNS:
        raise IngestError(
            f"{path}: header must start with id,timestamp,label; "
            f"got {header[:3]}")
    rest = header[3:]
    missing = [c for c in (*schema.raw_fields, *schema.categorical)
               if c not in rest]
    if schema.numeric is not None:
        missing += [c for c in schema.numeric if c not in rest]
    if missing:
        raise IngestError(f"{path}: declared columns missing from header: "
                          f"{missing}")
    if schema.numeric is None:
        claimed = set(schema.raw_fields) | set(schema.categorical)
        numeric = tuple(c for c in rest if c not in claimed)
    else:
        numeric = tuple(schema.numeric)
        claimed = (set(schema.raw_fields) | set(schema.categorical)
                   | set(numeric))
        extra = [c for c in rest if c not in claimed]
        if extra:
            raise IngestError(f"{path}: undeclared columns {extra}; "
                              f"declare them in the schema or drop them")
    col_pos = {name: i for i, name in enumerate(header)}

    parsed = []
    problems = []
    for line_no, row in enumerate(rows, start=2):
        if len(row) != len(header):
            problems.append(f"line {line_no}: {len(row)} fields, "
                            f"expected {len(header)}")
            continue
        try:
            rid = int(row[col_pos["id"]])
            ts = int(row[col_pos["timestamp"]])
            label = int(row[col_pos["label"]])
            if label not in (0, 1, UNLABELED):
                raise ValueError(f"label must be 0, 1 or {UNLABELED}")
            if max(abs(rid), abs(ts)) >= 2**62:  # int64 arrays, gaps too
                raise ValueError("id and timestamp must lie within +-2**62")
            nums = {}
            for c in numeric:
                text = row[col_pos[c]]
                try:
                    nums[c] = float(text)
                except ValueError:
                    nums[c] = math.nan
                if not math.isfinite(nums[c]):
                    raise ValueError(
                        f"column {c!r}: {text!r} is not a finite number")
            raw = {c: row[col_pos[c]] for c in schema.raw_fields}
            cats = {c: row[col_pos[c]] for c in schema.categorical}
        except ValueError as exc:
            problems.append(f"line {line_no}: {exc}")
            continue
        parsed.append({"id": rid, "timestamp": ts, "label": label,
                       "raw": raw, "cats": cats, "nums": nums})

    if problems:
        shown = "; ".join(problems[:10])
        more = f" (+{len(problems) - 10} more)" if len(problems) > 10 else ""
        raise IngestError(f"{path}: {len(problems)} bad rows: {shown}{more}")

    seen: dict[int, int] = {}
    dupes = []
    for line_no, row in enumerate(parsed, start=2):
        if row["id"] in seen:
            dupes.append(f"id {row['id']} on lines {seen[row['id']]} "
                         f"and {line_no}")
        else:
            seen[row["id"]] = line_no
    if dupes:
        raise IngestError(f"{path}: duplicate ids: {'; '.join(dupes[:5])}")
    return parsed, numeric


def loop_ingest_csv(path: str, schema: DataSchema | None = None,
                    split: SplitSpec | None = None, seed: int = 0,
                    downsample_legit_ratio: float | None = None) -> IngestResult:
    """Read, split, and preprocess a transaction CSV.

    Scaling and one-hot vocabularies come from the training split only;
    test values outside the training range clamp into [0, 1] and unseen
    categories encode as all-zero blocks. Optional down-sampling keeps at
    most ratio * (train fraud count) legitimate training rows, dropping the
    rest from the dataset.
    """
    schema = schema or DataSchema()
    split = split or SplitSpec()
    parsed, numeric = loop_parse_rows(path, schema)
    if not parsed:
        raise IngestError(f"{path}: no data rows")

    stubs = [TransactionRecord(id=p["id"], attrs=np.zeros(1), raw=p["raw"],
                               timestamp=p["timestamp"], label=p["label"])
             for p in parsed]
    train_ids, test_ids = loop_split_records(stubs, split, seed)
    train_set = set(train_ids)

    if downsample_legit_ratio is not None:
        if not 0 < downsample_legit_ratio < math.inf:
            raise ConfigError("downsample_legit_ratio must be finite and > 0")
        train_fraud = [p["id"] for p in parsed
                       if p["id"] in train_set and p["label"] == 1]
        train_legit = [p["id"] for p in parsed
                       if p["id"] in train_set and p["label"] == 0]
        keep = round(downsample_legit_ratio * len(train_fraud))
        if keep < len(train_legit):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, DOWNSAMPLE_SEED_TAG)))
            kept = {train_legit[i]
                    for i in rng.permutation(len(train_legit))[:keep]}
            dropped = set(train_legit) - kept
            parsed = [p for p in parsed if p["id"] not in dropped]
            train_ids = [v for v in train_ids if v not in dropped]
            train_set -= dropped
            log.info("down-sampled legitimate training rows: kept %d of %d",
                     keep, len(train_legit))

    train_rows = [p for p in parsed if p["id"] in train_set]
    if not train_rows:
        raise IngestError(f"{path}: training split is empty")

    stats: dict[str, tuple[float, float]] = {}
    for c in numeric:
        vals = [p["nums"][c] for p in train_rows]
        stats[c] = (min(vals), max(vals))
    vocab: dict[str, list[str]] = {}
    for c in schema.categorical:
        vocab[c] = sorted({p["cats"][c] for p in train_rows})

    feature_names = list(numeric)
    for c in schema.categorical:
        feature_names.extend(f"{c}={v}" for v in vocab[c])

    records = []
    for p in parsed:
        feats: list[float] = []
        for c in numeric:
            lo, hi = stats[c]
            span = hi - lo
            x = (p["nums"][c] - lo) / span if span > 0 else 0.0
            feats.append(min(1.0, max(0.0, x)))
        for c in schema.categorical:
            block = [0.0] * len(vocab[c])
            val = p["cats"][c]
            if val in vocab[c]:
                block[vocab[c].index(val)] = 1.0
            feats.extend(block)
        raw = dict(p["raw"])
        raw.update(p["cats"])
        records.append(TransactionRecord(
            id=p["id"], attrs=np.asarray(feats, dtype=np.float64),
            raw=raw, timestamp=p["timestamp"], label=p["label"]))

    return IngestResult(records=records, train_ids=list(train_ids),
                        test_ids=list(test_ids), feature_names=feature_names,
                        numeric_stats=stats)
