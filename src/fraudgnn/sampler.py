"""Adaptive neighbor selection.

Each neighbor's selection probability is proportional to (strongest edge
weight between the pair) x (exponential cosine similarity of the feature
vectors). Top-z keeps the highest-probability neighbors; fraud nodes can
additionally pull in non-adjacent fraud nodes with similar behavior.
The trainer samples a whole layer at once with sample_layer; the per-node
functions make the same picks one node at a time, for demos and as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError
from .tgraph import TransactionGraph, TransactionRecord, pair_scores

# exp(0.5): cosine >= 0.5 once pushed through the exponential similarity
DEFAULT_SIMILARITY_FLOOR = math.exp(0.5)

MODES = ("deterministic_topz", "weighted_without_replacement", "uniform")

_SEED_MASK = (1 << 63) - 1


@dataclass
class SamplerConfig:
    z_hat: tuple[int, ...] = (20, 20, 20)
    oversample_count: int = 10
    similarity_floor: float = DEFAULT_SIMILARITY_FLOOR
    mode: str = "deterministic_topz"
    seed: int = 0

    def __post_init__(self):
        self.z_hat = tuple(int(z) for z in self.z_hat)
        if not self.z_hat or any(z < 1 for z in self.z_hat):
            raise ConfigError(f"z_hat must be positive per layer, got {self.z_hat}")
        if self.oversample_count < 0:
            raise ConfigError("oversample_count must be >= 0")
        if self.similarity_floor < 0:
            raise ConfigError("similarity_floor must be >= 0")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")


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


def score_edges(g: TransactionGraph) -> np.ndarray:
    """The graph's cached ``edge_scores``: node row i's entries of ``g.csr``
    are its ``selection_probabilities``, bit for bit. Pass them as
    ``scores=`` to the per-node samplers to score the graph once.
    """
    return g.edge_scores


def _row(g: TransactionGraph, v: int,
         scores: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor ids of v, ascending, and their selection probabilities.

    Slices ``scores`` (from score_edges) when given, else scores v's
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
                         f"has {len(csr.ids)}; pass score_edges(g)")
    return csr.ids[span], scores[span]


def selection_probabilities(g: TransactionGraph, v: int) -> dict[int, float]:
    """Per-neighbor selection probability: weight x similarity, normalized.

    Isolated nodes get an empty map; callers fall back to a self-only
    neighborhood.
    """
    ids, p = _row(g, v, None)
    return dict(zip(ids.tolist(), p.tolist()))


def _node_rng(cfg: SamplerConfig, v: int) -> np.random.Generator:
    """Per-node stream keyed by (seed, node id), so order is irrelevant.

    The key deliberately leaves out the layer: in weighted mode, layers with
    equal z_hat draw the same neighborhood of a node within one pass. Only
    the seed, which the trainer salts per epoch, changes the draw. Keying by
    layer as well would change every weighted-mode output.
    """
    return np.random.default_rng((cfg.seed & _SEED_MASK, v & _SEED_MASK))


def combine_seed(seed: int, salt: int) -> int:
    """Fold a salt (e.g. an epoch number) into a sampler seed, stably."""
    return (seed * 1_000_003 + salt) & _SEED_MASK


def sample_topz(g: TransactionGraph, v: int, k: int, cfg: SamplerConfig,
                scores: np.ndarray | None = None) -> list[int]:
    """Select up to z_hat[k] neighbors of v by selection probability.

    Deterministic mode keeps the top probabilities (ties broken by ascending
    id); weighted mode draws without replacement proportionally to them;
    uniform mode is rejected with ConfigError.
    ``scores`` is score_edges(g); without it v's neighbors are scored here.
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
    rng = _node_rng(cfg, v)
    chosen = rng.choice(ids, size=z, replace=False, p=p / p.sum())
    return sorted(chosen.tolist())


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

    ``scores`` is score_edges(g), shared by every node and layer of a pass.
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


def _fraud_extras(g: TransactionGraph, cfg: SamplerConfig,
                  fraud_pool) -> tuple[np.ndarray, np.ndarray]:
    """oversample_fraud's extras of every pooled fraud node as (node row,
    extra row) pairs, each node's extras in ascending id."""
    labels = g.labels()
    pool = np.array([g.index_of(v) for v in fraud_pool], dtype=np.int64)
    pool = pool[labels[pool] == 1]
    src, extra = [], []  # grouped by ascending node row
    csr, u, ids = g.csr, g.unit_features, np.array(g.node_ids())
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


def sample_layer(g: TransactionGraph, z: int, cfg: SamplerConfig,
                 fraud_pool=(), rng: np.random.Generator | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Every node's picks for a layer of size z as (node row, neighbor row)
    pairs, grouped by ascending node row: for node v, the selection of
    sample_neighborhood(g, v, k, cfg, v in fraud_pool, fraud_pool) with
    z = cfg.z_hat[k]. Mode "uniform" draws from ``rng`` instead, one row
    after another in record order, and over-samples nothing.
    """
    csr = g.csr
    bounds, ids, node_ids = csr.indptr.tolist(), csr.ids, g.node_ids()
    p_all = None if cfg.mode == "uniform" else g.edge_scores
    keep = np.ones(len(ids), dtype=bool)  # rows of at most z keep every entry
    for row in np.flatnonzero(np.diff(csr.indptr) > z).tolist():
        lo, hi = bounds[row], bounds[row + 1]
        if cfg.mode == "uniform":
            pos = rng.choice(hi - lo, size=z, replace=False)
        elif cfg.mode == "deterministic_topz":
            pos = np.lexsort((ids[lo:hi], -p_all[lo:hi]))[:z]
        else:  # choice over the row's length draws the indices it does over ids
            p = p_all[lo:hi]
            pos = _node_rng(cfg, node_ids[row]).choice(
                hi - lo, size=z, replace=False, p=p / p.sum())
        keep[lo:hi] = False
        keep[lo + pos] = True
    src = np.repeat(np.arange(g.n_nodes), np.diff(csr.indptr))[keep]
    nbr = csr.rows[keep]
    if cfg.mode == "uniform" or cfg.oversample_count == 0 or not len(fraud_pool):
        return src, nbr
    x_src, x_nbr = _fraud_extras(g, cfg, fraud_pool)
    src, nbr = np.concatenate([src, x_src]), np.concatenate([nbr, x_nbr])
    order = np.argsort(src, kind="stable")  # extras after a row's neighbors
    return src[order], nbr[order]
