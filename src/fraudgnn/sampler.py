"""Adaptive neighbor selection.

Each neighbor's selection probability is proportional to (strongest edge
weight between the pair) x (exponential cosine similarity of the feature
vectors). Top-z keeps the highest-probability neighbors; fraud nodes can
additionally pull in non-adjacent fraud nodes with similar behavior.
sample_layer makes every node's picks for one layer at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tgraph import TransactionGraph, pair_scores

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


def _fraud_extras(g: TransactionGraph, cfg: SamplerConfig,
                  fraud_pool) -> tuple[np.ndarray, np.ndarray]:
    """Fraud over-sampling for every pooled node labeled fraud, as (node row,
    extra row) pairs grouped by ascending node row.

    A node's candidates are the pooled fraud nodes other than itself and its
    graph neighbors whose similarity exp(cosine) clears similarity_floor;
    the oversample_count most similar (ties by ascending id) are its extras,
    in ascending id. The trainer pools train-split fraud, so ground truth is
    never read off held-out nodes.
    """
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


def sample_layer(g: TransactionGraph, z: int, cfg: SamplerConfig,
                 fraud_pool=(), rng: np.random.Generator | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Every node's picks for a layer of size z as (node row, neighbor row)
    pairs, grouped by ascending node row.

    A node with at most z neighbors keeps them all. Of more, mode
    "deterministic_topz" keeps the z with the highest selection
    probabilities (its row of ``g.edge_scores``), ties by ascending id, and
    "weighted_without_replacement" draws z without replacement in
    proportion to them from the node's own stream. A row's kept neighbors
    come in ascending id, followed by _fraud_extras for nodes in
    ``fraud_pool``. Mode "uniform" draws from ``rng`` instead, one row after
    another in record order, and over-samples nothing.
    """
    csr = g.csr
    bounds, ids = csr.indptr.tolist(), csr.ids
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
            pos = _node_rng(cfg, int(g.node_ids[row])).choice(
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
