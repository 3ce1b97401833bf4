"""Adaptive neighbor selection.

Each neighbor's selection probability is proportional to (strongest edge
weight between the pair) x (exponential cosine similarity of the feature
vectors). Top-z keeps the highest-probability neighbors; fraud nodes can
additionally pull in non-adjacent fraud nodes with similar behavior.
sample_layer makes every node's picks for one layer at once: each mode is a
sort key per (node, neighbor) entry, and a node keeps its z smallest keys.
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
    in ascending id. Uniform mode over-samples nothing. The trainer pools
    train-split fraud, so ground truth is never read off held-out nodes.
    The pairs read no seed, epoch or z, so one call serves a whole run.
    """
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


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's output (Steele et al., OOPSLA 2014), wrapping in uint64."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _entry_uniforms(seed: int, node_ids: np.ndarray,
                    nbr_ids: np.ndarray) -> np.ndarray:
    """A uniform in (0, 1] per (node id, neighbor id) pair from the hash
    mix(mix(mix(seed) ^ node id) ^ neighbor id), so never from row order."""
    h = _mix(np.array([seed & _SEED_MASK], dtype=np.uint64))
    h = _mix(h ^ np.asarray(node_ids, dtype=np.int64).view(np.uint64))
    h = _mix(h ^ np.asarray(nbr_ids, dtype=np.int64).view(np.uint64))
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _entry_keys(g: TransactionGraph, cfg: SamplerConfig,
                src: np.ndarray) -> np.ndarray:
    """Each CSR entry's sort key; ``src`` holds the entries' node rows.
    Top-z ranks by -p, p being ``g.edge_scores``. The random modes race
    (Efraimidis & Spirakis, IPL 2006): an entry finishes at -log(u) / p,
    weighted, or at -log(u), uniform, and a row's z first finishers are z
    successive draws in proportion to p, or z uniform ones."""
    if cfg.mode == "deterministic_topz":
        return -g.edge_scores
    race = -np.log(_entry_uniforms(cfg.seed, g.node_ids[src], g.csr.ids))
    return race if cfg.mode == "uniform" else race / g.edge_scores


def sample_layer(g: TransactionGraph, z: int, cfg: SamplerConfig,
                 extras=None) -> tuple[np.ndarray, np.ndarray]:
    """Every node's picks for a layer of size z as (node row, neighbor row)
    pairs, grouped by ascending node row.

    A node with at most z neighbors keeps them all. Of more, it keeps the z
    with the smallest _entry_keys, ties by ascending id. A row's kept
    neighbors come in ascending id, followed by its pairs in ``extras``,
    (node row, extra row) pairs grouped by ascending node row as
    _fraud_extras gives them.
    """
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
