"""Adaptive neighbor selection.

Each neighbor's selection probability is proportional to (strongest edge
weight between the pair) x (exponential cosine similarity of the feature
vectors). Top-z keeps the highest-probability neighbors; fraud nodes can
additionally pull in non-adjacent fraud nodes with similar behavior.
sample_layer makes every node's picks for one layer at once: each mode is a
sort key per (node, neighbor) entry, and a node keeps its z smallest keys.
No Python loop runs over rows: each wide row's z-th key comes from one
np.partition per power-of-two degree bucket, one mask keeps the entries
not above it, and only rows that tie at that key (or hold a NaN key) sort
their own slice. _fraud_extras scores all (fraud node, candidate) pairs
in blocks.
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

# (node, candidate) pairs per block in _fraud_extras: bounds its block
# temporaries, whose total grows with the square of the fraud pool.
_PAIR_CHUNK = 1 << 15


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

    The nodes are taken in blocks of at most _PAIR_CHUNK (node, candidate)
    pairs, scored in one pair_scores call, which gives a pair the same bits
    in any batch, and ranked as a (nodes, candidates) block whose columns
    run in ascending id.
    """
    count = cfg.oversample_count
    if cfg.mode == "uniform" or count == 0:
        fraud_pool = ()
    pool = g.rows_of(fraud_pool)
    pool = pool[g.labels[pool] == 1]
    cand = pool[np.argsort(g.node_ids[pool], kind="stable")]
    nodes, col = np.unique(cand, return_inverse=True)
    csr = g.csr
    # (a, b): nodes[b] is a graph neighbor of nodes[a]
    deg = np.diff(csr.indptr)[nodes]
    entry = np.arange(deg.sum()) + np.repeat(
        csr.indptr[nodes] - np.cumsum(deg) + deg, deg)
    node_of = np.full(g.n_nodes, -1)
    node_of[nodes] = np.arange(len(nodes))
    a, b = np.repeat(np.arange(len(nodes)), deg), node_of[csr.rows[entry]]
    a, b = a[b >= 0], b[b >= 0]
    src, extra = [cand[:0]], [cand[:0]]
    step = max(1, _PAIR_CHUNK // max(1, len(cand)))
    for lo in range(0, len(nodes), step):
        hi = min(lo + step, len(nodes))
        near = np.zeros((hi - lo, len(nodes)), dtype=bool)
        near[np.arange(hi - lo), np.arange(lo, hi)] = True
        span = slice(*np.searchsorted(a, [lo, hi]).tolist())
        near[a[span] - lo, b[span]] = True
        r, c = np.nonzero(~near[:, col])
        sims = pair_scores(g.unit_features, nodes[r + lo], cand[c], 1.0)
        ok = sims >= cfg.similarity_floor
        rank = np.full((hi - lo, len(cand)), np.inf)  # -sim; inf: no pair
        rank[r[ok], c[ok]] = -sims[ok]
        # each row's count smallest ranks, ties by column: by ascending id
        j = min(count, len(cand)) - 1
        kth = np.partition(rank, j, axis=1)[:, j, None]
        less, tie = rank < kth, rank == kth
        room = count - less.sum(axis=1, keepdims=True)
        tie &= np.cumsum(tie, axis=1) <= room
        r, c = np.nonzero((less | tie) & (rank < np.inf))
        src.append(nodes[r + lo])
        extra.append(cand[c])
    return np.concatenate(src), np.concatenate(extra)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's output (Steele et al., OOPSLA 2014), wrapping in uint64."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _entry_uniforms(seed: int, node_ids: np.ndarray, src: np.ndarray,
                    nbr_ids: np.ndarray) -> np.ndarray:
    """A uniform in (0, 1] per entry from the hash
    mix(mix(mix(seed) ^ node id) ^ neighbor id), so never from row order:
    entry i pairs node ``node_ids[src[i]]`` with neighbor ``nbr_ids[i]``.
    The (seed, node id) prefix is mixed once per node."""
    h = _mix(np.array([seed & _SEED_MASK], dtype=np.uint64))
    h = _mix(h ^ np.asarray(node_ids, dtype=np.int64).view(np.uint64))
    h = _mix(h[src] ^ np.asarray(nbr_ids, dtype=np.int64).view(np.uint64))
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
    race = -np.log(_entry_uniforms(cfg.seed, g.node_ids, src, g.csr.ids))
    return race if cfg.mode == "uniform" else race / g.edge_scores


def _kth_keys(key: np.ndarray, degree: np.ndarray, src: np.ndarray,
              z: int) -> np.ndarray:
    """Each row's z-th smallest key in np.sort's order (NaN last); +inf for
    rows of at most z entries. Rows wider than z are grouped by the power of
    two at or above their degree, and each group's keys are partitioned as
    one (rows, 2**b) block padded with +inf."""
    kth = np.full(len(degree), np.inf)
    wide = degree > z
    bucket = np.where(wide, np.frexp(degree - 1)[1], -1).astype(np.int8)
    entry_bucket = bucket[src]
    for b in np.unique(bucket[wide]).tolist():
        rows = np.flatnonzero(bucket == b)
        filled = np.arange(1 << b) < degree[rows, None]
        block = np.full(filled.shape, np.inf)
        block[filled] = key[entry_bucket == b]
        kth[rows] = np.partition(block, z - 1, axis=1)[:, z - 1]
    return kth


def sample_layer(g: TransactionGraph, z: int, cfg: SamplerConfig,
                 extras=None) -> tuple[np.ndarray, np.ndarray]:
    """Every node's picks for a layer of size z as (node row, neighbor row)
    pairs, grouped by ascending node row.

    A node with at most z neighbors keeps them all. Of more, it keeps the z
    with the smallest _entry_keys, ties by ascending id. A row's kept
    neighbors come in ascending id, followed by its pairs in ``extras``,
    (node row, extra row) pairs grouped by ascending node row as
    _fraud_extras gives them.

    One mask keeps every entry not above its row's z-th key. That is
    exactly z entries unless the row ties at the z-th key or holds a NaN
    key; only such rows select again, one np.lexsort((ids, key)) each.
    """
    csr = g.csr
    degree = np.diff(csr.indptr)
    src = np.repeat(np.arange(g.n_nodes), degree)
    key = _entry_keys(g, cfg, src)
    keep = ~(key > _kth_keys(key, degree, src, z)[src])
    kept = np.bincount(src[keep], minlength=g.n_nodes)
    for row in np.flatnonzero(kept > z).tolist():  # ties and NaN keys
        lo, hi = csr.indptr[row].item(), csr.indptr[row + 1].item()
        keep[lo:hi] = False
        keep[lo + np.lexsort((csr.ids[lo:hi], key[lo:hi]))[:z]] = True
    src, nbr = src[keep], csr.rows[keep]
    if extras is None or not len(extras[0]):
        return src, nbr
    x_src, x_nbr = extras
    src, nbr = np.concatenate([src, x_src]), np.concatenate([nbr, x_nbr])
    order = np.argsort(src, kind="stable")  # extras after a row's neighbors
    return src[order], nbr[order]
