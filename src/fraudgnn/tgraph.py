"""Weighted transaction multigraph built from logic propositions.

Nodes are transaction records; two records are linked once per proposition
that holds for the pair (equality on a named raw field AND a timestamp gap
no larger than the proposition's window). Parallel edges carry the index of
the proposition that created them, and each proposition carries an integer
weight used later by the neighbor sampler.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError

logger = logging.getLogger(__name__)

UNLABELED = -1


@dataclass
class TransactionRecord:
    """One transaction: preprocessed feature vector plus raw fields.

    ``attrs`` is the post-preprocessing feature vector (every component in
    [0, 1] once ingested through the standard pipeline; toy fixtures may use
    any finite values). ``raw`` keeps the original named fields that
    propositions compare (ip, device, ...). ``label`` is 0 (legitimate),
    1 (fraud) or UNLABELED.
    """

    id: int
    attrs: np.ndarray
    raw: dict
    timestamp: int
    label: int = UNLABELED

    def __post_init__(self):
        self.attrs = np.asarray(self.attrs, dtype=np.float64)
        if self.attrs.ndim != 1:
            raise InputError(f"record {self.id}: attrs must be 1-D, got shape {self.attrs.shape}")


@dataclass(frozen=True)
class Proposition:
    """Symmetric predicate over a record pair: raw-field equality within a time window."""

    name: str
    field: str
    weight: int = 1
    window_seconds: int = 1800

    def __post_init__(self):
        if int(self.weight) < 1:
            raise ConfigError(f"proposition {self.name!r}: weight must be >= 1, got {self.weight}")
        if self.window_seconds < 0:
            raise ConfigError(f"proposition {self.name!r}: window_seconds must be >= 0")


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


@dataclass(frozen=True, eq=False)
class NeighborCSR:
    """Distinct-neighbor view of a multigraph in compressed sparse rows.

    Node row i (record order) owns entries ``indptr[i]:indptr[i + 1]``.
    Within a row, entries are sorted by ascending neighbor *id* (not row
    position) with parallel edges collapsed. ``rows`` and ``ids`` hold the
    neighbor's row position and id; ``weight`` the largest weight among the
    propositions linking the pair.
    """

    indptr: np.ndarray
    rows: np.ndarray
    ids: np.ndarray
    weight: np.ndarray

    def span(self, row: int) -> slice:
        """The entries of node row ``row``."""
        return slice(int(self.indptr[row]), int(self.indptr[row + 1]))


@dataclass
class TransactionGraph:
    """Immutable-after-build multigraph over transaction records.

    ``adj`` maps node id -> list of (neighbor id, proposition index),
    canonically sorted; the edge multiset is symmetric and self-edge free.
    ``csr``, ``unit_features`` and ``edge_scores`` are derived from it on
    first use and cached, which is only sound because the graph is not
    edited after build.
    """

    records: list[TransactionRecord]
    propositions: list[Proposition]
    adj: dict[int, list[tuple[int, int]]]
    _index: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._index:
            self._index = {r.id: i for i, r in enumerate(self.records)}

    @property
    def n_nodes(self) -> int:
        return len(self.records)

    @property
    def n_edges(self) -> int:
        return sum(len(v) for v in self.adj.values()) // 2

    def index_of(self, node_id: int) -> int:
        return self._index[node_id]

    def record(self, node_id: int) -> TransactionRecord:
        return self.records[self._index[node_id]]

    def neighbors(self, node_id: int) -> list[int]:
        """Distinct neighbor ids, ascending (parallel edges collapsed)."""
        csr = self.csr
        return csr.ids[csr.span(self._index[node_id])].tolist()

    @functools.cached_property
    def csr(self) -> NeighborCSR:
        """The adjacency as a NeighborCSR, built from ``adj`` once."""
        n = len(self.records)
        counts = np.array([len(self.adj[r.id]) for r in self.records],
                          dtype=np.int64)
        pairs = itertools.chain.from_iterable(
            itertools.chain.from_iterable(self.adj[r.id] for r in self.records))
        flat = np.fromiter(pairs, dtype=np.int64,
                           count=2 * int(counts.sum())).reshape(-1, 2)
        src = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.lexsort((flat[:, 0], src))
        src, nbr, prop = src[order], flat[order, 0], flat[order, 1]
        prop_weight = np.array([p.weight for p in self.propositions])
        first = np.ones(len(src), dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (nbr[1:] != nbr[:-1])
        starts = np.flatnonzero(first)
        weight = (np.maximum.reduceat(prop_weight[prop], starts)
                  if len(starts) else prop_weight[:0])
        node_ids = np.array([r.id for r in self.records], dtype=np.int64)
        by_id = np.argsort(node_ids)
        nbr = nbr[starts]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[starts], minlength=n), out=indptr[1:])
        return NeighborCSR(
            indptr=indptr,
            rows=by_id[np.searchsorted(node_ids[by_id], nbr)],
            ids=nbr, weight=weight)

    @functools.cached_property
    def unit_features(self) -> np.ndarray:
        """Row-normalized feature matrix; all-zero rows stay zero."""
        x = self.features()
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)

    @functools.cached_property
    def edge_scores(self) -> np.ndarray:
        """Selection probability of every ``csr`` entry: weight x
        exp(cosine) over the sum of its row's own slice, whose rounding
        np.add.reduceat does not reproduce."""
        csr = self.csr
        src = np.repeat(np.arange(self.n_nodes), np.diff(csr.indptr))
        raw = pair_scores(self.unit_features, src, csr.rows, csr.weight)
        probs = np.empty_like(raw)
        for lo, hi in zip(csr.indptr[:-1].tolist(), csr.indptr[1:].tolist()):
            probs[lo:hi] = raw[lo:hi] / raw[lo:hi].sum()
        return probs

    def features(self) -> np.ndarray:
        """(n, l) float64 feature matrix in record order."""
        return np.stack([r.attrs for r in self.records])

    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=np.int64)

    def timestamps(self) -> np.ndarray:
        return np.array([r.timestamp for r in self.records], dtype=np.int64)

    def node_ids(self) -> list[int]:
        return [r.id for r in self.records]


# Edges per gather in pair_scores: bounds the two (chunk, l) temporaries
# instead of materialising u[src] and u[dst] for every edge at once.
_SCORE_CHUNK = 4096


def pair_scores(u: np.ndarray, src: np.ndarray, dst: np.ndarray,
                weight: np.ndarray) -> np.ndarray:
    """Unnormalized score weight x exp(u[src] . u[dst]) of each row pair.

    Every pair gets the bits that scoring it alone with np.dot and math.exp
    gives, however the pairs are batched: np.vecdot reduces each pair with
    np.dot's kernel, where einsum and (a * b).sum(1) round differently, and
    np.exp's vectorized kernel differs from math.exp in the last bit on a
    few percent of values.
    """
    sims = np.empty(len(src))
    for lo in range(0, len(src), _SCORE_CHUNK):
        hi = lo + _SCORE_CHUNK
        dots = np.vecdot(u[src[lo:hi]], u[dst[lo:hi]])
        sims[lo:hi] = [math.exp(d) for d in dots.tolist()]
    return weight * sims


def max_edge_weight(g: TransactionGraph, v: int, v_prime: int) -> int:
    """Largest weight among the parallel edges linking v and v_prime; 0 if none."""
    if v not in g._index or v_prime not in g._index:
        raise InputError(f"unknown node id in ({v}, {v_prime})")
    csr = g.csr
    span = csr.span(g._index[v])
    j = span.start + int(np.searchsorted(csr.ids[span], v_prime))
    return csr.weight[j].item() if j < span.stop and csr.ids[j] == v_prime else 0


def build_graph(records: list[TransactionRecord], props: list[Proposition]) -> TransactionGraph:
    """Construct the multigraph, bucketing by proposition field and sweeping by time.

    Cost is O(m * n log n + |E|): per proposition, records sharing the keyed
    raw value are sorted by timestamp and paired with a sliding window, so no
    cross-bucket pair is ever touched.
    """
    if not records:
        raise InputError("cannot build a graph from an empty record set")
    if not props:
        raise InputError("at least one proposition is required")
    ids = [r.id for r in records]
    if len(set(ids)) != len(ids):
        from collections import Counter
        dupes = sorted(i for i, c in Counter(ids).items() if c > 1)
        raise InputError(f"duplicate record ids: {dupes[:5]}")
    lengths = {r.attrs.shape[0] for r in records}
    if len(lengths) > 1:
        raise InputError(f"records carry inconsistent attr lengths: {sorted(lengths)}")

    adj: dict[int, list[tuple[int, int]]] = {r.id: [] for r in records}

    for pi, prop in enumerate(props):
        buckets: dict[object, list[TransactionRecord]] = {}
        for r in records:
            if prop.field not in r.raw:
                raise ConfigError(
                    f"proposition {prop.name!r} references raw field {prop.field!r} "
                    f"missing from record {r.id}"
                )
            buckets.setdefault(r.raw[prop.field], []).append(r)
        for group in buckets.values():
            if len(group) < 2:
                continue
            group.sort(key=lambda r: (r.timestamp, r.id))
            lo = 0
            for j in range(len(group)):
                rj = group[j]
                while rj.timestamp - group[lo].timestamp > prop.window_seconds:
                    lo += 1
                for k in range(lo, j):
                    rk = group[k]
                    adj[rk.id].append((rj.id, pi))
                    adj[rj.id].append((rk.id, pi))

    for node_id in adj:
        adj[node_id].sort()

    g = TransactionGraph(records=list(records), propositions=list(props), adj=adj)
    logger.debug("built graph: %d nodes, %d edges, %d propositions",
                 g.n_nodes, g.n_edges, len(props))
    return g


def serialize_graph(g: TransactionGraph) -> str:
    """Canonical line-oriented dump: node count header, then sorted EDGE lines.

    Each undirected parallel edge appears once as ``EDGE a b prop_index`` with
    a < b; output is byte-identical for identical graphs.
    """
    lines = [f"NODES {g.n_nodes}"]
    edges = set()
    for a, nbrs in g.adj.items():
        for b, pi in nbrs:
            edges.add((a, b, pi) if a < b else (b, a, pi))
    for a, b, pi in sorted(edges):
        lines.append(f"EDGE {a} {b} {pi}")
    return "\n".join(lines) + "\n"
