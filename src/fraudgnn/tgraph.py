"""Weighted transaction multigraph built from logic propositions.

Nodes are transaction records; two records are linked once per proposition
that holds for the pair (equality on a named raw field AND a timestamp gap
no larger than the proposition's window). Parallel edges carry the index of
the proposition that created them, and each proposition carries an integer
weight used later by the neighbor sampler.
"""

from __future__ import annotations

import functools
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
        if type(self.weight) is bool or not isinstance(self.weight, (int, np.integer)):
            raise ConfigError(f"proposition {self.name!r}: non-integer weight {self.weight!r}")
        if self.weight < 1:
            raise ConfigError(f"proposition {self.name!r}: weight must be >= 1, got {self.weight}")
        if math.isnan(self.window_seconds):
            raise ConfigError(f"proposition {self.name!r}: window_seconds must not be NaN")
        if self.window_seconds < 0:
            raise ConfigError(f"proposition {self.name!r}: window_seconds must be >= 0")


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

    ``node_ids``, ``timestamps`` and ``labels`` (int64) and ``features``
    ((n, l) float64) are read-only columns in record order. ``edges`` is an
    (E, 3) int64 array holding each undirected typed edge once as (row a,
    row b, proposition index), in no particular order; no edge joins a row
    to itself. ``csr`` is the distinct-neighbor view that build_graph
    derives from ``edges``. ``unit_features`` and ``edge_scores`` are
    derived on first use and cached, which is only sound because the graph
    is not edited after build.
    """

    records: list[TransactionRecord]
    propositions: list[Proposition]
    edges: np.ndarray
    csr: NeighborCSR
    node_ids: np.ndarray
    timestamps: np.ndarray
    labels: np.ndarray
    features: np.ndarray
    _index: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._index = dict(zip(self.node_ids.tolist(), range(self.n_nodes)))

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def index_of(self, node_id: int) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise InputError(f"unknown node id {node_id}") from None

    def rows_of(self, node_ids) -> np.ndarray:
        """The rows of ``node_ids``, in their order."""
        return np.array([self.index_of(v) for v in node_ids], dtype=np.int64)

    def record(self, node_id: int) -> TransactionRecord:
        return self.records[self.index_of(node_id)]

    def neighbors(self, node_id: int) -> list[int]:
        """Distinct neighbor ids, ascending (parallel edges collapsed)."""
        csr = self.csr
        return csr.ids[csr.span(self.index_of(node_id))].tolist()

    @functools.cached_property
    def unit_features(self) -> np.ndarray:
        """Row-normalized feature matrix; all-zero rows stay zero."""
        x = self.features
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)

    @functools.cached_property
    def edge_scores(self) -> np.ndarray:
        """Selection probability of every ``csr`` entry: weight x
        exp(cosine) over the sum of its row's own slice.

        Rows of one degree d are normalized together as a (rows, d) block;
        its ``sum(axis=1)`` adds each row with the pairwise kernel that the
        row's own slice sum uses, whose rounding np.add.reduceat does not
        reproduce."""
        csr = self.csr
        counts = np.diff(csr.indptr)
        src = np.repeat(np.arange(self.n_nodes), counts)
        raw = pair_scores(self.unit_features, src, csr.rows, csr.weight)
        probs = np.empty_like(raw)
        starts = csr.indptr[:-1]
        for d in np.unique(counts[counts > 0]).tolist():
            pos = starts[counts == d][:, None] + np.arange(d)
            block = raw[pos]
            probs[pos] = block / block.sum(axis=1, keepdims=True)
        return probs


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
    """Construct the multigraph and its CSR with integer sorts.

    Cost is O(m * n log n + |E| log |E|): per proposition, records sharing
    the keyed raw value are sorted by timestamp and paired inside the
    window, so no cross-bucket pair is ever touched.
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
    for r in records:
        if not (isinstance(r.id, (int, np.integer))
                and isinstance(r.timestamp, (int, np.integer))):
            raise InputError(f"record {r.id}: id and timestamp must be integers")
        if max(abs(r.id), abs(r.timestamp)) >= 2**62:  # int64 arrays, gaps too
            raise InputError(f"record {r.id}: id and timestamp must lie within +-2**62")

    node_ids = np.array(ids, dtype=np.int64)
    ts = np.array([r.timestamp for r in records], dtype=np.int64)
    labels = np.array([r.label for r in records], dtype=np.int64)
    features = np.stack([r.attrs for r in records])
    for column in (node_ids, ts, labels, features):
        column.flags.writeable = False
    edges = np.concatenate([_window_pairs(records, node_ids, ts, pi, prop)
                            for pi, prop in enumerate(props)])
    g = TransactionGraph(records=list(records), propositions=list(props),
                         edges=edges, csr=_neighbor_csr(node_ids, edges, props),
                         node_ids=node_ids, timestamps=ts, labels=labels,
                         features=features)
    logger.debug("built graph: %d nodes, %d edges, %d propositions",
                 g.n_nodes, g.n_edges, len(props))
    return g


def _window_pairs(records, node_ids: np.ndarray, ts: np.ndarray, pi: int,
                  prop: Proposition) -> np.ndarray:
    """One proposition's (row a, row b, pi) edges, from integer sorts.

    A dict codes the raw values, so they bucket as dict keys do. Each
    record's window start is the lower bound of (code, t - w) in the sorted
    (code, t) keys; a composite key code * gap + t would overflow int64.
    """
    missing = next((r for r in records if prop.field not in r.raw), None)
    if missing is not None:
        raise ConfigError(f"proposition {prop.name!r} references raw field "
                          f"{prop.field!r} missing from record {missing.id}")
    index: dict = {}
    code = np.array([index.setdefault(r.raw[prop.field], len(index))
                     for r in records], dtype=np.int64)
    order = np.lexsort((node_ids, ts, code))
    c, t, m = code[order], ts[order], len(order)
    # integer gaps fit a float window up to its floor; inf fits every gap
    span = int(t.max() - t.min())
    w = span if prop.window_seconds >= span else math.floor(prop.window_seconds)
    q = t - np.minimum(w, t - t.min())  # >= t.min(), so no overflow
    # stable, queries first: a query's place counts the keys below it
    merged = np.lexsort((np.concatenate([q, t]), np.concatenate([c, c])))
    count = 2 * np.arange(m) - np.flatnonzero(merged < m)
    later = np.repeat(np.arange(m), count)
    earlier = (np.arange(len(later))
               - np.repeat(np.cumsum(count) - np.arange(m), count))
    return np.column_stack([order[earlier], order[later],
                            np.full(len(later), pi, dtype=np.int64)])


def _neighbor_csr(node_ids: np.ndarray, edges: np.ndarray,
                  props: list[Proposition]) -> NeighborCSR:
    """The CSR of typed edges, from one sort of int64 keys packing (row, neighbor's
    id rank, proposition's weight rank): a pair's last key has its largest weight."""
    n, n_props = len(node_ids), len(props)
    if n * n * n_props >= 2**63:
        raise InputError(f"{n} records x {n_props} propositions overflow int64 edge keys")
    by_id = np.argsort(node_ids)
    rank = np.argsort(by_id)  # each row's place in id order
    prop_weight = np.array([p.weight for p in props])
    level = np.argsort(np.argsort(prop_weight))  # np.sort(prop_weight)[level] == prop_weight
    a, b, lv = edges[:, 0], edges[:, 1], level[edges[:, 2]]
    key = np.concatenate([(a * n + rank[b]) * n_props + lv,
                          (b * n + rank[a]) * n_props + lv])
    key.sort()
    pair = np.append(key // n_props, -1)  # a sentinel ends the last pair
    last = np.flatnonzero(pair[:-1] != pair[1:])
    weight = np.sort(prop_weight)[key[last] % n_props]
    src, nbr_rank = np.divmod(pair[last], n)
    rows = by_id[nbr_rank]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return NeighborCSR(indptr, rows, node_ids[rows], weight)


def serialize_graph(g: TransactionGraph) -> str:
    """Canonical line-oriented dump: node count header, then sorted EDGE lines.

    Each undirected parallel edge appears once as ``EDGE a b prop_index`` with
    a < b; output is byte-identical for identical graphs.
    """
    ids = g.node_ids
    a, b, prop = ids[g.edges[:, 0]], ids[g.edges[:, 1]], g.edges[:, 2]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((prop, hi, lo))
    lines = [f"NODES {g.n_nodes}"]
    lines += [f"EDGE {x} {y} {k}" for x, y, k in zip(
        lo[order].tolist(), hi[order].tolist(), prop[order].tolist())]
    return "\n".join(lines) + "\n"
