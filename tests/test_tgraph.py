"""Graph construction: proposition evaluation, the bucketed builder, weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudgnn.errors import ConfigError, InputError
from fraudgnn.tgraph import (NeighborCSR, Proposition, TransactionGraph,
                             TransactionRecord, build_graph, max_edge_weight,
                             serialize_graph)

from reference import (adjacency, evaluate_proposition, loop_edge_scores,
                       naive_build_graph, naive_max_weight,
                       random_transaction_records)


def rec(rid, ts, label=0, **raw):
    return TransactionRecord(id=rid, attrs=np.array([1.0, 0.5]), raw=raw,
                             timestamp=ts, label=label)


class TestEvaluateProposition:
    def test_same_ip_within_window(self, six_records):
        p = Proposition(name="same_ip", field="ip", window_seconds=1800)
        r1, r3 = six_records[0], six_records[2]
        assert evaluate_proposition(p, r1, r3) is True

    def test_different_ip(self, six_records):
        p = Proposition(name="same_ip", field="ip", window_seconds=1800)
        r1, r5 = six_records[0], six_records[4]
        assert evaluate_proposition(p, r1, r5) is False

    def test_gap_just_outside_window(self):
        p = Proposition(name="same_ip", field="ip", window_seconds=1800)
        a = rec(1, 0, ip="x")
        b = rec(2, 1801, ip="x")
        assert evaluate_proposition(p, a, b) is False

    def test_gap_exactly_at_window_is_inside(self):
        p = Proposition(name="same_ip", field="ip", window_seconds=1800)
        assert evaluate_proposition(p, rec(1, 0, ip="x"), rec(2, 1800, ip="x"))

    def test_symmetry(self, six_records, ip_mac_props):
        for p in ip_mac_props:
            for a in six_records:
                for b in six_records:
                    if a.id == b.id:
                        continue
                    assert (evaluate_proposition(p, a, b)
                            == evaluate_proposition(p, b, a))

    def test_missing_field_names_it(self):
        p = Proposition(name="same_mac", field="mac")
        with pytest.raises(ConfigError, match="mac"):
            evaluate_proposition(p, rec(1, 0, ip="x"), rec(2, 0, ip="x"))

    def test_self_pair_rejected(self):
        p = Proposition(name="same_ip", field="ip")
        a = rec(1, 0, ip="x")
        with pytest.raises(InputError):
            evaluate_proposition(p, a, a)


class TestPropositionValidation:
    def test_weight_must_be_positive(self):
        with pytest.raises(ConfigError):
            Proposition(name="p", field="ip", weight=0)

    def test_negative_window_rejected(self):
        with pytest.raises(ConfigError):
            Proposition(name="p", field="ip", window_seconds=-1)

    def test_nan_window_rejected(self):
        with pytest.raises(ConfigError, match="'same_ip'.*window_seconds"):
            Proposition(name="same_ip", field="ip", window_seconds=float("nan"))

    @pytest.mark.parametrize("weight", [2.5, 2.0, True, "2"])
    def test_weight_must_be_an_integer(self, weight):
        with pytest.raises(ConfigError, match="'p': non-integer weight"):
            Proposition(name="p", field="ip", weight=weight)

    def test_numpy_integer_weight_accepted(self):
        g = build_graph([rec(1, 0, ip="x"), rec(2, 5, ip="x")],
                        [Proposition(name="p", field="ip", weight=np.int64(4))])
        assert g.csr.weight.tolist() == [4, 4]

    def test_infinite_window_links_every_pair(self):
        records = [rec(k, k * 10**6, ip="x") for k in range(4)]
        g = build_graph(records, [Proposition(name="p", field="ip",
                                              window_seconds=float("inf"))])
        assert g.n_edges == 6


class TestBuildGraph:
    def test_six_record_edge_set(self, six_graph):
        # ip edges among 1..4 (all within 10 minutes), none between 5 and 6
        # (40 minutes apart); mac edges 1-3 and 2-5.
        expected = (
            "NODES 6\n"
            "EDGE 1 2 0\n"
            "EDGE 1 3 0\n"
            "EDGE 1 3 1\n"
            "EDGE 1 4 0\n"
            "EDGE 2 3 0\n"
            "EDGE 2 4 0\n"
            "EDGE 2 5 1\n"
            "EDGE 3 4 0\n"
        )
        assert serialize_graph(six_graph) == expected
        assert six_graph.n_edges == 8

    def test_single_record_graph(self):
        g = build_graph([rec(7, 0, ip="x")],
                        [Proposition(name="p", field="ip")])
        assert g.n_nodes == 1
        assert g.n_edges == 0
        assert g.neighbors(7) == []

    def test_fully_disjoint_pair(self):
        a = rec(1, 0, ip="x", device="d1")
        b = rec(2, 50_000, ip="y", device="d2")
        props = [Proposition(name="ip", field="ip"),
                 Proposition(name="dev", field="device")]
        assert build_graph([a, b], props).n_edges == 0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            build_graph([rec(1, 0, ip="x"), rec(1, 5, ip="x")],
                        [Proposition(name="p", field="ip")])

    def test_empty_records_rejected(self):
        with pytest.raises(InputError):
            build_graph([], [Proposition(name="p", field="ip")])

    def test_no_propositions_rejected(self):
        with pytest.raises(InputError):
            build_graph([rec(1, 0, ip="x")], [])

    @pytest.mark.parametrize("rid, ts", [
        (2**64, 0), (2**62, 0), (-2**62, 0), (1, 2**63), (1, 2**62),
        (1, -2**62)])
    def test_id_or_timestamp_beyond_int64_range_rejected(self, rid, ts):
        records = [rec(rid, ts, ip="x"), rec(0, 0, ip="x")]
        with pytest.raises(InputError, match=rf"record {rid}: id and "
                           r"timestamp must lie within \+-2\*\*62"):
            build_graph(records, [Proposition(name="p", field="ip")])

    @pytest.mark.parametrize("rid, ts", [
        (1, 1.5), (1, 2.0), (1, float("nan")), (1.0, 0), ("1", 0)])
    def test_non_integer_id_or_timestamp_rejected(self, rid, ts):
        records = [rec(rid, ts, ip="x"), rec(0, 0, ip="x")]
        with pytest.raises(InputError, match="id and timestamp must be integers"):
            build_graph(records, [Proposition(name="p", field="ip")])

    def test_widest_ids_and_timestamps_accepted(self):
        big = 2**62 - 1
        records = [rec(big, -big, ip="x"), rec(-big, big, ip="x")]
        g = build_graph(records, [Proposition(name="p", field="ip",
                                              window_seconds=float("inf"))])
        assert g.neighbors(big) == [-big]
        assert g.timestamps.tolist() == [-big, big]

    def test_inconsistent_attr_lengths_rejected(self):
        a = rec(1, 0, ip="x")
        b = TransactionRecord(id=2, attrs=np.array([1.0]), raw={"ip": "x"},
                              timestamp=0, label=0)
        with pytest.raises(InputError, match="attr"):
            build_graph([a, b], [Proposition(name="p", field="ip")])

    def test_identical_rows_are_distinct_nodes(self):
        a = rec(1, 100, ip="x")
        b = rec(2, 100, ip="x")
        g = build_graph([a, b], [Proposition(name="p", field="ip")])
        assert g.n_edges == 1
        assert g.neighbors(1) == [2]

    def test_deterministic_rebuild(self, six_records, ip_mac_props):
        g1 = build_graph(six_records, ip_mac_props)
        g2 = build_graph(list(reversed(six_records)), ip_mac_props)
        assert serialize_graph(g1) == serialize_graph(g2)

    def test_matches_naive_builder_on_random_instances(self):
        rng = np.random.default_rng(42)
        props = [Proposition(name="dev", field="device", weight=2,
                             window_seconds=600),
                 Proposition(name="ip", field="ip", weight=1,
                             window_seconds=900)]
        for trial in range(10):
            records = random_transaction_records(rng, n=60, span=3600)
            g = build_graph(records, props)
            oracle = naive_build_graph(records, props)
            assert {v: sorted(es) for v, es in adjacency(g).items()} == oracle


class TestMaxEdgeWeight:
    def two_prop_graph(self, both=True):
        a = rec(1, 0, ip="x", device="d")
        b = rec(2, 100, ip="x" if both else "y", device="d")
        props = [Proposition(name="dev", field="device", weight=2),
                 Proposition(name="ip", field="ip", weight=5)]
        return build_graph([a, b], props)

    def test_max_over_parallel_edges(self):
        assert max_edge_weight(self.two_prop_graph(both=True), 1, 2) == 5

    def test_single_satisfied_predicate(self):
        assert max_edge_weight(self.two_prop_graph(both=False), 1, 2) == 2

    def test_no_edge_is_zero(self):
        g = build_graph([rec(1, 0, ip="x"), rec(2, 9999, ip="x")],
                        [Proposition(name="ip", field="ip")])
        assert max_edge_weight(g, 1, 2) == 0

    def test_symmetric(self, six_graph):
        for a in six_graph.node_ids:
            for b in six_graph.node_ids:
                if a != b:
                    assert (max_edge_weight(six_graph, a, b)
                            == max_edge_weight(six_graph, b, a))

    def test_unknown_id_rejected(self, six_graph):
        with pytest.raises(InputError):
            max_edge_weight(six_graph, 1, 99)


class TestNeighborCSR:
    def test_rows_sorted_by_neighbor_id_with_max_weight(self):
        rng = np.random.default_rng(13)
        records = random_transaction_records(rng, n=50, span=3600)
        for r, x in zip(records, rng.permutation(50)):
            r.id = int(3 * x + 7)
        props = [Proposition(name="dev", field="device", weight=3,
                             window_seconds=900),
                 Proposition(name="ip", field="ip", weight=2,
                             window_seconds=1800)]
        g = build_graph(records, props)
        by_id = {r.id: r for r in records}
        adj = naive_build_graph(records, props)
        csr = g.csr
        assert csr.indptr[-1] == len(csr.ids) == len(csr.rows)
        for row, r in enumerate(records):
            span = csr.span(row)
            assert csr.ids[span].tolist() == sorted({u for u, _ in adj[r.id]})
            assert [records[j].id for j in csr.rows[span]] == \
                csr.ids[span].tolist()
            assert csr.weight[span].tolist() == [
                naive_max_weight(by_id, props, r.id, u) for u in csr.ids[span]]

    def test_unit_features_normalize_rows_and_keep_zero_rows(self):
        records = [rec(1, 0, ip="x"), rec(2, 10, ip="x")]
        records[1].attrs = np.zeros(2)
        g = build_graph(records, [Proposition(name="ip", field="ip")])
        u = g.unit_features
        assert u is g.unit_features
        np.testing.assert_allclose(np.linalg.norm(u[0]), 1.0)
        assert u[1].tolist() == [0.0, 0.0]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    def test_edge_scores_match_the_row_loop(self, seed, n):
        """Degree-group sums give the bits of each row's own slice sum.
        Degrees up to 400 cross numpy's 8-wide unrolled and 128-element
        pairwise summation blocks; rows share degrees, so groups hold
        several rows."""
        rng = np.random.default_rng(seed)
        counts = rng.choice(rng.integers(0, 401, size=3), size=n)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        rows = rng.integers(0, n, size=indptr[-1])
        features = rng.normal(size=(n, 3)) * rng.integers(0, 2, size=(n, 1))
        g = TransactionGraph(
            records=[], propositions=[], edges=np.zeros((0, 3), np.int64),
            csr=NeighborCSR(indptr, rows, rows,
                            rng.integers(1, 6, size=len(rows))),
            node_ids=np.arange(n), timestamps=np.zeros(n, np.int64),
            labels=np.zeros(n, np.int64), features=features)
        assert g.edge_scores.tobytes() == loop_edge_scores(g).tobytes()


class TestGraphAccessors:
    def test_neighbors_sorted_and_distinct(self, six_graph):
        # node 1 touches 2, 3 (twice, via ip and mac), 4
        assert six_graph.neighbors(1) == [2, 3, 4]

    def test_features_shape_and_order(self, six_graph, six_records):
        feats = six_graph.features
        assert feats.shape == (6, 2)
        np.testing.assert_array_equal(feats[0], six_records[0].attrs)

    def test_labels_and_timestamps_align(self, six_graph, six_records):
        assert six_graph.labels.tolist() == [r.label for r in six_records]
        assert six_graph.timestamps.tolist() == [r.timestamp
                                                   for r in six_records]

    def test_columns_are_read_only(self, six_graph, six_records):
        assert six_graph.node_ids.tolist() == [r.id for r in six_records]
        for column in (six_graph.node_ids, six_graph.timestamps,
                       six_graph.labels, six_graph.features):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_rows_of_names_an_unknown_id(self, six_graph):
        assert six_graph.rows_of([6, 1, 6]).tolist() == [5, 0, 5]
        with pytest.raises(InputError, match="unknown node id 7"):
            six_graph.rows_of([1, 7])

    def test_index_of_names_an_unknown_id(self, six_graph):
        assert six_graph.index_of(6) == 5
        with pytest.raises(InputError, match="unknown node id 99"):
            six_graph.index_of(99)

    def test_record_names_an_unknown_id(self, six_graph, six_records):
        assert six_graph.record(6) is six_records[5]
        with pytest.raises(InputError, match="unknown node id 99"):
            six_graph.record(99)

    def test_neighbors_names_an_unknown_id(self, six_graph):
        with pytest.raises(InputError, match="unknown node id 99"):
            six_graph.neighbors(99)
