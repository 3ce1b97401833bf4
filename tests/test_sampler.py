"""Neighbor selection: similarity scores, probabilities, top-z, over-sampling."""

import importlib
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudgnn.datagen import ScenarioConfig, generate, split_records
from fraudgnn.errors import ConfigError, InputError
from fraudgnn.model import ModelConfig, checkpoint_text
from fraudgnn import sampler as sampler_mod
from fraudgnn.sampler import (DEFAULT_SIMILARITY_FLOOR, MODES, SamplerConfig,
                              _entry_uniforms, _fraud_extras, combine_seed,
                              sample_layer)
from fraudgnn.tgraph import (NeighborCSR, Proposition, TransactionRecord,
                             build_graph)
from fraudgnn.train import TrainConfig, _sample_layers, predict, train

import reference
from reference import (choice_pick, loop_fraud_extras, loop_sample_layer,
                       loop_sample_layers, loop_sample_neighborhood,
                       loop_selection_probabilities,
                       naive_selection_probabilities, naive_topz,
                       oversample_fraud, race_pick, race_uniform,
                       random_transaction_records, rectangle,
                       sample_neighborhood, sample_topz,
                       selection_probabilities, similarity)


def rec(rid, attrs, ts=0, label=0, raw=None, **fields):
    raw = raw if raw is not None else (fields or {"ip": "x"})
    return TransactionRecord(id=rid, attrs=np.asarray(attrs, dtype=float),
                             raw=raw, timestamp=ts, label=label)


class TestSimilarity:
    def test_identical_vectors_hit_e(self):
        a, b = rec(1, [2.0, 1.0]), rec(2, [4.0, 2.0])
        assert similarity(a, b) == pytest.approx(math.e, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert similarity(rec(1, [1, 0]), rec(2, [0, 1])) == pytest.approx(1.0)

    def test_45_degree_pair(self):
        # cos(45 deg) = 1/sqrt(2), pushed through exp
        s = similarity(rec(1, [1, 0]), rec(2, [1, 1]))
        assert s == pytest.approx(2.0281, abs=5e-5)

    def test_zero_vector_normalizes_to_zero(self):
        assert similarity(rec(1, [0, 0]), rec(2, [1, 1])) == pytest.approx(1.0)

    def test_range_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rec(1, rng.normal(size=5))
            b = rec(2, rng.normal(size=5))
            assert math.exp(-1) - 1e-12 <= similarity(a, b) <= math.e + 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            similarity(rec(1, [1, 0]), rec(2, [1, 0, 0]))


def chain_graph(attr_list, weight_by_field=None, label_list=None):
    """Star around node 0: node i>0 links to 0 via its own field key only."""
    weight_by_field = weight_by_field or {}
    n = len(attr_list)
    fields = [f"k{i}" for i in range(1, n)]
    records = [rec(0, attr_list[0], raw={k: "v" for k in fields})]
    props = []
    for i in range(1, n):
        label = label_list[i] if label_list else 0
        raw = {k: (("v" if k == f"k{i}" else f"z{i}")) for k in fields}
        records.append(rec(i, attr_list[i], label=label, raw=raw))
        props.append(Proposition(name=f"p{i}", field=f"k{i}",
                                 weight=weight_by_field.get(f"k{i}", 1)))
    return build_graph(records, props)


class TestSelectionProbabilities:
    def test_single_neighbor_gets_everything(self):
        g = chain_graph([[1, 0], [1, 1]])
        assert selection_probabilities(g, 0) == {1: 1.0}

    def test_two_identical_neighbors_split_evenly(self):
        g = chain_graph([[1, 0], [1, 1], [1, 1]])
        probs = selection_probabilities(g, 0)
        assert probs[1] == pytest.approx(0.5)
        assert probs[2] == pytest.approx(0.5)

    def test_weight_two_to_one_ratio(self):
        # equal similarity, edge weights 2 vs 1 -> probabilities 2/3 vs 1/3
        g = chain_graph([[1, 0], [1, 0], [1, 0]],
                        weight_by_field={"k1": 2, "k2": 1})
        probs = selection_probabilities(g, 0)
        assert probs[1] == pytest.approx(2 / 3, abs=1e-12)
        assert probs[2] == pytest.approx(1 / 3, abs=1e-12)

    def test_isolated_node_empty_map(self):
        g = build_graph([rec(0, [1, 0], ip="a"), rec(1, [1, 0], ip="b")],
                        [Proposition(name="ip", field="ip")])
        assert selection_probabilities(g, 0) == {}

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(3)
        records = random_transaction_records(rng, 50)
        props = [Proposition(name="dev", field="device", weight=3),
                 Proposition(name="ip", field="ip", weight=1)]
        g = build_graph(records, props)
        for v in g.node_ids:
            probs = selection_probabilities(g, v)
            if probs:
                assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
                assert all(p > 0 for p in probs.values())

    def test_matches_first_principles_oracle(self):
        rng = np.random.default_rng(11)
        records = random_transaction_records(rng, 40)
        props = [Proposition(name="dev", field="device", weight=2),
                 Proposition(name="ip", field="ip", weight=1)]
        g = build_graph(records, props)
        for v in g.node_ids[:15]:
            mine = selection_probabilities(g, v)
            oracle = naive_selection_probabilities(records, props, v)
            assert set(mine) == set(oracle)
            for u in mine:
                assert mine[u] == pytest.approx(oracle[u], abs=1e-12)

    def test_raising_weight_never_lowers_probability(self):
        for boosted in (1, 2, 5):
            base = chain_graph([[1, 0], [1, 1], [0.5, 1]],
                               weight_by_field={"k1": 1})
            bumped = chain_graph([[1, 0], [1, 1], [0.5, 1]],
                                 weight_by_field={"k1": boosted})
            p_base = selection_probabilities(base, 0)[1]
            p_bumped = selection_probabilities(bumped, 0)[1]
            assert p_bumped >= p_base - 1e-15


class TestSampleTopZ:
    def test_keeps_highest_probability(self):
        # similarities rank 1 > 2 > 3 by construction
        g = chain_graph([[1, 0], [1, 0], [1, 1], [0, 1]])
        cfg = SamplerConfig(z_hat=(2,))
        assert sample_topz(g, 0, 0, cfg) == [1, 2]

    def test_returns_all_when_fewer_than_z(self):
        g = chain_graph([[1, 0], [1, 1], [0, 1]])
        cfg = SamplerConfig(z_hat=(5,))
        assert sample_topz(g, 0, 0, cfg) == [1, 2]

    def test_uniform_mode_rejected(self):
        """Uniform draws belong to the trainer; the per-node samplers must
        not fall back to a weighted draw for them."""
        g = chain_graph([[1, 0], [1, 1], [0, 1]])
        cfg = SamplerConfig(z_hat=(1,), mode="uniform")
        with pytest.raises(ConfigError, match="uniform"):
            sample_topz(g, 0, 0, cfg)
        with pytest.raises(ConfigError, match="uniform"):
            sample_neighborhood(g, 0, 0, cfg)

    def test_ties_break_by_ascending_id(self):
        records = [rec(0, [1, 0], raw={"ip": "x"}),
                   rec(7, [1, 1], ip="x"),
                   rec(3, [1, 1], ip="x"),
                   rec(9, [1, 1], ip="x")]
        g = build_graph(records, [Proposition(name="ip", field="ip")])
        cfg = SamplerConfig(z_hat=(2,))
        assert sample_topz(g, 0, 0, cfg) == [3, 7]

    def test_isolated_node_empty(self):
        g = build_graph([rec(0, [1, 0], ip="a"), rec(1, [1, 0], ip="b")],
                        [Proposition(name="ip", field="ip")])
        assert sample_topz(g, 0, 0, SamplerConfig(z_hat=(3,))) == []

    def test_matches_sort_oracle_on_random_graphs(self):
        rng = np.random.default_rng(19)
        props = [Proposition(name="dev", field="device", weight=2),
                 Proposition(name="ip", field="ip")]
        for _ in range(5):
            records = random_transaction_records(rng, 60)
            g = build_graph(records, props)
            cfg = SamplerConfig(z_hat=(4,))
            for v in g.node_ids:
                probs = selection_probabilities(g, v)
                assert sample_topz(g, v, 0, cfg) == naive_topz(probs, 4)

    def test_weighted_mode_reproducible_and_valid(self):
        rng = np.random.default_rng(23)
        records = random_transaction_records(rng, 50)
        g = build_graph(records, [Proposition(name="dev", field="device")])
        cfg = SamplerConfig(z_hat=(3,), mode="weighted_without_replacement",
                            seed=99)
        for v in g.node_ids:
            first = sample_topz(g, v, 0, cfg)
            second = sample_topz(g, v, 0, cfg)
            assert first == second
            assert len(first) == len(set(first))
            assert set(first) <= set(g.neighbors(v))

    def test_weighted_mode_prefers_probable_neighbors(self):
        # node 0 has one near-identical neighbor and one near-orthogonal one
        hits = {1: 0, 2: 0}
        for seed in range(300):
            g = chain_graph([[1, 0], [1, 0.05], [0.05, 1]])
            cfg = SamplerConfig(z_hat=(1,),
                                mode="weighted_without_replacement", seed=seed)
            (chosen,) = sample_topz(g, 0, 0, cfg)
            hits[chosen] += 1
        assert hits[1] > hits[2]

    def test_combine_seed_distinguishes_salts(self):
        assert combine_seed(5, 1) != combine_seed(5, 2)
        assert combine_seed(5, 1) == combine_seed(5, 1)


def fraud_field_graph(sims, labels, link_first=False):
    """Node 0 plus len(sims) others; others are graph-isolated from 0 unless
    link_first. sims gives each other node's cosine against node 0."""
    records = [rec(0, [1.0, 0.0], label=1, raw={"ip": "self"})]
    for i, (c, lab) in enumerate(zip(sims, labels), start=1):
        ip = "self" if (link_first and i == 1) else f"other{i}"
        attrs = [c, math.sqrt(max(0.0, 1 - c * c))]
        records.append(rec(i, attrs, label=lab, ip=ip))
    return build_graph(records, [Proposition(name="ip", field="ip")])


class TestOversampleFraud:
    def test_no_other_fraud_leaves_base(self):
        g = fraud_field_graph([0.9, 0.9], [0, 0])
        cfg = SamplerConfig(z_hat=(2,), oversample_count=3)
        assert oversample_fraud(g, 0, [], cfg) == []

    def test_below_floor_excluded(self):
        g = fraud_field_graph([0.2], [1])  # exp(0.2) < exp(0.5)
        cfg = SamplerConfig(z_hat=(2,), oversample_count=3)
        assert oversample_fraud(g, 0, [], cfg) == []

    def test_top_q_most_similar_kept(self):
        sims = [0.99, 0.95, 0.9, 0.8, 0.7]
        g = fraud_field_graph(sims, [1] * 5)
        cfg = SamplerConfig(z_hat=(2,), oversample_count=3)
        assert oversample_fraud(g, 0, [], cfg) == [1, 2, 3]

    def test_never_adds_legitimate_nodes(self):
        g = fraud_field_graph([0.99, 0.99], [0, 1])
        cfg = SamplerConfig(z_hat=(2,), oversample_count=5)
        assert oversample_fraud(g, 0, [], cfg) == [2]

    def test_never_adds_existing_neighbor(self):
        g = fraud_field_graph([0.99, 0.98], [1, 1], link_first=True)
        cfg = SamplerConfig(z_hat=(2,), oversample_count=5)
        assert oversample_fraud(g, 0, [1], cfg) == [1, 2]
        # also excluded when adjacent but not in the passed base
        assert oversample_fraud(g, 0, [], cfg) == [2]

    def test_fraud_pool_restricts_candidates(self):
        g = fraud_field_graph([0.99, 0.98], [1, 1])
        cfg = SamplerConfig(z_hat=(2,), oversample_count=5)
        assert oversample_fraud(g, 0, [], cfg, fraud_pool=[2]) == [2]

    def test_zero_count_is_noop(self):
        g = fraud_field_graph([0.99], [1])
        cfg = SamplerConfig(z_hat=(2,), oversample_count=0)
        assert oversample_fraud(g, 0, [5], cfg) == [5]

    def test_floor_default_matches_cosine_half(self):
        assert DEFAULT_SIMILARITY_FLOOR == pytest.approx(math.exp(0.5))


class TestSampleNeighborhood:
    def test_probabilities_parallel_to_selection(self):
        g = chain_graph([[1, 0], [1, 0], [1, 1], [0, 1]])
        nb = sample_neighborhood(g, 0, 0, SamplerConfig(z_hat=(2,)))
        assert nb.node == 0
        assert nb.selected == [1, 2]
        probs = selection_probabilities(g, 0)
        assert nb.probabilities == [probs[1], probs[2]]

    def test_oversampled_extras_carry_zero_probability(self):
        g = fraud_field_graph([0.99], [1])
        cfg = SamplerConfig(z_hat=(2,), oversample_count=2)
        nb = sample_neighborhood(g, 0, 0, cfg, oversample=True)
        assert nb.selected == [1]
        assert nb.probabilities == [0.0]

    def test_size_bound_respected(self):
        rng = np.random.default_rng(31)
        records = random_transaction_records(rng, 80, label_rate=0.5)
        g = build_graph(records, [Proposition(name="dev", field="device")])
        cfg = SamplerConfig(z_hat=(3,), oversample_count=2)
        fraud = [r.id for r in records if r.label == 1]
        for v in g.node_ids:
            nb = sample_neighborhood(g, v, 0, cfg,
                                     oversample=g.record(v).label == 1,
                                     fraud_pool=fraud)
            assert len(nb.selected) <= 3 + 2
            assert len(nb.selected) == len(set(nb.selected))


def permuted_instance(rng, n, grid):
    """Random records under non-row-order ids 3x+7 and two propositions.

    Windows include 0, so some nodes are isolated; grid features come from
    {0, 1, 2}^3, which makes exact score ties (and zero rows) common.
    """
    records = random_transaction_records(rng, n, n_devices=max(2, n // 8),
                                         n_ips=max(2, n // 6), span=5000,
                                         dim=3, label_rate=0.4)
    for r, x in zip(records, rng.permutation(n)):
        r.id = int(3 * x + 7)
        if grid:
            r.attrs = rng.integers(0, 3, size=3).astype(np.float64)
    props = [Proposition(name=f"p{i}", field=f, weight=int(rng.integers(1, 4)),
                         window_seconds=float(rng.choice([0, 120, 900, 3600])))
             for i, f in enumerate(("device", "ip"))]
    return records, build_graph(records, props)


def instances(seed, count=6, n=70):
    rng = np.random.default_rng(seed)
    return [permuted_instance(rng, n, grid=t % 2 == 0) for t in range(count)]


class TestScoreEdgesMatchesLoopReference:
    """g.edge_scores and the scores= path against the per-node loop oracle,
    compared exactly: no tolerance anywhere."""

    def test_rows_are_the_loop_probabilities_bit_for_bit(self):
        for _, g in instances(41):
            scores = g.edge_scores
            assert len(scores) == len(g.csr.ids)
            for row, v in enumerate(g.node_ids):
                span = g.csr.span(row)
                want = loop_selection_probabilities(g, v)
                assert g.csr.ids[span].tolist() == sorted(want)
                assert np.array_equal(scores[span],
                                      np.array(list(want.values())))
                assert selection_probabilities(g, v) == want

    @pytest.mark.parametrize("mode", ["deterministic_topz",
                                      "weighted_without_replacement"])
    @pytest.mark.parametrize("z", [2, 40])
    @pytest.mark.parametrize("oversample", [True, False])
    def test_sample_layers_match_loop_reference(self, monkeypatch, mode, z,
                                                oversample):
        for records, g in instances(43, count=3):
            cfg = TrainConfig(
                model=ModelConfig(k_layers=2),
                sampler=SamplerConfig(z_hat=(z, z + 1), mode=mode, seed=5,
                                      oversample_count=3 if oversample else 0))
            pool = sorted(r.id for r in records[::2] if r.label == 1)
            scores = g.edge_scores
            new = _sample_layers(g, cfg.sampler, 3,
                                 _fraud_extras(g, cfg.sampler, pool))
            scfg = cfg.sampler
            if mode != "deterministic_topz":  # _sample_layers salts by epoch
                scfg = replace(scfg, seed=combine_seed(5, 3))
            for k in range(2):
                for v in g.node_ids:
                    over = oversample and v in pool
                    got = sample_neighborhood(g, v, k, scfg, over, pool,
                                              scores=scores)
                    want = loop_sample_neighborhood(g, v, k, scfg, over, pool)
                    assert got.selected == want.selected
                    assert got.probabilities == want.probabilities
            with monkeypatch.context() as m:
                m.setattr(reference, "sample_neighborhood",
                          loop_sample_neighborhood)
                ref = loop_sample_layers(g, cfg.sampler, 3, pool, None)
            for a, b in zip(new, ref):
                assert np.array_equal(rectangle(a).idx, rectangle(b).idx)
                assert np.array_equal(rectangle(a).mask, rectangle(b).mask)
                assert np.array_equal(rectangle(a).dt, rectangle(b).dt)

    def test_training_checkpoint_matches_loop_reference(self, monkeypatch):
        records = generate(ScenarioConfig(n_legit=70, n_fraud=30, n_devices=3,
                                          n_ips=4, time_span_seconds=7200,
                                          seed=2))
        g = build_graph(records, [
            Proposition(name="dev", field="device", weight=3,
                        window_seconds=3600),
            Proposition(name="ip", field="ip", window_seconds=3600)])
        train_ids, test_ids = split_records(records, TrainConfig().split, 0)
        cfg = TrainConfig(model=ModelConfig(k_layers=2, hidden_dim=4),
                          sampler=SamplerConfig(z_hat=(5, 5)), epochs=3,
                          lr=0.01, batch_size=32)

        def run():
            res = train(g, cfg, train_ids=train_ids)
            preds = predict(g, res.params, sampler_cfg=cfg.sampler,
                                      nodes=test_ids, known_ids=train_ids)
            return checkpoint_text(res.params), [p.p_fraud for p in preds]

        new = run()
        # train over-samples its training fraud; predict passes no extras
        pool = sorted(v for v in train_ids if g.record(v).label == 1)
        with monkeypatch.context() as m:
            m.setattr(reference, "sample_neighborhood",
                      loop_sample_neighborhood)
            # the package's train function shadows the module's name
            m.setattr(importlib.import_module("fraudgnn.train"),
                      "_sample_layers",
                      lambda g, c, epoch, extras=None: loop_sample_layers(
                          g, c, epoch, [] if extras is None else pool, None))
            ref = run()
        assert new == ref

    def test_scores_of_another_graph_rejected(self):
        (_, g), (_, other) = instances(47, count=2)
        wrong = np.ones(len(other.csr.ids) + 1)
        with pytest.raises(InputError, match="edge_scores"):
            sample_topz(g, g.node_ids[0], 0, SamplerConfig(z_hat=(2,)),
                        scores=wrong)


# ids of every sign and size: small, near 2**62, and anywhere in int64;
# GRAPH_IDS keep within the +-2**62 that build_graph accepts
RACE_IDS = st.one_of(st.integers(-40, 40),
                     st.integers(2**62 - 40, 2**62 + 40),
                     st.integers(-2**63, 2**63 - 1))
GRAPH_IDS = st.one_of(st.integers(-40, 40),
                      st.integers(2**62 - 40, 2**62 - 1),
                      st.integers(-2**62 + 1, -2**62 + 40))
RANDOM_MODES = ["weighted_without_replacement", "uniform"]


@st.composite
def two_cliques(draw):
    """Cliques of a and a + 1 records, so z = a - 1 meets rows of degree z
    and z + 1; features from three rows, so selection probabilities tie."""
    a = draw(st.integers(2, 6))
    ids = draw(st.lists(GRAPH_IDS, min_size=2 * a + 1, max_size=2 * a + 1,
                        unique=True))
    rows = draw(st.lists(st.sampled_from([(1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
                         min_size=len(ids), max_size=len(ids)))
    records = [rec(i, x, raw={"device": str(j < a)})
               for j, (i, x) in enumerate(zip(ids, rows))]
    return build_graph(records, [Proposition(name="dev", field="device")]), a


def picks(g, src, nbr) -> dict:
    """sample_layer's output as {node id: its picked neighbor ids}."""
    out = {int(v): [] for v in g.node_ids}
    for r, c in zip(src.tolist(), nbr.tolist()):
        out[int(g.node_ids[r])].append(int(g.node_ids[c]))
    return out


def layer_pairs(g, nb) -> set:
    return set(zip(g.node_ids[nb.src].tolist(), g.node_ids[nb.nbr].tolist()))


class TestRace:
    """The random modes as a race over splitmix64-hashed uniforms, against
    the Python-integer oracle, the exact inclusion probabilities and a
    graph rebuilt in another row order."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(-2**70, 2**70),
           pairs=st.lists(st.tuples(RACE_IDS, RACE_IDS), min_size=1,
                          max_size=20))
    def test_uniforms_bit_equal_to_the_oracle(self, seed, pairs):
        v, nb = (np.array(c, dtype=np.int64) for c in zip(*pairs))
        want = np.array([race_uniform(seed, a, b) for a, b in pairs])
        nodes, src = np.unique(v, return_inverse=True)
        got = _entry_uniforms(seed, nodes, src, nb)
        assert got.tobytes() == want.tobytes()
        assert ((got > 0) & (got <= 1)).all()

    @settings(max_examples=100, deadline=None)
    @given(case=two_cliques(), seed=st.integers(0, 2**63 - 1),
           mode=st.sampled_from(RANDOM_MODES))
    def test_picks_equal_the_per_node_race(self, case, seed, mode):
        g, a = case
        z = a - 1
        cfg = SamplerConfig(z_hat=(z,), mode=mode, seed=seed)
        got = picks(g, *sample_layer(g, z, cfg))
        for row, v in enumerate(g.node_ids.tolist()):
            span = g.csr.span(row)
            p = None if mode == "uniform" else g.edge_scores[span].tolist()
            assert got[v] == race_pick(seed, v, g.csr.ids[span].tolist(), p, z)
        assert sorted(len(c) for c in got.values()) == [z] * (2 * a + 1)

    def test_inclusion_frequencies_match_successive_sampling(self):
        """One row of five neighbors, z = 2, over 20,000 seeds: each
        neighbor's inclusion frequency lies within four standard errors of
        p_i + sum_j p_j p_i / (1 - p_j), for the race and the Generator
        draws it replaced alike."""
        p = [0.4, 0.3, 0.15, 0.1, 0.05]
        ids, n = [10, 11, 12, 13, 14], 20_000
        exact = np.array([pi + sum(pj * pi / (1 - pj)
                                   for j, pj in enumerate(p) if j != i)
                          for i, pi in enumerate(p)])
        bound = 4 * np.sqrt(exact * (1 - exact) / n)
        for draw in (lambda s: race_pick(s, 1, ids, p, 2),
                     lambda s: choice_pick(SamplerConfig(seed=s), 1, ids, p, 2)):
            counts = np.zeros(5)
            for seed in range(n):
                counts[np.subtract(draw(seed), 10)] += 1
            assert (np.abs(counts / n - exact) <= bound).all()

    @pytest.mark.parametrize("mode", RANDOM_MODES)
    def test_picks_ignore_row_order(self, mode):
        """A graph rebuilt from the records in reverse gives every node the
        same (id, neighbor id) picks, over-sampled extras included."""
        records = generate(ScenarioConfig(
            n_legit=90, n_fraud=30, n_devices=4, n_ips=8,
            camouflage_rate=0.3, time_span_seconds=21600, seed=2))
        props = [Proposition(name="dev", field="device", weight=2,
                             window_seconds=3600),
                 Proposition(name="ip", field="ip", window_seconds=3600)]
        pool = sorted(r.id for r in records if r.label == 1)[::2]
        cfg = TrainConfig(model=ModelConfig(k_layers=2),
                          sampler=SamplerConfig(z_hat=(4, 6), mode=mode,
                                                seed=3, oversample_count=2))
        layers = []
        for order in (records, records[::-1]):
            g = build_graph(order, props)
            layers.append([layer_pairs(g, nb)
                           for nb in _sample_layers(
                               g, cfg.sampler, 2,
                               _fraud_extras(g, cfg.sampler, pool))])
        assert layers[0] == layers[1]
        # a real choice: some node has more neighbors than it keeps
        assert max(np.diff(g.csr.indptr)) > 6


# Values that sort specially (NaN last, infinities, both zeros) and small
# integers, so that rows tie at their z-th key.
SPECIAL_KEYS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 2.0]


def key_graph(rng, degrees, scores):
    """A graph stand-in with just what sample_layer reads: compressed rows
    of the given degrees, neighbor ids ascending within a row, and
    ``scores`` as its edge scores, so top-z's keys are -scores exactly."""
    n, indptr = len(degrees), np.concatenate([[0], np.cumsum(degrees)])
    ids = np.concatenate([np.sort(rng.choice(2 * max(degrees, default=0) + 9,
                                             d, replace=False)) - 5
                          for d in degrees] + [np.zeros(0, np.int64)])
    csr = NeighborCSR(indptr=indptr, rows=rng.integers(0, n, len(ids)),
                      ids=ids.astype(np.int64),
                      weight=np.ones(len(ids), np.int64))
    node_ids = rng.choice(10 * n, n, replace=False).astype(np.int64)
    return SimpleNamespace(csr=csr, n_nodes=n, node_ids=node_ids,
                           edge_scores=np.asarray(scores, dtype=np.float64))


@st.composite
def selection_cases(draw):
    """(graph, z): rows of degree 0, 1, z, z + 1, 2**b and 2**b + 1 among
    others, and z from 1 up to above the widest row; scores drawn from a
    small palette of special values (so keys tie and hold NaN, +-inf and
    +-0.0) or from all floats."""
    z, b = draw(st.integers(1, 9)), draw(st.integers(0, 6))
    degrees = draw(st.lists(
        st.one_of(st.sampled_from([0, 1, z, z + 1, 2**b, 2**b + 1]),
                  st.integers(0, 70)), min_size=1, max_size=12))
    z = draw(st.sampled_from([z, 1, max(max(degrees), 1),
                              max(degrees) + 1]))
    palette = draw(st.one_of(
        st.lists(st.sampled_from(SPECIAL_KEYS), min_size=1, max_size=4),
        st.lists(st.floats(), min_size=1, max_size=40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.choice(np.array(palette), sum(degrees))
    return key_graph(rng, degrees, scores), z


class TestSelectionMatchesLoop:
    """sample_layer's degree-bucket partition, with its tie and NaN
    fallback, against loop_sample_layer, the per-row np.lexsort it
    replaced: equal (node row, neighbor row) arrays, whatever the keys."""

    @settings(max_examples=300, deadline=None)
    @given(case=selection_cases(), mode=st.sampled_from(MODES),
           seed=st.integers(0, 2**63 - 1))
    def test_equal_picks(self, case, mode, seed):
        g, z = case
        cfg = SamplerConfig(z_hat=(z,), mode=mode, seed=seed)
        with np.errstate(all="ignore"):  # keys of NaN and inf scores
            got, want = sample_layer(g, z, cfg), loop_sample_layer(g, z, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def spy(self, monkeypatch):
        """Count sample_layer's per-row sorts and its partitioned rows."""
        calls = {"lexsort": 0, "partitioned": 0}
        lexsort, kth_keys = np.lexsort, sampler_mod._kth_keys

        def counting_lexsort(keys):
            calls["lexsort"] += 1
            return lexsort(keys)

        def counting_kth_keys(key, degree, src, z):
            kth = kth_keys(key, degree, src, z)
            calls["partitioned"] += int((kth < np.inf).sum())
            return kth

        monkeypatch.setattr(np, "lexsort", counting_lexsort)
        monkeypatch.setattr(sampler_mod, "_kth_keys", counting_kth_keys)
        return calls

    def test_only_tied_and_nan_rows_sort(self, monkeypatch):
        """z = 3 over rows of five: distinct keys, a tie at the third key,
        a NaN key, a tie below the third key, and a row of two."""
        scores = [5, 4, 3, 2, 1,  2, 3, 2, 0, 2,  1, 2, math.nan, 3, 4,
                  3, 3, 2, 1, 0,  1, 1]
        g = key_graph(np.random.default_rng(0), [5, 5, 5, 5, 2], scores)
        cfg = SamplerConfig(z_hat=(3,))
        want = loop_sample_layer(g, 3, cfg)
        with monkeypatch.context() as m:
            calls = self.spy(m)
            got = sample_layer(g, 3, cfg)
        assert calls == {"lexsort": 2, "partitioned": 4}
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("mode", MODES)
    def test_scenario_rows_never_sort(self, monkeypatch, mode):
        """On a README-density graph, every wide row is partitioned and
        none falls back to a sort of its own."""
        records = generate(ScenarioConfig(n_legit=140, n_fraud=60,
                                          n_devices=4, n_ips=6,
                                          time_span_seconds=21600, seed=1))
        g = build_graph(records, [
            Proposition(name="dev", field="device", weight=3,
                        window_seconds=3600),
            Proposition(name="ip", field="ip", window_seconds=3600)])
        cfg = SamplerConfig(z_hat=(8,), mode=mode, seed=4)
        want = loop_sample_layer(g, 8, cfg)
        with monkeypatch.context() as m:
            calls = self.spy(m)
            got = sample_layer(g, 8, cfg)
        assert calls == {"lexsort": 0,
                         "partitioned": int((np.diff(g.csr.indptr) > 8).sum())}
        assert calls["partitioned"] > 100
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestFraudExtrasMatchLoop:
    """_fraud_extras' blocks of scored pairs against loop_fraud_extras, one
    fraud node at a time: equal (node row, extra row) arrays."""

    @pytest.mark.parametrize("chunk", [1, 40, sampler_mod._PAIR_CHUNK])
    def test_equal_pairs(self, monkeypatch, chunk):
        monkeypatch.setattr(sampler_mod, "_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(5)
        for records, g in instances(53, count=4):
            fraud = [r.id for r in records if r.label == 1]
            ids = [r.id for r in records]
            mixed = rng.choice(ids, 40).tolist() + fraud[:3]  # with repeats
            for pool in (sorted(fraud), mixed, fraud[::-1][:1], []):
                for count, floor, mode in (
                        (3, DEFAULT_SIMILARITY_FLOOR, "deterministic_topz"),
                        (1, 0.0, "weighted_without_replacement"),
                        (50, math.exp(0.9), "deterministic_topz"),
                        (2, 0.0, "uniform"),
                        (0, 0.0, "deterministic_topz")):
                    cfg = SamplerConfig(oversample_count=count, mode=mode,
                                        similarity_floor=floor)
                    got = _fraud_extras(g, cfg, pool)
                    want = loop_fraud_extras(g, cfg, pool)
                    assert all(np.array_equal(a, b)
                               for a, b in zip(got, want))
                    assert got[0].dtype == got[1].dtype == np.int64

    def test_extras_exist_and_skip_neighbors(self):
        records, g = instances(59, count=1)[0]
        pool = sorted(r.id for r in records if r.label == 1)
        src, extra = _fraud_extras(g, SamplerConfig(similarity_floor=0.0),
                                   pool)
        assert len(src) > 0
        for r, x in zip(src.tolist(), extra.tolist()):
            assert r != x and x not in g.csr.rows[g.csr.span(r)]
