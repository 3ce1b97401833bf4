"""Model layer semantics: attention, time damping, diversity gate, checkpoints."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fraudgnn import nn
from fraudgnn.errors import CheckpointError, ConfigError, ShapeError
from fraudgnn.model import (LayerParams, ModelConfig, aggregation_gate,
                            attention_weights, checkpoint_text,
                            diversity_stats, forward, init_params,
                            layer_forward, load_params, neighbor_diversity,
                            time_factors, uniform_weights)
from fraudgnn.tgraph import Proposition, build_graph

from reference import (SampledNeighborhood, neighborhoods,
                       pack_neighborhoods, padded, random_transaction_records,
                       rectangle, reference_layer_forward)


def table_of(nb, entries):
    """Per-entry values laid out as nb's padded table, zero on padding."""
    return padded(nb, entries)


def random_layer(rng, d_in, d_out):
    return LayerParams(W=rng.normal(size=(2 * d_in, d_out)) * 0.5,
                       attn=rng.normal(size=(2 * d_out, 1)) * 0.5)


class TestModelConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.k_layers == 3 and cfg.hidden_dim == 32

    def test_bad_activation(self):
        with pytest.raises(ConfigError, match="activation"):
            ModelConfig(activation="gelu")

    def test_bad_time_mode(self):
        with pytest.raises(ConfigError, match="time_mode"):
            ModelConfig(time_mode="linear")

    def test_bad_layer_count(self):
        with pytest.raises(ConfigError):
            ModelConfig(k_layers=0)

    def test_bad_tau(self):
        with pytest.raises(ConfigError):
            ModelConfig(tau_seconds=0.0)


class TestInitParams:
    def test_shapes_follow_architecture(self):
        cfg = ModelConfig(k_layers=2, hidden_dim=8)
        p = init_params(5, cfg, seed=0)
        assert p.layers[0].W.shape == (10, 8)
        assert p.layers[0].attn.shape == (16, 1)
        assert p.layers[1].W.shape == (16, 8)
        assert p.head.shape == (8, 2)
        assert len(p.parameters()) == 5

    def test_seed_determinism(self):
        cfg = ModelConfig(k_layers=2, hidden_dim=4)
        a = init_params(3, cfg, seed=7)
        b = init_params(3, cfg, seed=7)
        c = init_params(3, cfg, seed=8)
        for ta, tb in zip(a.parameters(), b.parameters()):
            assert_array_equal(ta, tb)
        assert not np.array_equal(a.head, c.head)

    def test_bad_feature_dim(self):
        with pytest.raises(ConfigError):
            init_params(0, ModelConfig(), seed=0)


class TestPackNeighborhoods:
    def make_graph(self):
        rng = np.random.default_rng(11)
        records = random_transaction_records(rng, 6, n_devices=2, n_ips=2)
        props = [Proposition(name="dev", field="device", window_seconds=10**6),
                 Proposition(name="ip", field="ip", weight=2,
                             window_seconds=10**6)]
        return build_graph(records, props)

    def test_basic_packing(self):
        g = self.make_graph()
        sampled = [SampledNeighborhood(node=r.id, selected=g.neighbors(r.id)[:2])
                   for r in g.records]
        nb = pack_neighborhoods(g, sampled)
        assert nb.n_nodes == 6
        ts = g.timestamps
        t = rectangle(nb)
        for row, s in enumerate(sampled):
            assert t.mask[row].sum() == len(s.selected)
            for j, u in enumerate(s.selected):
                assert t.idx[row, j] == g.index_of(u)
                assert t.dt[row, j] == abs(ts[g.index_of(u)] - ts[row])

    def test_wrong_order_rejected(self):
        g = self.make_graph()
        sampled = [SampledNeighborhood(node=r.id) for r in g.records]
        sampled[0], sampled[1] = sampled[1], sampled[0]
        with pytest.raises(ShapeError, match="order"):
            pack_neighborhoods(g, sampled)

    def test_all_empty_still_width_one(self):
        g = self.make_graph()
        sampled = [SampledNeighborhood(node=r.id) for r in g.records]
        nb = pack_neighborhoods(g, sampled)
        assert nb.width == 1
        assert not rectangle(nb).mask.any()


class TestTimeFactors:
    def test_decay_values(self):
        nb = neighborhoods([[0, 1, 2]], [[1, 1, 1]], [[0.0, 900.0, 1800.0]])
        out = table_of(nb, time_factors(nb, ModelConfig(tau_seconds=1800.0)))
        assert_allclose(out, [[1.0, math.exp(-0.5), math.exp(-1.0)]], rtol=1e-15)

    def test_decay_masks_padding(self):
        nb = neighborhoods([[0, 0]], [[1, 0]], [[0.0, 0.0]])
        out = table_of(nb, time_factors(nb, ModelConfig()))
        assert_allclose(out, [[1.0, 0.0]])

    def test_interval_min_max(self):
        nb = neighborhoods([[0, 1, 2]], [[1, 1, 1]], [[0.0, 900.0, 1800.0]])
        out = table_of(nb, time_factors(nb, ModelConfig(time_mode="interval")))
        assert_allclose(out, [[0.0, 0.5, 1.0]], atol=1e-15)

    def test_interval_degenerate_row_is_one(self):
        nb = neighborhoods([[0, 1], [0, 0]], [[1, 1], [1, 0]],
                     [[600.0, 600.0], [5.0, 0.0]])
        out = table_of(nb, time_factors(nb, ModelConfig(time_mode="interval")))
        assert_allclose(out, [[1.0, 1.0], [1.0, 0.0]])


class TestAttentionWeights:
    def test_single_neighbor_zero_gap_weight_one(self):
        """One neighbor at the same timestamp soaks up the whole softmax."""
        rng = np.random.default_rng(0)
        layer = random_layer(rng, 3, 4)
        h = rng.normal(size=(2, 3))
        nb = neighborhoods([[1], [0]], [[1], [1]], [[0.0], [0.0]])
        w = attention_weights(h, nb, layer, ModelConfig()).weights
        assert_allclose(w, [[1.0], [1.0]], rtol=1e-12)

    def test_identical_neighbors_share_weight_equally(self):
        rng = np.random.default_rng(1)
        layer = random_layer(rng, 3, 4)
        row = rng.normal(size=3)
        h = np.stack([rng.normal(size=3), row, row])
        nb = neighborhoods([[1, 2], [0, 0], [0, 0]],
                     [[1, 1], [1, 0], [1, 0]],
                     np.zeros((3, 2)))
        w = attention_weights(h, nb, layer, ModelConfig()).weights
        assert_allclose(padded(nb, w)[0, 0], padded(nb, w)[0, 1],
                        rtol=1e-12)
        assert_allclose(padded(nb, w)[0].sum(), 1.0, rtol=1e-12)

    def test_time_gap_of_tau_costs_factor_e(self):
        """Equal scores, gaps 0 and tau: the stale neighbor weighs 1/e as much."""
        rng = np.random.default_rng(2)
        layer = random_layer(rng, 3, 4)
        row = rng.normal(size=3)
        h = np.stack([rng.normal(size=3), row, row])
        nb = neighborhoods([[1, 2], [0, 0], [0, 0]],
                     [[1, 1], [1, 0], [1, 0]],
                     [[0.0, 1800.0], [0.0, 0.0], [0.0, 0.0]])
        w = attention_weights(h, nb, layer,
                              ModelConfig(tau_seconds=1800.0)).weights
        assert_allclose(padded(nb, w)[0, 0] / padded(nb, w)[0, 1],
                        math.e, rtol=1e-12)

    def test_softmax_sums_one_then_damping_only_shrinks(self):
        rng = np.random.default_rng(3)
        layer = random_layer(rng, 4, 5)
        h = rng.normal(size=(6, 4))
        idx = rng.integers(0, 6, size=(6, 3))
        mask = rng.random((6, 3)) < 0.8
        mask[:, 0] = True
        dt = rng.uniform(0, 3600, size=(6, 3))
        nb = neighborhoods(idx, mask, dt)
        post = padded(nb, attention_weights(h, nb, layer,
                                            ModelConfig()).weights)
        factors = table_of(nb, time_factors(nb, ModelConfig()))
        pre = np.divide(post, factors, out=np.zeros_like(post),
                        where=factors > 0)
        assert_allclose(pre.sum(axis=1), np.ones(6), atol=1e-9)
        assert (post.sum(axis=1) <= pre.sum(axis=1) + 1e-12).all()

    def test_isolated_row_all_zero(self):
        rng = np.random.default_rng(4)
        layer = random_layer(rng, 3, 4)
        h = rng.normal(size=(2, 3))
        nb = neighborhoods([[0], [0]], [[0], [1]], [[0.0], [0.0]])
        w = attention_weights(h, nb, layer, ModelConfig()).weights
        assert_allclose(padded(nb, w)[0], [0.0])


class TestUniformWeights:
    def test_counts(self):
        nb = neighborhoods([[0, 1, 2], [0, 0, 0]], [[1, 1, 1], [1, 0, 0]],
                     np.zeros((2, 3)))
        assert_allclose(table_of(nb, uniform_weights(nb)),
                        [[1 / 3, 1 / 3, 1 / 3], [1.0, 0.0, 0.0]])

    def test_empty_row_zero(self):
        nb = neighborhoods([[0]], [[0]], [[0.0]])
        assert_allclose(table_of(nb, uniform_weights(nb)), [[0.0]])


class TestNeighborDiversity:
    def test_pure_neighborhood_exactly_zero(self):
        labels = np.array([0, 0, 0, 1])
        nb = neighborhoods([[1, 2]], [[1, 1]], np.zeros((1, 2)))
        assert neighbor_diversity(labels, nb)[0] == 0.0

    def test_balanced_neighborhood_exactly_ln2(self):
        labels = np.array([0, 0, 1, 1])
        nb = neighborhoods([[1, 2]], [[1, 1]], np.zeros((1, 2)))
        assert neighbor_diversity(labels, nb)[0] == math.log(2.0)

    def test_three_to_one_split(self):
        labels = np.array([0, 1, 0, 0, 0])
        nb = neighborhoods([[1, 2, 3, 4]], [[1, 1, 1, 1]], np.zeros((1, 4)))
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert_allclose(neighbor_diversity(labels, nb)[0], expected, rtol=1e-12)
        assert_allclose(expected, 0.5623, atol=5e-5)

    def test_empty_neighborhood_zero(self):
        labels = np.array([0, 1])
        nb = neighborhoods([[0]], [[0]], [[0.0]])
        assert neighbor_diversity(labels, nb)[0] == 0.0

    def test_range_bound(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 2, size=40)
        idx = rng.integers(0, 40, size=(40, 6))
        mask = rng.random((40, 6)) < 0.7
        nb = neighborhoods(idx, mask, np.zeros((40, 6)))
        d = neighbor_diversity(labels, nb)
        assert (d >= 0.0).all() and (d <= math.log(2.0) + 1e-15).all()


class TestAggregationGate:
    def test_all_equal_batch_gates_half(self):
        g = aggregation_gate(np.full(7, 0.31))
        assert_allclose(g, np.full(7, 0.5))

    def test_two_point_batch_matches_sigmoid_of_one(self):
        """Batch {0, ln2} normalizes to roughly +/-1, so gates ~ (0.731, 0.269)."""
        g = aggregation_gate(np.array([0.0, math.log(2.0)]))
        assert_allclose(g, [0.731, 0.269], atol=1e-3)
        assert g[0] > 0.5 > g[1]

    def test_strictly_antitone(self):
        rng = np.random.default_rng(13)
        d = np.sort(rng.uniform(0, math.log(2.0), size=30))
        d = np.unique(d)
        g = aggregation_gate(d)
        assert (np.diff(g) < 0).all()

    def test_open_interval(self):
        rng = np.random.default_rng(14)
        g = aggregation_gate(rng.uniform(0, 0.7, size=100))
        assert (g > 0.0).all() and (g < 1.0).all()

    def test_diversity_stats_bundles_both(self):
        labels = np.array([0, 1, 0])
        nb = neighborhoods([[1, 2], [0, 2], [0, 1]], np.ones((3, 2), dtype=bool),
                     np.zeros((3, 2)))
        stats = diversity_stats(labels, nb)
        assert stats.diversity.shape == (3,)
        assert stats.gate.shape == (3,)
        assert_allclose(stats.gate,
                        aggregation_gate(neighbor_diversity(labels, nb)))


class TestLayerForward:
    def test_zero_gate_equals_no_neighbors(self):
        """Gate 0 suppresses the neighbor message entirely."""
        rng = np.random.default_rng(5)
        layer = random_layer(rng, 3, 4)
        h = rng.normal(size=(4, 3))
        nb = neighborhoods(rng.integers(0, 4, size=(4, 2)),
                     np.ones((4, 2), dtype=bool), np.zeros((4, 2)))
        empty = neighborhoods(np.zeros((4, 1), dtype=int),
                        np.zeros((4, 1), dtype=bool), np.zeros((4, 1)))
        cfg = ModelConfig(activation="tanh")
        gated, _ = layer_forward(h, nb, layer, np.zeros(4), cfg)
        isolated, _ = layer_forward(h, empty, layer, None, cfg)
        assert_allclose(gated, isolated, atol=1e-12)

    def test_output_rows_unit_or_zero(self):
        rng = np.random.default_rng(6)
        layer = random_layer(rng, 3, 5)
        h = np.vstack([rng.normal(size=(3, 3)), np.zeros((1, 3))])
        nb = neighborhoods(np.zeros((4, 1), dtype=int),
                     np.array([[1], [1], [1], [0]], dtype=bool),
                     np.zeros((4, 1)))
        out, _ = layer_forward(h, nb, layer, None,
                               ModelConfig(activation="relu"))
        norms = np.linalg.norm(out, axis=1)
        assert ((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0)).all()

    def test_width_mismatch(self):
        rng = np.random.default_rng(7)
        layer = random_layer(rng, 3, 4)
        nb = neighborhoods([[0]], [[1]], [[0.0]])
        with pytest.raises(ShapeError, match="width"):
            layer_forward(np.zeros((1, 5)), nb, layer, None,
                          ModelConfig())

    def test_neighbor_order_irrelevant(self):
        rng = np.random.default_rng(8)
        layer = random_layer(rng, 4, 4)
        h = rng.normal(size=(5, 4))
        perm_nb = neighborhoods([[1, 2, 3]], [[1, 1, 1]], [[10.0, 20.0, 30.0]])
        swapped = neighborhoods([[3, 1, 2]], [[1, 1, 1]], [[30.0, 10.0, 20.0]])
        pad = neighborhoods(np.zeros((4, 3), dtype=int), np.zeros((4, 3), dtype=bool),
                      np.zeros((4, 3)))

        def with_first_row(nb0):
            return neighborhoods(*(np.vstack([a, b]) for a, b in zip(
                rectangle(nb0), rectangle(pad))))

        a, _ = layer_forward(h, with_first_row(perm_nb), layer, None,
                             ModelConfig())
        b, _ = layer_forward(h, with_first_row(swapped), layer, None,
                             ModelConfig())
        assert_allclose(a, b, atol=1e-12)

    def test_matches_scalar_reference_on_random_graphs(self):
        """Vectorized layer vs the per-node scalar loop, ten seeded trials."""
        props = [Proposition(name="dev", field="device", window_seconds=7200),
                 Proposition(name="ip", field="ip", weight=3,
                             window_seconds=7200)]
        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            records = random_transaction_records(rng, 5, n_devices=2, n_ips=2)
            g = build_graph(records, props)
            d_in, d_out = 4, 6
            W = rng.normal(size=(2 * d_in, d_out))
            attn = rng.normal(size=(2 * d_out, 1))
            h_prev = rng.normal(size=(5, d_in))
            nbh = {r.id: g.neighbors(r.id)[:3] for r in g.records}
            gates = {r.id: float(rng.uniform(0.1, 0.9)) for r in g.records}

            sampled = [SampledNeighborhood(node=r.id, selected=nbh[r.id])
                       for r in g.records]
            nb = pack_neighborhoods(g, sampled)
            layer = LayerParams(W=W, attn=attn)
            gate_col = np.array([gates[r.id] for r in g.records])
            ours, _ = layer_forward(h_prev, nb, layer, gate_col,
                                    ModelConfig(activation="relu"))
            ref = reference_layer_forward(g, h_prev, nbh, W, attn, gates,
                                          tau=1800.0, activation="relu")
            assert np.abs(ours - ref).max() <= 1e-9

    def test_reference_agreement_without_gate(self):
        rng = np.random.default_rng(200)
        records = random_transaction_records(rng, 5, n_devices=2, n_ips=2)
        g = build_graph(records, [Proposition(name="dev", field="device",
                                              window_seconds=7200)])
        W = rng.normal(size=(8, 6))
        attn = rng.normal(size=(12, 1))
        h_prev = rng.normal(size=(5, 4))
        nbh = {r.id: g.neighbors(r.id) for r in g.records}
        sampled = [SampledNeighborhood(node=r.id, selected=nbh[r.id])
                   for r in g.records]
        nb = pack_neighborhoods(g, sampled)
        layer = LayerParams(W=W, attn=attn)
        ours, _ = layer_forward(h_prev, nb, layer, None, ModelConfig())
        ref = reference_layer_forward(g, h_prev, nbh, W, attn, None)
        assert np.abs(ours - ref).max() <= 1e-9


class TestForward:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.records = random_transaction_records(rng, 8, n_devices=2, n_ips=3)
        self.g = build_graph(self.records, [
            Proposition(name="dev", field="device", window_seconds=7200)])
        self.cfg = ModelConfig(k_layers=2, hidden_dim=6)
        self.params = init_params(4, self.cfg, seed=0)
        sampled = [SampledNeighborhood(node=r.id,
                                       selected=self.g.neighbors(r.id)[:3])
                   for r in self.g.records]
        self.nbs = [pack_neighborhoods(self.g, sampled)] * 2

    def test_output_shape_and_range(self):
        p = forward(self.params, self.g.features, self.nbs, None)
        assert p.shape == (8, 1)
        assert (p > 0.0).all() and (p < 1.0).all()

    def test_layer_count_mismatch(self):
        with pytest.raises(ShapeError, match="neighborhood"):
            forward(self.params, self.g.features, self.nbs[:1], None)

    def test_feature_width_mismatch(self):
        with pytest.raises(ShapeError, match="features"):
            forward(self.params, np.zeros((8, 3)), self.nbs, None)

    def test_zero_head_predicts_half(self):
        self.params.head = np.zeros((6, 2))
        p = forward(self.params, self.g.features, self.nbs, None)
        assert_allclose(p, np.full((8, 1), 0.5), atol=1e-12)


class TestCheckpoint:
    def make(self, tmp_path, cfg=None):
        cfg = cfg or ModelConfig(k_layers=2, hidden_dim=5, activation="tanh",
                                 tau_seconds=900.0, use_gate=False)
        params = init_params(3, cfg, seed=42)
        path = tmp_path / "model.ckpt"
        path.write_text(checkpoint_text(params))
        return params, path

    def test_round_trip_bit_exact(self, tmp_path):
        params, path = self.make(tmp_path)
        loaded = load_params(str(path))
        assert loaded.feature_dim == 3
        assert loaded.config == params.config
        for a, b in zip(params.parameters(), loaded.parameters()):
            assert_array_equal(a, b)

    def test_text_round_trip_stable(self, tmp_path):
        params, path = self.make(tmp_path)
        loaded = load_params(str(path))
        assert checkpoint_text(loaded) == checkpoint_text(params)

    def test_loaded_params_are_trainable(self, tmp_path):
        """Loaded parameters are writable float64 arrays that an Adam step
        updates in place."""
        _, path = self.make(tmp_path)
        loaded = load_params(str(path))
        arrays = loaded.parameters()
        assert all(a.dtype == np.float64 and a.flags.writeable
                   for a in arrays)
        before = [a.copy() for a in arrays]
        nn.AdamState(arrays, lr=0.1).step(
            {i: np.ones_like(a) for i, a in enumerate(arrays)})
        assert all(not np.array_equal(a, b) for a, b in zip(arrays, before))
        assert all(a is b for a, b in zip(arrays, loaded.parameters()))

    @pytest.mark.parametrize("value", ["nan", "-inf", "inf"])
    def test_rejects_non_finite_values(self, tmp_path, value):
        """A NaN or inf weight used to load and only show up as NaN scores
        at evaluate."""
        _, path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        row = lines.index(next(ln for ln in lines
                               if ln.startswith("TENSOR layer1.attn"))) + 3
        fields = lines[row].split()
        fields[-1] = value
        lines[row] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError,
                           match="tensor layer1.attn: row 2 holds a non-finite"):
            load_params(str(path))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("NODES 3\nEDGE 1 2 0\n")
        with pytest.raises(CheckpointError, match="not a model checkpoint"):
            load_params(str(path))

    def test_rejects_future_version(self, tmp_path):
        params, path = self.make(tmp_path)
        text = path.read_text().replace("v1", "v2", 1)
        path.write_text(text)
        with pytest.raises(CheckpointError, match="version"):
            load_params(str(path))

    def test_rejects_truncation(self, tmp_path):
        params, path = self.make(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:len(lines) // 2]) + "\n")
        with pytest.raises(CheckpointError):
            load_params(str(path))

    def test_rejects_shape_drift(self, tmp_path):
        params, path = self.make(tmp_path)
        text = path.read_text().replace("hidden_dim 5", "hidden_dim 6")
        path.write_text(text)
        with pytest.raises(CheckpointError, match="shape"):
            load_params(str(path))

    def test_rejects_missing_end(self, tmp_path):
        params, path = self.make(tmp_path)
        text = path.read_text().replace("END\n", "")
        path.write_text(text)
        with pytest.raises(CheckpointError, match="END"):
            load_params(str(path))
