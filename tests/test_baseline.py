"""Plain mean-aggregation comparison path and its agreement with the ablated model."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fraudgnn.errors import ConfigError, ShapeError
from fraudgnn.model import LayerParams, ModelConfig, layer_forward
from fraudgnn.nn import Tensor
from fraudgnn.tgraph import Proposition, build_graph

from reference import (baseline_layer_forward, neighborhoods,
                       random_transaction_records, rectangle,
                       uniform_neighborhoods, uniform_sample)


def small_graph(seed=0, n=8):
    rng = np.random.default_rng(seed)
    records = random_transaction_records(rng, n, n_devices=2, n_ips=2,
                                         span=3600)
    props = [Proposition(name="dev", field="device", window_seconds=7200),
             Proposition(name="ip", field="ip", window_seconds=7200)]
    return build_graph(records, props)


class TestUniformSample:
    def test_returns_all_when_small(self):
        g = small_graph()
        rng = np.random.default_rng(0)
        node = g.records[0].id
        everyone = g.neighbors(node)
        assert uniform_sample(g, node, len(everyone) + 5, rng) == list(everyone)

    def test_respects_budget_and_membership(self):
        g = small_graph()
        node = g.records[0].id
        nbrs = set(g.neighbors(node))
        for seed in range(10):
            picked = uniform_sample(g, node, 3, np.random.default_rng(seed))
            assert len(picked) == min(3, len(nbrs))
            assert set(picked) <= nbrs
            assert picked == sorted(picked)

    def test_seeded_reproducibility(self):
        g = small_graph()
        node = g.records[0].id
        a = uniform_sample(g, node, 3, np.random.default_rng(5))
        b = uniform_sample(g, node, 3, np.random.default_rng(5))
        assert a == b

    def test_packed_neighborhoods_cover_every_node(self):
        g = small_graph()
        nb = uniform_neighborhoods(g, 3, np.random.default_rng(1))
        assert nb.n_nodes == 8
        assert (rectangle(nb).mask.sum(axis=1) <= 3).all()


class TestBaselineLayer:
    def test_identical_neighbors_mean_is_that_row(self):
        """Averaging copies of one vector returns the vector."""
        h = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
        nb_idx = np.array([[0, 1], [0, 0], [0, 1]])
        nb_mask = np.array([[True, True], [True, False], [True, True]])
        nb = neighborhoods(nb_idx, nb_mask,
                           np.zeros_like(nb_idx, dtype=float))
        W = np.vstack([np.zeros((2, 2)), np.eye(2)])  # reads only the mean part
        out = baseline_layer_forward(h, nb, W, activation="identity")
        mean_row2 = (h[0] + h[1]) / 2.0
        assert_allclose(out[2], mean_row2 / np.linalg.norm(mean_row2))
        assert_allclose(out[0], h[0] / np.linalg.norm(h[0]))

    def test_three_basis_vectors_average(self):
        h = np.eye(3)
        nb = neighborhoods(np.array([[0, 1, 2], [0, 0, 0], [0, 0, 0]]),
                           np.array([[1, 1, 1], [0, 0, 0], [0, 0, 0]],
                                    dtype=bool),
                           np.zeros((3, 3)))
        W = np.vstack([np.zeros((3, 3)), np.eye(3)])
        out = baseline_layer_forward(h, nb, W, activation="identity")
        expected = np.full(3, 1 / 3.0)
        assert_allclose(out[0], expected / np.linalg.norm(expected), rtol=1e-12)

    def test_no_neighbors_aggregates_zero(self):
        h = np.array([[3.0, 4.0]])
        nb = neighborhoods(np.zeros((1, 1), dtype=int),
                           np.zeros((1, 1), dtype=bool), np.zeros((1, 1)))
        W = np.vstack([np.eye(2), np.full((2, 2), 100.0)])
        out = baseline_layer_forward(h, nb, W, activation="identity")
        assert_allclose(out[0], [0.6, 0.8])

    def test_shape_validation(self):
        nb = neighborhoods(np.zeros((1, 1), dtype=int),
                           np.zeros((1, 1), dtype=bool), np.zeros((1, 1)))
        with pytest.raises(ShapeError):
            baseline_layer_forward(np.zeros((1, 3)), nb, np.zeros((4, 2)))

    def test_unknown_activation(self):
        nb = neighborhoods(np.zeros((1, 1), dtype=int),
                           np.zeros((1, 1), dtype=bool), np.zeros((1, 1)))
        with pytest.raises(ConfigError):
            baseline_layer_forward(np.zeros((1, 2)), nb, np.zeros((4, 2)),
                                   activation="swish")


class TestAblatedModelMatchesBaseline:
    """Attention and gate switched off must reduce to the plain mean layer."""

    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    def test_agreement_on_shared_neighborhoods(self, activation):
        g = small_graph(seed=3, n=10)
        rng = np.random.default_rng(17)
        nb = uniform_neighborhoods(g, 3, rng)
        d_in, d_out = 4, 6
        W = rng.normal(size=(2 * d_in, d_out))
        attn = rng.normal(size=(2 * d_out, 1))
        h_prev = rng.normal(size=(10, d_in))

        layer = LayerParams(W=Tensor(W), attn=Tensor(attn))
        cfg = ModelConfig(activation=activation, use_attention=False,
                          use_gate=False)
        ours = layer_forward(Tensor(h_prev), nb, layer, None, cfg)
        ref = baseline_layer_forward(h_prev, nb, W, activation=activation)
        assert np.abs(ours.data - ref).max() <= 1e-9

    def test_gate_column_ignored_when_toggle_off(self):
        g = small_graph(seed=4, n=6)
        rng = np.random.default_rng(18)
        nb = uniform_neighborhoods(g, 2, rng)
        W = rng.normal(size=(8, 5))
        layer = LayerParams(W=Tensor(W), attn=Tensor(rng.normal(size=(10, 1))))
        h_prev = rng.normal(size=(6, 4))
        cfg = ModelConfig(use_attention=False, use_gate=False)
        with_gates = layer_forward(Tensor(h_prev), nb, layer,
                                   np.full(6, 0.123), cfg)
        without = layer_forward(Tensor(h_prev), nb, layer, None, cfg)
        assert_allclose(with_gates.data, without.data)
