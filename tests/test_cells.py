"""Neighbor layers on compressed rows: the entries of a padded table, the
cached per-entry weights, and a layer within 1e-12 of the padded layer of
tests/reference.py; compressed rows against the padded table they
replaced."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fraudgnn import model as model_mod, nn
from fraudgnn.datagen import ScenarioConfig, generate
from fraudgnn.model import (LayerParams, ModelConfig, Neighborhoods,
                            attention_weights, layer_forward,
                            neighbor_diversity, pack_rows, time_factors,
                            uniform_weights)
from fraudgnn.nn import Tensor
from fraudgnn.sampler import SamplerConfig
from fraudgnn.tgraph import Proposition, build_graph
from fraudgnn.train import TrainConfig, predict, train

from reference import (Rectangle, mul, neighborhoods, padded,
                       padded_attention_weights, padded_layer_forward,
                       padded_neighbor_diversity, padded_pack_rows,
                       padded_time_factors, padded_uniform_weights,
                       rectangle, sum_all)


def table(rng, counts, width):
    """Neighborhoods with the given real-entry count per row, neighbor rows
    drawn from the table's own rows. Entries fill each row from column 0,
    as model.pack_rows lays them out. Some gaps repeat, so interval rows
    with one distinct gap occur."""
    n = len(counts)
    idx = np.zeros((n, width), dtype=np.int64)
    mask = np.zeros((n, width), dtype=bool)
    dt = np.zeros((n, width))
    for i, c in enumerate(counts):
        cols = np.arange(c)
        idx[i, cols] = rng.integers(0, n, size=c)
        mask[i, cols] = True
        dt[i, cols] = rng.choice([0.0, 600.0, rng.uniform(0, 7200)], size=c)
    return neighborhoods(idx, mask, dt)


TABLES = {
    # empty rows, rows of at most 8 entries and wider ones in one layer
    "mixed": lambda rng: table(rng, [0, 1, 7, 8, 9, 16, 17, 3, 12, 8, 0, 5],
                               17),
    # every row shorter than 8
    "below_8": lambda rng: table(rng, [0, 1, 3, 6, 6, 2, 4, 5], 6),
    # every row at most 8 wide in an 18-wide table
    "all_narrow_width_18": lambda rng: table(
        rng, [0, 1, 2, 8, 5, 7, 8, 3, 4, 6], 18),
    # every row wider than 8
    "all_wide": lambda rng: table(rng, [9, 18, 12, 10, 17, 9, 11, 14, 16],
                                  18),
}

CONFIGS = {
    "decay": {},
    "interval": {"time_mode": "interval"},
    "no_attention": {"use_attention": False},
    "no_gate": {"use_gate": False},
    "tanh": {"activation": "tanh"},
}


def bits(a):
    return None if a is None else np.ascontiguousarray(a).view(np.int64)


def run_layer(layer_fn, h, W, attn, coef):
    """Output and every leaf gradient of sum(coef * layer_fn(h, layer))."""
    h_t = Tensor(h.copy(), requires_grad=True)
    W_t = Tensor(W.copy(), requires_grad=True)
    attn_t = Tensor(attn.copy(), requires_grad=True)
    out = layer_fn(h_t, LayerParams(W=W_t, attn=attn_t))
    nn.backward(sum_all(mul(out, coef)))
    return out.data, h_t.grad, W_t.grad, attn_t.grad


def assert_all_close(names, got, want):
    """Equal within the declared bound: a row's sums add its entries in
    order, where the padded table's numpy sums add them pairwise."""
    for name, g, w in zip(names, got, want):
        if w is None:
            assert g is None, name
        else:
            assert_allclose(g, w, rtol=1e-12, atol=1e-12, err_msg=name)


def assert_layer_matches_padded(nb, d_in, d_out, config_kw, seed=0,
                                scale=0.5):
    """layer_forward, with its h, W and attn gradients, and the
    coefficients of attention_weights against the padded layer of
    tests/reference.py."""
    rng = np.random.default_rng(seed)
    n = nb.n_nodes
    h = rng.normal(size=(n, d_in))
    W = rng.normal(size=(2 * d_in, d_out)) * scale
    attn = rng.normal(size=(2 * d_out, 1)) * scale
    gates = rng.uniform(0.1, 1.0, size=n)
    coef = rng.normal(size=(n, d_out))
    cfg = ModelConfig(tau_seconds=1800.0, **config_kw)
    names = ("output", "h grad", "W grad", "attn grad")
    assert_all_close(names, run_layer(
        lambda h_t, layer: layer_forward(h_t, nb, layer, gates, cfg),
        h, W, attn, coef), run_layer(
        lambda h_t, layer: padded_layer_forward(h_t, nb, layer, gates, cfg),
        h, W, attn, coef))
    if not cfg.use_attention:
        return
    layer = LayerParams(W=Tensor(W), attn=Tensor(attn))
    got = attention_weights(h, nb, layer, cfg).weights
    want = padded_attention_weights(Tensor(h), nb, layer, cfg).data
    assert_allclose(padded(nb, got), want, rtol=1e-12, atol=1e-12)


@st.composite
def layer_cases(draw):
    """Rows of up to 40 entries, empty ones included, in a table as wide as
    the longest row or wider, with layer widths and a config."""
    width = draw(st.integers(1, 40))
    counts = draw(st.lists(st.integers(0, width), min_size=1, max_size=12))
    return (counts, width, draw(st.integers(1, 6)), draw(st.integers(1, 6)),
            draw(st.sampled_from(sorted(CONFIGS))), draw(st.integers(0, 2**32)))


class TestLayerMatchesPadded:
    """The layer, its h, W and attn gradients, and the attention weights,
    within rtol = atol = 1e-12 of the padded oracle."""

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_tables_and_modes(self, name, config):
        nb = TABLES[name](np.random.default_rng(1))
        assert_layer_matches_padded(nb, 5, 4, CONFIGS[config])

    @pytest.mark.parametrize("config", ["decay", "interval", "no_attention"])
    @pytest.mark.parametrize("d", [1, 2, 3, 13])
    def test_feature_widths(self, d, config):
        nb = TABLES["mixed"](np.random.default_rng(2))
        assert_layer_matches_padded(nb, d, d, CONFIGS[config])

    def test_random_tables(self):
        rng = np.random.default_rng(3)
        for seed in range(0, 40, 2):
            width = int(rng.integers(1, 24))
            counts = rng.integers(0, width + 1, size=int(rng.integers(1, 30)))
            nb = table(rng, counts, width)
            config = sorted(CONFIGS)[seed % len(CONFIGS)]
            assert_layer_matches_padded(nb, int(rng.integers(1, 10)),
                                        int(rng.integers(1, 10)),
                                        CONFIGS[config], seed=seed)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=layer_cases())
    @example(case=([0, 40, 9, 8, 1, 0, 17], 40, 3, 4, "decay", 0))
    def test_standard_normal_layers(self, case):
        counts, width, d_in, d_out, config, seed = case
        rng = np.random.default_rng(seed)
        assert_layer_matches_padded(table(rng, counts, width), d_in, d_out,
                                    CONFIGS[config], seed=seed, scale=1.0)


class TestCellLayout:
    """A padded table's compressed rows."""

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_entries_in_row_column_order(self, name):
        nb = TABLES[name](np.random.default_rng(4))
        t = rectangle(nb)
        assert np.array_equal(nb.nbr, t.idx[t.mask])
        assert np.array_equal(nb.src, np.nonzero(t.mask)[0])
        assert np.array_equal(nb.indptr,
                              np.r_[0, np.cumsum(t.mask.sum(axis=1))])

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_padded_round_trip(self, name):
        nb = TABLES[name](np.random.default_rng(5))
        mask = rectangle(nb).mask
        x = np.where(mask, np.random.default_rng(6).normal(
            size=mask.shape), 0.0)
        assert np.array_equal(padded(nb, x[mask]), x)


class TestCellCache:
    def test_layout_and_factors_built_once(self, monkeypatch):
        nb = TABLES["mixed"](np.random.default_rng(0))
        calls = []
        real = model_mod.time_factors
        monkeypatch.setattr(model_mod, "time_factors",
                            lambda *a: calls.append(1) or real(*a))
        rng = np.random.default_rng(1)
        layer = LayerParams(W=Tensor(rng.normal(size=(10, 4))),
                            attn=Tensor(rng.normal(size=(8, 1))))
        h = Tensor(rng.normal(size=(nb.n_nodes, 5)))
        first = layer_forward(h, nb, layer, None, ModelConfig())
        factors = nb.time_column(ModelConfig())
        second = layer_forward(h, nb, layer, None, ModelConfig())
        assert nb.time_column(ModelConfig()) is factors and len(calls) == 1
        assert np.array_equal(first.data, second.data)
        layer_forward(h, nb, layer, None, ModelConfig(time_mode="interval"))
        assert len(calls) == 2

    def test_cached_factors_follow_the_config(self):
        nb = TABLES["mixed"](np.random.default_rng(0))
        for cfg in (ModelConfig(tau_seconds=60.0), ModelConfig(),
                    ModelConfig(time_mode="interval")):
            got = nb.time_column(cfg)
            assert np.array_equal(padded(nb, got),
                                  padded_time_factors(rectangle(nb), cfg))
        # interval mode does not read tau, so it shares one cached column
        assert nb.time_column(ModelConfig(time_mode="interval",
                                          tau_seconds=60.0)) is got

    @pytest.mark.parametrize("mode,layouts", [
        ("deterministic_topz", 2), ("weighted_without_replacement", 6)])
    def test_training_builds_one_layout_per_sampled_set(self, monkeypatch,
                                                        mode, layouts):
        records = generate(ScenarioConfig(
            n_legit=45, n_fraud=15, n_devices=4, n_ips=6, feature_dim=4,
            time_span_seconds=7200, seed=1))
        graph = build_graph(records, [Proposition(
            name="dev", field="device", window_seconds=3600)])
        built = []

        class Counting(Neighborhoods):
            def __init__(self, *args):
                super().__init__(*args)
                # per-batch tables of receptive rows are not cached
                if self.n_nodes == graph.n_nodes:
                    built.append(1)

        monkeypatch.setattr(model_mod, "Neighborhoods", Counting)
        cfg = TrainConfig(
            model=ModelConfig(k_layers=3, hidden_dim=4),
            sampler=SamplerConfig(z_hat=(10, 10, 4), oversample_count=3,
                                  mode=mode),
            batch_size=8, epochs=3)
        result = train(graph, cfg)
        # three epochs; layers 0 and 1 share one sampled set per pass
        assert len(built) == layouts
        predict(graph, result.params, sampler_cfg=cfg.sampler)
        assert len(built) == layouts + 2


# entries per row: any mix, at most 8, more than 8, or at most 5
COUNTS = {"mixed": (0, 14), "all_narrow": (0, 8), "all_wide": (9, 14),
          "below_8": (0, 5)}


@st.composite
def pair_sets(draw):
    """(graph stand-in, src, nbr, labels, ascending row subset): the pairs
    model.pack_rows takes, grouped by ascending node row."""
    n = draw(st.integers(1, 12))
    lo, hi = COUNTS[draw(st.sampled_from(sorted(COUNTS)))]
    counts = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    nbr = draw(st.lists(st.integers(0, n - 1), min_size=sum(counts),
                        max_size=sum(counts)))
    # few distinct timestamps, so interval rows with one distinct gap occur
    ts = draw(st.lists(st.sampled_from([0, 600, 1800, 7200, 9001]),
                       min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    graph = SimpleNamespace(n_nodes=n, timestamps=np.array(ts, dtype=np.int64))
    return (graph, np.repeat(np.arange(n), counts),
            np.array(nbr, dtype=np.int64), np.array(labels),
            np.flatnonzero(keep))


def assert_same_layout(nb, t):
    """nb's entries are the padded table t's real entries in (row, column)
    order, and rectangle(nb) is t trimmed to its longest row."""
    counts = t.mask.sum(axis=1)
    for got, want in ((nb.indptr, np.r_[0, np.cumsum(counts)]),
                      (nb.src, np.nonzero(t.mask)[0]),
                      (nb.nbr, t.idx[t.mask]),
                      (bits(nb.dt), bits(t.dt[t.mask]))):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    width = max(int(counts.max(initial=0)), 1)
    assert not t.mask[:, width:].any()
    for got, want in zip(rectangle(nb), t):
        assert np.array_equal(got, want[:, :width])


class TestCompressedRowsMatchPaddedTable:
    @settings(max_examples=150, deadline=None)
    @given(case=pair_sets())
    @example(case=(SimpleNamespace(n_nodes=1,
                                   timestamps=np.array([5], dtype=np.int64)),
                   np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                   np.array([1]), np.array([0])))
    def test_layout_take_and_entry_functions(self, case):
        graph, src, nbr, labels, rows = case
        nb, t = pack_rows(graph, src, nbr), padded_pack_rows(graph, src, nbr)
        assert_same_layout(nb, t)
        assert_same_layout(nb.take(rows), Rectangle(*(a[rows] for a in t)))
        for cfg in (ModelConfig(), ModelConfig(tau_seconds=60.0),
                    ModelConfig(time_mode="interval")):
            assert np.array_equal(bits(time_factors(nb, cfg)),
                                  bits(padded_time_factors(t, cfg)[t.mask]))
        assert np.array_equal(bits(uniform_weights(nb)),
                              bits(padded_uniform_weights(t)[t.mask]))
        assert np.array_equal(bits(neighbor_diversity(labels, nb)),
                              bits(padded_neighbor_diversity(labels, t)))
