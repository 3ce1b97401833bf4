"""Width-bucketed neighbor cells: the layout, its cache, and a layer that
equals the padded layer of tests/reference.py bit for bit; compressed rows
against the padded table they replaced."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraudgnn import model as model_mod, nn
from fraudgnn.datagen import ScenarioConfig, generate
from fraudgnn.model import (LayerParams, ModelConfig, Neighborhoods,
                            layer_forward, neighbor_diversity, pack_rows,
                            time_factors, uniform_weights)
from fraudgnn.nn import Tensor
from fraudgnn.sampler import SamplerConfig
from fraudgnn.tgraph import Proposition, build_graph
from fraudgnn.train import TrainConfig, predict, train

from reference import (PaddedCellLayout, Rectangle, neighborhoods, padded,
                       padded_layer_forward, padded_neighbor_diversity,
                       padded_pack_rows, padded_time_factors,
                       padded_uniform_weights, rectangle, sum_all)


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
    # narrow and wide rows in one layer
    "mixed": lambda rng: table(rng, [0, 1, 7, 8, 9, 16, 17, 3, 12, 8, 0, 5],
                               17),
    # narrower than 8: one bucket at the table's width
    "below_8": lambda rng: table(rng, [0, 1, 3, 6, 6, 2, 4, 5], 6),
    # every row at most 8 wide in an 18-wide table: one bucket, trimmed
    "all_narrow_width_18": lambda rng: table(
        rng, [0, 1, 2, 8, 5, 7, 8, 3, 4, 6], 18),
    # every row wider than 8: one bucket at the table's width
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


def run_layer(layer_fn, nb, h, W, attn, gates, cfg, coef):
    """Output and every leaf gradient of sum(coef * layer(h))."""
    h_t = Tensor(h.copy(), requires_grad=True)
    W_t = Tensor(W.copy(), requires_grad=True)
    attn_t = Tensor(attn.copy(), requires_grad=True)
    out = layer_fn(h_t, nb, LayerParams(W=W_t, attn=attn_t), gates, cfg)
    nn.backward(sum_all(nn.mul(out, coef)))
    return [bits(x) for x in (out.data, h_t.grad, W_t.grad, attn_t.grad)]


def assert_layer_matches_padded(nb, d_in, d_out, config_kw, seed=0):
    rng = np.random.default_rng(seed)
    n = nb.n_nodes
    h = rng.normal(size=(n, d_in))
    W = rng.normal(size=(2 * d_in, d_out)) * 0.5
    attn = rng.normal(size=(2 * d_out, 1)) * 0.5
    gates = rng.uniform(0.1, 1.0, size=n)
    coef = rng.normal(size=(n, d_out))
    cfg = ModelConfig(tau_seconds=1800.0, **config_kw)
    got = run_layer(layer_forward, nb, h, W, attn, gates, cfg, coef)
    want = run_layer(padded_layer_forward, nb, h, W, attn, gates, cfg, coef)
    for name, g, w in zip(("output", "h grad", "W grad", "attn grad"),
                          got, want):
        if w is None:
            assert g is None, name
        else:
            assert np.array_equal(g, w), name


class TestLayerMatchesPadded:
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


class TestCellLayout:
    def test_mixed_table_has_two_buckets(self):
        nb = TABLES["mixed"](np.random.default_rng(0))
        (narrow, w8, _, end8), (wide, w17, _, end) = nb.buckets
        counts = rectangle(nb).mask.sum(axis=1)
        assert (w8, w17) == (8, 17)
        assert np.array_equal(narrow, np.flatnonzero(counts <= 8))
        assert np.array_equal(wide, np.flatnonzero(counts > 8))
        assert (end8, end) == (8 * len(narrow), end8 + 17 * len(wide))
        assert len(nb.idx) == end

    @pytest.mark.parametrize("name,width", [
        ("below_8", 6), ("all_narrow_width_18", 8), ("all_wide", 18)])
    def test_one_bucket_holds_every_row(self, name, width):
        nb = TABLES[name](np.random.default_rng(0))
        ((rows, w, start, stop),) = nb.buckets
        assert rows == slice(None) and w == width
        assert (start, stop) == (0, nb.n_nodes * width)

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_entries_in_row_column_order(self, name):
        nb = TABLES[name](np.random.default_rng(4))
        t = rectangle(nb)
        assert np.array_equal(nb.nbr, t.idx[t.mask])
        assert nb.mask[nb.entry_cells].all()
        assert nb.mask.sum() == t.mask.sum()
        assert np.array_equal(nb.indptr,
                              np.r_[0, np.cumsum(t.mask.sum(axis=1))])

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_padded_round_trip(self, name):
        nb = TABLES[name](np.random.default_rng(5))
        mask = rectangle(nb).mask
        x = np.where(mask, np.random.default_rng(6).normal(
            size=mask.shape), 0.0)
        assert np.array_equal(padded(nb, nb.put(x[mask])), x)
        assert np.array_equal(nb.put(x[mask])[nb.entry_cells], x[mask])


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
        factors = nb.time_cells(ModelConfig())
        second = layer_forward(h, nb, layer, None, ModelConfig())
        assert nb.time_cells(ModelConfig()) is factors and len(calls) == 1
        assert np.array_equal(first.data, second.data)
        layer_forward(h, nb, layer, None, ModelConfig(time_mode="interval"))
        assert len(calls) == 2

    def test_cached_factors_follow_the_config(self):
        nb = TABLES["mixed"](np.random.default_rng(0))
        for cfg in (ModelConfig(tau_seconds=60.0), ModelConfig(),
                    ModelConfig(time_mode="interval")):
            got = nb.time_cells(cfg)
            assert np.array_equal(padded(nb, got),
                                  padded_time_factors(rectangle(nb), cfg))
        # interval mode does not read tau, so it shares one cached column
        assert nb.time_cells(ModelConfig(time_mode="interval",
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


# entries per row: any mix, at most 8 (all narrow), more than 8 (all wide),
# or a table narrower than 8
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
    """nb's cells equal those PaddedCellLayout makes of the padded table t,
    and nb's entries are t's real entries in (row, column) order."""
    old = PaddedCellLayout(t.idx, t.mask)
    assert len(nb.buckets) == len(old.buckets)
    for (rows, w, lo, hi), (o_rows, o_w, o_lo, o_hi) in zip(nb.buckets,
                                                            old.buckets):
        assert (isinstance(rows, slice) and rows == o_rows
                or np.array_equal(rows, o_rows))
        assert (w, lo, hi) == (o_w, o_lo, o_hi)
    for got, want in ((nb.idx, old.idx), (nb.mask, old.mask),
                      (nb.entry_cells, old.entry_cells),
                      (nb.indptr, old.indptr), (nb.nbr, old.entry_nbr),
                      (bits(nb.dt), bits(t.dt[t.mask]))):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for got, want in zip(rectangle(nb), t):
        assert np.array_equal(got, want)


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
        assert nb.width == t.idx.shape[1]
        assert_same_layout(nb, t)
        sub = nb.take(rows)
        assert sub.width == nb.width
        assert_same_layout(sub, Rectangle(*(a[rows] for a in t)))
        for cfg in (ModelConfig(), ModelConfig(tau_seconds=60.0),
                    ModelConfig(time_mode="interval")):
            assert np.array_equal(bits(time_factors(nb, cfg)),
                                  bits(padded_time_factors(t, cfg)[t.mask]))
        assert np.array_equal(bits(uniform_weights(nb)),
                              bits(padded_uniform_weights(t)[t.mask]))
        assert np.array_equal(bits(neighbor_diversity(labels, nb)),
                              bits(padded_neighbor_diversity(labels, t)))
