"""Width-bucketed neighbor cells: the layout, its cache, and a layer that
equals the padded layer of tests/reference.py bit for bit."""

import numpy as np
import pytest

from fraudgnn import model as model_mod, nn
from fraudgnn.datagen import ScenarioConfig, generate
from fraudgnn.model import (LayerParams, ModelConfig, Neighborhoods,
                            layer_forward, time_factors)
from fraudgnn.nn import Tensor
from fraudgnn.sampler import SamplerConfig
from fraudgnn.tgraph import Proposition, build_graph
from fraudgnn.train import TrainConfig, predict, train

from reference import padded, padded_layer_forward, sum_all


def table(rng, counts, width, holes=False):
    """Neighborhoods with the given real-entry count per row, neighbor rows
    drawn from the table's own rows. Entries fill each row from column 0,
    as model.pack_rows lays them out, or at random columns with holes=True.
    Some gaps repeat, so interval rows with one distinct gap occur."""
    n = len(counts)
    idx = np.zeros((n, width), dtype=np.int64)
    mask = np.zeros((n, width), dtype=bool)
    dt = np.zeros((n, width))
    for i, c in enumerate(counts):
        cols = (np.sort(rng.choice(width, size=c, replace=False)) if holes
                else np.arange(c))
        idx[i, cols] = rng.integers(0, n, size=c)
        mask[i, cols] = True
        dt[i, cols] = rng.choice([0.0, 600.0, rng.uniform(0, 7200)], size=c)
    return Neighborhoods(idx=idx, mask=mask, dt=dt)


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
    # real entries past column 8 in rows of at most 8 entries
    "holes": lambda rng: table(rng, [0, 2, 8, 5, 12, 1, 8, 3, 7, 9, 4],
                               12, holes=True),
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
        for seed in range(40):
            width = int(rng.integers(1, 24))
            counts = rng.integers(0, width + 1, size=int(rng.integers(1, 30)))
            nb = table(rng, counts, width, holes=bool(seed % 2))
            config = sorted(CONFIGS)[seed % len(CONFIGS)]
            assert_layer_matches_padded(nb, int(rng.integers(1, 10)),
                                        int(rng.integers(1, 10)),
                                        CONFIGS[config], seed=seed)


class TestCellLayout:
    def test_mixed_table_has_two_buckets(self):
        nb = TABLES["mixed"](np.random.default_rng(0))
        (narrow, w8, _, end8), (wide, w17, _, end) = nb.cells.buckets
        counts = nb.mask.sum(axis=1)
        assert (w8, w17) == (8, 17)
        assert np.array_equal(narrow, np.flatnonzero(counts <= 8))
        assert np.array_equal(wide, np.flatnonzero(counts > 8))
        assert (end8, end) == (8 * len(narrow), end8 + 17 * len(wide))
        assert len(nb.cells.idx) == end

    @pytest.mark.parametrize("name,width", [
        ("below_8", 6), ("all_narrow_width_18", 8), ("all_wide", 18)])
    def test_one_bucket_holds_every_row(self, name, width):
        nb = TABLES[name](np.random.default_rng(0))
        ((rows, w, start, stop),) = nb.cells.buckets
        assert rows == slice(None) and w == width
        assert (start, stop) == (0, nb.n_nodes * width)

    def test_holes_past_column_8_keep_a_row_wide(self):
        nb = table(np.random.default_rng(0), [1, 1], 12, holes=False)
        nb.idx[1, 0], nb.mask[1, 0], nb.mask[1, 9] = 0, False, True
        (narrow, _, _, _), (wide, _, _, _) = nb.cells.buckets
        assert list(narrow) == [0] and list(wide) == [1]

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_entries_in_row_column_order(self, name):
        nb = TABLES[name](np.random.default_rng(4))
        cells = nb.cells
        assert np.array_equal(cells.entry_nbr, nb.idx[nb.mask])
        assert cells.mask[cells.entry_cells].all()
        assert cells.mask.sum() == nb.mask.sum()
        assert np.array_equal(cells.indptr,
                              np.r_[0, np.cumsum(nb.mask.sum(axis=1))])

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_padded_round_trip(self, name):
        nb = TABLES[name](np.random.default_rng(5))
        x = np.where(nb.mask, np.random.default_rng(6).normal(
            size=nb.mask.shape), 0.0)
        assert np.array_equal(padded(nb, nb.cells.take(x)), x)
        assert np.array_equal(nb.cells.take(x)[nb.cells.entry_cells],
                              x[nb.mask])


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
        layout = nb.cells
        second = layer_forward(h, nb, layer, None, ModelConfig())
        assert nb.cells is layout and len(calls) == 1
        assert np.array_equal(first.data, second.data)
        layer_forward(h, nb, layer, None, ModelConfig(time_mode="interval"))
        assert len(calls) == 2

    def test_cached_factors_follow_the_config(self):
        nb = TABLES["mixed"](np.random.default_rng(0))
        for cfg in (ModelConfig(tau_seconds=60.0), ModelConfig(),
                    ModelConfig(time_mode="interval")):
            got = nb.time_cells(cfg)
            assert np.array_equal(padded(nb, got), time_factors(nb, cfg))
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

        class Counting(nn.CellLayout):
            def __init__(self, *args):
                super().__init__(*args)
                # per-batch layouts of receptive rows are not cached
                if self.n_rows == graph.n_nodes:
                    built.append(1)

        monkeypatch.setattr(nn, "CellLayout", Counting)
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
