"""model.layer_forward as one tape node: output and gradients bit-equal to
the chain of single ops it replaced (reference.chain_layer_forward), nn's
direct sparse kernels bit-equal to scipy's matrix products, and the tape
of a training step."""

import itertools

import numpy as np
import pytest
import scipy.sparse

from fraudgnn import model as model_mod, nn
from fraudgnn.datagen import ScenarioConfig, generate
from fraudgnn.model import (ACTIVATIONS, LayerParams, ModelConfig,
                            Neighborhoods, layer_forward)
from fraudgnn.nn import Tensor
from fraudgnn.sampler import SamplerConfig
from fraudgnn.tgraph import Proposition, build_graph
from fraudgnn.train import TrainConfig, _sample_layers, batch_loss

from reference import chain_layer_forward, mul, sparse_rows, sum_all


def bits(a):
    return None if a is None else np.ascontiguousarray(a).view(np.int64)


def assert_bits_equal(name, got, want):
    if want is None:
        assert got is None, name
        return
    assert got is not None and got.shape == want.shape, name
    assert np.array_equal(bits(got), bits(want)), name


def random_rows(rng, n, m, max_count=6, index_dtype=np.int64):
    """Neighborhoods of n rows over m value rows; about a third of the rows
    are empty, and gaps repeat so interval rows with one gap occur."""
    counts = np.where(rng.random(n) < 0.3, 0, rng.integers(1, max_count + 1, n))
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(index_dtype)
    nbr = rng.integers(0, m, size=int(indptr[-1])).astype(index_dtype)
    dt = rng.choice([0.0, 600.0, 1800.0, 5000.0], size=len(nbr))
    return Neighborhoods(indptr, nbr, dt)


GATES = ("on", "off", "none")


def run(layer_fn, h, W, attn, nb, gates, cfg, own, coef, h_grad=True):
    """Output and the h, W and attn gradients of sum(coef * layer)."""
    h_t = Tensor(h.copy(), requires_grad=h_grad)
    layer = LayerParams(W=Tensor(W.copy(), requires_grad=True),
                        attn=Tensor(attn.copy(), requires_grad=True))
    out = layer_fn(h_t, nb, layer, gates, cfg, own)
    nn.backward(sum_all(mul(out, coef)))
    return out.data, h_t.grad, layer.W.grad, layer.attn.grad


def assert_layer_matches_chain(seed, attention, gate, activation, time_mode,
                               with_own, special=None, h_grad=True):
    rng = np.random.default_rng(seed)
    m, d_in, d_out = 9, 3, 4
    n = 6 if with_own else m
    own = np.sort(rng.choice(m, size=n, replace=False)) if with_own else None
    nb = random_rows(rng, n, m)
    h = rng.normal(size=(m, d_in))
    if special is not None:
        h[rng.integers(m), rng.integers(d_in)] = special
    W = rng.normal(size=(2 * d_in, d_out))
    attn = rng.normal(size=(2 * d_out, 1))
    coef = rng.normal(size=(n, d_out))
    gates = None if gate == "none" else rng.uniform(0.1, 1.0, size=n)
    cfg = ModelConfig(activation=activation, time_mode=time_mode,
                      use_attention=attention, use_gate=gate != "off",
                      tau_seconds=1800.0)
    with np.errstate(invalid="ignore", over="ignore"):
        got = run(layer_forward, h, W, attn, nb, gates, cfg, own, coef,
                  h_grad)
        want = run(chain_layer_forward, h, W, attn, nb, gates, cfg, own,
                   coef, h_grad)
    for name, g, w in zip(("output", "h grad", "W grad", "attn grad"),
                          got, want):
        assert_bits_equal(name, g, w)
    if not attention:
        assert got[3] is None
    return got


class TestLayerMatchesChain:
    """Every arm of the layer, bit for bit against the op chain."""

    @pytest.mark.parametrize("with_own", [False, True])
    @pytest.mark.parametrize("time_mode", model_mod.TIME_MODES)
    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    @pytest.mark.parametrize("gate", GATES)
    @pytest.mark.parametrize("attention", [True, False])
    def test_arm(self, attention, gate, activation, time_mode, with_own):
        for seed in range(3):
            assert_layer_matches_chain(seed, attention, gate, activation,
                                       time_mode, with_own)

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("attention", [True, False])
    def test_one_special_input(self, special, attention):
        out = assert_layer_matches_chain(4, attention, "on", "relu", "decay",
                                         True, special=special)[0]
        assert not np.isfinite(out).all()

    @pytest.mark.parametrize("attention", [True, False])
    def test_constant_input_gets_no_gradient(self, attention):
        got = assert_layer_matches_chain(5, attention, "on", "tanh", "decay",
                                         False, h_grad=False)
        assert got[1] is None

    def test_every_row_empty(self):
        rng = np.random.default_rng(6)
        nb = Neighborhoods(np.zeros(5, dtype=np.int64),
                           np.zeros(0, dtype=np.int64), np.zeros(0))
        h, coef = rng.normal(size=(4, 2)), rng.normal(size=(4, 3))
        W, attn = rng.normal(size=(4, 3)), rng.normal(size=(6, 1))
        got, want = (run(fn, h, W, attn, nb, np.full(4, 0.5), ModelConfig(),
                         None, coef)
                     for fn in (layer_forward, chain_layer_forward))
        for name, g, w in zip(("output", "h grad", "W grad", "attn grad"),
                              got, want):
            assert_bits_equal(name, g, w)


def small_graph():
    records = generate(ScenarioConfig(
        n_legit=45, n_fraud=15, n_devices=4, n_ips=6, feature_dim=4,
        time_span_seconds=7200, seed=1))
    return build_graph(records, [Proposition(
        name="dev", field="device", window_seconds=3600)])


def training_step(graph, cfg, rows):
    """Loss, and every parameter's gradient, of one two-layer step."""
    params = model_mod.init_params(graph.features.shape[1], cfg.model, 0)
    neighborhoods = _sample_layers(graph, cfg.sampler, 1)
    gates = model_mod.diversity_stats(np.maximum(graph.labels, 0),
                                      neighborhoods[0]).gate
    loss = batch_loss(params, graph.features, neighborhoods, gates, rows,
                      graph.labels[rows])
    return loss, params


def tape(loss):
    """Every tensor a backward pass from loss visits."""
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


STEP = TrainConfig(model=ModelConfig(k_layers=2, hidden_dim=5),
                   sampler=SamplerConfig(z_hat=(6, 6)), batch_size=8)


class TestTrainingStep:
    def test_two_layer_step_records_at_most_12_tape_tensors(self):
        # two layers, head matmul, softmax, slice, pick and bce, with the
        # five parameters: 12 (the op chain recorded 47)
        graph = small_graph()
        loss, params = training_step(graph, STEP, np.arange(0, 60, 7))
        nodes = tape(loss)
        assert len(nodes) <= 12
        assert all(any(p is t for t in nodes) for p in params.parameters())

    def test_step_matches_the_chain(self, monkeypatch):
        """A whole step on receptive rows: loss and every parameter's
        gradient equal those of the op chain."""
        graph = small_graph()
        rows = np.arange(0, 60, 7)
        got_loss, got = training_step(graph, STEP, rows)
        nn.backward(got_loss)
        monkeypatch.setattr(model_mod, "layer_forward", chain_layer_forward)
        want_loss, want = training_step(graph, STEP, rows)
        assert len(tape(want_loss)) > 40
        nn.backward(want_loss)
        assert_bits_equal("loss", got_loss.data, want_loss.data)
        for i, (g, w) in enumerate(zip(got.parameters(), want.parameters())):
            assert_bits_equal(f"parameter {i}", g.grad, w.grad)


class TestNeighborSumKernels:
    """nn.neighbor_sum and nn.neighbor_sum_transpose call scipy's private
    csr_matvecs and csc_matvecs: they must equal A @ values and A.T @ g on
    scipy's matrix objects bit for bit, so a scipy that moves those entry
    points fails here."""

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("d", [1, 8])
    def test_equal_to_the_matrix_products(self, d, index_dtype):
        rng = np.random.default_rng(d)
        for seed, (n, m) in enumerate(itertools.product((1, 5, 17), (1, 4, 23))):
            nb = random_rows(np.random.default_rng(seed), n, m,
                             index_dtype=index_dtype)
            weights = rng.normal(size=(len(nb.nbr), 1))
            weights[rng.random(weights.shape) < 0.1] = -0.0
            values, g = rng.normal(size=(m, d)), rng.normal(size=(n, d))
            for a in (values, g):
                a[rng.random(a.shape) < 0.1] = rng.choice(
                    [np.nan, -np.nan, np.inf, -np.inf])
            a = sparse_rows(weights, nb, m)
            assert isinstance(a, scipy.sparse.csr_matrix)
            with np.errstate(invalid="ignore"):
                assert_bits_equal("A @ values", nn.neighbor_sum(
                    weights, values, nb), a @ values)
                assert_bits_equal("A.T @ g", nn.neighbor_sum_transpose(
                    weights, g, nb, m), a.T @ g)

    def test_non_contiguous_operands(self):
        rng = np.random.default_rng(9)
        nb = random_rows(rng, 7, 5)
        weights = rng.normal(size=(len(nb.nbr), 1))
        values = rng.normal(size=(5, 6))[:, ::2]
        g = rng.normal(size=(7, 6))[:, 3:]
        a = sparse_rows(weights, nb, 5)
        assert_bits_equal("A @ values", nn.neighbor_sum(weights, values, nb),
                          a @ values)
        assert_bits_equal("A.T @ g",
                          nn.neighbor_sum_transpose(weights, g, nb, 5),
                          a.T @ g)
