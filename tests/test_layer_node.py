"""The stage chain against the tape it replaced, bit for bit:
model.layer_forward against the chain of single tape ops
(reference.chain_layer_forward), model.head_forward against the tape's
head ops, a whole training step against reference.tape_step, and nn's
direct sparse kernels against scipy's matrix products."""

import gc
import itertools
import weakref

import numpy as np
import pytest
import scipy.sparse

from fraudgnn import model as model_mod, nn
from fraudgnn.datagen import ScenarioConfig, generate
from fraudgnn.model import (ACTIVATIONS, LayerParams, ModelConfig,
                            Neighborhoods, head_forward, layer_forward)
from fraudgnn.sampler import SamplerConfig
from fraudgnn.tgraph import Proposition, build_graph
from fraudgnn.train import TrainConfig, _gates_for, _sample_layers, batch_loss

from reference import (Tensor, TapeAdam, backward, chain_layer_forward, mul,
                       sparse_rows, sum_all, tape_batch_loss, tape_head,
                       tape_params)


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


def run_tape(h, W, attn, nb, gates, cfg, own, coef, h_grad=True):
    """Output and the h, W and attn gradients of sum(coef * layer), the
    layer being chain_layer_forward on the tape."""
    h_t = Tensor(h.copy(), requires_grad=h_grad)
    layer = LayerParams(W=Tensor(W.copy(), requires_grad=True),
                        attn=Tensor(attn.copy(), requires_grad=True))
    out = chain_layer_forward(h_t, nb, layer, gates, cfg, own)
    backward(sum_all(mul(out, coef)))
    return out.data, h_t.grad, layer.W.grad, layer.attn.grad


def run(h, W, attn, nb, gates, cfg, own, coef, h_grad=True):
    """run_tape's four arrays from layer_forward's stage: sum's gradient
    is coef itself."""
    out, vjp = layer_forward(h.copy(), nb, LayerParams(W=W.copy(),
                                                       attn=attn.copy()),
                             gates, cfg, own)
    return (out, *vjp(coef, h_grad))


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
        got = run(h, W, attn, nb, gates, cfg, own, coef, h_grad)
        want = run_tape(h, W, attn, nb, gates, cfg, own, coef, h_grad)
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
        got, want = (run_fn(h, W, attn, nb, np.full(4, 0.5), ModelConfig(),
                            None, coef)
                     for run_fn in (run, run_tape))
        for name, g, w in zip(("output", "h grad", "W grad", "attn grad"),
                              got, want):
            assert_bits_equal(name, g, w)


def small_graph():
    records = generate(ScenarioConfig(
        n_legit=45, n_fraud=15, n_devices=4, n_ips=6, feature_dim=4,
        time_span_seconds=7200, seed=1))
    return build_graph(records, [Proposition(
        name="dev", field="device", window_seconds=3600)])


GRAPH = small_graph()
ROWS = np.arange(0, 60, 7)


def step_case(k, **model_kw):
    """Initial parameters, k sampled layers and their gates on GRAPH."""
    cfg = TrainConfig(model=ModelConfig(k_layers=k, hidden_dim=5, **model_kw),
                      sampler=SamplerConfig(z_hat=(6, 4, 5)[:k]))
    params = model_mod.init_params(GRAPH.features.shape[1], cfg.model, 0)
    neighborhoods = _sample_layers(GRAPH, cfg.sampler, 1)
    gates = _gates_for(cfg.model, np.maximum(GRAPH.labels, 0),
                       neighborhoods[0])
    return params, neighborhoods, gates


def chain_step(params, opt, neighborhoods, gates, rows):
    """One training step through the stage chain: the loss and every
    slot's gradient, the parameters updated in place."""
    if rows is None:
        stages = []
        p = model_mod.forward(params, GRAPH.features, neighborhoods, gates,
                              None, stages)
        loss = nn.bce(p, GRAPH.labels, stages)
    else:
        loss = batch_loss(params, GRAPH.features, neighborhoods, gates, rows,
                          GRAPH.labels[rows])
    grads = nn.backward(loss)
    opt.step(grads)
    return loss, grads


class TestTrainingStep:
    """Two steps through the stage chain against the tape's (the loss,
    the DAG backward, then TapeAdam): the loss, every slot's gradient, and
    the parameters after each Adam step, bit for bit."""

    def test_step_matches_the_chain(self):
        """Every arm: attention and gate on and off, each activation and
        time mode, K from 1 to 3, and forward's rows None or given."""
        for attention, gate, activation, time_mode, k, rows in (
                itertools.product((True, False), (True, False),
                                  sorted(ACTIVATIONS), model_mod.TIME_MODES,
                                  (1, 2, 3), (None, ROWS))):
            params, nbs, gates = step_case(
                k, use_attention=attention, use_gate=gate,
                activation=activation, time_mode=time_mode)
            tape = tape_params(params)
            opt = nn.AdamState(params.parameters(), lr=0.05)
            tape_opt = TapeAdam(tape.parameters(), lr=0.05)
            y = GRAPH.labels if rows is None else GRAPH.labels[rows]
            for step in range(2):
                where = (f"{params.config}, rows given: {rows is not None}, "
                         f"step {step}")
                loss, grads = chain_step(params, opt, nbs, gates, rows)
                want = tape_batch_loss(tape, GRAPH.features, nbs, gates,
                                       rows, y)
                backward(want)
                assert_bits_equal(f"loss, {where}",
                                  np.array([[loss.value]]), want.data)
                for i, leaf in enumerate(tape.parameters()):
                    assert_bits_equal(f"slot {i} gradient, {where}",
                                      grads.get(i), leaf.grad)
                tape_opt.step()
                for i, (got, leaf) in enumerate(zip(params.parameters(),
                                                    tape.parameters())):
                    assert_bits_equal(f"slot {i} after Adam, {where}",
                                      got, leaf.data)
            if not attention:
                assert all(2 * j + 1 not in grads for j in range(k))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_step_has_k_plus_two_stages(self, k):
        params, nbs, gates = step_case(k)
        loss = batch_loss(params, GRAPH.features, nbs, gates, ROWS,
                          GRAPH.labels[ROWS])
        assert len(loss.stages) == k + 2
        # each layer's W and attn, the head, then the loss's no slot
        assert [slots for _, slots in loss.stages] == (
            [(2 * j, 2 * j + 1) for j in range(k)] + [(2 * k,), ()])

    @pytest.mark.parametrize("rows", [None, ROWS], ids=["every_row", "rows"])
    def test_inference_forward_keeps_no_vjp(self, monkeypatch, rows):
        """Without a stages list no vjp outlives forward; with one, the
        list holds every vjp."""
        vjps = []

        def keep_ref(fn):
            def spy(*args):
                out, vjp = fn(*args)
                vjps.append(weakref.ref(vjp))
                return out, vjp
            return spy

        monkeypatch.setattr(model_mod, "layer_forward",
                            keep_ref(model_mod.layer_forward))
        monkeypatch.setattr(model_mod, "head_forward",
                            keep_ref(model_mod.head_forward))
        params, nbs, gates = step_case(2)
        model_mod.forward(params, GRAPH.features, nbs, gates, rows)
        gc.collect()
        assert len(vjps) == 3 and all(ref() is None for ref in vjps)
        stages = []
        model_mod.forward(params, GRAPH.features, nbs, gates, rows, stages)
        assert [vjp for vjp, _ in stages] == [ref() for ref in vjps[3:]]


class TestHeadMatchesTheTape:
    """head_forward's probabilities and its h and head gradients against
    the tape's matmul, softmax_rows, slice_cols and pick_rows."""

    def check(self, h, head, coef, pick=None):
        got, vjp = head_forward(h.copy(), head.copy(), pick)
        h_t = Tensor(h.copy(), requires_grad=True)
        head_t = Tensor(head.copy(), requires_grad=True)
        want = tape_head(h_t, head_t, pick)
        backward(sum_all(mul(want, coef)))
        assert_bits_equal("probabilities", got, want.data)
        dh, d_head = vjp(coef, True)
        assert_bits_equal("h gradient", dh, h_t.grad)
        assert_bits_equal("head gradient", d_head, head_t.grad)
        assert vjp(coef, False)[0] is None

    @pytest.mark.parametrize("picked", [False, True])
    def test_random(self, picked):
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 40):
            h, head = rng.normal(size=(n, 5)), rng.normal(size=(5, 2)) * 3
            pick = rng.permutation(n)[:max(1, n // 2)] if picked else None
            coef = rng.normal(size=(n if pick is None else len(pick), 1))
            self.check(h, head, coef, pick)

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits(self, special):
        """Rows whose logits hold NaN or +-inf, and a row whose shifted
        exponentials underflow to zero."""
        rng = np.random.default_rng(4)
        h, head = rng.normal(size=(6, 3)), rng.normal(size=(3, 2))
        h[1, 0] = special
        h[3] = special
        h[4] = 1e308
        coef = rng.normal(size=(6, 1))
        with np.errstate(invalid="ignore", over="ignore"):
            self.check(h, head, coef)
            self.check(h, head, coef[:3], np.array([3, 1, 4]))


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
