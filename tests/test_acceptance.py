"""Whole-package acceptance checks, one printed verdict per area.

Each test re-derives its expected answers from an oracle written out
longhand in this file (pairwise scans, scalar loops, central finite
differences) instead of reusing the code under test, and prints a single
"ACCEPTANCE <n> <name>: PASS|FAIL" line so the eight verdicts can be read
straight off a pytest run. Timed checks assert their own wall-clock budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from fraudgnn.datagen import ScenarioConfig, SplitSpec, generate, split_records
from fraudgnn.metrics import auc
from fraudgnn.model import (
    LayerParams,
    ModelConfig,
    aggregation_gate,
    init_params,
    layer_forward,
    neighbor_diversity,
)
from fraudgnn.nn import backward
from fraudgnn.sampler import SamplerConfig, sample_layer
from fraudgnn.tgraph import Proposition, TransactionRecord, build_graph
from fraudgnn.train import TrainConfig, batch_loss, predict, train
from fraudgnn.cli import main as cli_main

from conftest import make_two_cluster_records
from reference import adjacency, neighborhoods, rectangle, typed_neighbors

LN2 = math.log(2.0)


@contextmanager
def verdict(capsys, num, name):
    """Print one pass/fail line per acceptance area, visible under pytest."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {name}: PASS")


# ---------------------------------------------------------------------------
# shared random-instance helpers
# ---------------------------------------------------------------------------

def random_instance(rng, n, dim=2, grid_attrs=False):
    """A random record set plus 1-3 propositions over two raw fields.

    Field pools are sized so collisions are common, and windows include 0 so
    some graphs contain isolated nodes. grid_attrs draws features from a tiny
    integer grid, which makes exact similarity ties frequent.
    """
    n_dev = max(2, n // 8)
    n_ip = max(2, n // 6)
    ids = [int(3 * x + 7) for x in rng.permutation(n)]
    records = []
    for rid in ids:
        if grid_attrs:
            attrs = rng.integers(0, 3, size=dim).astype(np.float64)
        else:
            attrs = rng.normal(size=dim)
        records.append(TransactionRecord(
            id=rid,
            attrs=attrs,
            raw={"device": f"d{rng.integers(n_dev)}",
                 "ip": f"i{rng.integers(n_ip)}"},
            timestamp=int(rng.integers(0, 5000)),
            label=int(rng.integers(0, 2)),
        ))
    props = []
    for k in range(int(rng.integers(1, 4))):
        props.append(Proposition(
            name=f"p{k}",
            field=("device", "ip")[int(rng.integers(2))],
            weight=int(rng.integers(1, 4)),
            window_seconds=float(rng.choice([0.0, 120.0, 900.0, 1800.0])),
        ))
    return records, props


def naive_adjacency(records, props):
    # O(n^2 * props) reference: every ordered pair, every proposition.
    adj = {r.id: [] for r in records}
    for a in records:
        for b in records:
            if a.id == b.id:
                continue
            for k, prop in enumerate(props):
                if (a.raw[prop.field] == b.raw[prop.field]
                        and abs(a.timestamp - b.timestamp) <= prop.window_seconds):
                    adj[a.id].append((b.id, k))
    return {v: sorted(edges) for v, edges in adj.items()}


def test_graph_builder_matches_pairwise_scan(capsys):
    with verdict(capsys, 1, "graph builder oracle equivalence"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for trial in range(50):
            n = int(rng.integers(2, 201))
            records, props = random_instance(rng, n)
            g = build_graph(records, props)
            got = {int(v): sorted((int(u), int(k)) for u, k in edges)
                   for v, edges in adjacency(g).items()}
            assert got == naive_adjacency(records, props), f"trial {trial}"
        assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# sampler against a scalar sort oracle
# ---------------------------------------------------------------------------

def _unit(vec):
    norm = math.sqrt(math.fsum(float(x) * float(x) for x in vec))
    if norm == 0.0:
        return np.asarray(vec, dtype=np.float64)
    return np.asarray([float(x) / norm for x in vec])


def oracle_scores(g, v):
    """weight x similarity per neighbor, from scalar arithmetic."""
    uv = _unit(g.record(v).attrs)
    best_w = {}
    for u, k in typed_neighbors(g, v):
        w = float(g.propositions[k].weight)
        best_w[u] = max(best_w.get(u, 0.0), w)
    return {u: w * math.exp(float(np.dot(uv, _unit(g.record(u).attrs))))
            for u, w in best_w.items()}


def layer_picks(g, z, cfg):
    """Each node's sample_layer picks as neighbor ids, in the order given."""
    src, nbr = sample_layer(g, z, cfg)
    ids = np.array(g.node_ids)
    return [ids[nbr[src == row]].tolist() for row in range(g.n_nodes)]


def test_sampler_matches_sort_oracle(capsys):
    with verdict(capsys, 2, "sampler oracle equivalence"):
        rng = np.random.default_rng(202)
        cfg = SamplerConfig(z_hat=(4, 8), seed=0)
        for trial in range(20):
            n = int(rng.integers(10, 81))
            records, props = random_instance(rng, n, grid_attrs=True)
            g = build_graph(records, props)
            picks = [layer_picks(g, z, cfg) for z in cfg.z_hat]
            for row, v in enumerate(g.node_ids):
                span = g.csr.span(row)
                probs = dict(zip(g.csr.ids[span].tolist(),
                                 g.edge_scores[span].tolist()))
                scores = oracle_scores(g, v)
                assert set(probs) == set(scores)
                if not scores:
                    assert picks[0][row] == []
                    continue
                assert abs(math.fsum(probs.values()) - 1.0) <= 1e-9
                total = math.fsum(scores.values())
                for u, s in scores.items():
                    assert abs(probs[u] - s / total) <= 1e-10
                # sort oracle: probability descending, id ascending on ties
                ranked = sorted(scores, key=lambda u: (-scores[u], u))
                for k, z in enumerate(cfg.z_hat):
                    want = sorted(ranked[:min(z, len(ranked))])
                    assert picks[k][row] == want, f"trial {trial}"


# ---------------------------------------------------------------------------
# one layer against a scalar-loop reference
# ---------------------------------------------------------------------------

def scalar_layer(h_prev, nb, layer, gates, cfg):
    """layer_forward recomputed with python loops over floats."""
    n, d_in = h_prev.shape
    W = layer.W
    A = layer.attn
    d_out = W.shape[1]
    out = np.zeros((n, d_out))

    def project(row):
        return [math.fsum(h_prev[row, a] * W[d_in + a, m] for a in range(d_in))
                for m in range(d_out)]

    t = rectangle(nb)
    for i in range(n):
        cols = [j for j in range(t.mask.shape[1]) if t.mask[i, j]]
        h_agg = [0.0] * d_in
        if cols:
            if cfg.use_attention:
                pi = project(i)
                s_self = math.fsum(pi[m] * A[m, 0] for m in range(d_out))
                raws = []
                for j in cols:
                    pj = project(int(t.idx[i, j]))
                    s_nb = math.fsum(pj[m] * A[d_out + m, 0]
                                     for m in range(d_out))
                    r = s_self + s_nb
                    raws.append(r if r >= 0 else 0.01 * r)
                top = max(raws)
                exps = [math.exp(r - top) for r in raws]
                tot = math.fsum(exps)
                coef = [e / tot for e in exps]
                if cfg.time_mode == "decay":
                    damp = [math.exp(-float(t.dt[i, j]) / cfg.tau_seconds)
                            for j in cols]
                else:
                    gaps = [float(t.dt[i, j]) for j in cols]
                    lo, hi = min(gaps), max(gaps)
                    span = hi - lo
                    damp = [1.0 if span <= 0 else (gv - lo) / span
                            for gv in gaps]
                coef = [c * dmp for c, dmp in zip(coef, damp)]
            else:
                coef = [1.0 / len(cols)] * len(cols)
            for c, j in zip(coef, cols):
                nbr = int(t.idx[i, j])
                for m in range(d_in):
                    h_agg[m] += c * h_prev[nbr, m]
        if cfg.use_gate and gates is not None:
            h_agg = [gates[i] * x for x in h_agg]
        row = []
        for c in range(d_out):
            z = math.fsum(h_prev[i, a] * W[a, c] for a in range(d_in))
            z += math.fsum(h_agg[m] * W[d_in + m, c] for m in range(d_in))
            if cfg.activation == "relu":
                z = max(z, 0.0)
            elif cfg.activation == "tanh":
                z = math.tanh(z)
            row.append(z)
        norm = math.sqrt(math.fsum(x * x for x in row))
        out[i] = [x / norm if norm > 0 else x for x in row]
    return out


def test_layer_forward_matches_scalar_reference(capsys):
    with verdict(capsys, 3, "layer forward oracle equivalence"):
        rng = np.random.default_rng(303)
        h_prev = rng.normal(size=(5, 3))
        idx = rng.integers(0, 5, size=(5, 3))
        mask = np.array([
            [True, True, True],
            [True, False, False],
            [False, False, False],   # isolated row
            [True, True, False],
            [False, True, True],
        ])
        dt = rng.uniform(0.0, 4000.0, size=(5, 3))
        nb = neighborhoods(idx, mask, dt)
        layer = LayerParams(W=rng.normal(size=(6, 4)),
                            attn=rng.normal(size=(8, 1)))
        gates = rng.uniform(0.1, 0.9, size=5)
        variants = [
            (dict(activation="relu", time_mode="decay"), gates),
            (dict(activation="tanh", time_mode="interval"), gates),
            (dict(activation="identity", time_mode="decay"), None),
            (dict(activation="relu", time_mode="decay",
                  use_attention=False), gates),
        ]
        for kw, gate_vec in variants:
            cfg = ModelConfig(k_layers=1, hidden_dim=4, tau_seconds=1800.0,
                              **kw)
            got, _ = layer_forward(h_prev, nb, layer, gate_vec, cfg)
            want = scalar_layer(h_prev, nb, layer, gate_vec, cfg)
            assert np.max(np.abs(got - want)) <= 1e-9, kw


# ---------------------------------------------------------------------------
# gradients against central finite differences
# ---------------------------------------------------------------------------

def test_gradients_match_finite_differences(capsys):
    with verdict(capsys, 4, "gradient correctness"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(404)
        n, dim = 10, 5
        features = rng.normal(size=(n, dim))
        cfg = ModelConfig(k_layers=2, hidden_dim=8, tau_seconds=1000.0,
                          activation="tanh")
        params = init_params(dim, cfg, seed=3)
        nbhds = []
        for _ in range(cfg.k_layers):
            idx = rng.integers(0, n, size=(n, 4))
            mask = rng.random(size=(n, 4)) < 0.8
            mask[0] = True      # one full row
            mask[1] = False     # one isolated row
            dt = rng.uniform(0.0, 3000.0, size=(n, 4))
            nbhds.append(neighborhoods(idx, mask, dt))
        gates = rng.uniform(0.2, 0.8, size=n)
        rows = np.arange(n)
        y = rng.integers(0, 2, size=n).astype(np.float64)

        grads = backward(batch_loss(params, features, nbhds, gates, rows, y))
        analytic = [grads[i].copy() for i in range(len(params.parameters()))]

        def loss_value():
            return batch_loss(params, features, nbhds, gates, rows, y).value

        h = 1e-5
        checked = 0
        for t, grad in zip(params.parameters(), analytic):
            for r in range(t.shape[0]):
                for c in range(t.shape[1]):
                    orig = t[r, c]
                    t[r, c] = orig + h
                    up = loss_value()
                    t[r, c] = orig - h
                    down = loss_value()
                    t[r, c] = orig
                    fd = (up - down) / (2.0 * h)
                    a = grad[r, c]
                    err = abs(a - fd)
                    assert err <= 1e-6 or err <= 1e-3 * max(abs(a), abs(fd)), \
                        f"param {t.shape} entry ({r},{c}): {a} vs {fd}"
                    checked += 1
        assert checked == sum(t.size for t in params.parameters())
        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# diversity range and gate monotonicity
# ---------------------------------------------------------------------------

def test_diversity_bounds_and_gate_monotonicity(capsys):
    with verdict(capsys, 5, "diversity and gate properties"):
        rng = np.random.default_rng(505)
        pool = 50
        labels = np.array([0] * (pool // 2) + [1] * (pool // 2))
        zeros = np.arange(pool // 2)
        ones = pool // 2 + np.arange(pool // 2)
        width = 8
        n = 1000
        idx = rng.integers(0, pool, size=(n, width))
        mask = np.zeros((n, width), dtype=bool)
        for i in range(n):
            mask[i, :rng.integers(0, width + 1)] = True
        # pinned rows with known entropy
        idx[0, :], mask[0, :] = zeros[:width], True          # pure class 0
        idx[1, :], mask[1, :] = ones[:width], True           # pure class 1
        idx[2, :4], mask[2] = np.r_[zeros[:2], ones[:2]], False
        mask[2, :4] = True                                   # balanced 2+2
        idx[3, :2], mask[3] = np.r_[zeros[:1], ones[:1]], False
        mask[3, :2] = True                                   # balanced 1+1
        nb = neighborhoods(idx, mask, rng.uniform(0, 100, size=(n, width)))

        d = neighbor_diversity(labels, nb)
        assert d.shape == (n,)
        assert float(d.min()) >= 0.0
        assert float(d.max()) <= LN2
        assert d[0] == 0.0 and d[1] == 0.0       # pure: exactly 0
        assert d[2] == LN2 and d[3] == LN2       # balanced: exactly ln 2

        for lo in range(0, n, 250):
            chunk = d[lo:lo + 250]
            g = aggregation_gate(chunk)
            assert np.all((g > 0.0) & (g < 1.0))
            order = np.argsort(chunk, kind="stable")
            ds, gs = chunk[order], g[order]
            for k in range(len(ds) - 1):
                if ds[k + 1] > ds[k]:
                    assert gs[k + 1] < gs[k]
                else:
                    assert gs[k + 1] == gs[k]
        # degenerate batch: no spread means every gate is exactly 1/2
        assert np.all(aggregation_gate(np.full(7, 0.3)) == 0.5)


# ---------------------------------------------------------------------------
# AUC against an O(n^2) pairwise oracle
# ---------------------------------------------------------------------------

def pairwise_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_auc_matches_pairwise_oracle(capsys):
    with verdict(capsys, 6, "auc oracle equivalence"):
        rng = np.random.default_rng(606)
        tied = 0
        for trial in range(100):
            n = int(rng.integers(2, 501))
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[-1] = 0, 1     # both classes present
            if trial < 60:
                scores = rng.integers(0, 8, size=n) / 7.0
            else:
                scores = rng.random(size=n)
            if len(np.unique(scores)) < n:
                tied += 1
            got = auc(scores, labels)
            want = pairwise_auc(scores, labels)
            assert abs(got - want) <= 1e-12, f"trial {trial}"
        assert tied >= 30


# ---------------------------------------------------------------------------
# training behavior: separable fixture, then the camouflage comparison
# ---------------------------------------------------------------------------

def camouflage_run(seed):
    """Median-comparison arm pair on one camouflaged scenario seed.

    The ablated arm mirrors the command line toggles that switch to uniform
    random sampling and drop the gate and attention (uniform sampling also
    turns fraud over-sampling off, exactly as the CLI flag mapping does).
    """
    scen = ScenarioConfig(n_legit=1400, n_fraud=600, n_devices=10, n_ips=15,
                          camouflage_rate=0.3, cluster_separation=4.0,
                          time_span_seconds=6 * 3600, seed=seed)
    records = generate(scen)
    props = [
        Proposition(name="same_device", field="device", weight=3,
                    window_seconds=3600.0),
        Proposition(name="same_ip", field="ip", weight=1,
                    window_seconds=3600.0),
    ]
    g = build_graph(records, props)
    train_ids, test_ids = split_records(
        records, SplitSpec(kind="fraction", test_fraction=0.7), seed)
    truth = {r.id: r.label for r in records}
    out = {}
    for arm in ("full", "ablated"):
        full = arm == "full"
        tc = TrainConfig(
            model=ModelConfig(k_layers=2, hidden_dim=8, tau_seconds=21600.0,
                              use_attention=full, use_gate=full),
            sampler=SamplerConfig(
                z_hat=(8, 8), seed=seed,
                mode="deterministic_topz" if full else "uniform",
                oversample_count=10 if full else 0),
            lr=0.01, batch_size=256, epochs=30, seed=seed)
        res = train(g, tc, train_ids=train_ids)
        preds = predict(g, res.params, sampler_cfg=tc.sampler, nodes=test_ids,
                        known_ids=train_ids, seed=seed)
        scores = np.array([p.p_fraud for p in preds])
        labels = np.array([truth[p.node_id] for p in preds])
        out[arm] = auc(scores, labels)
    return out


def test_training_accuracy_and_ablation_margin(capsys):
    with verdict(capsys, 7, "trainability and ablation margin"):
        t0 = time.perf_counter()

        # separable two-cluster fixture trains to the exact labels
        records = make_two_cluster_records(20)
        g = build_graph(records, [Proposition(name="dev", field="device",
                                              window_seconds=10**6)])
        tc = TrainConfig(model=ModelConfig(k_layers=2, hidden_dim=8),
                         sampler=SamplerConfig(z_hat=(4, 4)),
                         lr=0.05, batch_size=64, epochs=200)
        res = train(g, tc, train_ids=list(range(20)))
        assert res.loss_history[-1] < 0.1
        preds = predict(g, res.params, SamplerConfig(z_hat=(4, 4)),
                        known_ids=res.train_ids)
        truth = {r.id: r.label for r in g.records}
        assert all(p.label_pred == truth[p.node_id] for p in preds)

        # camouflaged fraud: full model beats the uniform/no-gate/no-attention
        # ablation on median held-out AUC across five seeds
        fulls, ablated = [], []
        for seed in range(5):
            out = camouflage_run(seed)
            fulls.append(out["full"])
            ablated.append(out["ablated"])
        assert float(np.median(fulls)) > float(np.median(ablated)), \
            (fulls, ablated)
        assert time.perf_counter() - t0 < 600.0


# ---------------------------------------------------------------------------
# end-to-end determinism through the command line
# ---------------------------------------------------------------------------

SCENARIO_CFG = """\
n_legit = 90
n_fraud = 40
n_devices = 8
n_ips = 10
fraud_device_concentration = 0.9
fraud_burst_window = 900
camouflage_rate = 0.1
feature_dim = 4
cluster_separation = 4.0
time_span_seconds = 86400
seed = 7
"""

PROPS_CFG = """\
same_device.field = device
same_device.weight = 2
same_ip.field = ip
same_ip.window_seconds = 1800
"""

RUN_CFG = """\
seed = 7
model.K = 2
model.hidden = 8
sampler.z_hat = 4, 4
trainer.lr = 0.05
trainer.batch_size = 64
trainer.epochs = 5
trainer.split = fraction
trainer.test_fraction = 0.3
"""

ARTIFACTS = ("data.csv", "graph.txt", "loss.csv", "model.ckpt",
             "scores.csv", "report.txt", "roc.csv")


def run_pipeline(ws):
    ws.mkdir()
    (ws / "scenario.cfg").write_text(SCENARIO_CFG)
    (ws / "props.cfg").write_text(PROPS_CFG)
    (ws / "run.cfg").write_text(RUN_CFG)
    data = str(ws / "data.csv")
    props = str(ws / "props.cfg")
    run_cfg = str(ws / "run.cfg")
    steps = [
        ["generate", "--scenario", str(ws / "scenario.cfg"), "--out", data],
        ["build-graph", "--data", data, "--props", props,
         "--config", run_cfg, "--out", str(ws / "graph.txt")],
        ["train", "--data", data, "--props", props, "--config", run_cfg,
         "--out", str(ws / "model.ckpt"),
         "--loss-history", str(ws / "loss.csv")],
        ["predict", "--ckpt", str(ws / "model.ckpt"), "--data", data,
         "--props", props, "--config", run_cfg,
         "--out", str(ws / "scores.csv")],
        ["evaluate", "--scores", str(ws / "scores.csv"), "--data", data,
         "--out", str(ws / "report.txt"), "--roc", str(ws / "roc.csv")],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, argv


def test_pipeline_runs_are_byte_identical(capsys, tmp_path):
    with verdict(capsys, 8, "end-to-end determinism"):
        run_pipeline(tmp_path / "a")
        run_pipeline(tmp_path / "b")
        for name in ARTIFACTS:
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            assert len(first) > 0, name
            assert first == second, f"{name} differs between identical runs"
