"""Switch the model's three mechanisms off one grid cell at a time.

The grid crosses neighbor sampling (adaptive top-z with fraud over-sampling
versus uniform random), the diversity gate, and attention, and reports the
held-out AUC of each combination on a camouflaged scenario. Every switch is
plain config: `SamplerConfig.mode = "uniform"` with `oversample_count = 0`
for the sampling arm, `ModelConfig.use_gate` and `use_attention` for the
rest. The same grid is available from the command line as `fraudgnn ablate`.

One seed keeps the demo near a minute; the acceptance suite repeats the
full-versus-bare comparison across five seeds at this same scale. Margins
are scale-sensitive: below roughly a thousand records the graph gets too
sparse for the sampling choice to matter.
"""

import itertools
import time

import numpy as np

from fraudgnn.datagen import ScenarioConfig, SplitSpec, generate, split_records
from fraudgnn.metrics import auc
from fraudgnn.model import ModelConfig
from fraudgnn.sampler import SamplerConfig
from fraudgnn.tgraph import Proposition, build_graph
from fraudgnn.train import TrainConfig, predict, train


def run_cell(graph, truth, train_ids, test_ids, sampling, gate, att, seed):
    adaptive = sampling == "adaptive"
    tc = TrainConfig(
        model=ModelConfig(k_layers=2, hidden_dim=8, tau_seconds=21600.0,
                          use_gate=gate, use_attention=att),
        sampler=SamplerConfig(
            z_hat=(8, 8), seed=seed,
            mode="deterministic_topz" if adaptive else "uniform",
            oversample_count=10 if adaptive else 0),
        lr=0.01, batch_size=256, epochs=30, seed=seed)
    result = train(graph, tc, train_ids=train_ids)
    preds = predict(graph, result.params, sampler_cfg=tc.sampler,
                    nodes=test_ids, known_ids=train_ids, seed=seed)
    scores = np.array([p.p_fraud for p in preds])
    labels = np.array([truth[p.node_id] for p in preds])
    return auc(scores, labels)


def main():
    seeds = (0,)
    t0 = time.time()
    rows = {}
    for seed in seeds:
        scen = ScenarioConfig(n_legit=1400, n_fraud=600, n_devices=10,
                              n_ips=15, camouflage_rate=0.3,
                              cluster_separation=4.0,
                              time_span_seconds=6 * 3600, seed=seed)
        records = generate(scen)
        props = [
            Proposition(name="same_device", field="device", weight=3,
                        window_seconds=3600),
            Proposition(name="same_ip", field="ip", weight=1,
                        window_seconds=3600),
        ]
        graph = build_graph(records, props)
        train_ids, test_ids = split_records(
            records, SplitSpec(kind="fraction", test_fraction=0.7), seed)
        truth = {r.id: r.label for r in records}
        grid = itertools.product(("adaptive", "random"), (True, False),
                                 (True, False))
        for sampling, gate, att in grid:
            key = (sampling, gate, att)
            rows.setdefault(key, []).append(
                run_cell(graph, truth, train_ids, test_ids,
                         sampling, gate, att, seed))

    print(f"{'sampling':>9} {'gate':>5} {'attention':>9}   "
          f"auc by seed        median")
    print("-" * 55)
    ordered = sorted(rows.items(), key=lambda kv: -np.median(kv[1]))
    for (sampling, gate, att), aucs in ordered:
        per_seed = " ".join(f"{a:.4f}" for a in aucs)
        print(f"{sampling:>9} {str(gate).lower():>5} {str(att).lower():>9}"
              f"   {per_seed}      {np.median(aucs):.4f}")
    full = np.median(rows[("adaptive", True, True)])
    bare = np.median(rows[("random", False, False)])
    print(f"\nfull model {full:.4f} vs everything off {bare:.4f} "
          f"(margin {full - bare:+.4f})")
    print(f"elapsed {time.time() - t0:.0f}s for {len(rows) * len(seeds)} runs")


if __name__ == "__main__":
    main()
