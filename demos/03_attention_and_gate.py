"""Look inside one aggregation layer: attention, time damping, and the gate.

The layer scores each sampled neighbor with a shared attention vector,
softmaxes the scores per node, then damps each coefficient by the pair's
transaction time gap. Separately, the label entropy of each neighborhood is
squashed through a batch-normalized sigmoid: mixed neighborhoods (entropy
near ln 2) get a small gate so their aggregated message is shrunk, pure
neighborhoods get a gate near 1 and pass their message through.
"""

import math

import numpy as np

from fraudgnn.datagen import ScenarioConfig, generate
from fraudgnn.model import (
    ModelConfig,
    attention_weights,
    diversity_stats,
    init_params,
    pack_rows,
    time_factors,
    uniform_weights,
)
from fraudgnn.sampler import SamplerConfig, sample_layer
from fraudgnn.tgraph import Proposition, build_graph


def banner(title):
    print()
    print(title)
    print("=" * len(title))


def main():
    scen = ScenarioConfig(n_legit=90, n_fraud=30, n_devices=6, n_ips=8,
                          feature_dim=6, time_span_seconds=4 * 3600, seed=5)
    records = generate(scen)
    props = [
        Proposition(name="same_device", field="device", weight=2,
                    window_seconds=3600),
        Proposition(name="same_ip", field="ip", weight=1,
                    window_seconds=3600),
    ]
    g = build_graph(records, props)
    cfg = ModelConfig(k_layers=1, hidden_dim=8, tau_seconds=1800.0)
    scfg = SamplerConfig(z_hat=(5,), seed=0)
    nb = pack_rows(g, *sample_layer(g, scfg.z_hat[0], scfg))
    labels = g.labels

    banner("neighborhood diversity and the resulting gates")
    stats = diversity_stats(labels, nb)
    order = np.argsort(stats.diversity)
    show = list(order[:3]) + list(order[-3:])
    print(f"  {'row':>4} {'own label':>9} {'nbr labels':>12} "
          f"{'entropy':>8} {'gate':>6}")
    for i in show:
        row = slice(nb.indptr[i], nb.indptr[i + 1])
        nbr_labels = [int(x) for x in labels[nb.nbr[row]]]
        print(f"  {i:>4} {labels[i]:>9} {str(nbr_labels):>12} "
              f"{stats.diversity[i] + 0.0:>8.4f} {stats.gate[i]:>6.3f}")
    print(f"  entropy spans [{stats.diversity.min() + 0.0:.4f}, "
          f"{stats.diversity.max():.4f}]; ln 2 = {math.log(2):.4f}")
    print("  pure neighborhoods sit at 0 and get the largest gates;")
    print("  the most label-mixed rows are shrunk hardest.")

    banner("attention coefficients versus plain averaging")
    params = init_params(scen.feature_dim, cfg, seed=0)
    # one weight per entry of nb, in row order
    alpha = attention_weights(g.features, nb, params.layers[0],
                              cfg).weights.ravel()
    flat = uniform_weights(nb)
    i = int(order[-1])  # the most mixed row
    row = slice(nb.indptr[i], nb.indptr[i + 1])
    print(f"  row {i}: attention {np.round(alpha[row], 3)}")
    print(f"  row {i}: uniform   {np.round(flat[row], 3)}")
    print("  attention rows sum to at most 1; damping eats the rest:")
    print(f"  row sum = {alpha[row].sum():.4f}")

    banner("time damping")
    gaps = nb.dt[row]
    decay = time_factors(nb, cfg)[row]
    interval_cfg = ModelConfig(k_layers=1, hidden_dim=8, tau_seconds=1800.0,
                               time_mode="interval")
    interval = time_factors(nb, interval_cfg)[row]
    print(f"  gaps (s):      {np.round(gaps, 0)}")
    print(f"  decay factor:  {np.round(decay, 3)}   exp(-gap/tau)")
    print(f"  interval mode: {np.round(interval, 3)}   min-max of the gap")
    print("  decay rewards recent interactions; interval mode rescales the")
    print("  gaps so the nearest neighbor gets 0 and the farthest gets 1.")


if __name__ == "__main__":
    main()
