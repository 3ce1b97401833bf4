"""Walk through neighbor selection on a generated fraud scenario.

Every neighbor gets a score: the weight of the strongest proposition
connecting the pair times exp(cosine similarity of the feature vectors).
Normalizing the scores per node gives selection probabilities; the sampler
keeps the top z of them (or draws weighted without replacement), and fraud
nodes can pull in extra lookalike fraud from outside their neighborhood.
"""

from dataclasses import replace

import numpy as np

from fraudgnn.datagen import ScenarioConfig, generate
from fraudgnn.sampler import SamplerConfig, _fraud_extras, sample_layer
from fraudgnn.tgraph import Proposition, build_graph, pair_scores


def banner(title):
    print()
    print(title)
    print("=" * len(title))


def similarities(g, v, others):
    """exp(cosine) of v's features against each of others'."""
    rows = g.rows_of(others)
    return pair_scores(g.unit_features, np.full(len(rows), g.index_of(v)),
                       rows, 1.0)


def picks(g, v, cfg, fraud_pool=()):
    """v's neighbor ids in sample_layer's picks for a layer of cfg.z_hat[0]."""
    src, nbr = sample_layer(g, cfg.z_hat[0], cfg,
                            _fraud_extras(g, cfg, fraud_pool))
    return g.node_ids[nbr[src == g.index_of(v)]].tolist()


def main():
    scen = ScenarioConfig(n_legit=120, n_fraud=40, n_devices=8, n_ips=10,
                          feature_dim=6, time_span_seconds=6 * 3600, seed=11)
    records = generate(scen)
    props = [
        Proposition(name="same_device", field="device", weight=2,
                    window_seconds=3600),
        Proposition(name="same_ip", field="ip", weight=1,
                    window_seconds=3600),
    ]
    g = build_graph(records, props)
    print(f"scenario: {len(records)} records, {g.n_edges} edges")

    # the busiest node makes the nicest table
    v = max(g.node_ids, key=lambda u: len(g.neighbors(u)))
    rec = g.record(v)
    nbrs = g.neighbors(v)
    print(f"focus node {v}: label={rec.label}, {len(nbrs)} neighbors")

    banner("per-neighbor selection probabilities")
    # v's row of the CSR: neighbor ids, strongest edge weights, and the
    # selection probabilities the graph scored once for every edge
    span = g.csr.span(g.index_of(v))
    ids = g.csr.ids[span].tolist()
    probs = dict(zip(ids, g.edge_scores[span].tolist()))
    weights = dict(zip(ids, g.csr.weight[span].tolist()))
    sims = dict(zip(ids, similarities(g, v, ids).tolist()))
    print(f"  {'neighbor':>8} {'weight':>6} {'similarity':>10} {'P':>8}")
    top = sorted(probs, key=lambda u: -probs[u])[:10]
    for u in top:
        print(f"  {u:>8} {weights[u]:>6} {sims[u]:>10.4f} {probs[u]:>8.4f}")
    print(f"  ... ({len(probs)} neighbors total, probabilities sum to "
          f"{sum(probs.values()):.12f})")

    banner("deterministic top-z versus weighted draws")
    cfg = SamplerConfig(z_hat=(6,), seed=0)
    kept = picks(g, v, cfg)
    print(f"  top-6 by probability: {kept}")
    weighted = replace(cfg, mode="weighted_without_replacement")
    draw_a = picks(g, v, weighted)
    draw_b = picks(g, v, weighted)
    print(f"  weighted draw:        {draw_a}")
    print(f"  weighted draw again:  {draw_b}  (same seed, same draw)")
    other_seed = replace(weighted, seed=99)
    print(f"  weighted, new seed:   {picks(g, v, other_seed)}")

    banner("fraud over-sampling")
    fraud = next(u for u in g.node_ids if g.record(u).label == 1
                 and len(g.neighbors(u)) > 0)
    base = picks(g, fraud, cfg)
    pool = [r.id for r in records if r.label == 1]
    extended = picks(g, fraud, cfg, fraud_pool=pool)
    extras = [u for u in extended if u not in base]
    labels = [g.record(u).label for u in extras]
    print(f"  fraud node {fraud}: top-z picks {len(base)} neighbors")
    print(f"  over-sampling appends {len(extras)} non-adjacent lookalikes")
    print(f"  their labels: {labels}  (fraud only, by construction)")
    if extras:
        sims = similarities(g, fraud, extras)
        print(f"  similarity range of extras: "
              f"{sims.min():.3f} .. {sims.max():.3f} "
              f"(floor is {cfg.similarity_floor:.3f})")


if __name__ == "__main__":
    main()
