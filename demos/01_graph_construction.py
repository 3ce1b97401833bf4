"""Build a transaction multigraph by hand and inspect its edges.

Two records are linked once per matching proposition: same raw field value
and timestamps within the proposition's window. Several propositions can
connect the same pair, which is why the graph is a multigraph; the sampler
later treats the strongest connecting proposition as the pair's weight.
"""

import numpy as np

from fraudgnn.tgraph import (
    Proposition,
    TransactionRecord,
    build_graph,
    max_edge_weight,
)


def banner(title):
    print()
    print(title)
    print("=" * len(title))


def main():
    base = 1_700_000_000
    rows = [
        # id, seconds offset, device, ip, label
        (1, 0, "dev-a", "10.0.0.1", 0),
        (2, 300, "dev-a", "10.0.0.2", 0),
        (3, 600, "dev-b", "10.0.0.2", 1),
        (4, 5_000, "dev-a", "10.0.0.9", 0),  # same device, too late for ip
        (5, 5_200, "dev-b", "10.0.0.2", 1),
    ]
    rng = np.random.default_rng(0)
    records = [
        TransactionRecord(id=rid, attrs=rng.normal(size=3),
                          raw={"device": dev, "ip": ip},
                          timestamp=base + off, label=label)
        for rid, off, dev, ip, label in rows
    ]
    props = [
        Proposition(name="same_device", field="device", weight=2,
                    window_seconds=7200),
        Proposition(name="same_ip", field="ip", weight=1,
                    window_seconds=1800),
    ]

    banner("records")
    for r in records:
        print(f"  id {r.id}  t+{r.timestamp - base:>5}s  "
              f"device={r.raw['device']}  ip={r.raw['ip']}  label={r.label}")

    banner("propositions")
    for k, p in enumerate(props):
        print(f"  [{k}] {p.name}: field={p.field} weight={p.weight} "
              f"window={p.window_seconds}s")

    g = build_graph(records, props)
    # g.edges holds each typed edge once, as (row a, row b, proposition)
    ids = g.node_ids.tolist()
    adjacency = {v: [] for v in ids}
    for a, b, k in g.edges.tolist():
        adjacency[ids[a]].append((ids[b], k))
        adjacency[ids[b]].append((ids[a], k))
    banner("adjacency (neighbor id, proposition index)")
    for v in ids:
        print(f"  node {v}: {sorted(adjacency[v])}")

    banner("what to notice")
    print("  1 and 2 share dev-a inside both windows -> same_device edge.")
    print("  2 and 3 share the ip within 30 min -> same_ip edge.")
    print("  1 and 4 share dev-a: 5000s is inside the 2h device window,")
    print("  but 2 and 5 do not get an ip edge (5200s - 300s > 1800s).")
    print("  3 and 5 share both device and ip windows? ip gap is "
          f"{records[4].timestamp - records[2].timestamp}s, "
          "outside 1800s, so only the device edge remains.")

    banner("pair weights used by the sampler")
    for a, b in [(1, 2), (2, 3), (1, 4)]:
        print(f"  strongest proposition linking {a} and {b}: "
              f"weight {max_edge_weight(g, a, b)}")
    print(f"\n  total nodes {g.n_nodes}, undirected typed edges {g.n_edges}")


if __name__ == "__main__":
    main()
