"""Time the sampler on the README scenario at the north-star sizes.

    python3 tools/sampler_sizes.py [--src DIR] [--scenario FILE]
                                   [--scales 1,2.5] [--repeats N]

Reads the README's scenario.cfg, props.cfg and run.cfg from README.md's
command-line block, as tools/cli_session.py does. For each --scales
factor, it scales the scenario's legit and fraud records, devices and ips
(1 gives the README's 2k nodes, 2.5 gives 5k), generates the records,
builds the graph and caches its edge scores. It then times, as the median
of --repeats calls each:

- `sampler.sample_layer` at the run's first z_hat, in deterministic top-z
  and in weighted mode, without over-sampled extras;
- `sampler._fraud_extras` on the run's train-split fraud, which train
  computes once per call.

Prints one JSON line: the source tree, the repeats, and per scale the node
and CSR entry counts with the medians in milliseconds.

--src times the package of another source tree (default: this checkout's
src/), for example a parent commit unpacked with `git archive`.
--scenario replaces the README's scenario.cfg with a file, for a quick run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from dataclasses import replace

from cli_session import ROOT, readme_session

MODES = ("deterministic_topz", "weighted_without_replacement")


def median_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1e3, 3)


def time_scale(configs: dict[str, str], scale: float, repeats: int) -> dict:
    # imported here: main puts --src at the head of sys.path first
    from fraudgnn import config, datagen, sampler, tgraph
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in configs.items():
            with open(os.path.join(tmp, name), "w") as f:
                f.write(text)
        scenario = config.load_scenario(os.path.join(tmp, "scenario.cfg"))
        props = config.load_propositions(os.path.join(tmp, "props.cfg"))
        run = config.load_run_config(os.path.join(tmp, "run.cfg"))
    scenario = replace(scenario, **{
        key: round(getattr(scenario, key) * scale)
        for key in ("n_legit", "n_fraud", "n_devices", "n_ips")})
    records = datagen.generate(scenario)
    g = tgraph.build_graph(records, props)
    g.edge_scores  # cached, as train and predict share it
    train_ids, _ = datagen.split_records(records, run.split, run.seed)
    labels = {r.id: r.label for r in records}
    pool = sorted(v for v in train_ids if labels[v] == 1)
    z = run.sampler.z_hat[0]
    layer_ms = {mode: median_ms(
        lambda cfg=replace(run.sampler, mode=mode): sampler.sample_layer(
            g, z, cfg), repeats) for mode in MODES}
    return {"scale": scale, "nodes": g.n_nodes,
            "entries": len(g.csr.ids), "z": z,
            "sample_layer_ms": layer_ms,
            "fraud_extras_ms": median_ms(
                lambda: sampler._fraud_extras(g, run.sampler, pool),
                repeats)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="source tree holding the fraudgnn package")
    ap.add_argument("--scenario", help="scenario.cfg to use instead of the "
                                       "README's")
    ap.add_argument("--scales", default="1,2.5",
                    help="comma-separated factors on the scenario's sizes")
    ap.add_argument("--repeats", type=int, default=15,
                    help="timed calls per median")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "README.md")) as f:
        configs, _ = readme_session(f.read())
    if args.scenario:
        with open(args.scenario) as f:
            configs["scenario.cfg"] = f.read()
    sys.path.insert(0, os.path.abspath(args.src))
    sizes = [time_scale(configs, float(s), args.repeats)
             for s in args.scales.split(",")]
    print(json.dumps({"src": os.path.abspath(args.src),
                      "repeats": args.repeats, "sizes": sizes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
