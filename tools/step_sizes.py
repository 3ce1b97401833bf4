"""Time the parts of a training step on the benchmark's workload shapes.

    python3 tools/step_sizes.py [--src DIR] [--workloads NAMES]
                                [--repeats N]

For each workload of perfbench/workloads.py (default readme-800 and
sparse-2k), generate its seed-0 records, build the graph with the
benchmark's propositions and run `train.train` --repeats times with the
benchmark's run configuration (perfbench/pipeline.train_config). Every
step is timed in three parts, each wrapped at its module attribute:

- forward: `train.batch_loss`, the forward pass over the batch's
  receptive rows and the loss;
- backward: `nn.backward`;
- adam: `nn.AdamState.step`.

Prints one JSON line: the source tree, the repeats, and per workload the
node count, the steps timed, the median of each part in milliseconds and
the tape of one step: the tensors a backward pass from its loss visits,
parameters included.

--src times the package of another source tree (default: this checkout's
src/), for example a parent commit unpacked with `git archive`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PARTS = ("forward", "backward", "adam")


def tape_size(loss) -> int:
    """Tensors a backward pass from loss visits, the loss included."""
    seen, stack = {id(loss)}, [loss]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def timed(times: list, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - start)
    return wrapper


def time_workload(pkg: dict, nn, name: str, repeats: int) -> dict:
    wl = WORKLOADS[name]
    datagen, tgraph, train = pkg["datagen"], pkg["tgraph"], pkg["train"]
    records = datagen.generate(datagen.ScenarioConfig(
        n_legit=wl.n_legit, n_fraud=wl.n_fraud, n_devices=wl.n_devices,
        n_ips=wl.n_ips, camouflage_rate=0.3,
        time_span_seconds=wl.time_span_seconds, seed=0))
    graph = tgraph.build_graph(records, pipeline.propositions(pkg))
    config = pipeline.train_config(pkg, wl)
    times = {part: [] for part in PARTS}
    tapes = []

    def counted_loss(*args, **kwargs):
        loss = batch_loss(*args, **kwargs)
        if not tapes:
            tapes.append(tape_size(loss))
        return loss

    batch_loss = timed(times["forward"], train.batch_loss)
    saved = (train.batch_loss, nn.backward, nn.AdamState.step)
    train.batch_loss = counted_loss
    nn.backward = timed(times["backward"], nn.backward)
    nn.AdamState.step = timed(times["adam"], nn.AdamState.step)
    try:
        for _ in range(repeats):
            train.train(graph, config)
    finally:
        train.batch_loss, nn.backward, nn.AdamState.step = saved
    return {"workload": name, "nodes": graph.n_nodes,
            "steps": len(times["adam"]), "tape_tensors": tapes[0],
            **{f"{part}_ms": round(statistics.median(times[part]) * 1e3, 4)
               for part in PARTS}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="source tree holding the fraudgnn package")
    ap.add_argument("--workloads", default="readme-800,sparse-2k",
                    help="comma-separated names from perfbench/workloads.py")
    ap.add_argument("--repeats", type=int, default=5,
                    help="training runs per workload, their steps pooled")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    # imported here: the package comes from --src
    pkg = {name: importlib.import_module(f"fraudgnn.{name}")
           for name in ("datagen", "tgraph", "model", "sampler", "train")}
    nn = importlib.import_module("fraudgnn.nn")
    sizes = [time_workload(pkg, nn, name, args.repeats)
             for name in args.workloads.split(",")]
    print(json.dumps({"src": os.path.abspath(args.src),
                      "repeats": args.repeats, "sizes": sizes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
