"""The README pipeline, repeated and checked, in a process of its own.

    python3 perfbench/pipeline.py --workload NAME --csv PATH \
        --expect-edges N --seconds S --trace 0|1 [--spans-out PATH]

Each repeat runs datagen.ingest_csv -> tgraph.build_graph -> train.train
-> train.predict (test split, train ids known) -> metrics.evaluate_scores
on the CSV that perfbench/run.py generated, times each stage and checks
the outputs. Repeats continue while the next one is expected to end
within --seconds, with at least MIN_REPEATS. The last line printed is a
JSON payload that run.py turns into metrics. This process never generates
data, and its peak RSS is read from VmHWM, the high-water mark of its own
address space, which starts afresh at exec: the parent's memory does not
count, as it would in getrusage's ru_maxrss.

With --trace 1 the first repeat runs untraced (it gives the untraced
pipeline time for the tracing overhead) and the rest run with every hook
of spans.HOOKS installed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import statistics
import sys
import time
import traceback

import numpy as np

from spans import Tracer, layer_metrics
from workloads import PROPOSITIONS, RUN_SEED, TEST_FRACTION, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MIN_REPEATS = 2  # identical-output checks need two runs of one seed


def import_package():
    """Import fraudgnn from the checkout's src/; raises ImportError if absent."""
    if not os.path.isdir(os.path.join(SRC, "fraudgnn")):
        raise ImportError(f"no fraudgnn package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return {name: importlib.import_module(f"fraudgnn.{name}")
            for name in ("datagen", "tgraph", "model", "sampler", "train",
                         "metrics")}


def propositions(pkg):
    return [pkg["tgraph"].Proposition(name=n, field=f, weight=w,
                                      window_seconds=win)
            for n, f, w, win in PROPOSITIONS]


def train_config(pkg, wl):
    return pkg["train"].TrainConfig(
        model=pkg["model"].ModelConfig(k_layers=2, hidden_dim=8,
                                       tau_seconds=21600),
        sampler=pkg["sampler"].SamplerConfig(z_hat=(8, 8),
                                             mode=wl.sampler_mode,
                                             seed=RUN_SEED),
        split=pkg["datagen"].SplitSpec(kind="fraction",
                                       test_fraction=TEST_FRACTION),
        lr=0.01, batch_size=wl.batch_size, epochs=wl.epochs, seed=RUN_SEED)


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        resident = int(fh.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """Peak RSS of this process's own address space (VmHWM)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def setup(pkg, cfg, csv_path: str):
    """Raw CSV on disk -> built graph: the work setup_s times."""
    t0 = time.perf_counter()
    data = pkg["datagen"].ingest_csv(csv_path, split=cfg.split, seed=RUN_SEED)
    t1 = time.perf_counter()
    rss_before = rss_mb()
    graph = pkg["tgraph"].build_graph(data.records, propositions(pkg))
    t2 = time.perf_counter()
    times = {"ingest_s": t1 - t0, "build_s": t2 - t1, "setup_s": t2 - t0,
             "graph_mb": rss_mb() - rss_before}
    return data, graph, times


def run_once(pkg, wl, csv_path: str, expect_edges: int) -> dict:
    """One timed pipeline run; `failures` lists every output check it failed."""
    train_mod, metrics_mod = pkg["train"], pkg["metrics"]
    cfg = train_config(pkg, wl)
    data, graph, times = setup(pkg, cfg, csv_path)
    t2 = time.perf_counter()
    result = train_mod.train(graph, cfg, train_ids=data.train_ids)
    t3 = time.perf_counter()
    preds = train_mod.predict(graph, result.params, sampler_cfg=cfg.sampler,
                              nodes=data.test_ids, known_ids=data.train_ids,
                              seed=RUN_SEED)
    t4 = time.perf_counter()
    truth = {r.id: r.label for r in data.records}
    p = np.array([x.p_fraud for x in preds], dtype=np.float64)
    report = metrics_mod.evaluate_scores(
        np.array([truth[x.node_id] for x in preds]), p)
    t5 = time.perf_counter()

    failures = []
    if graph.n_edges != expect_edges:
        failures.append(f"graph has {graph.n_edges} edges, "
                        f"the input implies {expect_edges}")
    if [x.node_id for x in preds] != list(data.test_ids):
        failures.append("scores are not exactly one per test node")
    if not (np.all(np.isfinite(p)) and np.all((p >= 0) & (p <= 1))):
        failures.append("scores are not finite values in [0, 1]")
    history = np.asarray(result.loss_history, dtype=np.float64)
    if len(history) != wl.epochs or not np.all(np.isfinite(history)):
        failures.append(f"loss history is not {wl.epochs} finite values")
    if not report.auc >= wl.auc_floor:
        failures.append(f"test AUC {report.auc} below floor {wl.auc_floor}")
    scores_text = "".join(f"{x.node_id},{x.p_fraud!r},{x.label_pred}\n"
                          for x in preds)
    return {
        **times, "train_s": t3 - t2, "predict_s": t4 - t3,
        "evaluate_s": t5 - t4, "pipeline_s": times["setup_s"] + t5 - t2,
        "edges": graph.n_edges,
        "test_auc": float(report.auc),
        "digest": [_sha256(scores_text),
                   _sha256(pkg["model"].checkpoint_text(result.params))],
        "failures": failures,
    }


def run_repeats(pkg, wl, csv_path: str, expect_edges: int, seconds: float,
                tracer=None) -> dict:
    """Repeat the pipeline for about `seconds`; trace all but the first
    repeat when a tracer is given. Returns the payload run.py reads."""
    repeats, layers, step_ms = [], [], []
    start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(repeats) > 0
            if tracer is not None and len(repeats) == 1:
                tracer.install()
            since = len(tracer) if traced else 0
            t = time.perf_counter()
            try:
                rec = run_once(pkg, wl, csv_path, expect_edges)
            except Exception:  # a raising repeat is a failed run, not a crash
                traceback.print_exc()
                rec = {"failures": ["raised: " + traceback.format_exc(limit=1)]}
            rec["traced"] = traced
            rec["wall_s"] = time.perf_counter() - t
            repeats.append(rec)
            if traced:
                metrics, steps = layer_metrics(tracer, since, k_layers=2)
                layers.append(metrics)
                step_ms.extend(steps)
            gc.collect()
            n_needed = MIN_REPEATS + (tracer is not None)
            typical = statistics.median(r["wall_s"] for r in repeats)
            if (len(repeats) >= n_needed
                    and time.perf_counter() - start + typical > seconds):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    reference = next((r["digest"] for r in repeats if "digest" in r), None)
    for r in repeats:
        if "digest" in r and r["digest"] != reference:
            r["failures"].append("outputs differ from the first repeat")
    return {
        "repeats": repeats,
        "layers": layers,
        "step_ms": step_ms,
        "missing_hooks": tracer.missing if tracer is not None else [],
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--csv", required=True)
    ap.add_argument("--expect-edges", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    pkg = import_package()
    tracer = Tracer() if args.trace else None
    payload = run_repeats(pkg, WORKLOADS[args.workload], args.csv,
                          args.expect_edges, args.seconds, tracer)
    if tracer is not None and args.spans_out:
        tracer.save(args.spans_out)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
