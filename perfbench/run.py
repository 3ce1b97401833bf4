"""Benchmark of the fraudgnn README pipeline on generated transactions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it needs src/fraudgnn and BENCHMARK.json
there and exits with code 2 without a result when src/fraudgnn is absent.

1. Generate the workload's transactions from --seed with the package's
   generator (perfbench/workloads.py holds the scenarios), write them as
   CSV under .perfbench_out/ and count the edges the propositions imply,
   straight from the records. That count is the oracle the built graph
   must match.
2. Run perfbench/pipeline.py in a child process, which never generates
   data, so its peak RSS is the pipeline's. It repeats the README pipeline
   on the CSV for about --seconds and checks every repeat's outputs. The
   child's BLAS runs on one thread: the model's matrices are small, and
   with a second thread a 6000-record sparse scenario trained 3-10%
   slower in paired runs on a 2-vCPU host.
3. Print the metrics of BENCHMARK.json, one per line with its unit, then
   as the last line one JSON object {"correct", "attempted", "failed",
   "metrics"}. --trace 0 gives the end-to-end metrics, --trace 1 the
   per-layer metrics from a traced run; its spans replace
   .perfbench_out/spans-<workload>.npz.

A repeat counts as failed when it raises, fails an output check or does
not reproduce the first repeat's scores and checkpoint byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import pipeline
from spans import HOOKS
from workloads import PROPOSITIONS, WORKLOADS

ROOT = os.path.dirname(pipeline.HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DEADLINE_S = 175  # a run must end within 180 s


def count_edges(records) -> int:
    """Edges the propositions imply: per proposition, pairs of records with
    equal field value whose timestamps differ by at most the window."""
    ts = np.array([r.timestamp for r in records], dtype=np.int64)
    total = 0
    for _, field, _, window in PROPOSITIONS:
        _, code = np.unique([r.raw[field] for r in records],
                            return_inverse=True)
        # one sorted key per record; buckets sit far enough apart that a
        # window never spans two of them
        gap = int(ts.max() - ts.min()) + window + 1
        key = np.sort(code.astype(np.int64) * gap + (ts - ts.min()))
        first = np.searchsorted(key, key - window, side="left")
        total += int((np.arange(len(key)) - first).sum())
    return total


def make_inputs(pkg, wl, seed: int, csv_path: str) -> dict:
    datagen = pkg["datagen"]
    records = datagen.generate(datagen.ScenarioConfig(
        n_legit=wl.n_legit, n_fraud=wl.n_fraud, n_devices=wl.n_devices,
        n_ips=wl.n_ips, camouflage_rate=0.3,  # the README scenario's
        time_span_seconds=wl.time_span_seconds, seed=seed))
    datagen.write_csv(records, csv_path)
    edges = count_edges(records)
    return {"nodes": len(records), "edges": edges,
            "mean_degree": 2 * edges / len(records),
            "fraud_share": sum(r.label == 1 for r in records) / len(records)}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def summarize(payload: dict, trace: bool) -> dict:
    """Metric values by name from the child's payload."""
    repeats = payload["repeats"]
    done = [r for r in repeats if "pipeline_s" in r]
    failed = sum(1 for r in repeats if r["failures"])
    out = {"attempted": len(repeats), "failed": failed}
    if not trace:
        for name in ("setup_s", "train_s", "predict_s", "pipeline_s",
                     "test_auc"):
            out[name] = _median(r[name] for r in done)
        out["peak_rss_mb"] = payload["peak_rss_mb"]
        out["passed_frac"] = (len(repeats) - failed) / len(repeats)
        return out

    layers = payload["layers"]
    for name in (layers[0] if layers else {}):
        out[name] = _median(m[name] for m in layers)
    traced = [r for r in done if r["traced"]]
    untraced = [r for r in done if not r["traced"]]
    build_s = out.get("tgraph.build_s", 0.0)
    edges = done[0]["edges"] if done else 0
    steps = payload["step_ms"]
    p50, p90 = np.percentile(steps, [50, 90]) if steps else (0.0, 0.0)
    out.update({
        "tgraph.edges": edges,
        "tgraph.edges_per_s": edges / build_s if build_s else 0.0,
        # the first build of the process: later ones reuse freed memory
        "tgraph.graph_mb": repeats[0].get("graph_mb", 0.0),
        "train.step_ms_p50": float(p50),
        "train.step_ms_p90": float(p90),
        "train.step_samples": len(steps),
        "trace.overhead_s": (_median(r["pipeline_s"] for r in traced)
                             - _median(r["pipeline_s"] for r in untraced)),
        "trace.hooks": len(HOOKS) - len(payload["missing_hooks"]),
    })
    return out


def report(values: dict, specs: list[dict]) -> dict:
    """The result object for the metrics named in `specs`."""
    return {
        "correct": values["failed"] == 0,
        "attempted": values["attempted"],
        "failed": values["failed"],
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    try:
        pkg = pipeline.import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = bench["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    csv_path = os.path.join(
        OUT_DIR, f"inputs-{wl.name}-seed{args.seed}-{os.getpid()}.csv")
    try:
        inputs = make_inputs(pkg, wl, args.seed, csv_path)
        print("input: " + " ".join(f"{k}={v:.6g}" for k, v in inputs.items()))
        cmd = [sys.executable, os.path.join(pipeline.HERE, "pipeline.py"),
               "--workload", wl.name, "--csv", csv_path,
               "--expect-edges", str(inputs["edges"]),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans-out", os.path.join(OUT_DIR, f"spans-{wl.name}.npz")]
        try:
            child = subprocess.run(
                cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                     "OMP_NUM_THREADS": "1"},
                timeout=DEADLINE_S - (time.monotonic() - started))
        except subprocess.TimeoutExpired:
            print("error: pipeline did not finish in time", file=sys.stderr)
            return 1
    finally:
        if os.path.exists(csv_path):
            os.remove(csv_path)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: pipeline exited with code {child.returncode}",
              file=sys.stderr)
        return 1
    payload = json.loads(lines[-1])

    for i, r in enumerate(payload["repeats"]):
        times = " ".join(f"{k}={r[k]:.4f}" for k in
                         ("setup_s", "train_s", "predict_s", "pipeline_s")
                         if k in r)
        print(f"repeat {i}{' traced' if r['traced'] else ''}: {times}"
              + "".join(f"\n  FAILED: {f}" for f in r["failures"]))
    for name in payload["missing_hooks"]:
        print(f"missing hook: {name} (its metrics read 0)")
    result = report(summarize(payload, bool(args.trace)), specs)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
