"""Paired parent/change runs of the pipeline benchmark, written as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REV --out BENCH_11.json \
        --what "one line on the change"

Run it from the root of the repository, with nothing else running.

1. Extract the committed files of --parent and of HEAD into fresh
   temporary directories with `git archive`, so both sides
   run committed code only and uncommitted edits stay out.
2. For seeds 0 .. DIGEST_SEEDS - 1 of every workload in BENCHMARK.json,
   run one `perfbench/pipeline.run_once` per side, compare the sha256
   digests of the scores text and of `checkpoint_text`, and record each
   side's held-out AUC per seed (`digests.test_auc`), with the per-seed
   delta (change - parent), its median and its minimum.
3. Run PAIRS alternating pairs of `perfbench/run.py --workload W
   --seed i --seconds SECONDS` per workload: pair i runs seed i, even
   pairs run the parent first and odd pairs the change first. Each run
   records `children.minflt`, the minor page faults of `run.py` and its
   pipeline child (the change of `getrusage(RUSAGE_CHILDREN)` over the
   call). The children's `ru_maxrss` is left out: it is a high-water mark
   over every child waited for so far, so its change reads 0 for a run
   below an earlier peak; `peak_rss_mb` is each run's memory figure.
4. Run one traced run (`--trace 1`) per side and workload, parent first.
5. Write the summary: per workload and end-to-end metric, each side's
   median and quartiles over the pairs, the ratio of the medians, in
   how many pairs the change was better (the metric's `better` direction
   in BENCHMARK.json) or tied, and whether the gap between the medians
   exceeds the parent's interquartile range (q3 - q1). A metric whose gap
   does not is unresolved, whatever its wins.

Exits 1 when a digest differs or a run fails, after writing the file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Fixed by the benchmark rules, not per run: a claim needs at least ten
# pairs, and every run uses the benchmark's own run length.
PAIRS = 10
SECONDS = 58.0
TRACE_SECONDS = 30.0
DIGEST_SEEDS = 10

# Runs inside a checkout: one pipeline repeat, printed as its two digests.
DIGEST_SCRIPT = """
import json, os, sys, tempfile
sys.path.insert(0, "perfbench")
import pipeline, run
from workloads import WORKLOADS
pkg = pipeline.import_package()
wl, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
with tempfile.TemporaryDirectory() as tmp:
    csv_path = os.path.join(tmp, "inputs.csv")
    inputs = run.make_inputs(pkg, wl, seed, csv_path)
    rec = pipeline.run_once(pkg, wl, csv_path, inputs["edges"])
print(json.dumps({"digest": rec["digest"], "failures": rec["failures"],
                  "test_auc": rec["test_auc"]}))
"""


def now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")


def extract(rev: str, into: str) -> str:
    """The committed tree of `rev`, unpacked under `into`; returns its sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    archive = os.path.join(into, "tree.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, sha],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    os.remove(archive)
    return sha


def last_json(cmd: list[str], cwd: str, timeout: float) -> tuple[int, dict | None]:
    """Exit code and the JSON object on the last stdout line of `cmd`."""
    try:
        proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return -1, None
    lines = proc.stdout.splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def compare_digests(dirs: dict, workloads: list[str], seeds: int) -> dict:
    mismatches, failures = [], []
    auc = {wl: {side: [] for side in dirs} for wl in workloads}  # per seed
    for wl in workloads:
        for seed in range(seeds):
            got = {}
            for side, path in dirs.items():
                _, out = last_json([sys.executable, "-c", DIGEST_SCRIPT, wl,
                                    str(seed)], path, timeout=600)
                got[side] = out
                auc[wl][side].append(out and out["test_auc"])
                if out is None or out["failures"]:
                    failures.append(f"{side} {wl} seed {seed}: "
                                    f"{out and out['failures']}")
            same = (None not in got.values()
                    and got["parent"]["digest"] == got["change"]["digest"])
            if not same:
                mismatches.append(f"{wl} seed {seed}")
            print(f"digests {wl} seed {seed}: {'equal' if same else 'differ'}",
                  flush=True)
    equal = len(workloads) * seeds - len(mismatches)
    return {"equal": equal, "compared": len(workloads) * seeds,
            "mismatches": mismatches, "failures": failures, "test_auc": auc}


def auc_deltas(auc: dict) -> dict:
    """Per workload: each digest seed's held-out AUC, change - parent (None
    where a side recorded none), with the median and the minimum."""
    out = {}
    for wl, sides in auc.items():
        delta = [None if p is None or c is None else c - p
                 for p, c in zip(sides["parent"], sides["change"])]
        known = [d for d in delta if d is not None]
        out[wl] = {"per_seed": delta,
                   "median": statistics.median(known) if known else None,
                   "min": min(known, default=None)}
    return out


def one_run(path: str, wl: str, seed: int, seconds: float,
            trace: int = 0) -> dict:
    started = now()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    code, result = last_json(
        [sys.executable, "perfbench/run.py", "--workload", wl,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], path, timeout=seconds + 240)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"started": started, "ended": now(), "exit_code": code,
            "result": result,
            "children": {"minflt": after.ru_minflt - before.ru_minflt}}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(med), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6)}


def summarize(pairs: list[dict], specs: list[dict], wl: str) -> dict:
    runs = [p for p in pairs if p["workload"] == wl]
    ok = [p for p in runs if all(p[s]["result"] for s in ("parent", "change"))]
    out = {"pairs": len(runs)}
    for spec in specs:
        name = spec["name"]
        vals = {s: [p[s]["result"]["metrics"][name]["value"] for p in ok]
                for s in ("parent", "change")}
        if not ok:
            continue
        sign = -1.0 if spec["better"] == "lower" else 1.0
        diffs = [sign * (c - p) for p, c in zip(vals["parent"], vals["change"])]
        med_p = statistics.median(vals["parent"])
        med_c = statistics.median(vals["change"])
        q1_p, q3_p = np.percentile(vals["parent"], [25, 75])
        out[name] = {
            "parent": quartiles(vals["parent"]),
            "change": quartiles(vals["change"]),
            "ratio_of_medians": round(med_c / med_p, 4) if med_p else None,
            "change_wins": sum(d > 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs),
            "gap_exceeds_parent_iqr": bool(abs(med_c - med_p) > q3_p - q1_p),
        }
    for key, field in (("failed_repeats", "failed"),
                       ("attempted_repeats", "attempted")):
        out[key] = {s: sum(p[s]["result"][field] for p in ok)
                    for s in ("parent", "change")}
    out["correct_runs"] = {s: sum(bool(p[s]["result"]
                                       and p[s]["result"]["correct"])
                                  for p in runs)
                           for s in ("parent", "change")}
    return out


def trace_table(runs: dict) -> dict:
    """Per-layer metrics of the traced runs, parent next to change."""
    metrics = {}
    for side, run in runs.items():
        for name, m in ((run["result"] or {}).get("metrics") or {}).items():
            value = m["value"]
            metrics.setdefault(name, {"unit": m["unit"]})[side] = (
                round(value, 5) if isinstance(value, float) else value)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--what", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    specs = bench["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs, shas = {}, {}
        for side, rev in (("parent", args.parent), ("change", "HEAD")):
            dirs[side] = os.path.join(tmp, side)
            os.makedirs(dirs[side])
            shas[side] = extract(rev, dirs[side])

        digests = compare_digests(dirs, workloads, DIGEST_SEEDS)
        for wl, delta in auc_deltas(digests["test_auc"]).items():
            digests["test_auc"][wl]["delta"] = delta
        pairs = []
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for wl in workloads:
                rec = {"pair": i, "seed": i, "workload": wl, "order": order,
                       "seconds": SECONDS}
                for side in order:
                    rec[side] = one_run(dirs[side], wl, i, SECONDS)
                    print(f"pair {i} {wl} {side}: exit "
                          f"{rec[side]['exit_code']}", flush=True)
                pairs.append(rec)
        trace = {"command": "python3 perfbench/run.py --workload W --seed 0 "
                            f"--seconds {TRACE_SECONDS:g} --trace 1",
                 "note": "one traced run per side, parent then change; "
                         "per-layer values are medians over the traced "
                         "repeats"}
        for wl in workloads:
            trace[wl] = trace_table(
                {side: one_run(dirs[side], wl, 0, TRACE_SECONDS, 1)
                 for side in ("parent", "change")})

    result = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {SECONDS:g}",
        "parent_commit": shas["parent"],
        "change_commit": shas["change"],
        "host": f"{os.cpu_count()}-vCPU {platform.machine()} host, "
                f"numpy {np.__version__}, python {platform.python_version()}",
        "pairing": "pair i runs seed i on every workload; even pairs run the "
                   "parent first, odd pairs the change first; runs are "
                   "sequential",
        "digests": digests,
        "summary": {wl: summarize(pairs, specs, wl) for wl in workloads},
        "trace": trace,
        "pairs": pairs,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for wl in workloads:
        d = digests["test_auc"][wl]["delta"]
        print(f"{wl} test_auc change - parent per seed: "
              + " ".join("-" if x is None else f"{x:+.4f}"
                         for x in d["per_seed"])
              + f"; median {d['median']}, min {d['min']}")
        s = result["summary"][wl]
        for spec in specs:
            if spec["name"] in s:
                m = s[spec["name"]]
                print(f"{wl} {spec['name']}: {m['parent']['median']:.6g} -> "
                      f"{m['change']['median']:.6g} ({m['ratio_of_medians']}x, "
                      f"{m['change_wins']}/{s['pairs']} wins, gap "
                      f"{'exceeds' if m['gap_exceeds_parent_iqr'] else 'within'}"
                      " parent IQR)")
    failed_runs = any(p[s]["exit_code"] != 0 or not p[s]["result"]
                      or not p[s]["result"]["correct"]
                      for p in pairs for s in ("parent", "change"))
    ok = not digests["mismatches"] and not digests["failures"] and not failed_runs
    print(f"digests equal {digests['equal']}/{digests['compared']}; "
          f"runs {'all correct' if not failed_runs else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
