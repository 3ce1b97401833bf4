"""Smoke tests of the benchmark harness on the tiny workload.

    python3 -m pytest perfbench
"""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import pipeline
import run
from spans import HOOKS, Tracer, layer_metrics
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _run_harness(trace: int) -> tuple[dict, list[str]]:
    out = subprocess.run(
        [sys.executable, os.path.join(pipeline.HERE, "run.py"),
         "--workload", "tiny", "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(trace, section):
    result, lines = _run_harness(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= pipeline.MIN_REPEATS
    specs = BENCH[section]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"])
        assert any(re.fullmatch(rf"{re.escape(spec['name'])} \S+ "
                                rf"{re.escape(spec['unit'])}", line)
                   for line in lines), spec["name"]


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    pkg = pipeline.import_package()
    csv_path = str(tmp_path_factory.mktemp("tiny") / "tiny.csv")
    stats = run.make_inputs(pkg, WORKLOADS["tiny"], 0, csv_path)
    return pkg, csv_path, stats["edges"]


def test_failed_output_check_raises_failed_frac(tiny_inputs):
    pkg, csv_path, edges = tiny_inputs
    unreachable = replace(WORKLOADS["tiny"], auc_floor=1.01)
    payload = pipeline.run_repeats(pkg, unreachable, csv_path, edges,
                                   seconds=0)
    values = run.summarize(payload, trace=False)
    assert values["failed"] == values["attempted"] >= pipeline.MIN_REPEATS
    assert values["passed_frac"] == 0
    assert not run.report(values, BENCH["end_to_end"])["correct"]
    assert "below floor" in payload["repeats"][0]["failures"][0]


def test_edge_oracle_mismatch_fails_the_run(tiny_inputs):
    pkg, csv_path, edges = tiny_inputs
    payload = pipeline.run_repeats(pkg, WORKLOADS["tiny"], csv_path,
                                   edges + 1, seconds=0)
    assert all("edges" in r["failures"][0] for r in payload["repeats"])


def test_missing_hook_is_reported_not_fatal(tiny_inputs):
    pkg, csv_path, edges = tiny_inputs
    tracer = Tracer()
    tracer.install(HOOKS + (("fraudgnn.sampler", "no_such_function"),))
    try:
        rec = pipeline.run_once(pkg, WORKLOADS["tiny"], csv_path, edges)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["fraudgnn.sampler.no_such_function"]
    assert rec["failures"] == []
    metrics, steps = layer_metrics(tracer, 0, k_layers=2)
    assert metrics["sampler.node_calls"] > 0 and len(steps) > 0
    assert not hasattr(pkg["sampler"].sample_topz, "__wrapped__")


def test_peak_rss_leaves_out_the_parent(tiny_inputs):
    """The parent's memory does not count toward the child's peak_rss_mb."""
    _, csv_path, edges = tiny_inputs
    held = np.ones(300 * 2**20 // 8)  # 300 MB, resident in this process
    out = subprocess.run(
        [sys.executable, os.path.join(pipeline.HERE, "pipeline.py"),
         "--workload", "tiny", "--csv", csv_path,
         "--expect-edges", str(edges), "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert held.sum() == held.size
    peak = json.loads(out.stdout.splitlines()[-1])["peak_rss_mb"]
    assert 0 < peak < 200, peak


def test_workload_whys_record_seed0_inputs(tmp_path):
    """BENCHMARK.json records each workload's seed-0 input and AUC floor."""
    pkg = pipeline.import_package()
    for entry in BENCH["workloads"]:
        wl = WORKLOADS[entry["name"]]
        s = run.make_inputs(pkg, wl, 0, str(tmp_path / "w.csv"))
        expected = (f"seed 0: {s['nodes']} nodes, {s['edges']} edges, "
                    f"mean degree {s['mean_degree']:.1f}, "
                    f"fraud {100 * s['fraud_share']:.1f}%, "
                    f"AUC floor {wl.auc_floor:.2f}")
        assert expected in entry["why"], entry["name"]
