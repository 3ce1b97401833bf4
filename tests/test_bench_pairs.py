"""tools/bench_pairs.py's summary of paired runs, on synthetic pairs."""

import importlib.util
import mmap
import os
import subprocess
import sys

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                    "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPECS = [{"name": "pipeline_s", "better": "lower"},
         {"name": "test_auc", "better": "higher"}]


def side(values: dict) -> dict:
    return {"result": {"metrics": {k: {"value": v} for k, v in values.items()},
                       "failed": 0, "attempted": 5, "correct": True}}


def pairs(parent: list, change: list) -> list:
    """One pair per value; both metrics read the same numbers."""
    return [{"workload": "w",
             "parent": side({"pipeline_s": p, "test_auc": p}),
             "change": side({"pipeline_s": c, "test_auc": c})}
            for p, c in zip(parent, change)]


def test_wins_follow_each_metrics_direction():
    parent = [1.0 + 0.01 * i for i in range(10)]
    lower = bench_pairs.summarize(
        pairs(parent, [p - 0.5 for p in parent]), SPECS, "w")
    assert lower["pairs"] == 10
    assert lower["pipeline_s"]["change_wins"] == 10
    assert lower["test_auc"]["change_wins"] == 0
    higher = bench_pairs.summarize(
        pairs(parent, [p + 0.5 for p in parent]), SPECS, "w")
    assert higher["pipeline_s"]["change_wins"] == 0
    assert higher["test_auc"]["change_wins"] == 10


def test_ties_count_for_neither_side():
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [p - 0.5 for p in parent[:6]] + parent[6:9] + [parent[9] + 0.5]
    s = bench_pairs.summarize(pairs(parent, change), SPECS, "w")
    for name, wins in (("pipeline_s", 6), ("test_auc", 1)):
        assert s[name]["change_wins"] == wins
        assert s[name]["ties"] == 3


@pytest.mark.parametrize("shift, exceeds", [(0.1, True), (0.04, False),
                                            (0.0, False)])
def test_gap_against_the_parents_iqr(shift, exceeds):
    parent = [1.0 + 0.01 * i for i in range(10)]
    s = bench_pairs.summarize(
        pairs(parent, [p - shift for p in parent]), SPECS, "w")
    quart = s["pipeline_s"]["parent"]
    assert quart["q3"] - quart["q1"] == pytest.approx(0.045)
    for name in ("pipeline_s", "test_auc"):
        assert s[name]["gap_exceeds_parent_iqr"] is exceeds


def test_digest_runs_record_each_sides_auc_per_seed(monkeypatch):
    """Every digest run's held-out AUC lands in digests.test_auc, by side
    and in seed order; a run that printed nothing records None."""
    aucs = {"parent": [0.8, 0.81, 0.82], "change": [0.801, 0.811, None]}

    def fake(cmd, cwd, timeout):
        wl, seed = cmd[-2], int(cmd[-1])
        auc = aucs[cwd][seed]
        if auc is None:
            return 1, None
        return 0, {"digest": [wl, seed], "failures": [], "test_auc": auc}

    monkeypatch.setattr(bench_pairs, "last_json", fake)
    out = bench_pairs.compare_digests({"parent": "parent", "change": "change"},
                                      ["a", "b"], 3)
    assert out["test_auc"] == {"a": aucs, "b": aucs}
    assert out["equal"] == 4
    assert out["mismatches"] == ["a seed 2", "b seed 2"]


def test_auc_deltas_per_seed_with_median_and_minimum():
    """Each seed's AUC delta is change - parent; a seed missing on either
    side is None and left out of the median and the minimum."""
    auc = {"a": {"parent": [0.8, 0.81, 0.82, 0.9],
                 "change": [0.805, 0.79, None, 0.9]},
           "b": {"parent": [None], "change": [0.7]}}
    out = bench_pairs.auc_deltas(auc)
    assert out["a"]["per_seed"] == pytest.approx([0.005, -0.02, None, 0.0])
    assert out["a"]["median"] == pytest.approx(0.0)
    assert out["a"]["min"] == pytest.approx(-0.02)
    assert out["b"] == {"per_seed": [None], "median": None, "min": None}


# Touches each page of a 32 MiB map that may not use huge pages once.
TOUCH_PAGES = """
import mmap
m = mmap.mmap(-1, 32 << 20)
m.madvise(mmap.MADV_NOHUGEPAGE)
m[::mmap.PAGESIZE] = bytes((32 << 20) // mmap.PAGESIZE)
"""


def test_each_run_records_its_childrens_page_faults(monkeypatch):
    """A run's `children` holds the page faults of the processes it waited
    for: one per page that the child touched, at least."""
    def fake(cmd, cwd, timeout):
        subprocess.run([sys.executable, "-c", TOUCH_PAGES], check=True)
        return 0, {"metrics": {}}

    monkeypatch.setattr(bench_pairs, "last_json", fake)
    run = bench_pairs.one_run("unused", "w", 0, 1.0)
    assert run["exit_code"] == 0
    assert run["children"]["minflt"] >= (32 << 20) // mmap.PAGESIZE
    assert list(run["children"]) == ["minflt"]
