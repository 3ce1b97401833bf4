"""The README command session: what a CLI process imports, and
tools/cli_session.py, which times the session one process per command."""

import json
import os
import subprocess
import sys

import fraudgnn

from test_cli import SCENARIO

ROOT = os.path.dirname(os.path.dirname(__file__))
SRC = os.path.dirname(os.path.dirname(fraudgnn.__file__))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_leaves_out_scipy_stats():
    """scipy.stats costs each CLI process about 50 MB and 0.6 s at import."""
    code = ("import fraudgnn.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy.stats' "
            "or m.startswith('scipy.stats.')))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_session_on_a_tiny_scenario(tmp_path):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO)
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "cli_session.py"),
         "--src", SRC, "--scenario", str(scenario)],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert list(result["seconds"]) == ["generate", "build-graph", "train",
                                       "predict", "evaluate"]
    assert result["total_s"] > 0
    manifested = ["data.csv", "graph.txt", "model.ckpt", "loss.csv",
                  "scores.csv", "report.txt", "roc.csv"]
    assert sorted(result["artifacts"]) == sorted(
        manifested + [name + ".manifest" for name in manifested])
    assert all(len(digest) == 64 for digest in result["artifacts"].values())
