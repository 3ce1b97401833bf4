"""The demo scripts run to completion against the current package API.

05_ablation_grid.py is left out: it trains the full ablation grid and takes
minutes.
"""

import os
import subprocess
import sys

import pytest

import fraudgnn

DEMOS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "demos")
SRC = os.path.dirname(os.path.dirname(fraudgnn.__file__))


ADJACENCY_01 = """\
adjacency (neighbor id, proposition index)
==========================================
  node 1: [(2, 0), (4, 0)]
  node 2: [(1, 0), (3, 1), (4, 0)]
  node 3: [(2, 1), (5, 0)]
  node 4: [(1, 0), (2, 0)]
  node 5: [(3, 0)]
"""


def run_demo(script, cwd) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                         cwd=cwd, env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("script", [
    "01_graph_construction.py",
    "02_adaptive_sampling.py",
    "03_attention_and_gate.py",
    "04_train_and_evaluate.py",
])
def test_demo_runs(script, tmp_path):
    assert run_demo(script, tmp_path).strip()


def test_demo_01_adjacency_block_unchanged(tmp_path):
    out = run_demo("01_graph_construction.py", tmp_path)
    assert "\n\n" + ADJACENCY_01 + "\n" in out
