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


ATTENTION_03 = """\
neighborhood diversity and the resulting gates
==============================================
   row own label   nbr labels  entropy   gate
     0         1 [1, 1, 1, 1, 1]   0.0000  0.546
     1         0 [0, 0, 0, 0, 0]   0.0000  0.546
     2         0 [0, 0, 0, 0, 0]   0.0000  0.546
    40         0 [0, 0, 1, 0, 0]   0.5004  0.005
    35         0 [0, 0, 0, 1, 0]   0.5004  0.005
     5         0 [0, 1, 0, 0, 0]   0.5004  0.005
  entropy spans [0.0000, 0.5004]; ln 2 = 0.6931
  pure neighborhoods sit at 0 and get the largest gates;
  the most label-mixed rows are shrunk hardest.

attention coefficients versus plain averaging
=============================================
  row 5: attention [0.064 0.084 0.165 0.269 0.153]
  row 5: uniform   [0.2 0.2 0.2 0.2 0.2]
  attention rows sum to at most 1; damping eats the rest:
  row sum = 0.7358

time damping
============
  gaps (s):      [2002.  130.   39.  510.  372.]
  decay factor:  [0.329 0.93  0.979 0.753 0.813]   exp(-gap/tau)
  interval mode: [1.    0.046 0.    0.24  0.17 ]   min-max of the gap
  decay rewards recent interactions; interval mode rescales the
  gaps so the nearest neighbor gets 0 and the farthest gets 1.
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


def test_demo_03_prints_its_pinned_blocks(tmp_path):
    assert run_demo("03_attention_and_gate.py", tmp_path) == "\n" + ATTENTION_03
