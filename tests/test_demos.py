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


@pytest.mark.parametrize("script", [
    "01_graph_construction.py",
    "02_adaptive_sampling.py",
    "03_attention_and_gate.py",
    "04_train_and_evaluate.py",
])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
