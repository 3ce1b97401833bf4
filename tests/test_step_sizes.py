"""tools/step_sizes.py, which times the parts of a training step on the
benchmark's workload shapes, run on the bench's tiny smoke workload."""

import json
import os
import subprocess
import sys

import fraudgnn

ROOT = os.path.dirname(os.path.dirname(__file__))
SRC = os.path.dirname(os.path.dirname(fraudgnn.__file__))


def test_sizes_on_the_tiny_workload():
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "step_sizes.py"),
         "--src", SRC, "--workloads", "tiny", "--repeats", "2"],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["src"] == os.path.abspath(SRC)
    assert result["repeats"] == 2
    (size,) = result["sizes"]
    assert (size["workload"], size["nodes"]) == ("tiny", 200)
    # 60 training nodes in batches of 256, 2 epochs, 2 runs
    assert size["steps"] == 4
    # two layers, head matmul, softmax, slice, pick, loss and 5 parameters
    assert size["tape_tensors"] == 12
    assert all(size[f"{part}_ms"] > 0 for part in ("forward", "backward",
                                                   "adam"))
