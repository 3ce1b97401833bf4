"""tools/sampler_sizes.py, which times the sampler on the README scenario,
run on a tiny scenario."""

import json
import os
import subprocess
import sys

import fraudgnn

from test_cli import SCENARIO

ROOT = os.path.dirname(os.path.dirname(__file__))
SRC = os.path.dirname(os.path.dirname(fraudgnn.__file__))


def test_sizes_on_a_tiny_scenario(tmp_path):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO)
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "sampler_sizes.py"),
         "--src", SRC, "--scenario", str(scenario), "--scales", "1,2",
         "--repeats", "2"],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["src"] == os.path.abspath(SRC)
    assert result["repeats"] == 2
    small, large = result["sizes"]
    assert (small["scale"], large["scale"]) == (1.0, 2.0)
    assert (small["nodes"], large["nodes"]) == (80, 160)
    assert 0 < small["entries"] < large["entries"]
    for size in (small, large):
        assert size["z"] == 8  # the README run.cfg's z_hat
        assert sorted(size["sample_layer_ms"]) == [
            "deterministic_topz", "weighted_without_replacement"]
        assert all(ms > 0 for ms in size["sample_layer_ms"].values())
        assert size["fraud_extras_ms"] > 0
