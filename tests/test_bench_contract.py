"""What perfbench/ needs of the package, checked without editing perfbench/.

The benchmark imports its harness from perfbench/ and calls the package
through it: pipeline.run_once must give the same digests on every repeat,
and the functions named in spans.HOOKS must resolve for the per-layer
metrics to read anything but 0.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import pipeline  # noqa: E402
import run  # noqa: E402
from spans import HOOKS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Hooks of functions that left the package before this contract was written;
# the metrics they feed read 0.
KNOWN_MISSING = [
    "fraudgnn.sampler.sample_neighborhood",
    "fraudgnn.sampler.selection_probabilities",
    "fraudgnn.sampler.sample_topz",
    "fraudgnn.sampler.oversample_fraud",
    "fraudgnn.model.pack_neighborhoods",
]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    pkg = pipeline.import_package()
    csv_path = str(tmp_path_factory.mktemp("bench") / "tiny.csv")
    inputs = run.make_inputs(pkg, WORKLOADS["tiny"], 0, csv_path)
    return pkg, csv_path, inputs["edges"]


def test_run_once_repeats_without_failures(tiny):
    pkg, csv_path, edges = tiny
    first, second = (pipeline.run_once(pkg, WORKLOADS["tiny"], csv_path, edges)
                     for _ in range(2))
    assert first["failures"] == second["failures"] == []
    assert first["digest"] == second["digest"]


def test_hooks_resolve(tiny):
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == KNOWN_MISSING
    assert len(HOOKS) - len(tracer.missing) == 13


def test_traced_run_times_each_layer_of_a_batch(tiny):
    """Mini-batches run the layers on their receptive rows; the layer spans
    must still nest under each batch loss and time both layers."""
    pkg, csv_path, edges = tiny
    tracer = Tracer()
    try:
        tracer.install()
        rec = pipeline.run_once(pkg, WORKLOADS["tiny"], csv_path, edges)
    finally:
        tracer.uninstall()
    assert rec["failures"] == []
    spans = tracer.arrays()
    name_of = dict(zip(spans["id"].tolist(), spans["name"].tolist()))
    parent_of = dict(zip(spans["id"].tolist(), spans["parent"].tolist()))
    batch_loss = tracer.names.index("train.batch_loss")

    def under_batch_loss(name):
        hits = 0
        for sid in spans["id"][spans["name"] == tracer.names.index(name)]:
            sid = parent_of[int(sid)]
            while sid != -1 and name_of[sid] != batch_loss:
                sid = parent_of[sid]
            hits += sid != -1
        return hits

    for name in ("model.forward", "model.layer_forward",
                 "model.attention_weights"):
        assert under_batch_loss(name) > 0, name
    metrics, _ = layer_metrics(tracer, 0, k_layers=2)
    assert metrics["model.layer0.forward_s"] > 0
    assert metrics["model.layer1.forward_s"] > 0
