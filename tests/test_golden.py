"""Golden outputs: a small train + predict must reproduce recorded digests.

A generated scenario of 200 records is trained for 3 epochs and scored,
with fraud over-sampling on, in each sampler mode and with uniform
sampling. The sha256 of the checkpoint text and of the scores text must
equal the constants below, which were recorded before the vectorised
backward scatters and the per-z_hat sampling reuse went in. Any change
that moves a single output bit, in the sampler, the model, the autodiff
or the optimizer, fails here.

The GOLDEN runs sample at most 7 neighbors per node. The WIDE runs
sample up to 12 plus 3 over-sampled extras, so their layers mix rows of
at most 8 entries with wider ones; they cover both sampler modes,
uniform sampling, interval time factors, attention off, gate off and a
hidden width of 1. Their constants were recorded before neighborhoods
were split into width buckets.

The six runs that sample at random (weighted or uniform mode) were
re-recorded when those modes became races over hashed per-entry
uniforms; the top-z, interval and gate-off constants did not move.

GRAPH_TEXT pins serialize_graph on a 400-record scenario with two
propositions, one with a fractional window, sharing one weight. It was
recorded while the graph was still built from per-node Python lists.

The constants are tied to the numpy build and BLAS library they were
recorded with: another BLAS may round a matrix product differently and
change the digests without any change to this package. Re-record them
only together with a change that declares its output change.
"""

import hashlib

import pytest

from fraudgnn.datagen import ScenarioConfig, SplitSpec, generate, split_records
from fraudgnn.model import ModelConfig, checkpoint_text
from fraudgnn.sampler import SamplerConfig
from fraudgnn.tgraph import Proposition, build_graph, serialize_graph
from fraudgnn.train import TrainConfig, predict, train

PROPS = [
    Proposition(name="same_device", field="device", weight=3,
                window_seconds=3600),
    Proposition(name="same_ip", field="ip", weight=1, window_seconds=3600),
]

# (checkpoint sha256, scores sha256) per run variant
GOLDEN = {
    "deterministic_topz": (
        "efebaccb2aba2cc79e3b6d340123f0701eeab6cb86b258858e096294d1099cb8",
        "360b13566a94bcccd2ade456de06d056f4af77b116e16af94e315a73270d65c9"),
    "weighted_without_replacement": (
        "011dea8bb08b761cd5f98508f04a787521a57d721b8f587ec96831d1dd92face",
        "c7f734a98d911d96fc821ecea0e103578c9dcaecf162daa47ec3548d5ec48084"),
    "uniform": (
        "fed1b7039268abbafb707710c362ad8361d9a4704edec766e0599ee042d82fc2",
        "8c017e410f3eda1be50e542897e17a1956c76deb6962632120889f3a456f8e38"),
}


# same layout; run_variant(sampler mode, **variant settings)
WIDE = {
    "wide-deterministic_topz": (
        "9aaf287fa522ff3c7252b83eecf3005760d21cda4fa016d261dbe400a61ecef9",
        "192d4153f7aa174c08896f39c4e984b7feba6442b969277c9a1d1dd11bbc241e"),
    "wide-weighted_without_replacement": (
        "0b405bc6f91d0797890f4b1a0090f216ab7a7a4c97b1656c65784ff4e56e07c6",
        "54b2811c29847b8fc6947fe029e452e8bd0dc3a372f46e2a5f408e851efb73e4"),
    "wide-uniform": (
        "66dd3084eae1145a60bc642d74c1e169d33b4429d6f59915ade146b751ded927",
        "ec429d07c944431c4496ef2b53d8e15988da1b4e903a6e726396759094421ac4"),
    "wide-interval": (
        "ef286817d5297937953a7fec5b96452dbe4b09c9ebe43c9babd0b5e748641b02",
        "a8584e20d514792177dcdf6a41ce9de5151bbf060f8582b40d954fdd59bb4a3d"),
    "wide-no-attention": (
        "efe3d96eb60263c55024924ec3e4e419fd50202a9f1a3abc9b04a1100ff21955",
        "b83e9e788d1a004012039afd51a9b19ba074263cd227571ebea2a818f48399ea"),
    "wide-no-gate": (
        "d85b2fa188fc751f6a0c5b66ca268a32f37ff536e87651342c443c426d6bb1bf",
        "85b943c1c4b2997faa3893aaf518a5c06c51d0e838268b0204c12cc4466a45a3"),
    "wide-hidden-1": (
        "e3875804d6c823c4e18d8892823288da737ba4bceae21d8bbc57cd3b88c47f6e",
        "5839708b6cdb5e216fa96cb807103fd24688c74816aed1e35ec565baa8ccb4e5"),
}

WIDE_SETTINGS = {
    "wide-deterministic_topz": ("deterministic_topz", {}),
    "wide-weighted_without_replacement": ("weighted_without_replacement", {}),
    "wide-uniform": ("uniform", {}),
    "wide-interval": ("deterministic_topz", {"time_mode": "interval"}),
    "wide-no-attention": ("weighted_without_replacement",
                          {"use_attention": False}),
    "wide-no-gate": ("deterministic_topz", {"use_gate": False}),
    "wide-hidden-1": ("weighted_without_replacement",
                      {"hidden_dim": 1, "activation": "tanh"}),
}

GRAPH_TEXT = "45a2a45af72914ce07d548dad64c1620e119a9ba0bfc2d8f211d336cc96cd6d1"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_variant(variant: str, z_hat=(4, 4, 2), **model) -> tuple[str, str]:
    records = generate(ScenarioConfig(
        n_legit=150, n_fraud=50, n_devices=8, n_ips=12, camouflage_rate=0.3,
        feature_dim=6, time_span_seconds=21600, seed=3))
    graph = build_graph(records, PROPS)
    split = SplitSpec(kind="fraction", test_fraction=0.3)
    train_ids, test_ids = split_records(records, split, seed=0)
    cfg = TrainConfig(
        model=ModelConfig(**{"k_layers": 3, "hidden_dim": 6,
                             "tau_seconds": 3600, **model}),
        sampler=SamplerConfig(z_hat=z_hat, oversample_count=3,
                              mode=variant, seed=7),
        split=split, lr=0.01, batch_size=32, epochs=3, seed=5)
    result = train(graph, cfg, train_ids=train_ids)
    preds = predict(graph, result.params, sampler_cfg=cfg.sampler,
                    nodes=test_ids, known_ids=train_ids, seed=cfg.seed)
    scores = "".join(f"{p.node_id},{p.p_fraud!r},{p.label_pred}\n"
                     for p in preds)
    return _sha256(checkpoint_text(result.params)), _sha256(scores)


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_outputs_match_recorded_digests(variant):
    assert run_variant(variant) == GOLDEN[variant]


@pytest.mark.parametrize("variant", sorted(WIDE))
def test_wide_rows_match_recorded_digests(variant):
    mode, model = WIDE_SETTINGS[variant]
    assert run_variant(mode, z_hat=(12, 10, 6), **model) == WIDE[variant]


def test_graph_text_matches_recorded_digest():
    records = generate(ScenarioConfig(
        n_legit=300, n_fraud=100, n_devices=10, n_ips=16,
        camouflage_rate=0.3, feature_dim=4, time_span_seconds=43200,
        seed=11))
    props = [Proposition(name="same_device", field="device", weight=2,
                         window_seconds=899.9),
             Proposition(name="same_ip", field="ip", weight=2,
                         window_seconds=3600)]
    # rows in descending id order, so row order and id order differ
    graph = build_graph(records[::-1], props)
    assert graph.n_edges == 1925
    assert _sha256(serialize_graph(graph)) == GRAPH_TEXT
