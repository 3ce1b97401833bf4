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
hidden width of 1.

The six runs that sample at random (weighted or uniform mode) were
re-recorded when those modes became races over hashed per-entry
uniforms; the top-z, interval and gate-off constants did not move.
Eight were re-recorded when the layers moved onto compressed rows, whose
row sums add a row's entries in order; wide-hidden-1, wide-no-attention
and GRAPH_TEXT did not move. The uniform checkpoint was re-recorded when
a training step's matrix products moved onto its receptive rows, which
BLAS may round differently from graph-size products; its scores and
every other constant did not move.

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
        "1b97e7ced465737a2bb1ce50c75fe50156c569c4342310764bf2a352cf499772",
        "5473b39776047938c20767b1b0c8f6b2f739aef88a09d66d3bdc776304372b0b"),
    "weighted_without_replacement": (
        "4c95bdf80b4a088c5032af31f084ddb99ba335824548f84118043f1463854e77",
        "d6075910ae73e20a4de05a4c04c63e780728af676e10c7f74c1943a628d2241e"),
    "uniform": (
        "90c2b7ed8db6e4ddf8ec4411c4bd777526d082d6b284b4f57ad06aa2e1f0c9df",
        "35f549b9cc118e8afcc7d14cce83b8e6197c93c5dfabe7e72d5c806abc76a377"),
}


# same layout; run_variant(sampler mode, **variant settings)
WIDE = {
    "wide-deterministic_topz": (
        "446bae12a86ceffddd8516fc24364e02c2137b439996db3dc5f642449d8eb1e3",
        "31cd355f76ef7c51a51ea7760554a52a2122df6dcbc8908e84964d5a7744cbc8"),
    "wide-weighted_without_replacement": (
        "c0d9c00aa996e069d47dba90823805516f375e2e6bc98cee1ab6b1e42f14b4b9",
        "e035fdf181775102e1d632a31ca35919453d189f9fd75776f8132d4849df1c0c"),
    "wide-uniform": (
        "a6746c8eb4e5455d734a9deace4f42b5f4012369b4e9469aa063fc0c512bb5ba",
        "6d31faaf80321b141008ab9439e3f7220d9160b774dcd19b69548c76d19730e1"),
    "wide-interval": (
        "b44f3f49b713fe96e09e744ccda496f85b0113b4c560d4d0d5bb456a1612084a",
        "0bd7181330007bb0f8f66222893f7b9b681c4b7adb134b1c4f07fce62d3240c9"),
    "wide-no-attention": (
        "efe3d96eb60263c55024924ec3e4e419fd50202a9f1a3abc9b04a1100ff21955",
        "b83e9e788d1a004012039afd51a9b19ba074263cd227571ebea2a818f48399ea"),
    "wide-no-gate": (
        "aabc04151bf6a5691c706aae0c422df748d6ea01dc93dfea414604315a139b08",
        "c4375dadb33a18e226c50dbf9268eec721928def9a2e1a34f692f28d68c9c83f"),
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
