"""Golden outputs: a small train + predict must reproduce recorded digests.

A generated scenario of 200 records is trained for 3 epochs and scored,
with fraud over-sampling on, in each sampler mode and with uniform
sampling. The sha256 of the checkpoint text and of the scores text must
equal the constants below, which were recorded before the vectorised
backward scatters and the per-z_hat sampling reuse went in. Any change
that moves a single output bit, in the sampler, the model, the autodiff
or the optimizer, fails here.

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
from fraudgnn.tgraph import Proposition, build_graph
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
        "a5ef23a1ef56c90700d3ac3700a8ab50014ec45edf17d613e4a92fa74987108c",
        "070591c6dac81ec1082e977acce9e24debbcfba5cd5e02b2be3b9cdf6ddcc0d9"),
    "uniform": (
        "307b84e892736876fe9da4f3cf576607469c8cd937fdef86759095de4b94d6a4",
        "f44b87b1a59e39d519cdd847e207862f91af49be49024af6cef9b03afa23f57c"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_variant(variant: str) -> tuple[str, str]:
    records = generate(ScenarioConfig(
        n_legit=150, n_fraud=50, n_devices=8, n_ips=12, camouflage_rate=0.3,
        feature_dim=6, time_span_seconds=21600, seed=3))
    graph = build_graph(records, PROPS)
    split = SplitSpec(kind="fraction", test_fraction=0.3)
    train_ids, test_ids = split_records(records, split, seed=0)
    cfg = TrainConfig(
        model=ModelConfig(k_layers=3, hidden_dim=6, tau_seconds=3600),
        sampler=SamplerConfig(z_hat=(4, 4, 2), oversample_count=3,
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
