"""Training loop behavior: losses, determinism, failure modes, inference."""

import importlib
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fraudgnn import model as model_mod, nn, sampler as sampler_mod, tgraph
from fraudgnn.datagen import ScenarioConfig, generate
from fraudgnn.errors import (CheckpointError, ConfigError, InputError,
                              TrainError)
from fraudgnn.model import (ACTIVATIONS, TIME_MODES, ModelConfig,
                            checkpoint_text, init_params, receptive_rows)
from fraudgnn.sampler import SamplerConfig, _fraud_extras, combine_seed
from fraudgnn.tgraph import Proposition, TransactionRecord, build_graph
from fraudgnn.train import (TrainConfig, _gates_for, _sample_layers,
                            batch_loss, predict, train)

from conftest import make_two_cluster_records
from reference import (full_graph_batch_loss, loop_sample_layers,
                       race_uniform_neighborhoods, rectangle)

# the package's train function shadows the module's name
train_mod = importlib.import_module("fraudgnn.train")


def cluster_graph(n=20, noise=0.05, seed=0):
    records = make_two_cluster_records(n, noise=noise, seed=seed)
    props = [Proposition(name="dev", field="device", window_seconds=10**6)]
    return build_graph(records, props)


def assert_same_layer(got, want):
    assert_array_equal(rectangle(got).idx, rectangle(want).idx)
    assert_array_equal(rectangle(got).mask, rectangle(want).mask)
    assert_array_equal(rectangle(got).dt, rectangle(want).dt)


def small_config(epochs=30, k=2, z=4, **kw):
    model_kw = kw.pop("model_kw", {})
    kw.setdefault("lr", 0.05)
    kw.setdefault("batch_size", 64)
    return TrainConfig(
        model=ModelConfig(k_layers=k, hidden_dim=8, **model_kw),
        sampler=SamplerConfig(z_hat=(z,) * k),
        epochs=epochs, **kw)


def bce_loss(y, p) -> float:
    """The trainer's loss on label and probability lists."""
    col = np.asarray(p, dtype=np.float64).reshape(-1, 1)
    return nn.bce(col, y).value


class TestBceLoss:
    def test_confident_correct(self):
        assert_allclose(bce_loss([1.0], [0.99]), -math.log(0.99), rtol=1e-12)
        assert_allclose(bce_loss([1.0], [0.99]), 0.01005, atol=5e-6)

    def test_coin_flip_is_ln2(self):
        assert_allclose(bce_loss([1.0, 0.0], [0.5, 0.5]), math.log(2.0),
                        rtol=1e-15)

    def test_perfect_prediction_clamps_finite(self):
        v = bce_loss([1.0, 0.0], [1.0, 0.0])
        assert 0.0 < v < 1e-6

    def test_worst_case_clamps_finite(self):
        v = bce_loss([1.0], [0.0])
        assert np.isfinite(v)
        assert_allclose(v, -math.log(1e-7), rtol=1e-9)


class TestTrainConfig:
    def test_z_hat_must_match_layers(self):
        with pytest.raises(ConfigError, match="z_hat"):
            TrainConfig(model=ModelConfig(k_layers=3),
                        sampler=SamplerConfig(z_hat=(5, 5)))

    def test_bad_lr(self):
        with pytest.raises(ConfigError, match="lr"):
            small_config(lr=0.0)

    @pytest.mark.parametrize("lr", [math.inf, -math.inf, math.nan])
    def test_non_finite_lr(self, lr):
        """lr = inf trained a whole epoch of NaN updates before failing."""
        with pytest.raises(ConfigError, match="lr must be finite"):
            TrainConfig(lr=lr)

    def test_bad_batch_size(self):
        with pytest.raises(ConfigError, match="batch_size"):
            small_config(batch_size=0)

    def test_negative_epochs(self):
        with pytest.raises(ConfigError, match="epochs"):
            small_config(epochs=-1)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            small_config(seed=-1)


class TestTrainLoop:
    def test_loss_decreases_on_separable_data(self):
        g = cluster_graph()
        result = train(g, small_config(epochs=40), train_ids=list(range(20)))
        assert len(result.loss_history) == 40
        assert result.loss_history[-1] < result.loss_history[0]

    def test_separable_data_reaches_full_accuracy(self):
        """Two orthogonal clusters: perfect training accuracy within budget."""
        g = cluster_graph()
        result = train(g, small_config(epochs=200), train_ids=list(range(20)))
        assert result.loss_history[-1] < 0.1
        preds = predict(g, result.params, SamplerConfig(z_hat=(4, 4)),
                        known_ids=result.train_ids)
        labels = {r.id: r.label for r in g.records}
        correct = sum(p.label_pred == labels[p.node_id] for p in preds)
        assert correct == 20

    def test_zero_epochs_returns_initial_params(self):
        g = cluster_graph()
        cfg = small_config(epochs=0)
        result = train(g, cfg, train_ids=list(range(20)))
        assert result.loss_history == []
        fresh = init_params(4, cfg.model, cfg.seed)
        for a, b in zip(result.params.parameters(), fresh.parameters()):
            assert_array_equal(a, b)

    def test_single_class_training_split(self):
        g = cluster_graph()
        with pytest.raises(TrainError, match="both classes"):
            train(g, small_config(epochs=1), train_ids=[0, 2, 4])

    def test_empty_training_split(self):
        g = cluster_graph()
        with pytest.raises(TrainError, match="empty"):
            train(g, small_config(epochs=1), train_ids=[])

    def test_repeated_training_id(self):
        # a repeated id would repeat its over-sampled extras, and
        # the head's vjp, which assigns the rows' gradients, would keep
        # one of its batch rows' gradients
        g = cluster_graph()
        with pytest.raises(TrainError, match="repeats id 2"):
            train(g, small_config(epochs=1), train_ids=[0, 1, 2, 3, 2])

    def test_unlabeled_training_record(self):
        records = make_two_cluster_records(10)
        records[3] = TransactionRecord(id=3, attrs=records[3].attrs,
                                       raw=records[3].raw,
                                       timestamp=records[3].timestamp,
                                       label=-1)
        g = build_graph(records, [Proposition(name="dev", field="device",
                                              window_seconds=10**6)])
        with pytest.raises(TrainError, match="unlabeled"):
            train(g, small_config(epochs=1), train_ids=list(range(10)))

    def test_nan_features_surface_as_train_error(self):
        records = make_two_cluster_records(10)
        bad = records[0].attrs.copy()
        bad[0] = np.nan
        records[0] = TransactionRecord(id=0, attrs=bad, raw=records[0].raw,
                                       timestamp=records[0].timestamp, label=0)
        g = build_graph(records, [Proposition(name="dev", field="device",
                                              window_seconds=10**6)])
        with pytest.raises(TrainError, match="non-finite"):
            with np.errstate(invalid="ignore"):
                train(g, small_config(epochs=1), train_ids=list(range(10)))

    def test_unknown_train_id(self):
        with pytest.raises(InputError, match="unknown node id 99999"):
            train(cluster_graph(), small_config(epochs=1),
                  train_ids=[0, 1, 99999])

    def test_each_step_frees_the_previous_tape(self, monkeypatch):
        """A step's stages, and the arrays their vjps hold, are gone before
        the next step's forward builds its own."""
        vjps = []  # weak references to each step's stage vjps
        traced_loss = batch_loss

        def spy(*args):
            assert all(ref() is None for ref in vjps)
            loss = traced_loss(*args)
            vjps.extend(weakref.ref(vjp) for vjp, _ in loss.stages)
            return loss

        monkeypatch.setattr(train_mod, "batch_loss", spy)
        train(cluster_graph(), small_config(epochs=2, batch_size=8),
              train_ids=list(range(20)))
        assert len(vjps) == 6 * 4

    def test_train_ids_echoed_sorted(self):
        g = cluster_graph()
        result = train(g, small_config(epochs=1), train_ids=[9, 0, 3, 1, 2, 5])
        assert result.train_ids == [0, 1, 2, 3, 5, 9]


class TestDeterminism:
    def test_same_seed_same_history_and_weights(self):
        g = cluster_graph()
        runs = []
        for _ in range(2):
            cfg = small_config(epochs=8, seed=123)
            runs.append(train(g, cfg, train_ids=list(range(20))))
        assert runs[0].loss_history == runs[1].loss_history
        assert checkpoint_text(runs[0].params) == checkpoint_text(runs[1].params)

    def test_different_seed_differs(self):
        g = cluster_graph()
        a = train(g, small_config(epochs=3, seed=1), train_ids=list(range(20)))
        b = train(g, small_config(epochs=3, seed=2), train_ids=list(range(20)))
        assert a.loss_history != b.loss_history

    def test_weighted_sampling_mode_still_reproducible(self):
        g = cluster_graph()

        def run():
            cfg = TrainConfig(
                model=ModelConfig(k_layers=2, hidden_dim=8),
                sampler=SamplerConfig(z_hat=(3, 3),
                                      mode="weighted_without_replacement",
                                      seed=5),
                epochs=4, lr=0.05, seed=5)
            return train(g, cfg, train_ids=list(range(20))).loss_history

        assert run() == run()


class TestWeightedModeLayers:
    """The weighted sampler's stream is keyed by (seed, node), not layer."""

    def layers(self, epoch, z_hat=(4, 4)):
        g = cluster_graph()
        cfg = small_config(k=len(z_hat))
        cfg.sampler = SamplerConfig(z_hat=z_hat,
                                    mode="weighted_without_replacement")
        return _sample_layers(g, cfg.sampler, epoch)

    def test_equal_z_hat_layers_draw_identical_neighborhoods(self):
        first, second = self.layers(epoch=1)
        assert_array_equal(rectangle(first).idx, rectangle(second).idx)
        assert_array_equal(rectangle(first).mask, rectangle(second).mask)
        # 9 neighbors each, so a draw of 4 is a real choice
        assert rectangle(first).mask.sum(axis=1).tolist() == [4] * 20

    def test_epoch_salt_changes_the_draw(self):
        one, two = self.layers(epoch=1)[0], self.layers(epoch=2)[0]
        assert not np.array_equal(rectangle(one).idx, rectangle(two).idx)


class TestDistinctZSampledOnce:
    """Layers with equal z_hat share one sampling pass; the shared result is
    what sampling every layer on its own gives."""

    @pytest.fixture(scope="class")
    def scenario(self):
        records = generate(ScenarioConfig(
            n_legit=90, n_fraud=30, n_devices=4, n_ips=8, camouflage_rate=0.3,
            time_span_seconds=21600, seed=2))
        g = build_graph(records, [
            Proposition(name="dev", field="device", weight=2,
                        window_seconds=3600),
            Proposition(name="ip", field="ip", window_seconds=3600)])
        pool = sorted(r.id for r in records if r.label == 1)[::2]
        return g, pool, g.edge_scores

    @pytest.mark.parametrize("mode", ["deterministic_topz",
                                      "weighted_without_replacement"])
    def test_layers_share_per_z(self, scenario, mode, monkeypatch):
        g, pool, scores = scenario
        cfg = small_config(k=3)
        cfg.sampler = SamplerConfig(z_hat=(8, 8, 4), oversample_count=3,
                                    mode=mode, seed=9)
        calls = []  # the z of every whole-layer sampling call
        real = sampler_mod.sample_layer

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(sampler_mod, "sample_layer", counting)
        layers = _sample_layers(g, cfg.sampler, 3,
                                _fraud_extras(g, cfg.sampler, pool))
        monkeypatch.undo()
        assert calls == [8, 4]
        assert layers[0] is layers[1]
        assert layers[2] is not layers[0]
        expected = loop_sample_layers(g, cfg.sampler, 3, pool, scores)
        for got, want in zip(layers, expected):
            assert_same_layer(got, want)
        # not a trivial case: fraud extras widen rows past z = 8, and
        # layer 2's z = 4 keeps fewer neighbors
        widths = [rectangle(nb).mask.sum(axis=1) for nb in layers]
        assert widths[0].max() > 8
        assert widths[2].max() < widths[0].max()


def camouflage_scenario():
    """120 generated records whose fraud nodes are not all adjacent, so
    fraud over-sampling has non-neighbors to add; half the fraud pooled."""
    records = generate(ScenarioConfig(
        n_legit=90, n_fraud=30, n_devices=4, n_ips=8, camouflage_rate=0.3,
        time_span_seconds=21600, seed=2))
    g = build_graph(records, [
        Proposition(name="dev", field="device", weight=2, window_seconds=3600),
        Proposition(name="ip", field="ip", window_seconds=3600)])
    return g, sorted(r.id for r in records if r.label == 1)[::2]


class TestUniformMode:
    """mode="uniform": the uniform race keyed by the sampler seed, salted
    by epoch, one pass per distinct z_hat as in the adaptive modes."""

    def test_layers_match_the_reference_draws(self):
        g, pool = camouflage_scenario()
        cfg = small_config(k=3, seed=11)
        cfg.sampler = SamplerConfig(z_hat=(4, 4, 2), mode="uniform", seed=99)
        layers = _sample_layers(g, cfg.sampler, 3,
                                _fraud_extras(g, cfg.sampler, pool))
        for k, got in enumerate(layers):
            assert_same_layer(got, race_uniform_neighborhoods(
                g, cfg.sampler.z_hat[k], combine_seed(99, 3)))
        # pooled fraud gets no extras, and equal z_hat layers share a pass
        assert rectangle(layers[0]).mask.sum(axis=1).max() == 4
        assert layers[0] is layers[1]

    def test_sampler_seed_keys_predict_draws(self):
        """The sampler seed keys the draws; predict's seed argument only
        seeds a default sampler config, so it leaves a given one alone."""
        g, _ = camouflage_scenario()
        cfg = small_config(epochs=2, seed=4)
        cfg.sampler = SamplerConfig(z_hat=(4, 4), mode="uniform")
        result = train(g, cfg)
        other = replace(cfg.sampler, seed=5)

        def scores(sampler_cfg, seed=0):
            return [p.p_fraud for p in predict(g, result.params, sampler_cfg,
                                               seed=seed)]

        assert scores(cfg.sampler, seed=4) == scores(cfg.sampler, seed=5)
        assert scores(other) == scores(other)
        assert scores(cfg.sampler) != scores(other)


Z = 3  # layer sizes (Z, Z + 1) in TestLayerPassEdgeCases


def edge_case_graph():
    """Device groups sized so rows have exactly Z and Z + 1 neighbors, two
    isolated fraud records, a group whose records repeat two feature rows
    (exactly tied scores), and ids that do not follow row order."""
    rng = np.random.default_rng(7)
    sizes = [Z + 1, Z + 2, 1, 1, Z + 3]
    ids = rng.permutation(200)[:sum(sizes)] * 3 + 5
    tied = rng.uniform(0.1, 1, size=(2, 3))
    records, row = [], 0
    for group, size in enumerate(sizes):
        for j in range(size):
            records.append(TransactionRecord(
                id=int(ids[row]), raw={"device": f"d{group}"},
                attrs=tied[j % 2] if group == 4 else rng.uniform(0.1, 1, 3),
                timestamp=int(rng.integers(0, 5000)),
                label=int(row % 3 == 0 or group in (2, 3))))
            row += 1
    g = build_graph(records, [Proposition(name="dev", field="device",
                                          weight=2, window_seconds=10**6)])
    return g, records


class TestLayerPassEdgeCases:
    """_sample_layers, one pass per layer over the CSR, against the per-node
    samplers (reference.loop_sample_layers) and uniform oracle, exactly."""

    @pytest.mark.parametrize("mode", ["deterministic_topz",
                                      "weighted_without_replacement"])
    @pytest.mark.parametrize("case", ["fraud_pool", "count_above_pool",
                                      "floor_excludes_all", "legit_pooled"])
    def test_adaptive_layers_match_per_node_samplers(self, mode, case):
        g, records = edge_case_graph()
        fraud = [r.id for r in records if r.label == 1]
        legit = [r.id for r in records if r.label == 0]
        pool = fraud[1:] + legit[:3] if case == "legit_pooled" else fraud[1:]
        cfg = small_config(k=2, seed=3)
        cfg.sampler = SamplerConfig(
            z_hat=(Z, Z + 1), mode=mode, seed=8,
            oversample_count=50 if case == "count_above_pool" else 2,
            similarity_floor=3.0 if case == "floor_excludes_all" else 1.0)
        got = _sample_layers(g, cfg.sampler, 2,
                             _fraud_extras(g, cfg.sampler, pool))
        want = loop_sample_layers(g, cfg.sampler, 2, pool, None)
        for a, b in zip(got, want):
            assert_same_layer(a, b)
        widths = rectangle(got[0]).mask.sum(axis=1)
        degrees = np.diff(g.csr.indptr)
        assert {Z, Z + 1, 0} <= set(degrees.tolist())
        if case == "floor_excludes_all":
            assert widths.max() == Z
        else:  # pooled fraud, the isolated ones too, gain extras
            assert widths.max() > Z and widths[degrees == 0].max() > 0
        if case == "count_above_pool":  # more extras than a count of 2 gives
            assert widths.max() > Z + 1 + 2

    def test_uniform_layers_match_the_reference_draws(self):
        g, records = edge_case_graph()
        cfg = small_config(k=2, seed=5)
        cfg.sampler = SamplerConfig(z_hat=(Z, Z + 1), mode="uniform", seed=6)
        pool = [r.id for r in records if r.label == 1]
        extras = _fraud_extras(g, cfg.sampler, pool)
        for k, got in enumerate(_sample_layers(g, cfg.sampler, 4, extras)):
            assert_same_layer(got, race_uniform_neighborhoods(
                g, cfg.sampler.z_hat[k], combine_seed(6, 4)))


class TestScoresOncePerGraph:
    def test_train_and_predict_share_one_scoring(self, monkeypatch):
        """Weighted mode resamples every epoch and again in predict; the
        graph's edges are scored once for all of it."""
        calls = []
        real = tgraph.pair_scores

        def counting(*args):
            calls.append(len(args[1]))
            return real(*args)

        monkeypatch.setattr(tgraph, "pair_scores", counting)
        g, _ = camouflage_scenario()
        cfg = small_config(epochs=3)
        cfg.sampler = SamplerConfig(z_hat=(4, 4), oversample_count=3,
                                    mode="weighted_without_replacement")
        result = train(g, cfg)
        predict(g, result.params, cfg.sampler, known_ids=result.train_ids)
        assert calls == [len(g.csr.ids)]
        other, _ = camouflage_scenario()
        predict(other, result.params, cfg.sampler)
        assert len(calls) == 2
        assert other.edge_scores is not g.edge_scores
        assert_array_equal(other.edge_scores, g.edge_scores)

    def test_fraud_extras_once_per_train(self, monkeypatch):
        """The over-sampled pairs read no seed, epoch or z, so a weighted
        train that resamples every epoch computes them once."""
        calls = []
        real = sampler_mod._fraud_extras

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(sampler_mod, "_fraud_extras", counting)
        g, _ = camouflage_scenario()
        cfg = small_config(epochs=3)
        cfg.sampler = SamplerConfig(z_hat=(4, 4), oversample_count=3,
                                    mode="weighted_without_replacement")
        train(g, cfg)
        assert len(calls) == 1


class TestPredict:
    def make_trained(self, epochs=60):
        g = cluster_graph()
        result = train(g, small_config(epochs=epochs), train_ids=list(range(20)))
        return g, result

    def test_zero_head_scores_half(self):
        g = cluster_graph()
        cfg = small_config(epochs=0)
        params = init_params(4, cfg.model, 0)
        params.head = np.zeros((8, 2))
        preds = predict(g, params, SamplerConfig(z_hat=(4, 4)))
        assert all(p.p_fraud == 0.5 for p in preds)
        assert all(p.label_pred == 1 for p in preds)

    def test_deterministic(self):
        g, result = self.make_trained(epochs=5)
        a = predict(g, result.params, known_ids=result.train_ids)
        b = predict(g, result.params, known_ids=result.train_ids)
        assert [(p.node_id, p.p_fraud) for p in a] == \
               [(p.node_id, p.p_fraud) for p in b]

    def test_nodes_subset_and_order(self):
        g, result = self.make_trained(epochs=3)
        preds = predict(g, result.params, nodes=[7, 2, 11])
        assert [p.node_id for p in preds] == [7, 2, 11]

    def test_unknown_node(self):
        g, result = self.make_trained(epochs=1)
        with pytest.raises(InputError, match="unknown node id 99999"):
            predict(g, result.params, nodes=[7, 99999])

    def test_unknown_known_id(self):
        g, result = self.make_trained(epochs=1)
        with pytest.raises(InputError, match="unknown node id 99999"):
            predict(g, result.params, known_ids=[0, 99999])

    def test_known_id_must_have_label(self):
        records = make_two_cluster_records(10)
        records[4] = TransactionRecord(id=4, attrs=records[4].attrs,
                                       raw=records[4].raw,
                                       timestamp=records[4].timestamp,
                                       label=-1)
        g = build_graph(records, [Proposition(name="dev", field="device",
                                              window_seconds=10**6)])
        cfg = small_config(epochs=0)
        params = init_params(4, cfg.model, 0)
        with pytest.raises(TrainError, match="known id 4"):
            predict(g, params, SamplerConfig(z_hat=(4, 4)), known_ids=[4])

    def test_feature_width_mismatch(self):
        _, result = self.make_trained(epochs=1)
        records = make_two_cluster_records(10, dim=6)
        g6 = build_graph(records, [Proposition(name="dev", field="device",
                                               window_seconds=10**6)])
        with pytest.raises(CheckpointError, match="width 6"):
            predict(g6, result.params)

    def test_z_hat_must_match_the_checkpoints_layers(self):
        g = cluster_graph()
        params = init_params(4, small_config(epochs=0).model, 0)
        with pytest.raises(ConfigError, match="z_hat has 3 entries"):
            predict(g, params, SamplerConfig(z_hat=(4, 4, 4)))

    def test_gate_off_single_pass(self):
        """Without the gate the label bootstrap is skipped entirely."""
        g = cluster_graph()
        cfg = small_config(epochs=5, model_kw={"use_gate": False})
        result = train(g, cfg, train_ids=list(range(20)))
        preds = predict(g, result.params, SamplerConfig(z_hat=(4, 4)))
        assert len(preds) == 20
        assert all(0.0 < p.p_fraud < 1.0 for p in preds)

    def test_oversample_count_does_not_reach_predict(self):
        """predict over-samples no node, whatever the sampler config says."""
        g, pool = camouflage_scenario()
        cfg = small_config(epochs=2)
        cfg.sampler = SamplerConfig(z_hat=(4, 4), oversample_count=5)
        # the same config does widen pooled fraud rows in training
        extras = _fraud_extras(g, cfg.sampler, pool)
        widths = rectangle(
            _sample_layers(g, cfg.sampler, 1, extras)[0]).mask.sum(1)
        assert widths.max() > 4
        result = train(g, cfg)
        scores = [[p.p_fraud for p in predict(
            g, result.params, SamplerConfig(z_hat=(4, 4), oversample_count=n),
            known_ids=result.train_ids)] for n in (0, 5, 50)]
        assert scores[0] == scores[1] == scores[2]

    def test_inference_passes_record_no_tape(self, monkeypatch):
        """train's epoch-end pass and both of predict's passes collect no
        stages, and the trained parameters are plain arrays."""
        passes = []
        traced_forward = model_mod.forward

        def spy(params, features, neighborhoods, gates, rows=None,
                stages=None):
            if rows is None:
                passes.append(stages)
            return traced_forward(params, features, neighborhoods, gates,
                                  rows, stages)

        monkeypatch.setattr(model_mod, "forward", spy)
        g = cluster_graph()
        result = train(g, small_config(epochs=3), train_ids=list(range(20)))
        assert len(passes) == 3
        predict(g, result.params, SamplerConfig(z_hat=(4, 4)),
                known_ids=list(range(10)))
        assert len(passes) == 5
        assert passes == [None] * 5
        assert all(type(p) is np.ndarray for p in result.params.parameters())

    def test_known_labels_change_gates(self):
        """Telling predict the training labels shifts the diversity gates."""
        g, result = self.make_trained(epochs=10)
        with_known = predict(g, result.params, SamplerConfig(z_hat=(4, 4)),
                             known_ids=result.train_ids)
        blind = predict(g, result.params, SamplerConfig(z_hat=(4, 4)))
        assert len(with_known) == len(blind) == 20


# receptive-row products against the whole-graph pass
FIELD_TOL = dict(rtol=1e-12, atol=1e-12)


def field_case(seed, k, window, z_hat, mode, model_kw):
    """A sparse generated graph (a short window leaves nodes isolated), its
    sampled layers and gates, as one training epoch would have them."""
    records = generate(ScenarioConfig(
        n_legit=48, n_fraud=12, n_devices=10, n_ips=6, feature_dim=3,
        time_span_seconds=7200, seed=seed))
    graph = build_graph(records, [Proposition(
        name="dev", field="device", window_seconds=window)])
    cfg = TrainConfig(model=ModelConfig(k_layers=k, **model_kw),
                      sampler=SamplerConfig(z_hat=z_hat[:k], mode=mode,
                                            oversample_count=2, seed=seed),
                      seed=seed)
    fraud = graph.node_ids[graph.labels == 1].tolist()
    nbs = _sample_layers(graph, cfg.sampler, 1,
                         _fraud_extras(graph, cfg.sampler, fraud))
    gates = _gates_for(cfg.model, np.maximum(graph.labels, 0), nbs[0])
    return graph, cfg, nbs, gates


class TestReceptiveFieldBatches:
    """batch_loss runs each layer, products included, on its receptive
    rows only. BLAS may round a product over a row subset differently, so
    loss, every gradient and the probabilities match the whole-graph pass
    within FIELD_TOL, a bound fixed before the products moved."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(1, 3),
           window=st.sampled_from([30, 300, 3600]),
           z_hat=st.tuples(*[st.integers(1, 12)] * 3),
           mode=st.sampled_from(sampler_mod.MODES),
           attention=st.booleans(), gate=st.booleans(),
           time_mode=st.sampled_from(TIME_MODES),
           activation=st.sampled_from(sorted(ACTIVATIONS)),
           hidden=st.integers(1, 5),
           batch=st.sampled_from(["one", "all", "some"]))
    @example(seed=0, k=3, window=300, z_hat=(3, 3, 3),
             mode="deterministic_topz", attention=True, gate=True,
             time_mode="decay", activation="relu", hidden=4, batch="some")
    def test_matches_the_full_graph_pass(self, seed, k, window, z_hat, mode,
                                         attention, gate, time_mode,
                                         activation, hidden, batch):
        graph, cfg, nbs, gates = field_case(
            seed, k, window, z_hat, mode,
            dict(hidden_dim=hidden, use_attention=attention, use_gate=gate,
                 time_mode=time_mode, activation=activation))
        rng = np.random.default_rng(seed)
        n_train = 2 * graph.n_nodes // 3
        size = {"one": 1, "all": n_train,
                "some": int(rng.integers(1, n_train + 1))}[batch]
        rows = rng.permutation(n_train)[:size]
        y = graph.labels[rows]

        got_params, want_params = (init_params(graph.features.shape[1],
                                               cfg.model, seed)
                                   for _ in range(2))
        got = batch_loss(got_params, graph.features, nbs, gates, rows, y)
        want = full_graph_batch_loss(want_params, graph.features, nbs,
                                     gates, rows, y)
        assert_allclose(got.value, want.value, **FIELD_TOL)
        got_grads, want_grads = nn.backward(got), nn.backward(want)
        assert got_grads.keys() == want_grads.keys()
        for slot, w in want_grads.items():
            assert_allclose(got_grads[slot], w, **FIELD_TOL)

        p_rows = model_mod.forward(want_params, graph.features, nbs, gates,
                                   rows)
        p_all = model_mod.forward(want_params, graph.features, nbs, gates)
        assert_allclose(p_rows, p_all[rows], **FIELD_TOL)

    def test_row_sets_grow_downwards_and_stop_above_half(self):
        graph, _, nbs, _ = field_case(0, 3, 3600, (3, 3, 3),
                                      "deterministic_topz", {})
        n = graph.n_nodes
        rows = np.flatnonzero(rectangle(nbs[2]).mask.any(axis=1))[:12][::-1]
        sets = receptive_rows(nbs, rows)
        assert sets[2].tolist() == sorted(rows)

        def grown(k):  # layer k's rows plus their sampled neighbors
            t, upper = rectangle(nbs[k]), sets[k]
            return np.union1d(upper, t.idx[upper][t.mask[upper]])

        assert sets[1].tolist() == grown(2).tolist()
        assert 2 * len(sets[1]) <= n < 2 * len(grown(1))
        assert sets[0] is None  # more than half: every row, cached table
        assert receptive_rows(nbs, None) == [None] * 3
        assert receptive_rows(nbs, np.arange(n // 2 + 1)) == [None] * 3
        assert receptive_rows(nbs, np.arange(n // 2))[2].tolist() == list(
            range(n // 2))
