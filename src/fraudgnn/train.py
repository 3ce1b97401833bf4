"""Training loop and inference for the gated attention model.

Each epoch: (re)sample neighborhoods per layer, refresh the per-node label
view (ground truth on training nodes, current hard predictions elsewhere),
derive diversity gates, then run seeded mini-batches, each a forward pass
over the batch's receptive field (model.receptive_rows) with a mean binary
cross-entropy loss on the batch rows and an Adam step. Gates and neighbor
choices are constants to the gradient. A step's forward pass collects
its stages (nn.Loss), nn.backward runs them in reverse and Adam updates
the parameter arrays in place. The epoch ends with a forward pass over
every node, whose hard predictions feed the next epoch's gates; it and
predict's passes collect no stages, so they keep no vjp.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as model_mod, nn, sampler as sampler_mod
from .datagen import SplitSpec, _split_ids
from .errors import CheckpointError, ConfigError, TrainError, check_count
from .model import ModelConfig, ModelParams, Neighborhoods
from .sampler import SamplerConfig, combine_seed
from .tgraph import TransactionGraph, UNLABELED

log = logging.getLogger(__name__)

BATCH_SEED_TAG = 3


def _check_z_hat(sampler: SamplerConfig, model: ModelConfig):
    if len(sampler.z_hat) != model.k_layers:
        raise ConfigError(
            f"sampler.z_hat has {len(sampler.z_hat)} entries but the "
            f"model has {model.k_layers} layers")


@dataclass
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    lr: float = 0.001
    batch_size: int = 256
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        _check_z_hat(self.sampler, self.model)
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        check_count("batch_size", self.batch_size, 1)
        check_count("epochs", self.epochs, 0)
        check_count("seed", self.seed, 0)


@dataclass
class Prediction:
    node_id: int
    p_fraud: float
    label_pred: int


@dataclass
class TrainResult:
    params: ModelParams
    loss_history: list[float]
    train_ids: list[int]


def batch_loss(params: ModelParams, features: np.ndarray,
               neighborhoods: list[Neighborhoods], gates: np.ndarray | None,
               rows: np.ndarray, y: np.ndarray) -> nn.Loss:
    """Loss on the selected rows, from a forward pass over the layers'
    receptive rows only, with its stages: K layers, the head, the loss."""
    stages = []
    p = model_mod.forward(params, features, neighborhoods, gates, rows,
                          stages)
    return nn.bce(p, y, stages)


def _sample_layers(graph: TransactionGraph, scfg: SamplerConfig, epoch: int,
                   extras=None) -> list[Neighborhoods]:
    """One Neighborhoods object per layer for this epoch, each row followed
    by its over-sampled ``extras`` (see sampler.sample_layer).

    The random modes salt the sampler seed by epoch. Each distinct z_hat is
    sampled once and its result shared between the layers that have it: a
    layer reaches the sampler only through z_hat[k], and draws are keyed by
    (seed, node, neighbor). Every pass reads the graph's cached edge
    scores, so train and predict on one graph score it once.
    """
    if scfg.mode != "deterministic_topz":
        scfg = replace(scfg, seed=combine_seed(scfg.seed, epoch))
    by_z: dict[int, Neighborhoods] = {}
    for z in scfg.z_hat:
        if z not in by_z:
            by_z[z] = model_mod.pack_rows(graph, *sampler_mod.sample_layer(
                graph, z, scfg, extras))
    return [by_z[z] for z in scfg.z_hat]


def _gates_for(cfg: ModelConfig, labels_eff: np.ndarray,
               nb_first: Neighborhoods) -> np.ndarray | None:
    if not cfg.use_gate:
        return None
    return model_mod.diversity_stats(labels_eff, nb_first).gate


def train(graph: TransactionGraph, config: TrainConfig,
          train_ids: list[int] | None = None) -> TrainResult:
    """Fit the model on the graph's training nodes; see the module docstring.

    Raises TrainError when the training ids repeat one, the training
    labels are single-class or contain unlabeled nodes, or the loss leaves
    the finite range.
    """
    if train_ids is None:
        train_ids, _ = _split_ids(graph.node_ids, graph.timestamps,
                                  graph.labels, config.split, config.seed)
    train_ids = sorted(train_ids)
    if not train_ids:
        raise TrainError("training split is empty")
    repeated = [a for a, b in zip(train_ids, train_ids[1:]) if a == b]
    if repeated:
        raise TrainError(f"training split repeats id {repeated[0]}")
    labels = graph.labels
    train_rows = graph.rows_of(train_ids)
    y_train = labels[train_rows]
    if np.any(y_train == UNLABELED):
        raise TrainError("training split contains unlabeled records")
    classes = set(int(c) for c in np.unique(y_train))
    if classes != {0, 1}:
        raise TrainError(
            f"training labels must include both classes, found {sorted(classes)}")

    features = graph.features
    params = model_mod.init_params(features.shape[1], config.model, config.seed)
    opt = nn.AdamState(params.parameters(), lr=config.lr)

    in_train = np.zeros(graph.n_nodes, dtype=bool)
    in_train[train_rows] = True
    labels_eff = np.where(in_train, np.maximum(labels, 0), 0)
    fraud_pool = sorted(int(v) for v, r in zip(train_ids, y_train) if r == 1)
    extras = sampler_mod._fraud_extras(graph, config.sampler, fraud_pool)

    deterministic = config.sampler.mode == "deterministic_topz"
    neighborhoods = None
    history: list[float] = []

    for epoch in range(1, config.epochs + 1):
        if neighborhoods is None or not deterministic:
            neighborhoods = _sample_layers(graph, config.sampler, epoch,
                                           extras)
        gates = _gates_for(config.model, labels_eff, neighborhoods[0])

        rng = np.random.default_rng(np.random.SeedSequence(
            (config.seed, BATCH_SEED_TAG, epoch)))
        perm = rng.permutation(len(train_rows))
        batch_losses = []
        for start in range(0, len(perm), config.batch_size):
            chunk = perm[start:start + config.batch_size]
            rows = train_rows[chunk]
            loss = batch_loss(params, features, neighborhoods, gates,
                              rows, labels[rows])
            if not np.isfinite(loss.value):
                raise TrainError(
                    f"non-finite loss {loss.value} at epoch {epoch}, "
                    f"batch starting {start}")
            opt.step(nn.backward(loss))
            batch_losses.append(loss.value)
            del loss  # free this step's stages before the next forward
        epoch_loss = float(np.mean(batch_losses))
        history.append(epoch_loss)
        log.info("epoch %d/%d loss %.6f", epoch, config.epochs, epoch_loss)

        p_all = model_mod.forward(params, features, neighborhoods, gates)
        hard = (p_all.ravel() >= 0.5).astype(np.int64)
        labels_eff = np.where(in_train, np.maximum(labels, 0), hard)

    return TrainResult(params=params, loss_history=history,
                       train_ids=list(train_ids))


def predict(graph: TransactionGraph, params: ModelParams,
            sampler_cfg: SamplerConfig | None = None,
            nodes: list[int] | None = None,
            known_ids: list[int] | None = None,
            seed: int = 0) -> list[Prediction]:
    """Score nodes with a trained model. No node is over-sampled.

    ``seed`` only seeds the default config built when ``sampler_cfg`` is
    None, and that config is deterministic top-z, which reads no seed; so
    no value of ``seed`` changes the scores.

    known_ids mark nodes whose stored labels may inform the diversity gate
    (normally the training split). Remaining nodes start as class 0, get a
    provisional hard prediction, and the pass repeats once with those labels.
    """
    features = graph.features
    if features.shape[1] != params.feature_dim:
        raise CheckpointError(
            f"graph features have width {features.shape[1]} but the "
            f"checkpoint expects {params.feature_dim}")
    if sampler_cfg is None:
        sampler_cfg = SamplerConfig(z_hat=(10,) * params.config.k_layers,
                                    seed=seed)
    _check_z_hat(sampler_cfg, params.config)
    if nodes is None:
        nodes = graph.node_ids.tolist()
    rows = graph.rows_of(nodes)
    known_ids = known_ids or []
    known_rows = graph.rows_of(known_ids)
    stray = np.flatnonzero(graph.labels[known_rows] == UNLABELED)
    if len(stray):
        raise TrainError(f"known id {known_ids[stray[0]]} has no stored label")
    known = np.zeros(graph.n_nodes, dtype=bool)
    known[known_rows] = True
    labels_eff = np.where(known, np.maximum(graph.labels, 0), 0)

    neighborhoods = _sample_layers(graph, sampler_cfg, 0)

    gates = _gates_for(params.config, labels_eff, neighborhoods[0])
    p = model_mod.forward(params, features, neighborhoods, gates).ravel()
    if params.config.use_gate and not known.all():
        hard = (p >= 0.5).astype(np.int64)
        labels_eff = np.where(known, labels_eff, hard)
        gates = _gates_for(params.config, labels_eff, neighborhoods[0])
        p = model_mod.forward(params, features, neighborhoods,
                              gates).ravel()

    return [Prediction(node_id=v, p_fraud=p_v, label_pred=int(p_v >= 0.5))
            for v, p_v in zip(nodes, p[rows].tolist())]
