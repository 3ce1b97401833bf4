"""Transaction fraud detection with a gated, adaptively sampled GNN.

Pipeline: build a weighted multigraph over transaction records from
configurable pair propositions, sample informative neighbors by edge weight
and feature similarity, aggregate them with time-damped attention scaled by
a label-diversity gate, and train a small two-logit classifier end to end
on a hand-rolled reverse-mode numpy substrate.
"""

__version__ = "0.1.0"

from .errors import (CheckpointError, ConfigError, EvalError, FraudGnnError,
                     IngestError, InputError, ShapeError, TrainError)
from .tgraph import (UNLABELED, Proposition, TransactionGraph,
                     TransactionRecord, build_graph, max_edge_weight,
                     serialize_graph)
from .sampler import DEFAULT_SIMILARITY_FLOOR, SamplerConfig, sample_layer
from .model import (ModelConfig, ModelParams, LayerParams, Neighborhoods,
                    aggregation_gate, attention_weights, checkpoint_text,
                    diversity_stats, forward, init_params, layer_forward,
                    load_params, neighbor_diversity, pack_rows, time_factors)
from .train import (Prediction, TrainConfig, TrainResult, batch_loss,
                    predict, train)
from .metrics import (ConfusionCounts, EvalReport, auc, confusion,
                      evaluate_scores, recall_precision_f1, roc_points)
from .datagen import (DataSchema, IngestResult, ScenarioConfig, SplitSpec,
                      csv_text, generate, ingest_csv, split_records,
                      write_csv)
from .config import (RunConfig, dump_run_config, load_propositions,
                     load_run_config, load_scenario, parse_kv)
