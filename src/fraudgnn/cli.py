"""Command line front end.

Subcommands: generate, build-graph, train, predict, evaluate, ablate.
Every artifact is written atomically (temp file + rename) and gets a
`<name>.manifest` sibling recording the command, resolved config, seeds and
input digests, so runs can be reproduced byte for byte. Set FRAUDGNN_LOG to
DEBUG/INFO/WARNING to control verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import logging
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .config import (_RUN_KEYS, RunConfig, dump_run_config,
                     load_propositions, load_run_config, load_scenario)
from .datagen import csv_text, generate, ingest_csv
from .errors import ConfigError, FraudGnnError, InputError, unreadable
from .metrics import evaluate_scores, roc_points
from .model import checkpoint_text, load_params
from .tgraph import build_graph, serialize_graph
from .train import predict, train

log = logging.getLogger(__name__)


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fraudgnn-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(outs: list[str | None], command: str, inputs: list[str],
                    config_text: str):  # outs: artifact paths, or None
    lines = [
        f"command = {command}",
        f"version = {__version__}",
    ]
    for p in inputs:
        lines.append(f"input.{os.path.basename(p)} = sha256:{_sha256(p)}")
    body = "\n".join(lines) + "\n# resolved configuration\n" + config_text
    for out in filter(None, outs):
        _write_atomic(out + ".manifest", body)


# Ablation flags are aliases of config keys: _overrides applies them after
# --set, so a flag wins, and the manifest records them like any other key.
_FLAG_KEYS = {
    "no_gate": {"model.use_gate": "false"},
    "no_attention": {"model.use_attention": "false"},
    "random_sampling": {"sampler.mode": "uniform",
                        "sampler.oversample_count": "0"},
    "no_oversample": {"sampler.oversample_count": "0"},
}


def _overrides(args) -> dict[str, str]:
    out = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        out[key.strip()] = value.strip()
    if getattr(args, "seed", None) is not None:
        out["seed"] = str(args.seed)
        out.setdefault("sampler.seed", str(args.seed))
    baseline = getattr(args, "model", "full") == "baseline"
    for flag, keys in _FLAG_KEYS.items():
        if baseline or getattr(args, flag, False):
            out.update(keys)
    return out


def _load_run(args, pinned: dict[str, str] | None = None) -> RunConfig:
    """The run config of args; pinned keys win over every other source."""
    return load_run_config(getattr(args, "config", None),
                           {**_overrides(args), **(pinned or {})})


def _ingest(args, run: RunConfig):
    """The --data records under the run's schema and split, and their graph."""
    props = load_propositions(args.props)
    result = ingest_csv(args.data, schema=run.schema, split=run.split,
                        seed=run.seed,
                        downsample_legit_ratio=run.downsample_legit_ratio)
    return result, build_graph(result.records, props)


def _scores_csv(predictions) -> str:
    lines = ["id,p_fraud,label_pred"]
    for p in predictions:
        lines.append(f"{p.node_id},{repr(float(p.p_fraud))},{p.label_pred}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    cfg = load_scenario(args.scenario)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    records = generate(cfg)
    _write_atomic(args.out, csv_text(records))
    _write_manifest([args.out], "generate", [args.scenario],
                    f"scenario.seed = {cfg.seed}\n")
    log.info("wrote %d records to %s", len(records), args.out)
    return 0


def cmd_build_graph(args) -> int:
    run = _load_run(args)
    result, graph = _ingest(args, run)
    _write_atomic(args.out, serialize_graph(graph))
    _write_manifest([args.out], "build-graph", [args.data, args.props],
                    dump_run_config(run))
    log.info("graph: %d nodes, %d edges", graph.n_nodes, graph.n_edges)
    return 0


def cmd_train(args) -> int:
    run = _load_run(args)
    result, graph = _ingest(args, run)
    outcome = train(graph, run, train_ids=result.train_ids)
    _write_atomic(args.out, checkpoint_text(outcome.params))
    if args.loss_history:
        lines = ["epoch,loss"]
        lines += [f"{i},{repr(float(v))}"
                  for i, v in enumerate(outcome.loss_history, start=1)]
        _write_atomic(args.loss_history, "\n".join(lines) + "\n")
    _write_manifest([args.out, args.loss_history], "train",
                    [args.data, args.props], dump_run_config(run))
    final = outcome.loss_history[-1] if outcome.loss_history else float("nan")
    log.info("trained %d epochs, final loss %.6f", run.epochs, final)
    return 0


def cmd_predict(args) -> int:
    params = load_params(args.ckpt)
    # predict runs the checkpoint's model, so every model key is pinned to it
    run = _load_run(args, {key: fmt(getattr(params.config, attr))
                           for key, (part, attr, (_, fmt)) in _RUN_KEYS.items()
                           if part == "model"})
    result, graph = _ingest(args, run)
    known = result.train_ids if args.known == "train" else None
    subset = {"all": None, "train": result.train_ids,
              "test": result.test_ids}[args.only]
    preds = predict(graph, params, sampler_cfg=run.sampler, nodes=subset,
                    known_ids=known, seed=run.seed)
    _write_atomic(args.out, _scores_csv(preds))
    _write_manifest([args.out], "predict", [args.data, args.props, args.ckpt],
                    dump_run_config(run))
    log.info("scored %d nodes", len(preds))
    return 0


def _csv_rows(path: str, header: list[str], what: str) -> list[list[str]]:
    """Comma-split non-blank rows after a header that must start with `header`."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise unreadable(what, path, exc) from None
    if not lines or lines[0].split(",")[:len(header)] != header:
        raise InputError(f"{path}: expected {what} starting {','.join(header)}")
    return [ln.split(",") for ln in lines[1:]]


def _bad_row(path: str, n: int, want: str, parts: list[str]) -> InputError:
    return InputError(f"{path}: row {n}: expected {want}, got {','.join(parts)!r}")


def _read_scores(path: str) -> tuple[list[int], np.ndarray]:
    row_of, probs = {}, []
    rows = _csv_rows(path, ["id", "p_fraud"], "scores CSV")
    for n, parts in enumerate(rows, start=1):
        try:
            node = int(parts[0])
            probs.append(float(parts[1]))
        except (ValueError, IndexError):
            raise _bad_row(path, n, "an integer id and a numeric p_fraud",
                           parts) from None
        if not math.isfinite(probs[-1]):
            raise _bad_row(path, n, "a finite p_fraud", parts)
        if node in row_of:
            raise InputError(f"{path}: row {n}: id {node} is already scored "
                             f"in row {row_of[node]}")
        row_of[node] = n
    return list(row_of), np.array(probs)


def _read_labels(path: str) -> dict[int, int]:
    out, row_of = {}, {}
    rows = _csv_rows(path, ["id", "timestamp", "label"], "data CSV")
    for n, parts in enumerate(rows, start=1):
        try:
            node, label = int(parts[0]), int(parts[2])
        except (ValueError, IndexError):
            raise _bad_row(path, n, "an integer id and label", parts) from None
        if node in row_of:
            raise InputError(f"{path}: row {n}: id {node} already appears "
                             f"in row {row_of[node]}")
        out[node], row_of[node] = label, n
    return out


def cmd_evaluate(args) -> int:
    ids, probs = _read_scores(args.scores)
    labels_by_id = _read_labels(args.data)
    missing = [i for i in ids if i not in labels_by_id]
    if missing:
        raise InputError(
            f"scores reference ids missing from data: {missing[:5]}")
    labels = np.array([labels_by_id[i] for i in ids])
    report = evaluate_scores(labels, probs)
    _write_atomic(args.out, report.to_text())
    if args.roc:
        lines = ["fpr,tpr"]
        lines += [f"{repr(float(f))},{repr(float(t))}"
                  for f, t in roc_points(probs, labels)]
        _write_atomic(args.roc, "\n".join(lines) + "\n")
    _write_manifest([args.out, args.roc], "evaluate",
                    [args.scores, args.data], "")
    sys.stdout.write(report.to_text())
    return 0


def cmd_ablate(args) -> int:
    items = args.seeds.split(",")
    if not all(s.strip().isdecimal() for s in items):
        raise ConfigError("--seeds must be comma-separated non-negative "
                          f"integers, got {args.seeds!r}")
    seeds = [int(s) for s in items]
    run = _load_run(args)
    result, graph = _ingest(args, run)
    if not result.test_ids:
        raise InputError("ablate needs a non-empty test split; "
                         "check trainer.split settings")
    y_test = graph.labels[graph.rows_of(result.test_ids)]

    mode = run.sampler.mode  # an adaptive arm samples adaptively whatever it is
    adaptive = "deterministic_topz" if mode == "uniform" else mode
    lines = ["sampling,attention,gate,seed,auc,f1,recall,precision"]
    for sampling, attention, gate in itertools.product(
            ("adaptive", "random"), ("on", "off"), ("on", "off")):
        # an "on" arm switches its mechanism on whatever the config says
        arm = {"model.use_attention": "true", "model.use_gate": "true",
               "sampler.mode": adaptive}
        for off, flag in ((sampling == "random", "random_sampling"),
                          (attention == "off", "no_attention"),
                          (gate == "off", "no_gate")):
            if off:
                arm.update(_FLAG_KEYS[flag])
        for seed in seeds:
            cfg = _load_run(args, {**arm, "seed": str(seed),
                                   "sampler.seed": str(seed)})
            outcome = train(graph, cfg, train_ids=result.train_ids)
            preds = predict(graph, outcome.params, sampler_cfg=cfg.sampler,
                            nodes=result.test_ids,
                            known_ids=result.train_ids, seed=seed)
            p = np.array([x.p_fraud for x in preds])
            report = evaluate_scores(y_test, p)
            lines.append(
                f"{sampling},{attention},{gate},{seed},"
                f"{repr(float(report.auc))},{repr(float(report.f1))},"
                f"{repr(float(report.recall))},{repr(float(report.precision))}")
            log.info("ablate %s/%s/%s seed %d: auc %.4f",
                     sampling, attention, gate, seed, report.auc)
    _write_atomic(args.out, "\n".join(lines) + "\n")
    _write_manifest([args.out], "ablate", [args.data, args.props],
                    dump_run_config(run))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, config: bool = True):
    if config:
        p.add_argument("--config", help="run config file (key = value lines)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key; repeatable")
        p.add_argument("--seed", type=int, help="override the top-level seed")


def _add_flags(p: argparse.ArgumentParser, flags):
    for flag in flags:
        sets = " ".join(f"--set {k}={v}" for k, v in _FLAG_KEYS[flag].items())
        p.add_argument("--" + flag.replace("_", "-"), action="store_true",
                       help=f"same as {sets}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraudgnn",
        description="Transaction fraud detection with an adaptive-sampling, "
                    "entropy-gated graph neural network.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="write a synthetic transaction CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build-graph", help="serialize the transaction graph")
    p.add_argument("--data", required=True)
    p.add_argument("--props", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="train a model, write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--props", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-history", help="write per-epoch losses as CSV")
    p.add_argument("--model", choices=("full", "baseline"), default="full",
                   help="baseline sets every flag below")
    _add_flags(p, _FLAG_KEYS)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score nodes with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--props", required=True)
    p.add_argument("--out", required=True)
    _add_flags(p, ["random_sampling"])
    p.add_argument("--known", choices=("train", "none"), default="train",
                   help="whose stored labels may inform the diversity gate")
    p.add_argument("--only", choices=("all", "train", "test"), default="all",
                   help="which split to emit scores for")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="metrics report from a scores CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--roc", help="also write ROC points as fpr,tpr CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run the sampling x attention x gate grid")
    p.add_argument("--data", required=True)
    p.add_argument("--props", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="0",
                   help="comma-separated seeds, one grid pass per seed")
    _add_common(p)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("FRAUDGNN_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FraudGnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
