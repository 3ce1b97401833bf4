"""Span tracing of the package's public functions, applied from outside.

`Tracer.install` replaces each function named in `HOOKS` with a wrapper
that records one span per call: name, start, end, the id of the span that
was open when the call began (its parent) and the top-level span it ran
under (its root). Spans are kept in memory in flat arrays and written out
once with `save`. A hooked function that no longer exists is listed in
`Tracer.missing` instead of failing the run; the metrics that depend on it
read 0.

`layer_metrics` turns the spans of one pipeline run into per-layer
numbers. A layer is a module of the package; its self time is the time
its spans spent outside any child span.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array

import numpy as np

# (module, attribute) of every wrapped function. Calls between modules go
# through module attributes, so patching the attribute catches them.
HOOKS = (
    ("fraudgnn.datagen", "ingest_csv"),
    ("fraudgnn.tgraph", "build_graph"),
    ("fraudgnn.sampler", "sample_neighborhood"),
    ("fraudgnn.sampler", "selection_probabilities"),
    ("fraudgnn.sampler", "sample_topz"),
    ("fraudgnn.sampler", "oversample_fraud"),
    ("fraudgnn.model", "pack_neighborhoods"),
    ("fraudgnn.model", "forward"),
    ("fraudgnn.model", "layer_forward"),
    ("fraudgnn.model", "attention_weights"),
    ("fraudgnn.model", "diversity_stats"),
    ("fraudgnn.nn", "neighbor_sum"),
    ("fraudgnn.nn", "backward"),
    ("fraudgnn.nn", "AdamState.step"),
    ("fraudgnn.train", "train"),
    ("fraudgnn.train", "predict"),
    ("fraudgnn.train", "batch_loss"),
    ("fraudgnn.metrics", "evaluate_scores"),
)

LAYERS = ("datagen", "tgraph", "sampler", "model", "nn", "train", "metrics")


def _topz_fill(args, result):
    # sample_topz(g, v, k, cfg): share of the layer's z_hat that was filled
    return len(result) / args[3].z_hat[args[2]]


def _oversample_extras(args, result):
    # oversample_fraud(g, v, base, cfg, ...): extras appended to base
    return len(result) - len(args[2])


# Per-call values read off a hooked call's arguments and result.
NOTES = {
    "sampler.sample_topz": _topz_fill,
    "sampler.oversample_fraud": _oversample_extras,
}


class Tracer:
    """Wraps the hooked functions and records their spans."""

    COLUMNS = {"id": "q", "parent": "q", "root": "i", "name": "i",
               "start": "d", "end": "d", "self": "d", "note": "d"}

    def __init__(self):
        self.names: list[str] = []
        self.missing: list[str] = []
        self.cols = {c: array(code) for c, code in self.COLUMNS.items()}
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def __len__(self) -> int:
        return len(self.cols["id"])

    def install(self, hooks=HOOKS):
        for module_name, attr in hooks:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            setattr(owner, leaf, self._wrap(name, fn))
            self._saved.append((owner, leaf, fn))

    def uninstall(self):
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        note_fn = NOTES.get(name)
        # bound once: the sampler hooks run ~10^5 times per pipeline
        stack, cols, clock = self._stack, self.cols, time.perf_counter
        c_id, c_parent, c_root, c_name = (cols["id"], cols["parent"],
                                          cols["root"], cols["name"])
        c_start, c_end, c_self, c_note = (cols["start"], cols["end"],
                                          cols["self"], cols["note"])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            entry = [sid, parent[1] if parent else idx, 0.0]
            stack.append(entry)
            note = math.nan
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if note_fn is not None:
                    try:
                        note = note_fn(args, result)
                    except (TypeError, IndexError, AttributeError):
                        pass
                return result
            finally:
                end = clock()
                stack.pop()
                if parent:
                    parent[2] += end - start
                c_id.append(sid)
                c_parent.append(parent[0] if parent else -1)
                c_root.append(entry[1])
                c_name.append(idx)
                c_start.append(start - self._t0)
                c_end.append(end - self._t0)
                c_self.append(end - start - entry[2])
                c_note.append(note)

        return wrapper

    def arrays(self, since: int = 0) -> dict[str, np.ndarray]:
        return {c: np.frombuffer(a, dtype=a.typecode)[since:].copy()
                for c, a in self.cols.items()}

    def save(self, path: str):
        np.savez(path, names=np.array(self.names), **self.arrays())


def _rank_within_parent(parent: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Call order of each span among the spans sharing its parent."""
    order = np.lexsort((start, parent))
    p = parent[order]
    first = np.r_[0, np.flatnonzero(np.diff(p)) + 1]
    run_len = np.diff(np.r_[first, len(p)])
    ranks = np.empty(len(p), dtype=np.int64)
    ranks[order] = np.arange(len(p)) - np.repeat(first, run_len)
    return ranks


def layer_metrics(tracer: Tracer, since: int, k_layers: int) -> tuple[dict, list]:
    """Per-layer metrics of the spans recorded after index `since`.

    Returns the metrics and the list of step times in ms (batch loss,
    backward and Adam of one mini-batch).
    """
    s = tracer.arrays(since)
    idx = {n: i for i, n in enumerate(tracer.names)}
    dur = s["end"] - s["start"]
    n_names = len(tracer.names)

    def mask(name):
        return s["name"] == idx.get(name, -1)

    def total(name, root=None):
        m = mask(name)
        if root is not None:
            m &= s["root"] == idx.get(root, -1)
        return float(dur[m].sum())

    def count(name):
        return int(mask(name).sum())

    def notes(name):
        values = s["note"][mask(name)]
        return values[np.isfinite(values)]

    train_s = total("train.train")
    sampler_train = total("sampler.sample_neighborhood", root="train.train")
    node_calls = count("sampler.sample_neighborhood")
    fill = notes("sampler.sample_topz")
    out = {
        "datagen.ingest_s": total("datagen.ingest_csv"),
        "tgraph.build_s": total("tgraph.build_graph"),
        "sampler.train_s": sampler_train,
        "sampler.predict_s": total("sampler.sample_neighborhood",
                                   root="train.predict"),
        "sampler.us_per_node": (total("sampler.sample_neighborhood")
                                / node_calls * 1e6 if node_calls else 0.0),
        "sampler.node_calls": node_calls,
        "sampler.score_calls": count("sampler.selection_probabilities"),
        "sampler.oversample_s": total("sampler.oversample_fraud"),
        "sampler.oversample_extras": int(notes("sampler.oversample_fraud").sum()),
        "sampler.fill_ratio": float(fill.mean()) if len(fill) else 0.0,
        "model.pack_s": total("model.pack_neighborhoods"),
        "model.forward_s": total("model.forward"),
        "model.forward_calls": count("model.forward"),
        "model.attention_s": total("model.attention_weights"),
        "model.gate_s": total("model.diversity_stats"),
        "nn.neighbor_sum_s": total("nn.neighbor_sum"),
        "nn.backward_s": total("nn.backward"),
        "nn.adam_s": total("nn.AdamState.step"),
        "train.steps": count("nn.AdamState.step"),
        "train.sampler_share": sampler_train / train_s if train_s else 0.0,
        "train.fwd_bwd_share": ((total("model.forward", root="train.train")
                                 + total("nn.backward", root="train.train"))
                                / train_s if train_s else 0.0),
        "metrics.evaluate_s": total("metrics.evaluate_scores"),
        "trace.spans": len(s["id"]),
    }

    layer = mask("model.layer_forward")
    rank = _rank_within_parent(s["parent"][layer], s["start"][layer])
    for k in range(k_layers):
        at_k = rank == k
        out[f"model.layer{k}.forward_s"] = float(dur[layer][at_k].sum())
        out[f"model.layer{k}.self_s"] = float(s["self"][layer][at_k].sum())

    self_by_name = np.bincount(s["name"], weights=s["self"], minlength=n_names)
    for mod in LAYERS:
        out[f"{mod}.self_s"] = float(sum(
            self_by_name[i] for n, i in idx.items()
            if n.split(".", 1)[0] == mod))

    losses, steps = mask("train.batch_loss"), mask("nn.AdamState.step")
    step_ms = []
    if losses.sum() == steps.sum():
        step_ms = list((np.sort(s["end"][steps])
                        - np.sort(s["start"][losses])) * 1e3)
    return out, step_ms
