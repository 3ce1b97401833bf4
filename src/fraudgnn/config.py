"""Flat dotted-key config files for runs, propositions, and scenarios.

Format: one `key = value` per line, `#` starts a comment line, blank lines
ignored. Unknown keys are rejected so typos fail loudly instead of silently
running defaults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .datagen import DataSchema, ScenarioConfig, SplitSpec
from .errors import ConfigError, unreadable
from .model import ModelConfig
from .sampler import SamplerConfig
from .tgraph import Proposition
from .train import TrainConfig


def parse_kv(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse `key = value` lines into an insertion-ordered dict."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', "
                              f"got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{line_no}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r}")
        out[key] = value
    return out


def _read_kv(path: str, what: str) -> dict[str, str]:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise unreadable(what, path, exc) from None
    return parse_kv(text, source=path)


def _parse_bool(key: str, value: str) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        out = math.nan  # rejected below together with a literal "nan"
    if math.isnan(out):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    return out


def _parse_list(value: str) -> list[str]:
    inner = value.strip()
    if inner.startswith("[") and inner.endswith("]"):
        inner = inner[1:-1]
    items = [x.strip() for x in inner.split(",")]
    return [x for x in items if x]


def _parse_int_list(key: str, value: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, x) for x in _parse_list(value))


def _optional(kind, word: str):
    """kind, with None spelled `word` in files and manifests."""
    parse, fmt = kind
    return (lambda key, v: None if v.lower() == word else parse(key, v),
            lambda v: word if v is None else fmt(v))


# A run key's kind: (parse(key, text), format(value) for manifests).
_INT = (_parse_int, str)
_FLOAT = (_parse_float, lambda v: repr(float(v)))
_BOOL = (_parse_bool, lambda v: str(v).lower())
_WORD = (lambda key, v: v, str)
_INTS = (_parse_int_list, lambda v: ", ".join(str(z) for z in v))
_NAMES = (lambda key, v: tuple(_parse_list(v)), ", ".join)
_CUTOFF = (_parse_int, lambda v: None if v is None else str(v))  # None: no line


@dataclass
class RunConfig(TrainConfig):
    """Everything a training or prediction run needs, file- or flag-sourced."""

    schema: DataSchema = field(default_factory=DataSchema)
    downsample_legit_ratio: float | None = None


# Every run key, in manifest order: key -> (RunConfig part, attribute, kind).
# Part "" is the RunConfig itself; unset keys take the dataclass defaults.
_RUN_KEYS = {
    "seed": ("", "seed", _INT),
    "sampler.z_hat": ("sampler", "z_hat", _INTS),
    "sampler.mode": ("sampler", "mode", _WORD),
    "sampler.seed": ("sampler", "seed", _INT),
    "sampler.oversample_count": ("sampler", "oversample_count", _INT),
    "sampler.similarity_floor": ("sampler", "similarity_floor", _FLOAT),
    "model.K": ("model", "k_layers", _INT),
    "model.hidden": ("model", "hidden_dim", _INT),
    "model.tau_seconds": ("model", "tau_seconds", _FLOAT),
    "model.activation": ("model", "activation", _WORD),
    "model.time_mode": ("model", "time_mode", _WORD),
    "model.use_attention": ("model", "use_attention", _BOOL),
    "model.use_gate": ("model", "use_gate", _BOOL),
    "trainer.lr": ("", "lr", _FLOAT),
    "trainer.batch_size": ("", "batch_size", _INT),
    "trainer.epochs": ("", "epochs", _INT),
    "trainer.split": ("split", "kind", _WORD),
    "trainer.test_fraction": ("split", "test_fraction", _FLOAT),
    "trainer.cutoff_timestamp": ("split", "cutoff_timestamp", _CUTOFF),
    "data.raw_fields": ("schema", "raw_fields", _NAMES),
    "data.categorical_features": ("schema", "categorical", _NAMES),
    "data.numeric_features": ("schema", "numeric", _optional(_NAMES, "auto")),
    "data.downsample_legit_ratio": ("", "downsample_legit_ratio",
                                    _optional(_FLOAT, "none")),
}


def load_run_config(path: str | None = None,
                    overrides: dict[str, str] | None = None) -> RunConfig:
    """Build a RunConfig from an optional file plus key=value overrides.

    Overrides use the same dotted keys as the file and win over it. The
    sampler seed defaults to the top-level seed unless set explicitly.
    """
    kv = _read_kv(path, "run config") if path else {}
    for key, value in (overrides or {}).items():
        if "".join(value.splitlines()) != value:  # the manifest could not hold it
            raise ConfigError(f"{key}: value holds a line break: {value!r}")
        kv[key] = value
    unknown = sorted(set(kv) - set(_RUN_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    parts = {"": {}, "sampler": {}, "model": {}, "split": {}, "schema": {}}
    for key, value in kv.items():
        part, attr, (parse, _) = _RUN_KEYS[key]
        parts[part][attr] = parse(key, value)
    run, sampler = parts[""], parts["sampler"]
    model = ModelConfig(**parts["model"])
    sampler.setdefault("z_hat", (20,) * model.k_layers)
    sampler.setdefault("seed", run.get("seed", TrainConfig.seed))
    return RunConfig(**run, model=model, sampler=SamplerConfig(**sampler),
                     split=SplitSpec(**parts["split"]),
                     schema=DataSchema(**parts["schema"]))


def dump_run_config(run: RunConfig) -> str:
    """Resolved config as dotted key=value lines, for run manifests."""
    lines = []
    for key, (part, attr, (_, fmt)) in _RUN_KEYS.items():
        text = fmt(getattr(getattr(run, part) if part else run, attr))
        if text is not None:
            lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


_PROP_SUFFIXES = ("field", "weight", "window_seconds")


def load_propositions(path: str) -> list[Proposition]:
    """Read edge rules: `<name>.field`, `<name>.weight`, `<name>.window_seconds`.

    field is required per rule; weight defaults to 1 and window_seconds to
    1800. Rules keep file order, which fixes their edge type indices.
    """
    kv = _read_kv(path, "propositions file")
    grouped: dict[str, dict[str, str]] = {}
    for key, value in kv.items():
        name, dot, suffix = key.rpartition(".")
        if not dot or suffix not in _PROP_SUFFIXES:
            raise ConfigError(
                f"{path}: bad proposition key {key!r}; use "
                f"<name>.field, <name>.weight or <name>.window_seconds")
        grouped.setdefault(name, {})[suffix] = value
    if not grouped:
        raise ConfigError(f"{path}: no propositions defined")
    props = []
    for name, fields in grouped.items():
        if "field" not in fields:
            raise ConfigError(f"{path}: proposition {name!r} missing .field")
        props.append(Proposition(
            name=name,
            field=fields["field"],
            weight=_parse_int(f"{name}.weight", fields.get("weight", "1")),
            window_seconds=_parse_int(f"{name}.window_seconds",
                                      fields.get("window_seconds", "1800")),
        ))
    return props


def load_scenario(path: str) -> ScenarioConfig:
    """Read generator knobs; keys mirror ScenarioConfig field names."""
    kv = _read_kv(path, "scenario file")
    fields = {f.name: f for f in dataclasses.fields(ScenarioConfig)}
    unknown = sorted(set(kv) - set(fields))
    if unknown:
        raise ConfigError(f"{path}: unknown scenario keys: {', '.join(unknown)}")
    kwargs = {}
    for key, value in kv.items():
        if fields[key].type in ("int", int):
            kwargs[key] = _parse_int(key, value)
        else:
            kwargs[key] = _parse_float(key, value)
    return ScenarioConfig(**kwargs)
