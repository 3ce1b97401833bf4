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
from .sampler import DEFAULT_SIMILARITY_FLOOR, SamplerConfig
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


@dataclass
class RunConfig:
    """Everything a training or prediction run needs, file- or flag-sourced."""

    seed: int = 0
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    schema: DataSchema = field(default_factory=DataSchema)
    lr: float = 0.001
    batch_size: int = 256
    epochs: int = 30
    downsample_legit_ratio: float | None = None

    def train_config(self) -> TrainConfig:
        return TrainConfig(model=self.model, sampler=self.sampler,
                           split=self.split, lr=self.lr,
                           batch_size=self.batch_size, epochs=self.epochs,
                           seed=self.seed)


_RUN_KEYS = {
    "seed",
    "sampler.z_hat", "sampler.mode", "sampler.seed",
    "sampler.oversample_count", "sampler.similarity_floor",
    "model.K", "model.hidden", "model.tau_seconds", "model.activation",
    "model.time_mode", "model.use_attention", "model.use_gate",
    "trainer.lr", "trainer.batch_size", "trainer.epochs",
    "trainer.split", "trainer.test_fraction", "trainer.cutoff_timestamp",
    "data.raw_fields", "data.categorical_features", "data.numeric_features",
    "data.downsample_legit_ratio",
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
    unknown = sorted(set(kv) - _RUN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    seed = _parse_int("seed", kv["seed"]) if "seed" in kv else 0
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    k_layers = _parse_int("model.K", kv.get("model.K", "3"))
    model = ModelConfig(
        k_layers=k_layers,
        hidden_dim=_parse_int("model.hidden", kv.get("model.hidden", "32")),
        tau_seconds=_parse_float("model.tau_seconds",
                                 kv.get("model.tau_seconds", "1800")),
        activation=kv.get("model.activation", "relu"),
        time_mode=kv.get("model.time_mode", "decay"),
        use_attention=_parse_bool("model.use_attention",
                                  kv.get("model.use_attention", "true")),
        use_gate=_parse_bool("model.use_gate", kv.get("model.use_gate", "true")),
    )

    if "sampler.z_hat" in kv:
        z_hat = _parse_int_list("sampler.z_hat", kv["sampler.z_hat"])
    else:
        z_hat = tuple(20 for _ in range(k_layers))
    sampler = SamplerConfig(
        z_hat=z_hat,
        oversample_count=_parse_int("sampler.oversample_count",
                                    kv.get("sampler.oversample_count", "10")),
        similarity_floor=_parse_float(
            "sampler.similarity_floor",
            kv.get("sampler.similarity_floor", repr(DEFAULT_SIMILARITY_FLOOR))),
        mode=kv.get("sampler.mode", "deterministic_topz"),
        seed=_parse_int("sampler.seed", kv.get("sampler.seed", str(seed))),
    )

    split_kind = kv.get("trainer.split", "fraction")
    split = SplitSpec(
        kind=split_kind,
        test_fraction=_parse_float("trainer.test_fraction",
                                   kv.get("trainer.test_fraction", "0.3")),
        cutoff_timestamp=(_parse_int("trainer.cutoff_timestamp",
                                     kv["trainer.cutoff_timestamp"])
                          if "trainer.cutoff_timestamp" in kv else None),
    )

    raw_fields = tuple(_parse_list(kv.get("data.raw_fields", "device, ip")))
    categorical = tuple(_parse_list(kv.get("data.categorical_features", "")))
    numeric_arg = kv.get("data.numeric_features", "auto")
    numeric = None if numeric_arg.lower() == "auto" \
        else tuple(_parse_list(numeric_arg))
    schema = DataSchema(raw_fields=raw_fields, categorical=categorical,
                        numeric=numeric)

    down = kv.get("data.downsample_legit_ratio", "none")
    downsample = None if down.lower() == "none" \
        else _parse_float("data.downsample_legit_ratio", down)

    return RunConfig(
        seed=seed, sampler=sampler, model=model, split=split, schema=schema,
        lr=_parse_float("trainer.lr", kv.get("trainer.lr", "0.001")),
        batch_size=_parse_int("trainer.batch_size",
                              kv.get("trainer.batch_size", "256")),
        epochs=_parse_int("trainer.epochs", kv.get("trainer.epochs", "30")),
        downsample_legit_ratio=downsample,
    )


def dump_run_config(run: RunConfig) -> str:
    """Resolved config as dotted key=value lines, for run manifests."""
    m, s, sp, sc = run.model, run.sampler, run.split, run.schema
    lines = [
        f"seed = {run.seed}",
        f"sampler.z_hat = {', '.join(str(z) for z in s.z_hat)}",
        f"sampler.mode = {s.mode}",
        f"sampler.seed = {s.seed}",
        f"sampler.oversample_count = {s.oversample_count}",
        f"sampler.similarity_floor = {repr(float(s.similarity_floor))}",
        f"model.K = {m.k_layers}",
        f"model.hidden = {m.hidden_dim}",
        f"model.tau_seconds = {repr(float(m.tau_seconds))}",
        f"model.activation = {m.activation}",
        f"model.time_mode = {m.time_mode}",
        f"model.use_attention = {str(m.use_attention).lower()}",
        f"model.use_gate = {str(m.use_gate).lower()}",
        f"trainer.lr = {repr(float(run.lr))}",
        f"trainer.batch_size = {run.batch_size}",
        f"trainer.epochs = {run.epochs}",
        f"trainer.split = {sp.kind}",
        f"trainer.test_fraction = {repr(float(sp.test_fraction))}",
    ]
    if sp.cutoff_timestamp is not None:
        lines.append(f"trainer.cutoff_timestamp = {sp.cutoff_timestamp}")
    lines.append(f"data.raw_fields = {', '.join(sc.raw_fields)}")
    lines.append(f"data.categorical_features = {', '.join(sc.categorical)}")
    lines.append("data.numeric_features = "
                 + ("auto" if sc.numeric is None else ", ".join(sc.numeric)))
    lines.append("data.downsample_legit_ratio = "
                 + ("none" if run.downsample_legit_ratio is None
                    else repr(float(run.downsample_legit_ratio))))
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
