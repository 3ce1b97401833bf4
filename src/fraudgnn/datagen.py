"""Synthetic transaction scenarios and CSV ingestion.

The generator produces two feature clusters (legitimate and fraud) with
fraud concentrated on few devices in short time bursts, so the proposition
graph grows dense fraud subgraphs. A configurable share of fraud records is
camouflaged: legitimate-looking features and a legitimate anchor's ip and
time slot, but a fraud-pool device. Camouflaged records therefore wire into
legitimate neighborhoods while staying reachable through the fraud device
subgraph, the footprint that label-aware aggregation has to cope with.

Ingestion reads the CSV schema `id,timestamp,label,<raw fields...>,
<feature columns...>`, one-hot encodes declared categorical columns and
min-max scales numeric ones using training-split statistics only.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IngestError, InputError, unreadable
from .tgraph import TransactionRecord, UNLABELED

log = logging.getLogger(__name__)

SPLIT_SEED_TAG = 1
DOWNSAMPLE_SEED_TAG = 5

BURST_SIZE = 10


@dataclass
class ScenarioConfig:
    """Knobs for the synthetic generator; see module docstring for the story."""

    n_legit: int = 1400
    n_fraud: int = 600
    n_devices: int = 40
    n_ips: int = 60
    fraud_device_concentration: float = 0.9
    fraud_burst_window: int = 900
    camouflage_rate: float = 0.0
    feature_dim: int = 8
    cluster_separation: float = 4.0
    time_span_seconds: int = 14 * 86400
    seed: int = 0

    def __post_init__(self):
        if self.n_legit < 0 or self.n_fraud < 0:
            raise ConfigError("record counts must be non-negative")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_devices < 1 or self.n_ips < 1:
            raise ConfigError("device and ip pools must be non-empty")
        if not 0.0 < self.fraud_device_concentration <= 1.0:
            raise ConfigError(
                f"fraud_device_concentration must be in (0, 1], "
                f"got {self.fraud_device_concentration}")
        if not 0.0 <= self.camouflage_rate <= 1.0:
            raise ConfigError(
                f"camouflage_rate must be in [0, 1], got {self.camouflage_rate}")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        if self.fraud_burst_window < 1 or self.time_span_seconds < 1:
            raise ConfigError("time windows must be positive")
        if not 0.0 < self.cluster_separation < math.inf:  # nan fails too
            raise ConfigError("cluster_separation must be finite and positive, "
                              f"got {self.cluster_separation}")


def _capped_noise(rng: np.random.Generator, dim: int, cap: float) -> np.ndarray:
    """Gaussian deviation with its norm clipped so clusters cannot touch."""
    v = rng.normal(size=dim)
    norm = np.linalg.norm(v)
    if norm > cap:
        v *= cap / norm
    return v


def cluster_centers(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Class centers: legitimate high on even dims, fraud high on odd dims.

    The centers are orthogonal, sit cluster_separation apart and away from
    the origin, so normalized feature vectors of same-class records point
    the same way and cosine similarity separates the classes as well as
    distance does. Keeping every coordinate non-negative and the structure
    axis-aligned means per-dimension rescaling (as done when a CSV is
    ingested with train-fit min-max scaling) preserves the class
    directions. With feature_dim 1 no orthogonal axis exists and the
    centers are antipodal.
    """
    dim = cfg.feature_dim
    if dim == 1:
        half = cfg.cluster_separation / 2.0
        return np.array([half]), np.array([-half])
    even = (np.arange(dim) % 2 == 0).astype(np.float64)
    odd = 1.0 - even
    u = even / np.linalg.norm(even)
    v = odd / np.linalg.norm(odd)
    scale = cfg.cluster_separation / np.linalg.norm(v - u)
    return scale * u, scale * v


def generate(cfg: ScenarioConfig) -> list[TransactionRecord]:
    """Deterministic synthetic records; attrs hold raw (unscaled) features.

    The feature clusters sit cluster_separation apart with per-sample noise
    capped at 40% of the separation, so with camouflage_rate 0 the classes
    are disjoint in feature space by construction.
    """
    rng = np.random.default_rng(cfg.seed)
    dim = cfg.feature_dim
    mu_legit, mu_fraud = cluster_centers(cfg)
    cap = 0.4 * cfg.cluster_separation

    devices = [f"dev-{i:03d}" for i in range(cfg.n_devices)]
    ips = [f"ip-{i:03d}" for i in range(cfg.n_ips)]
    n_fraud_devices = max(1, round((1.0 - cfg.fraud_device_concentration)
                                   * cfg.n_devices))
    n_fraud_ips = max(1, round((1.0 - cfg.fraud_device_concentration)
                               * cfg.n_ips))
    fraud_devices = devices[:n_fraud_devices]
    fraud_ips = ips[:n_fraud_ips]

    rows = []  # (timestamp, label, device, ip, features)
    for _ in range(cfg.n_legit):
        rows.append((
            int(rng.integers(0, cfg.time_span_seconds)),
            0,
            devices[rng.integers(len(devices))],
            ips[rng.integers(len(ips))],
            mu_legit + _capped_noise(rng, dim, cap),
        ))

    n_camouflaged = round(cfg.camouflage_rate * cfg.n_fraud)
    n_burst_fraud = cfg.n_fraud - n_camouflaged

    made = 0
    while made < n_burst_fraud:
        size = min(BURST_SIZE, n_burst_fraud - made)
        device = fraud_devices[rng.integers(len(fraud_devices))]
        ip = fraud_ips[rng.integers(len(fraud_ips))]
        start = int(rng.integers(0, cfg.time_span_seconds))
        for _ in range(size):
            rows.append((
                start + int(rng.integers(0, cfg.fraud_burst_window)),
                1,
                device,
                ip,
                mu_fraud + _capped_noise(rng, dim, cap),
            ))
        made += size

    legit_rows = rows[:cfg.n_legit]
    for _ in range(n_camouflaged):
        feats = mu_legit + _capped_noise(rng, dim, cap)
        device = fraud_devices[rng.integers(len(fraud_devices))]
        if legit_rows:
            anchor = legit_rows[rng.integers(len(legit_rows))]
            ts = anchor[0] + int(rng.integers(0, cfg.fraud_burst_window))
            ip = anchor[3]
        else:
            ts = int(rng.integers(0, cfg.time_span_seconds))
            ip = ips[rng.integers(len(ips))]
        rows.append((ts, 1, device, ip, feats))

    order = rng.permutation(len(rows))
    records = []
    for new_id, src in enumerate(order):
        ts, label, device, ip, feats = rows[src]
        records.append(TransactionRecord(
            id=new_id,
            attrs=np.asarray(feats, dtype=np.float64),
            raw={"device": device, "ip": ip},
            timestamp=ts,
            label=label,
        ))
    log.info("generated %d records (%d fraud, %d camouflaged)",
             len(records), cfg.n_fraud, n_camouflaged)
    return records


def csv_text(records: list[TransactionRecord]) -> str:
    """Schema: id,timestamp,label,device,ip,f0..; floats via repr for stability."""
    if not records:
        raise InputError("nothing to write: no records")
    raw_names = sorted(records[0].raw)
    dim = records[0].attrs.shape[0]
    header = ["id", "timestamp", "label", *raw_names,
              *[f"f{i}" for i in range(dim)]]
    lines = [",".join(header)]
    for rec in records:
        row = [str(rec.id), str(rec.timestamp), str(rec.label)]
        row.extend(str(rec.raw[name]) for name in raw_names)
        row.extend(repr(float(x)) for x in rec.attrs)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_csv(records: list[TransactionRecord], path: str):
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(records))


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

@dataclass
class SplitSpec:
    """How to carve records into train/test. kind is one of:

    fraction - stratified random holdout of test_fraction per class
    cutoff   - timestamp <= cutoff_timestamp trains, the rest tests
    all      - everything trains
    explicit - caller supplies both id lists
    """

    kind: str = "fraction"
    test_fraction: float = 0.3
    cutoff_timestamp: int | None = None
    train_ids: tuple[int, ...] | None = None
    test_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        kinds = ("fraction", "cutoff", "all", "explicit")
        if self.kind not in kinds:
            raise ConfigError(f"split kind {self.kind!r} not in {kinds}")
        if self.kind == "fraction" and not 0.0 <= self.test_fraction < 1.0:
            raise ConfigError(
                f"test_fraction must be in [0, 1), got {self.test_fraction}")
        if self.kind == "cutoff" and self.cutoff_timestamp is None:
            raise ConfigError("cutoff split needs cutoff_timestamp")
        if self.kind == "explicit" and (self.train_ids is None
                                        or self.test_ids is None):
            raise ConfigError("explicit split needs train_ids and test_ids")


def split_records(records: list[TransactionRecord], spec: SplitSpec,
                  seed: int) -> tuple[list[int], list[int]]:
    """Return (train_ids, test_ids). Unlabeled records never train."""
    return _split_ids(np.array([r.id for r in records], dtype=np.int64),
                      np.array([r.timestamp for r in records], dtype=np.int64),
                      np.array([r.label for r in records], dtype=np.int64),
                      spec, seed)


def _split_ids(ids: np.ndarray, timestamps: np.ndarray, labels: np.ndarray,
               spec: SplitSpec, seed: int) -> tuple[list[int], list[int]]:
    """split_records over the id, timestamp and label columns of distinct ids."""
    if spec.kind == "all":
        return ids.tolist(), []
    if spec.kind == "cutoff":
        return (ids[timestamps <= spec.cutoff_timestamp].tolist(),
                ids[timestamps > spec.cutoff_timestamp].tolist())
    if spec.kind == "explicit":
        known = set(ids.tolist())
        for v in (*spec.train_ids, *spec.test_ids):
            if v not in known:
                raise InputError(f"explicit split references unknown id {v}")
        for part, part_ids in (("train", spec.train_ids),
                               ("test", spec.test_ids)):
            seen = set()
            for v in part_ids:
                if v in seen:
                    raise InputError(f"explicit split repeats id {v} in {part}")
                seen.add(v)
        overlap = set(spec.train_ids) & set(spec.test_ids)
        if overlap:
            raise InputError(
                f"explicit split overlaps on ids {sorted(overlap)[:5]}")
        return list(spec.train_ids), list(spec.test_ids)

    rng = np.random.default_rng(np.random.SeedSequence((seed, SPLIT_SEED_TAG)))
    order = np.argsort(ids)
    ids, labels = ids[order], labels[order]
    test = labels == UNLABELED
    for label in np.unique(labels[~test]).tolist():
        group = np.flatnonzero(labels == label)
        n_test = round(spec.test_fraction * len(group))
        test[group[rng.permutation(len(group))[:n_test]]] = True
    return ids[~test].tolist(), ids[test].tolist()


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

@dataclass
class DataSchema:
    """Column roles. raw_fields stay strings for proposition matching;
    categorical columns one-hot into attrs; numeric columns min-max scale.
    numeric None means every undeclared column is numeric."""

    raw_fields: tuple[str, ...] = ("device", "ip")
    categorical: tuple[str, ...] = ()
    numeric: tuple[str, ...] | None = None


@dataclass
class IngestResult:
    records: list[TransactionRecord]
    train_ids: list[int]
    test_ids: list[int]
    feature_names: list[str]
    numeric_stats: dict[str, tuple[float, float]] = field(default_factory=dict)


_FIXED_COLUMNS = ("id", "timestamp", "label")


def _parse_rows(path: str, schema: DataSchema):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise unreadable("data CSV", path, exc) from None
    if not rows:
        raise IngestError(f"{path}: empty file, header required")
    header, rows = rows[0], rows[1:]

    if tuple(header[:3]) != _FIXED_COLUMNS:
        raise IngestError(
            f"{path}: header must start with id,timestamp,label; "
            f"got {header[:3]}")
    rest = header[3:]
    missing = [c for c in (*schema.raw_fields, *schema.categorical)
               if c not in rest]
    if schema.numeric is not None:
        missing += [c for c in schema.numeric if c not in rest]
    if missing:
        raise IngestError(f"{path}: declared columns missing from header: "
                          f"{missing}")
    if schema.numeric is None:
        claimed = set(schema.raw_fields) | set(schema.categorical)
        numeric = tuple(c for c in rest if c not in claimed)
    else:
        numeric = tuple(schema.numeric)
        claimed = (set(schema.raw_fields) | set(schema.categorical)
                   | set(numeric))
        extra = [c for c in rest if c not in claimed]
        if extra:
            raise IngestError(f"{path}: undeclared columns {extra}; "
                              f"declare them in the schema or drop them")
    col_pos = {name: i for i, name in enumerate(header)}

    ids, stamps, labels, values = [], [], [], []
    problems = []
    for line_no, row in enumerate(rows, start=2):
        if len(row) != len(header):
            problems.append(f"line {line_no}: {len(row)} fields, "
                            f"expected {len(header)}")
            continue
        try:
            rid = int(row[col_pos["id"]])
            ts = int(row[col_pos["timestamp"]])
            label = int(row[col_pos["label"]])
            if label not in (0, 1, UNLABELED):
                raise ValueError(f"label must be 0, 1 or {UNLABELED}")
            if max(abs(rid), abs(ts)) >= 2**62:  # int64 arrays, gaps too
                raise ValueError("id and timestamp must lie within +-2**62")
            # a bad row fails the file, so no column keeps its partial values
            for c in numeric:
                text = row[col_pos[c]]
                try:
                    values.append(float(text))
                except ValueError:
                    values.append(math.nan)
                if not math.isfinite(values[-1]):
                    raise ValueError(
                        f"column {c!r}: {text!r} is not a finite number")
        except ValueError as exc:
            problems.append(f"line {line_no}: {exc}")
            continue
        ids.append(rid)
        stamps.append(ts)
        labels.append(label)

    if problems:
        shown = "; ".join(problems[:10])
        more = f" (+{len(problems) - 10} more)" if len(problems) > 10 else ""
        raise IngestError(f"{path}: {len(problems)} bad rows: {shown}{more}")

    seen: dict[int, int] = {}
    dupes = []
    for line_no, rid in enumerate(ids, start=2):
        if rid in seen:
            dupes.append(f"id {rid} on lines {seen[rid]} and {line_no}")
        else:
            seen[rid] = line_no
    if dupes:
        raise IngestError(f"{path}: duplicate ids: {'; '.join(dupes[:5])}")
    strings = {c: [row[col_pos[c]] for row in rows]
               for c in (*schema.raw_fields, *schema.categorical)}
    return (np.array(ids, dtype=np.int64), np.array(stamps, dtype=np.int64),
            np.array(labels, dtype=np.int64),
            np.array(values).reshape(len(rows), len(numeric)), strings, numeric)


def ingest_csv(path: str, schema: DataSchema | None = None,
               split: SplitSpec | None = None, seed: int = 0,
               downsample_legit_ratio: float | None = None) -> IngestResult:
    """Read, split, and preprocess a transaction CSV.

    Scaling and one-hot vocabularies come from the training split only;
    test values outside the training range clamp into [0, 1] and unseen
    categories encode as all-zero blocks. Optional down-sampling keeps at
    most ratio * (train fraud count) legitimate training rows, dropping the
    rest from the dataset.
    """
    schema = schema or DataSchema()
    split = split or SplitSpec()
    ids, stamps, labels, x, strings, numeric = _parse_rows(path, schema)
    if not len(ids):
        raise IngestError(f"{path}: no data rows")

    train_ids, test_ids = _split_ids(ids, stamps, labels, split, seed)
    in_train = np.isin(ids, train_ids)

    if downsample_legit_ratio is not None:
        if not 0 < downsample_legit_ratio < math.inf:
            raise ConfigError("downsample_legit_ratio must be finite and > 0")
        legit = np.flatnonzero(in_train & (labels == 0))
        keep = round(downsample_legit_ratio
                     * np.count_nonzero(in_train & (labels == 1)))
        if keep < len(legit):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, DOWNSAMPLE_SEED_TAG)))
            kept = np.ones(len(ids), dtype=bool)
            kept[np.delete(legit, rng.permutation(len(legit))[:keep])] = False
            dropped = set(ids[~kept].tolist())
            train_ids = [v for v in train_ids if v not in dropped]
            ids, stamps, labels, x, in_train = (
                a[kept] for a in (ids, stamps, labels, x, in_train))
            strings = {c: list(itertools.compress(col, kept))
                       for c, col in strings.items()}
            log.info("down-sampled legitimate training rows: kept %d of %d",
                     keep, len(legit))

    if not in_train.any():
        raise IngestError(f"{path}: training split is empty")

    # the first of tied extremes, as min() and max() keep: 0.0 and -0.0 tie
    fit, cols = x[in_train], np.arange(len(numeric))
    lo, hi = fit[fit.argmin(axis=0), cols], fit[fit.argmax(axis=0), cols]
    stats = {c: (a, b) for c, a, b in zip(numeric, lo.tolist(), hi.tolist())}
    with np.errstate(all="ignore"):  # inf past 1e308, 0/0 where span is 0
        span = hi - lo
        x = np.where(span > 0, (x - lo) / span, 0.0)
    x = np.where(x > 0.0, x, 0.0)  # as max(0.0, x): -0.0 and nan give 0.0
    blocks = [np.where(x < 1.0, x, 1.0)]
    feature_names = list(numeric)
    for c in schema.categorical:
        vocab = sorted(set(itertools.compress(strings[c], in_train)))
        feature_names.extend(f"{c}={v}" for v in vocab)
        slot = {v: i for i, v in enumerate(vocab)}
        hot = np.array([slot.get(v, -1) for v in strings[c]])
        blocks.append((hot[:, None] == np.arange(len(vocab))).astype(np.float64))

    records = [TransactionRecord(id=v, attrs=a, timestamp=t, label=y,
                                 raw={c: col[i] for c, col in strings.items()})
               for i, (v, t, y, a) in enumerate(zip(
                   ids.tolist(), stamps.tolist(), labels.tolist(),
                   np.hstack(blocks)))]
    return IngestResult(records=records, train_ids=list(train_ids),
                        test_ids=list(test_ids), feature_names=feature_names,
                        numeric_stats=stats)
