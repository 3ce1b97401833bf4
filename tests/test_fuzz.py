"""Property tests: loaders fed arbitrary text fail only with package errors.

Every user-facing input error must end as `error: ...` with exit 1, which
the command line guarantees only for FraudGnnError subclasses; any other
exception escapes as a traceback. The graph builder is also fuzzed against
the pairwise oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudgnn.cli import _read_scores
from fraudgnn.config import (_RUN_KEYS, dump_run_config, load_run_config,
                             parse_kv)
from fraudgnn.datagen import (DataSchema, ScenarioConfig, SplitSpec,
                              generate, ingest_csv, write_csv)
from fraudgnn.errors import FraudGnnError
from fraudgnn.model import (ModelConfig, checkpoint_text, init_params,
                            load_params)
from fraudgnn.tgraph import Proposition, TransactionRecord, build_graph

from reference import (adjacency, loop_ingest_csv, naive_build_graph,
                       naive_max_weight)

FUZZ = settings(max_examples=200, deadline=None)

# values near the parsers' edges, mixed with arbitrary text
NUMBERS = st.sampled_from(["0", "-1", "1", "0.5", "nan", "-nan", "NaN", "inf",
                           "-inf", "1e999", "1_0", "9" * 5000, "٣"])
WORDS = st.sampled_from([
    "", "[]", "[1, 2]", "1,,2", "true", "none", "auto", "x" * 5000,
    "deterministic_topz", "uniform", "cutoff", "explicit",
    "weighted_without_replacement", "interval", "tanh", "\x00"])
VALUES = st.one_of(NUMBERS, WORDS, st.text(max_size=20))


def _raises_only_package_errors(fn, *args):
    try:
        fn(*args)
    except FraudGnnError:
        pass


@FUZZ
@given(st.dictionaries(st.sampled_from(sorted(_RUN_KEYS)), VALUES,
                       min_size=1, max_size=2))
def test_run_config_overrides(overrides):
    try:
        run = load_run_config(None, overrides)
    except FraudGnnError:
        return
    # a loaded config survives its own manifest; a NaN, for one, would not
    assert load_run_config(None, parse_kv(dump_run_config(run))) == run


@FUZZ
@given(st.text(max_size=200))
def test_run_config_text(text):
    try:
        kv = parse_kv(text)
    except FraudGnnError:
        return
    _raises_only_package_errors(load_run_config, None, kv)


def _checkpoint_lines() -> list[str]:
    params = init_params(2, ModelConfig(k_layers=1, hidden_dim=2), seed=0)
    return checkpoint_text(params).splitlines()


CHECKPOINT = _checkpoint_lines()
TOKENS = st.one_of(NUMBERS, WORDS, st.sampled_from(
    ["TENSOR", "layer0.W", "layer0.attn", "head", "END", "0x1p99999",
     "0x1.8p+1", "-0", "100000000000000000000"]), st.text(max_size=8))


@st.composite
def mutated_checkpoints(draw):
    """A valid checkpoint with one line's tokens replaced, or lines dropped
    or duplicated, or arbitrary text."""
    lines = list(CHECKPOINT)
    kind = draw(st.sampled_from(["token", "drop", "repeat", "text"]))
    if kind == "text":
        return draw(st.text(max_size=300))
    row = draw(st.integers(0, len(lines) - 1))
    if kind == "token":
        parts = lines[row].split(" ")
        col = draw(st.integers(0, len(parts) - 1))
        parts[col] = draw(TOKENS)
        lines[row] = " ".join(parts)
    elif kind == "drop":
        del lines[row]
    else:
        lines.insert(row, lines[row])
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def ckpt_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "fuzz.ckpt")


@FUZZ
@given(text=mutated_checkpoints())
def test_load_params_text(ckpt_path, text):
    with open(ckpt_path, "w") as fh:
        fh.write(text)
    _raises_only_package_errors(load_params, ckpt_path)


@pytest.fixture(scope="module")
def text_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "fuzz.csv")


def _write(path: str, text: str):
    with open(path, "w", newline="") as fh:
        fh.write(text)


CELLS = st.one_of(NUMBERS, WORDS, st.sampled_from(
    ["0", "1", "-1", "2", '"a,b"', '"', "9" * 30, "1e308", "-1e308"]),
    st.text(max_size=6))


@st.composite
def csv_texts(draw):
    """Arbitrary text, or a header the loader accepts over rows of cells
    near the parsers' edges, each row a random length."""
    if draw(st.booleans()):
        return draw(st.text(max_size=300))
    header = ["id", "timestamp", "label", "device", "ip", "f1"]
    header += draw(st.lists(st.sampled_from(["f2", "ip", "id", ""]),
                            max_size=2))
    rows = draw(st.lists(st.lists(CELLS, min_size=len(header) - 1,
                                  max_size=len(header) + 1), max_size=8))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(",".join(r) for r in [header, *rows]) + end


def _ingest_outcome(fn, *args):
    """fn(*args) as plain data: every IngestResult field, each record's raw
    dict in key order and attrs bytes, and repr(stats) so that -0.0 shows;
    or the text of the package error it raised."""
    try:
        res = fn(*args)
    except FraudGnnError as exc:
        return f"{type(exc).__name__}: {exc}"
    return (res.train_ids, res.test_ids, res.feature_names,
            repr(res.numeric_stats),
            [(r.id, r.timestamp, r.label, list(r.raw.items()), r.attrs.shape,
              r.attrs.tobytes()) for r in res.records])


def _matches_row_oracle(path, *args):
    assert (_ingest_outcome(ingest_csv, path, *args)
            == _ingest_outcome(loop_ingest_csv, path, *args))


@FUZZ
@given(text=csv_texts(), kind=st.sampled_from(["fraction", "cutoff", "all"]),
       ratio=st.sampled_from([None, 0.5, 3.0]))
def test_ingest_csv_text(text_path, text, kind, ratio):
    _write(text_path, text)
    split = SplitSpec(kind=kind, test_fraction=0.5, cutoff_timestamp=1)
    _matches_row_oracle(text_path, DataSchema(), split, 0, ratio)


SCHEMAS = [
    DataSchema(raw_fields=("device", "ip", "country")),
    DataSchema(categorical=("country",)),
    DataSchema(raw_fields=("device",), categorical=("country", "ip")),
    DataSchema(categorical=("country",), numeric=("f1", "f2")),
]
# zeros of both signs, ties, and values whose gaps overflow
AMOUNTS = st.sampled_from(["0", "-0", "0.0", "-0.0", "1", "2.5", "-3", "0.1",
                           "7", "1e308", "-1e308"])


@st.composite
def ingest_inputs(draw):
    """A CSV of well-formed rows, a schema, one of the four split kinds and
    a down-sampling ratio."""
    ids = draw(st.lists(st.integers(-5, 40), min_size=1, max_size=14,
                        unique=True))
    lines = ["id,timestamp,label,device,ip,country,f1,f2"]
    for v in ids:
        lines.append(",".join([
            str(v), str(draw(st.integers(0, 20))),
            draw(st.sampled_from(["0", "0", "1", "1", "-1"])),
            draw(st.sampled_from(["d0", "d1"])),
            draw(st.sampled_from(["i0", "i1", "i2"])),
            draw(st.sampled_from(["a", "b", "c"])),
            draw(AMOUNTS), draw(AMOUNTS)]))
    kind = draw(st.sampled_from(["fraction", "cutoff", "all", "explicit"]))
    if kind == "explicit":
        train = draw(st.lists(st.sampled_from(ids), unique=True))
        test = draw(st.lists(st.sampled_from([*ids, 99]), unique=True,
                             max_size=4))
        split = SplitSpec(kind=kind, train_ids=tuple(train),
                          test_ids=tuple(test))
    else:
        split = SplitSpec(kind=kind,
                          test_fraction=draw(st.sampled_from([0.0, 0.3, 0.5])),
                          cutoff_timestamp=draw(st.integers(-1, 21)))
    return ("\n".join(lines) + "\n", draw(st.sampled_from(SCHEMAS)), split,
            draw(st.integers(0, 3)),
            draw(st.sampled_from([None, 0.5, 1.0, 3.0])))


@FUZZ
@given(inputs=ingest_inputs())
def test_ingest_csv_matches_row_oracle(text_path, inputs):
    text, *args = inputs
    _write(text_path, text)
    _matches_row_oracle(text_path, *args)


@pytest.mark.parametrize("ratio", [None, 2.0])
def test_ingest_of_generated_csv_matches_row_oracle(tmp_path, ratio):
    path = str(tmp_path / "gen.csv")
    write_csv(generate(ScenarioConfig(n_legit=140, n_fraud=60,
                                      camouflage_rate=0.3)), path)
    _matches_row_oracle(path, DataSchema(), SplitSpec(), 0, ratio)


@st.composite
def scores_texts(draw):
    """Arbitrary text, or an id,p_fraud header over rows of edge cells."""
    if draw(st.booleans()):
        return draw(st.text(max_size=300))
    rows = draw(st.lists(st.lists(CELLS, min_size=1, max_size=4),
                         max_size=8))
    return "\n".join(",".join(r) for r in [["id", "p_fraud"], *rows]) + "\n"


@FUZZ
@given(text=scores_texts())
def test_read_scores_text(text_path, text):
    _write(text_path, text)
    _raises_only_package_errors(_read_scores, text_path)


BIG = 2**62 - 1  # the widest timestamp build_graph accepts
# 1 and 1.0 are one dict key, "1" another; no bools, which equal 1 too
RAW = st.sampled_from([1, 1.0, "1", 2, "a"])
WINDOWS = st.sampled_from([0, 0.5, 1, 2, 5, 30, 899.9, 900, float("inf")])


@st.composite
def graph_instances(draw):
    """Records with ids out of row order, equal, negative and +-BIG
    timestamps, mixed raw values, and 1-3 propositions over two fields."""
    n = draw(st.integers(1, 14))
    ids = draw(st.lists(st.integers(-BIG, BIG), min_size=n, max_size=n,
                        unique=True))
    stamps = st.one_of(st.integers(-40, 40), st.sampled_from([BIG, -BIG]))
    one_bucket = draw(st.booleans())  # every record shares each field value
    records = [TransactionRecord(
        id=rid, attrs=[1.0, float(k)], timestamp=draw(stamps),
        raw={f: 1 if one_bucket else draw(RAW) for f in ("device", "ip")})
        for k, rid in enumerate(ids)]
    props = [Proposition(name=f"p{k}", field=draw(st.sampled_from(["device", "ip"])),
                         weight=draw(st.integers(1, 3)),
                         window_seconds=draw(WINDOWS))
             for k in range(draw(st.integers(1, 3)))]
    return records, props


@FUZZ
@given(instance=graph_instances())
def test_build_graph_matches_pairwise_oracle(instance):
    records, props = instance
    g = build_graph(records, props)
    oracle = naive_build_graph(records, props)
    assert adjacency(g) == oracle
    by_id = {r.id: r for r in records}
    for row, r in enumerate(records):
        span = g.csr.span(row)
        want = sorted({u for u, _ in oracle[r.id]})
        assert g.csr.ids[span].tolist() == want
        assert [records[j].id for j in g.csr.rows[span]] == want
        assert g.csr.weight[span].tolist() == [
            naive_max_weight(by_id, props, r.id, u) for u in want]
