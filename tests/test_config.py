"""Config file parsing: run settings, proposition rules, scenario knobs."""

import math
from pathlib import Path

import numpy as np
import pytest

from fraudgnn.config import (_RUN_KEYS, RunConfig, dump_run_config,
                             load_propositions, load_run_config,
                             load_scenario, parse_kv)
from fraudgnn.errors import ConfigError
from fraudgnn.model import ModelConfig
from fraudgnn.sampler import SamplerConfig
from fraudgnn.train import TrainConfig


# (config class, field, a valid count) for every count a config holds
COUNT_FIELDS = [
    (SamplerConfig, "oversample_count", 3),
    (ModelConfig, "k_layers", 2),
    (ModelConfig, "hidden_dim", 4),
    (TrainConfig, "batch_size", 8),
    (TrainConfig, "epochs", 2),
    (TrainConfig, "seed", 1),
]


class TestCountFields:
    """Every count rejects a non-integer with ConfigError at construction.
    Before, oversample_count=2.5 ended train in numpy's TypeError and
    batch_size=2.5 was accepted."""

    @pytest.mark.parametrize("cls, field, good", COUNT_FIELDS,
                             ids=[f"{c.__name__}.{f}" for c, f, _ in COUNT_FIELDS])
    def test_rejects_non_integers(self, cls, field, good):
        assert getattr(cls(**{field: np.int64(good)}), field) == good
        for bad in (good + 0.5, float(good), True, str(good), None):
            with pytest.raises(ConfigError, match=f"{field} must be an integer"):
                cls(**{field: bad})

    def test_z_hat_entries(self):
        """z_hat = (2.5,) was silently truncated to 2."""
        assert SamplerConfig(z_hat=[np.int32(2), 3]).z_hat == (2, 3)
        for bad in ((2.5,), (4, 2.0), (True,)):
            with pytest.raises(ConfigError, match="z_hat entry must be an integer"):
                SamplerConfig(z_hat=bad)
        with pytest.raises(ConfigError, match="z_hat entry must be >= 1"):
            SamplerConfig(z_hat=(3, 0))
        with pytest.raises(ConfigError, match="at least one layer"):
            SamplerConfig(z_hat=())

    def test_similarity_floor_nan(self):
        """A NaN floor dropped every fraud extra: sims >= nan is false."""
        with pytest.raises(ConfigError, match="similarity_floor"):
            SamplerConfig(similarity_floor=math.nan)
        assert SamplerConfig(similarity_floor=math.inf).similarity_floor == math.inf


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseKv:
    def test_basic_lines(self):
        kv = parse_kv("a = 1\nb=two\n  c  =  3 spaces  \n")
        assert kv == {"a": "1", "b": "two", "c": "3 spaces"}

    def test_comments_and_blanks_skipped(self):
        kv = parse_kv("# header\n\na = 1\n   # indented comment\n")
        assert kv == {"a": "1"}

    def test_value_may_contain_equals(self):
        assert parse_kv("a = x=y\n") == {"a": "x=y"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line"):
            parse_kv("just words\n", source="line")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_kv("= 5\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kv("a = 1\na = 2\n")

    def test_error_names_source_and_line(self):
        with pytest.raises(ConfigError, match=r"my\.cfg:2"):
            parse_kv("a = 1\nbroken\n", source="my.cfg")


class TestLoadRunConfig:
    def test_all_defaults(self):
        run = load_run_config()
        assert run.seed == 0
        assert run.model.k_layers == 3
        assert run.sampler.z_hat == (20, 20, 20)
        assert run.epochs == 30
        assert run.schema.raw_fields == ("device", "ip")
        assert run.downsample_legit_ratio is None

    def test_file_values(self, tmp_path):
        path = write(tmp_path, "\n".join([
            "seed = 7",
            "model.K = 2",
            "model.hidden = 16",
            "model.activation = tanh",
            "sampler.z_hat = 5, 9",
            "sampler.mode = weighted_without_replacement",
            "trainer.lr = 0.01",
            "trainer.epochs = 12",
            "trainer.split = cutoff",
            "trainer.cutoff_timestamp = 500",
        ]) + "\n")
        run = load_run_config(path)
        assert run.seed == 7
        assert run.model.k_layers == 2
        assert run.model.hidden_dim == 16
        assert run.model.activation == "tanh"
        assert run.sampler.z_hat == (5, 9)
        assert run.sampler.mode == "weighted_without_replacement"
        assert run.lr == 0.01
        assert run.epochs == 12
        assert run.split.kind == "cutoff"
        assert run.split.cutoff_timestamp == 500

    def test_z_hat_bracket_form(self, tmp_path):
        path = write(tmp_path, "model.K = 2\nsampler.z_hat = [3, 4]\n")
        assert load_run_config(path).sampler.z_hat == (3, 4)

    def test_z_hat_defaults_to_twenty_per_layer(self, tmp_path):
        path = write(tmp_path, "model.K = 5\n")
        assert load_run_config(path).sampler.z_hat == (20,) * 5

    def test_sampler_seed_follows_top_seed(self, tmp_path):
        path = write(tmp_path, "seed = 99\n")
        assert load_run_config(path).sampler.seed == 99

    def test_sampler_seed_explicit_override(self, tmp_path):
        path = write(tmp_path, "seed = 99\nsampler.seed = 3\n")
        run = load_run_config(path)
        assert run.seed == 99 and run.sampler.seed == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "model.layers = 3\n")
        with pytest.raises(ConfigError, match="model.layers"):
            load_run_config(path)

    def test_overrides_win_over_file(self, tmp_path):
        path = write(tmp_path, "seed = 1\ntrainer.epochs = 5\n")
        run = load_run_config(path, overrides={"trainer.epochs": "9"})
        assert run.seed == 1 and run.epochs == 9

    def test_overrides_alone(self):
        run = load_run_config(overrides={"model.K": "1",
                                         "sampler.z_hat": "4"})
        assert run.model.k_layers == 1
        assert run.sampler.z_hat == (4,)

    def test_schema_keys(self, tmp_path):
        path = write(tmp_path, "\n".join([
            "data.raw_fields = card, merchant",
            "data.categorical_features = country",
            "data.numeric_features = amount, hour",
        ]) + "\n")
        run = load_run_config(path)
        assert run.schema.raw_fields == ("card", "merchant")
        assert run.schema.categorical == ("country",)
        assert run.schema.numeric == ("amount", "hour")

    def test_numeric_auto(self, tmp_path):
        path = write(tmp_path, "data.numeric_features = auto\n")
        assert load_run_config(path).schema.numeric is None

    def test_downsample_none_and_number(self, tmp_path):
        assert load_run_config(
            write(tmp_path, "data.downsample_legit_ratio = none\n", "a.cfg")
        ).downsample_legit_ratio is None
        assert load_run_config(
            write(tmp_path, "data.downsample_legit_ratio = 2.5\n", "b.cfg")
        ).downsample_legit_ratio == 2.5

    def test_bad_boolean(self, tmp_path):
        path = write(tmp_path, "model.use_gate = maybe\n")
        with pytest.raises(ConfigError, match="boolean"):
            load_run_config(path)

    @pytest.mark.parametrize("key", [
        "data.downsample_legit_ratio", "trainer.lr",
        "sampler.similarity_floor", "model.tau_seconds"])
    def test_nan_rejected(self, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            load_run_config(overrides={key: "nan"})

    @pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "0", "-0.5"])
    def test_lr_must_be_finite_and_positive(self, value):
        with pytest.raises(ConfigError, match="lr must be finite"):
            load_run_config(overrides={"trainer.lr": value})

    def test_negative_seed_rejected(self):
        """numpy seeds need non-negative integers; -1 raised a ValueError."""
        with pytest.raises(ConfigError, match="seed"):
            load_run_config(overrides={"seed": "-1"})

    def test_line_break_in_override_rejected(self):
        """A manifest holds one key per line, so it could not record it."""
        with pytest.raises(ConfigError, match="line break"):
            load_run_config(overrides={"data.raw_fields": "device\rip"})

    def test_bad_integer(self, tmp_path):
        path = write(tmp_path, "trainer.epochs = soon\n")
        with pytest.raises(ConfigError, match="integer"):
            load_run_config(path)

    def test_train_config_carries_toggles(self):
        run = load_run_config(overrides={"model.K": "2",
                                         "sampler.z_hat": "3, 3",
                                         "sampler.mode": "uniform",
                                         "sampler.oversample_count": "0"})
        assert run.sampler.mode == "uniform"
        assert run.sampler.oversample_count == 0
        assert isinstance(run, TrainConfig)


class TestDumpRunConfig:
    def test_round_trip_through_loader(self, tmp_path):
        """Dumping a config and loading the dump reproduces the config."""
        original = load_run_config(overrides={
            "seed": "11",
            "model.K": "2",
            "model.hidden": "12",
            "sampler.z_hat": "6, 7",
            "sampler.similarity_floor": "1.5",
            "trainer.lr": "0.004",
            "trainer.split": "cutoff",
            "trainer.cutoff_timestamp": "1234",
            "data.categorical_features": "country",
            "data.downsample_legit_ratio": "3.0",
        })
        text = dump_run_config(original)
        reloaded = load_run_config(write(tmp_path, text))
        assert dump_run_config(reloaded) == text
        assert reloaded == original

    def test_dump_is_parseable_flat_kv(self):
        kv = parse_kv(dump_run_config(load_run_config()))
        assert kv["model.K"] == "3"
        assert kv["sampler.z_hat"] == "20, 20, 20"
        assert kv["model.use_gate"] == "true"


# Manifest text pinned as literal strings, so a change shows as a diff.
DEFAULT_MANIFEST = """\
seed = 0
sampler.z_hat = 20, 20, 20
sampler.mode = deterministic_topz
sampler.seed = 0
sampler.oversample_count = 10
sampler.similarity_floor = 1.6487212707001282
model.K = 3
model.hidden = 32
model.tau_seconds = 1800.0
model.activation = relu
model.time_mode = decay
model.use_attention = true
model.use_gate = true
trainer.lr = 0.001
trainer.batch_size = 256
trainer.epochs = 30
trainer.split = fraction
trainer.test_fraction = 0.3
data.raw_fields = device, ip
data.categorical_features = 
data.numeric_features = auto
data.downsample_legit_ratio = none
"""

README_RUN_CFG = """\
seed = 0
model.K = 2
model.hidden = 8
model.tau_seconds = 21600
sampler.z_hat = 8, 8
trainer.lr = 0.01
trainer.epochs = 30
trainer.split = fraction
trainer.test_fraction = 0.7
"""

README_MANIFEST = """\
seed = 0
sampler.z_hat = 8, 8
sampler.mode = deterministic_topz
sampler.seed = 0
sampler.oversample_count = 10
sampler.similarity_floor = 1.6487212707001282
model.K = 2
model.hidden = 8
model.tau_seconds = 21600.0
model.activation = relu
model.time_mode = decay
model.use_attention = true
model.use_gate = true
trainer.lr = 0.01
trainer.batch_size = 256
trainer.epochs = 30
trainer.split = fraction
trainer.test_fraction = 0.7
data.raw_fields = device, ip
data.categorical_features = 
data.numeric_features = auto
data.downsample_legit_ratio = none
"""

EVERY_KEY = {
    "seed": "5",
    "sampler.z_hat": "4, 6",
    "sampler.mode": "weighted_without_replacement",
    "sampler.seed": "9",
    "sampler.oversample_count": "3",
    "sampler.similarity_floor": "0.25",
    "model.K": "2",
    "model.hidden": "12",
    "model.tau_seconds": "600",
    "model.activation": "tanh",
    "model.time_mode": "interval",
    "model.use_attention": "off",
    "model.use_gate": "no",
    "trainer.lr": "0.05",
    "trainer.batch_size": "64",
    "trainer.epochs": "7",
    "trainer.split": "cutoff",
    "trainer.test_fraction": "0.25",
    "trainer.cutoff_timestamp": "12000",
    "data.raw_fields": "card, merchant",
    "data.categorical_features": "country, channel",
    "data.numeric_features": "amount, hour",
    "data.downsample_legit_ratio": "2.5",
}

EVERY_KEY_MANIFEST = """\
seed = 5
sampler.z_hat = 4, 6
sampler.mode = weighted_without_replacement
sampler.seed = 9
sampler.oversample_count = 3
sampler.similarity_floor = 0.25
model.K = 2
model.hidden = 12
model.tau_seconds = 600.0
model.activation = tanh
model.time_mode = interval
model.use_attention = false
model.use_gate = false
trainer.lr = 0.05
trainer.batch_size = 64
trainer.epochs = 7
trainer.split = cutoff
trainer.test_fraction = 0.25
trainer.cutoff_timestamp = 12000
data.raw_fields = card, merchant
data.categorical_features = country, channel
data.numeric_features = amount, hour
data.downsample_legit_ratio = 2.5
"""

LIBRARY_MANIFEST = """\
seed = 0
sampler.z_hat = 20, 20, 20
sampler.mode = deterministic_topz
sampler.seed = 0
sampler.oversample_count = 10
sampler.similarity_floor = 1.6487212707001282
model.K = 3
model.hidden = 32
model.tau_seconds = 21600.0
model.activation = relu
model.time_mode = decay
model.use_attention = true
model.use_gate = true
trainer.lr = 1.0
trainer.batch_size = 256
trainer.epochs = 30
trainer.split = fraction
trainer.test_fraction = 0.3
data.raw_fields = device, ip
data.categorical_features = 
data.numeric_features = auto
data.downsample_legit_ratio = 2.0
"""


class TestManifestText:
    def test_defaults(self):
        assert dump_run_config(load_run_config()) == DEFAULT_MANIFEST

    def test_readme_run_cfg(self, tmp_path):
        run = load_run_config(write(tmp_path, README_RUN_CFG))
        assert dump_run_config(run) == README_MANIFEST

    def test_every_key_set(self):
        assert len(EVERY_KEY) == 23
        run = load_run_config(overrides=EVERY_KEY)
        assert dump_run_config(run) == EVERY_KEY_MANIFEST

    def test_library_config_with_int_valued_floats(self):
        """Float fields print as floats even when built from ints."""
        run = RunConfig(model=ModelConfig(tau_seconds=21600), lr=1,
                        downsample_legit_ratio=2)
        assert dump_run_config(run) == LIBRARY_MANIFEST


def test_readme_names_every_run_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("Run keys (`run.cfg`):", 1)[1].split("\n\n")[0]
    missing = [key for key in _RUN_KEYS if f"`{key}`" not in paragraph]
    assert missing == []


class TestLoadPropositions:
    def test_order_and_defaults(self, tmp_path):
        path = write(tmp_path, "\n".join([
            "same_card.field = card",
            "same_card.weight = 5",
            "same_ip.field = ip",
            "same_ip.window_seconds = 600",
        ]) + "\n", "props.cfg")
        props = load_propositions(path)
        assert [p.name for p in props] == ["same_card", "same_ip"]
        assert props[0].field == "card"
        assert props[0].weight == 5
        assert props[0].window_seconds == 1800
        assert props[1].weight == 1
        assert props[1].window_seconds == 600

    def test_missing_field(self, tmp_path):
        path = write(tmp_path, "same_card.weight = 2\n", "props.cfg")
        with pytest.raises(ConfigError, match="missing .field"):
            load_propositions(path)

    def test_bad_suffix(self, tmp_path):
        path = write(tmp_path, "same_card.strength = 2\n", "props.cfg")
        with pytest.raises(ConfigError, match="strength"):
            load_propositions(path)

    def test_no_dot_key(self, tmp_path):
        path = write(tmp_path, "field = card\n", "props.cfg")
        with pytest.raises(ConfigError, match="bad proposition key"):
            load_propositions(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "# nothing here\n", "props.cfg")
        with pytest.raises(ConfigError, match="no propositions"):
            load_propositions(path)


class TestLoadScenario:
    def test_reads_typed_fields(self, tmp_path):
        path = write(tmp_path, "\n".join([
            "n_legit = 120",
            "n_fraud = 30",
            "camouflage_rate = 0.25",
            "cluster_separation = 3.5",
            "seed = 4",
        ]) + "\n", "scenario.cfg")
        cfg = load_scenario(path)
        assert cfg.n_legit == 120
        assert isinstance(cfg.n_legit, int)
        assert cfg.camouflage_rate == 0.25
        assert cfg.cluster_separation == 3.5
        assert cfg.seed == 4

    def test_defaults_survive(self, tmp_path):
        cfg = load_scenario(write(tmp_path, "n_fraud = 10\n", "s.cfg"))
        assert cfg.n_legit == 1400
        assert cfg.feature_dim == 8

    def test_unknown_key(self, tmp_path):
        path = write(tmp_path, "n_frauds = 10\n", "s.cfg")
        with pytest.raises(ConfigError, match="n_frauds"):
            load_scenario(path)

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            load_scenario(write(tmp_path, "seed = -1\n", "s.cfg"))

    def test_validation_still_applies(self, tmp_path):
        path = write(tmp_path, "camouflage_rate = 3.0\n", "s.cfg")
        with pytest.raises(ConfigError):
            load_scenario(path)
