"""Synthetic scenario generator, split policies, and CSV ingestion."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fraudgnn.datagen import (DataSchema, ScenarioConfig, SplitSpec,
                              cluster_centers, csv_text, generate, ingest_csv,
                              split_records)
from fraudgnn.errors import ConfigError, IngestError, InputError
from fraudgnn.tgraph import Proposition, TransactionRecord, build_graph


def small_scenario(**kw):
    base = dict(n_legit=50, n_fraud=30, n_devices=5, n_ips=5,
                fraud_device_concentration=1.0, fraud_burst_window=900,
                feature_dim=4, cluster_separation=4.0,
                time_span_seconds=86400, seed=0)
    base.update(kw)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_defaults_valid(self):
        cfg = ScenarioConfig()
        assert cfg.n_legit == 1400 and cfg.n_fraud == 600

    def test_bad_concentration(self):
        with pytest.raises(ConfigError, match="concentration"):
            small_scenario(fraud_device_concentration=0.0)

    def test_bad_camouflage(self):
        with pytest.raises(ConfigError, match="camouflage"):
            small_scenario(camouflage_rate=1.5)

    def test_bad_separation(self):
        with pytest.raises(ConfigError):
            small_scenario(cluster_separation=-1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_separation(self, value):
        with pytest.raises(ConfigError, match="cluster_separation"):
            small_scenario(cluster_separation=value)


class TestGenerate:
    def test_counts_and_ids(self):
        records = generate(small_scenario())
        assert len(records) == 80
        assert sum(r.label for r in records) == 30
        assert sorted(r.id for r in records) == list(range(80))

    def test_seed_determinism_byte_level(self):
        a = csv_text(generate(small_scenario(seed=9)))
        b = csv_text(generate(small_scenario(seed=9)))
        c = csv_text(generate(small_scenario(seed=10)))
        assert a == b
        assert a != c

    def test_classes_disjoint_in_feature_space(self):
        """Capped noise keeps every point nearer its own cluster center."""
        cfg = small_scenario(n_legit=200, n_fraud=100)
        mu_legit, mu_fraud = cluster_centers(cfg)
        assert np.linalg.norm(mu_fraud - mu_legit) == pytest.approx(
            cfg.cluster_separation)
        for r in generate(cfg):
            d_legit = np.linalg.norm(r.attrs - mu_legit)
            d_fraud = np.linalg.norm(r.attrs - mu_fraud)
            assert (d_fraud < d_legit) == bool(r.label)

    def test_same_class_directions_cohere(self):
        """Normalized features give higher cosine within a class than across."""
        records = generate(small_scenario(n_legit=200, n_fraud=100))
        unit = {r.id: r.attrs / np.linalg.norm(r.attrs) for r in records}
        legit = [unit[r.id] for r in records if r.label == 0]
        fraud = [unit[r.id] for r in records if r.label == 1]
        within = np.mean([legit[i] @ legit[i + 1] for i in range(40)]
                         + [fraud[i] @ fraud[i + 1] for i in range(40)])
        across = np.mean([legit[i] @ fraud[i] for i in range(40)])
        assert within > 0.5
        assert across < 0.5

    def test_no_fraud_requested(self):
        records = generate(small_scenario(n_fraud=0))
        assert len(records) == 50
        assert all(r.label == 0 for r in records)

    def test_burst_members_densely_connected(self):
        """Full concentration puts bursts on one device inside one window."""
        cfg = small_scenario()
        records = generate(cfg)
        g = build_graph(records, [Proposition(
            name="same_device", field="device",
            window_seconds=cfg.fraud_burst_window)])
        labels = {r.id: r.label for r in records}
        for r in records:
            if r.label != 1:
                continue
            fraud_nbrs = sum(labels[u] for u in g.neighbors(r.id))
            assert fraud_nbrs >= 9  # rest of its burst at minimum

    def test_camouflage_sits_in_legit_cluster(self):
        cfg = small_scenario(camouflage_rate=1.0)
        mu_legit, _ = cluster_centers(cfg)
        cap = 0.4 * cfg.cluster_separation
        for r in generate(cfg):
            if r.label == 1:
                assert np.linalg.norm(r.attrs - mu_legit) <= cap + 1e-9

    def test_camouflage_wires_fraud_to_legit(self):
        """Every camouflaged record shares ip and window with its anchor."""
        cfg = small_scenario(camouflage_rate=1.0, n_fraud=20)
        records = generate(cfg)
        g = build_graph(records, [Proposition(
            name="same_ip", field="ip",
            window_seconds=cfg.fraud_burst_window)])
        labels = {r.id: r.label for r in records}
        for r in records:
            if r.label == 1:
                assert any(labels[u] == 0 for u in g.neighbors(r.id))

    def test_camouflage_keeps_fraud_pool_device(self):
        cfg = small_scenario(camouflage_rate=1.0, n_fraud=20,
                             fraud_device_concentration=0.8)
        fraud_pool = {f"dev-{i:03d}" for i in range(1)}
        for r in generate(cfg):
            if r.label == 1:
                assert r.raw["device"] in fraud_pool

    def test_csv_header_layout(self):
        text = csv_text(generate(small_scenario()))
        header = text.splitlines()[0]
        assert header == "id,timestamp,label,device,ip,f0,f1,f2,f3"

    def test_csv_empty_rejected(self):
        with pytest.raises(InputError):
            csv_text([])


class TestSplitRecords:
    def make(self, n=100, fraud=40, unlabeled=0):
        out = []
        for i in range(n):
            label = 1 if i < fraud else 0
            if i >= n - unlabeled:
                label = -1
            out.append(TransactionRecord(id=i, attrs=np.ones(2), raw={},
                                         timestamp=i * 10, label=label))
        return out

    def test_fraction_is_stratified(self):
        records = self.make(100, fraud=40)
        train, test = split_records(records, SplitSpec(test_fraction=0.3), 0)
        labels = {r.id: r.label for r in records}
        assert len(test) == 30 and len(train) == 70
        assert sum(labels[v] for v in test) == 12  # round(0.3 * 40)
        assert set(train) | set(test) == set(range(100))
        assert not set(train) & set(test)

    def test_fraction_seed_determinism(self):
        records = self.make()
        a = split_records(records, SplitSpec(test_fraction=0.3), 5)
        b = split_records(records, SplitSpec(test_fraction=0.3), 5)
        c = split_records(records, SplitSpec(test_fraction=0.3), 6)
        assert a == b
        assert a != c

    def test_unlabeled_never_trains(self):
        records = self.make(50, fraud=20, unlabeled=10)
        train, test = split_records(records, SplitSpec(test_fraction=0.2), 0)
        unl = {r.id for r in records if r.label == -1}
        assert unl <= set(test)
        assert not unl & set(train)

    def test_cutoff(self):
        records = self.make(10)
        train, test = split_records(
            records, SplitSpec(kind="cutoff", cutoff_timestamp=45), 0)
        assert train == [0, 1, 2, 3, 4]
        assert test == [5, 6, 7, 8, 9]

    def test_all(self):
        records = self.make(10)
        train, test = split_records(records, SplitSpec(kind="all"), 0)
        assert len(train) == 10 and test == []

    def test_explicit_passthrough(self):
        records = self.make(6)
        spec = SplitSpec(kind="explicit", train_ids=(0, 2, 4),
                         test_ids=(1, 3, 5))
        train, test = split_records(records, spec, 0)
        assert train == [0, 2, 4] and test == [1, 3, 5]

    def test_explicit_unknown_id(self):
        records = self.make(4)
        spec = SplitSpec(kind="explicit", train_ids=(0, 99), test_ids=(1,))
        with pytest.raises(InputError, match="99"):
            split_records(records, spec, 0)

    def test_explicit_overlap(self):
        records = self.make(4)
        spec = SplitSpec(kind="explicit", train_ids=(0, 1), test_ids=(1, 2))
        with pytest.raises(InputError, match="overlap"):
            split_records(records, spec, 0)

    @pytest.mark.parametrize("train_ids,test_ids,part", [
        ((0, 2, 0), (1,), "train"), ((0,), (1, 3, 3), "test")])
    def test_explicit_repeated_id(self, train_ids, test_ids, part):
        records = self.make(4)
        spec = SplitSpec(kind="explicit", train_ids=train_ids,
                         test_ids=test_ids)
        with pytest.raises(InputError, match=f"repeats id .* in {part}"):
            split_records(records, spec, 0)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SplitSpec(kind="bogus")
        with pytest.raises(ConfigError):
            SplitSpec(test_fraction=1.0)
        with pytest.raises(ConfigError):
            SplitSpec(kind="cutoff")
        with pytest.raises(ConfigError):
            SplitSpec(kind="explicit", train_ids=(1,))


def write_csv_file(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestIngest:
    HEADER = "id,timestamp,label,device,ip,amount"

    def test_min_max_scaling(self, tmp_path):
        path = write_csv_file(tmp_path, "\n".join([
            self.HEADER,
            "0,0,0,d0,ip0,0",
            "1,10,0,d0,ip0,5",
            "2,20,1,d1,ip1,10",
        ]) + "\n")
        res = ingest_csv(path, split=SplitSpec(kind="all"))
        assert res.feature_names == ["amount"]
        got = {r.id: r.attrs[0] for r in res.records}
        assert got == {0: 0.0, 1: 0.5, 2: 1.0}
        assert res.numeric_stats["amount"] == (0.0, 10.0)

    def test_degenerate_span_maps_to_zero(self, tmp_path):
        path = write_csv_file(tmp_path, "\n".join([
            self.HEADER, "0,0,0,d0,ip0,7", "1,10,1,d0,ip0,7"]) + "\n")
        res = ingest_csv(path, split=SplitSpec(kind="all"))
        assert all(r.attrs[0] == 0.0 for r in res.records)

    def test_test_rows_clamp_into_unit_interval(self, tmp_path):
        path = write_csv_file(tmp_path, "\n".join([
            self.HEADER,
            "0,0,0,d0,ip0,0",
            "1,10,1,d0,ip0,10",
            "2,20,0,d1,ip1,50",
            "3,30,1,d1,ip1,-5",
        ]) + "\n")
        spec = SplitSpec(kind="explicit", train_ids=(0, 1), test_ids=(2, 3))
        res = ingest_csv(path, split=spec)
        got = {r.id: r.attrs[0] for r in res.records}
        assert got[2] == 1.0 and got[3] == 0.0

    def test_one_hot_three_categories(self, tmp_path):
        header = "id,timestamp,label,device,ip,country"
        path = write_csv_file(tmp_path, "\n".join([
            header,
            "0,0,0,d0,ip0,de",
            "1,10,1,d0,ip0,fr",
            "2,20,0,d1,ip1,us",
        ]) + "\n")
        schema = DataSchema(categorical=("country",))
        res = ingest_csv(path, schema=schema, split=SplitSpec(kind="all"))
        assert res.feature_names == ["country=de", "country=fr", "country=us"]
        got = {r.id: r.attrs for r in res.records}
        assert_array_equal(got[0], [1.0, 0.0, 0.0])
        assert_array_equal(got[1], [0.0, 1.0, 0.0])
        assert_array_equal(got[2], [0.0, 0.0, 1.0])

    def test_unseen_category_encodes_zero_block(self, tmp_path):
        header = "id,timestamp,label,device,ip,country"
        path = write_csv_file(tmp_path, "\n".join([
            header,
            "0,0,0,d0,ip0,de",
            "1,10,1,d0,ip0,fr",
            "2,20,0,d1,ip1,jp",
        ]) + "\n")
        schema = DataSchema(categorical=("country",))
        spec = SplitSpec(kind="explicit", train_ids=(0, 1), test_ids=(2,))
        res = ingest_csv(path, schema=schema, split=spec)
        assert res.feature_names == ["country=de", "country=fr"]
        got = {r.id: r.attrs for r in res.records}
        assert_array_equal(got[2], [0.0, 0.0])

    def test_categorical_value_kept_in_raw(self, tmp_path):
        header = "id,timestamp,label,device,ip,country"
        path = write_csv_file(tmp_path, "\n".join([
            header, "0,0,0,d0,ip0,de", "1,10,1,d0,ip0,fr"]) + "\n")
        res = ingest_csv(path, schema=DataSchema(categorical=("country",)),
                         split=SplitSpec(kind="all"))
        assert res.records[0].raw == {"device": "d0", "ip": "ip0",
                                      "country": "de"}

    def test_no_training_leakage_from_test_rows(self, tmp_path):
        """Stats and train features stay fixed when test rows change."""
        def build(test_amount):
            return "\n".join([
                self.HEADER,
                "0,0,0,d0,ip0,2",
                "1,10,1,d0,ip0,8",
                f"2,20,0,d1,ip1,{test_amount}",
            ]) + "\n"

        spec = SplitSpec(kind="explicit", train_ids=(0, 1), test_ids=(2,))
        res_a = ingest_csv(write_csv_file(tmp_path, build(100), "a.csv"),
                           split=spec)
        res_b = ingest_csv(write_csv_file(tmp_path, build(-100), "b.csv"),
                           split=spec)
        assert res_a.numeric_stats == res_b.numeric_stats == \
            {"amount": (2.0, 8.0)}
        assert_array_equal(res_a.records[0].attrs, res_b.records[0].attrs)
        assert_array_equal(res_a.records[1].attrs, res_b.records[1].attrs)

    def test_downsampling_trims_legit_training_rows(self, tmp_path):
        lines = [self.HEADER]
        for i in range(10):
            lines.append(f"{i},{i * 10},0,d0,ip0,{i}")
        for i in range(10, 14):
            lines.append(f"{i},{i * 10},1,d1,ip1,{i}")
        path = write_csv_file(tmp_path, "\n".join(lines) + "\n")
        res = ingest_csv(path, split=SplitSpec(kind="all"),
                         downsample_legit_ratio=1.0)
        kept_legit = [r for r in res.records if r.label == 0]
        assert len(kept_legit) == 4  # one per fraud row
        assert len(res.records) == 8
        assert len(res.train_ids) == 8

    def test_downsampling_deterministic(self, tmp_path):
        lines = [self.HEADER]
        for i in range(20):
            lines.append(f"{i},{i},{1 if i < 4 else 0},d0,ip0,{i}")
        path = write_csv_file(tmp_path, "\n".join(lines) + "\n")
        a = ingest_csv(path, split=SplitSpec(kind="all"),
                       downsample_legit_ratio=2.0, seed=3)
        b = ingest_csv(path, split=SplitSpec(kind="all"),
                       downsample_legit_ratio=2.0, seed=3)
        assert [r.id for r in a.records] == [r.id for r in b.records]

    def test_bad_downsample_ratio(self, tmp_path):
        path = write_csv_file(tmp_path, "\n".join([
            self.HEADER, "0,0,0,d0,ip0,1", "1,1,1,d0,ip0,2"]) + "\n")
        with pytest.raises(ConfigError, match="downsample"):
            ingest_csv(path, split=SplitSpec(kind="all"),
                       downsample_legit_ratio=0.0)

    @pytest.mark.parametrize("ratio", [float("inf"), float("nan")])
    def test_non_finite_downsample_ratio(self, tmp_path, ratio):
        path = write_csv_file(tmp_path, "\n".join([
            self.HEADER, "0,0,0,d0,ip0,1", "1,1,1,d0,ip0,2"]) + "\n")
        with pytest.raises(ConfigError, match="downsample"):
            ingest_csv(path, split=SplitSpec(kind="all"),
                       downsample_legit_ratio=ratio)


class TestIngestErrors:
    HEADER = "id,timestamp,label,device,ip,amount"

    def test_empty_file(self, tmp_path):
        with pytest.raises(IngestError, match="empty file"):
            ingest_csv(write_csv_file(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(IngestError, match="no data rows"):
            ingest_csv(write_csv_file(tmp_path, self.HEADER + "\n"))

    def test_wrong_fixed_columns(self, tmp_path):
        path = write_csv_file(tmp_path, "txn,when,fraud,device,ip\n1,2,0,d,i\n")
        with pytest.raises(IngestError, match="id,timestamp,label"):
            ingest_csv(path)

    def test_declared_column_missing(self, tmp_path):
        path = write_csv_file(tmp_path,
                              "id,timestamp,label,device\n0,0,0,d0\n")
        with pytest.raises(IngestError, match="ip"):
            ingest_csv(path)  # default schema wants device and ip

    def test_undeclared_column_with_explicit_numerics(self, tmp_path):
        path = write_csv_file(tmp_path, "\n".join([
            "id,timestamp,label,device,ip,amount,mystery",
            "0,0,0,d0,ip0,1,x"]) + "\n")
        schema = DataSchema(numeric=("amount",))
        with pytest.raises(IngestError, match="mystery"):
            ingest_csv(path, schema=schema)

    def test_bad_rows_reported_with_line_numbers(self, tmp_path):
        path = write_csv_file(tmp_path, "\n".join([
            self.HEADER,
            "0,0,0,d0,ip0,1.5",
            "1,zero,0,d0,ip0,2",
            "2,0,5,d0,ip0,3",
            "3,0,1,d0,ip0,abc",
        ]) + "\n")
        with pytest.raises(IngestError) as e:
            ingest_csv(path, split=SplitSpec(kind="all"))
        msg = str(e.value)
        assert "line 3" in msg and "line 4" in msg and "line 5" in msg
        assert "3 bad rows" in msg

    TWO_FEATURES = "id,timestamp,label,device,ip,f0,f1"

    def test_nan_is_a_bad_row(self, tmp_path):
        path = write_csv_file(tmp_path, "\n".join([
            self.TWO_FEATURES, "0,0,0,d0,ip0,0.1,1", "1,1,1,d0,ip0,nan,2",
            "2,2,0,d1,ip1,0.3,3"]) + "\n")
        with pytest.raises(IngestError,
                           match=r"line 3: column 'f0': 'nan' is not a finite"):
            ingest_csv(path, split=SplitSpec(kind="all"))

    def test_inf_is_a_bad_row(self, tmp_path):
        """One inf would make f1's min-max span inf and zero the column."""
        path = write_csv_file(tmp_path, "\n".join([
            self.TWO_FEATURES, "0,0,0,d0,ip0,0.1,1", "1,1,1,d0,ip0,0.2,-inf",
            "2,2,0,d1,ip1,0.3,3", "3,3,1,d1,ip1,0.4,inf"]) + "\n")
        with pytest.raises(IngestError, match="2 bad rows") as e:
            ingest_csv(path, split=SplitSpec(kind="all"))
        assert "line 3: column 'f1': '-inf' is not a finite" in str(e.value)
        assert "line 5: column 'f1': 'inf' is not a finite" in str(e.value)

    def test_id_or_timestamp_beyond_int64_is_a_bad_row(self, tmp_path):
        """The graph keeps ids and timestamps in int64 arrays; a larger id
        raised OverflowError in build-graph."""
        big = str(2**62)
        path = write_csv_file(tmp_path, "\n".join([
            self.TWO_FEATURES, f"{big},0,0,d0,ip0,0.1,1",
            f"1,-{big},1,d0,ip0,0.2,2", "2,2,0,d1,ip1,0.3,3"]) + "\n")
        with pytest.raises(IngestError, match="2 bad rows") as e:
            ingest_csv(path, split=SplitSpec(kind="all"))
        assert "line 2: id and timestamp must lie within" in str(e.value)
        assert "line 3: id and timestamp must lie within" in str(e.value)

    def test_bad_row_report_capped_at_ten(self, tmp_path):
        lines = [self.HEADER]
        for i in range(12):
            lines.append(f"{i},0,9,d0,ip0,1")  # label 9 invalid
        path = write_csv_file(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(IngestError, match=r"\(\+2 more\)"):
            ingest_csv(path)

    def test_ragged_row(self, tmp_path):
        path = write_csv_file(tmp_path, "\n".join([
            self.HEADER, "0,0,0,d0,ip0,1", "1,0,0,d0"]) + "\n")
        with pytest.raises(IngestError, match="line 3"):
            ingest_csv(path)

    def test_duplicate_ids_with_both_lines(self, tmp_path):
        path = write_csv_file(tmp_path, "\n".join([
            self.HEADER,
            "7,0,0,d0,ip0,1",
            "8,0,1,d0,ip0,2",
            "7,0,0,d0,ip0,3",
        ]) + "\n")
        with pytest.raises(IngestError) as e:
            ingest_csv(path, split=SplitSpec(kind="all"))
        assert "id 7" in str(e.value)
        assert "lines 2 and 4" in str(e.value)


class TestGeneratedRoundTrip:
    def test_generate_write_ingest_build(self, tmp_path):
        """Full loop: synthetic records survive the CSV round trip intact."""
        cfg = small_scenario(n_legit=30, n_fraud=10)
        records = generate(cfg)
        path = write_csv_file(tmp_path, csv_text(records))
        res = ingest_csv(path, split=SplitSpec(kind="all"))
        assert len(res.records) == 40
        by_id = {r.id: r for r in records}
        for r in res.records:
            src = by_id[r.id]
            assert r.timestamp == src.timestamp
            assert r.label == src.label
            assert r.raw == src.raw
        g = build_graph(res.records, [Proposition(
            name="same_device", field="device", window_seconds=900)])
        assert g.n_nodes == 40
