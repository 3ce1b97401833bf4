"""End-to-end command line flows on miniature data."""

import os

import numpy as np
import pytest

from fraudgnn.cli import main
from fraudgnn.model import load_params

from test_config import README_RUN_CFG

SCENARIO = """\
n_legit = 60
n_fraud = 20
n_devices = 6
n_ips = 6
fraud_device_concentration = 0.9
fraud_burst_window = 900
camouflage_rate = 0.1
feature_dim = 4
cluster_separation = 4.0
time_span_seconds = 86400
seed = 1
"""

PROPS = """\
same_device.field = device
same_device.weight = 2
same_ip.field = ip
same_ip.window_seconds = 1800
"""

RUN = """\
seed = 1
model.K = 1
model.hidden = 6
sampler.z_hat = 4
trainer.lr = 0.05
trainer.batch_size = 64
trainer.epochs = 3
trainer.split = fraction
trainer.test_fraction = 0.3
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run the full pipeline once; tests inspect the artifacts."""
    ws = tmp_path_factory.mktemp("cli")
    (ws / "scenario.cfg").write_text(SCENARIO)
    (ws / "props.cfg").write_text(PROPS)
    (ws / "run.cfg").write_text(RUN)

    def run(argv):
        code = main(argv)
        assert code == 0, f"command failed: {argv}"

    data = str(ws / "data.csv")
    run(["generate", "--scenario", str(ws / "scenario.cfg"), "--out", data])
    run(["build-graph", "--data", data, "--props", str(ws / "props.cfg"),
         "--config", str(ws / "run.cfg"), "--out", str(ws / "graph.txt")])
    run(["train", "--data", data, "--props", str(ws / "props.cfg"),
         "--config", str(ws / "run.cfg"), "--out", str(ws / "model.ckpt"),
         "--loss-history", str(ws / "loss.csv")])
    run(["predict", "--ckpt", str(ws / "model.ckpt"), "--data", data,
         "--props", str(ws / "props.cfg"), "--config", str(ws / "run.cfg"),
         "--out", str(ws / "scores.csv")])
    run(["evaluate", "--scores", str(ws / "scores.csv"), "--data", data,
         "--out", str(ws / "report.txt"), "--roc", str(ws / "roc.csv")])
    return ws


class TestPipelineArtifacts:
    def test_generated_csv(self, workspace):
        lines = (workspace / "data.csv").read_text().splitlines()
        assert lines[0] == "id,timestamp,label,device,ip,f0,f1,f2,f3"
        assert len(lines) == 81

    def test_graph_serialization(self, workspace):
        text = (workspace / "graph.txt").read_text()
        assert text.startswith("NODES 80\n")
        assert "EDGE " in text

    def test_checkpoint_loads(self, workspace):
        params = load_params(str(workspace / "model.ckpt"))
        assert params.config.k_layers == 1
        assert params.config.hidden_dim == 6
        assert params.feature_dim == 4

    def test_loss_history_csv(self, workspace):
        lines = (workspace / "loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 4
        assert lines[1].startswith("1,")
        float(lines[-1].split(",")[1])  # parses

    def test_scores_csv(self, workspace):
        lines = (workspace / "scores.csv").read_text().splitlines()
        assert lines[0] == "id,p_fraud,label_pred"
        assert len(lines) == 81
        for ln in lines[1:]:
            rid, p, hard = ln.split(",")
            assert 0.0 <= float(p) <= 1.0
            assert hard in ("0", "1")

    def test_report_text(self, workspace):
        text = (workspace / "report.txt").read_text()
        assert "confusion" in text
        assert "auc = " in text

    def test_roc_csv(self, workspace):
        lines = (workspace / "roc.csv").read_text().splitlines()
        assert lines[0] == "fpr,tpr"
        assert lines[1] == "0.0,0.0"
        assert lines[-1] == "1.0,1.0"

    def test_manifests_written(self, workspace):
        for name in ("data.csv", "graph.txt", "model.ckpt", "scores.csv",
                     "report.txt"):
            manifest = workspace / f"{name}.manifest"
            assert manifest.exists(), name
            body = manifest.read_text()
            assert "command = " in body
            assert "version = " in body

    @pytest.mark.parametrize("side, main_out", [("loss.csv", "model.ckpt"),
                                                ("roc.csv", "report.txt")])
    def test_side_outputs_have_manifests(self, workspace, side, main_out):
        """--loss-history and --roc files get the manifest of the command
        that wrote them, like its --out file."""
        body = (workspace / f"{side}.manifest").read_text()
        assert body == (workspace / f"{main_out}.manifest").read_text()

    def test_manifest_has_input_digests_and_config(self, workspace):
        body = (workspace / "model.ckpt.manifest").read_text()
        assert "input.data.csv = sha256:" in body
        assert "input.props.cfg = sha256:" in body
        assert "# resolved configuration" in body
        assert "model.K = 1" in body

    def test_no_stray_temp_files(self, workspace):
        strays = [f for f in os.listdir(workspace)
                  if f.startswith(".fraudgnn-")]
        assert strays == []


class TestExitCodes:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as e:
            main(["train", "--data", "x.csv"])
        assert e.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_data_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header,entirely\n1,2,3\n")
        props = tmp_path / "props.cfg"
        props.write_text("same_device.field = device\n")
        code = main(["build-graph", "--data", str(bad), "--props", str(props),
                     "--out", str(tmp_path / "g.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "-inf", "1e400"])
    def test_infinite_cluster_separation_exits_one(self, tmp_path, capsys,
                                                   value):
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(SCENARIO.replace("cluster_separation = 4.0",
                                             f"cluster_separation = {value}"))
        out = tmp_path / "data.csv"
        code = main(["generate", "--scenario", str(scenario),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cluster_separation") \
            and err.count("\n") == 1
        assert not out.exists()

    def test_negative_generate_seed_exits_one(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(SCENARIO)
        out = tmp_path / "data.csv"
        code = main(["generate", "--scenario", str(scenario),
                     "--seed", "-1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_build_graph_rejects_what_train_rejects(self, workspace,
                                                    tmp_path, capsys):
        """Every command validates its run config, not only train."""
        out = tmp_path / "graph.txt"
        code = main(["build-graph", "--data", str(workspace / "data.csv"),
                     "--props", str(workspace / "props.cfg"),
                     "--config", str(workspace / "run.cfg"),
                     "--set", "trainer.lr=-1", "--set", "trainer.epochs=-4",
                     "--set", "sampler.z_hat=1,2,3,4", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_bad_set_flag_exits_one(self, workspace, tmp_path, capsys):
        code = main(["build-graph", "--data", str(workspace / "data.csv"),
                     "--props", str(workspace / "props.cfg"),
                     "--set", "nonsense",
                     "--out", str(tmp_path / "g.txt")])
        assert code == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, workspace, tmp_path, capsys):
        code = main(["build-graph", "--data", str(workspace / "data.csv"),
                     "--props", str(workspace / "props.cfg"),
                     "--set", "model.depth=3",
                     "--out", str(tmp_path / "g.txt")])
        assert code == 1
        assert "model.depth" in capsys.readouterr().err

    def test_single_class_evaluate_exits_one(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,p_fraud,label_pred\n0,0.3,0\n1,0.7,1\n")
        data = tmp_path / "data.csv"
        data.write_text("id,timestamp,label,device,ip,f0\n"
                        "0,0,0,d,i,0.0\n1,1,0,d,i,1.0\n")
        code = main(["evaluate", "--scores", str(scores), "--data", str(data),
                     "--out", str(tmp_path / "r.txt")])
        assert code == 1
        assert "no positive" in capsys.readouterr().err

    def evaluate_error(self, tmp_path, capsys, scores_text, data_text):
        """Exit code and stderr of evaluate on the given file contents;
        None writes no file at all."""
        paths = {}
        for name, text in (("scores.csv", scores_text), ("data.csv", data_text)):
            paths[name] = tmp_path / name
            if text is not None:
                paths[name].write_text(text)
        code = main(["evaluate", "--scores", str(paths["scores.csv"]),
                     "--data", str(paths["data.csv"]),
                     "--out", str(tmp_path / "r.txt")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    DATA = "id,timestamp,label,device,ip,f0\n0,0,0,d,i,0.0\n1,1,1,d,i,1.0\n"

    def test_non_numeric_p_fraud_exits_one(self, tmp_path, capsys):
        code, err = self.evaluate_error(
            tmp_path, capsys, "id,p_fraud,label_pred\n0,0.3,0\n1,high,1\n",
            self.DATA)
        assert code == 1
        assert err.startswith("error: ") and "row 2" in err

    def test_nan_p_fraud_exits_one(self, tmp_path, capsys):
        code, err = self.evaluate_error(
            tmp_path, capsys, "id,p_fraud,label_pred\n0,nan,0\n1,0.5,1\n",
            self.DATA)
        assert code == 1
        assert err.startswith("error: ") and "finite" in err

    def test_row_without_p_fraud_exits_one(self, tmp_path, capsys):
        code, err = self.evaluate_error(
            tmp_path, capsys, "id,p_fraud,label_pred\n0\n", self.DATA)
        assert code == 1
        assert err.startswith("error: ") and "row 1" in err

    def test_repeated_id_exits_one(self, tmp_path, capsys):
        code, err = self.evaluate_error(
            tmp_path, capsys,
            "id,p_fraud,label_pred\n0,0.3,0\n1,0.7,1\n1,0.7,1\n", self.DATA)
        assert code == 1
        assert err.startswith("error: ") and "id 1" in err and "row 3" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "r.txt").exists()

    def test_repeated_data_id_exits_one(self, tmp_path, capsys):
        """A data CSV labeling one id twice is an error, not a silent
        choice of its last label."""
        code, err = self.evaluate_error(
            tmp_path, capsys, "id,p_fraud,label_pred\n0,0.3,0\n3,0.7,1\n",
            self.DATA + "3,2,1,d,i,1.0\n3,3,0,d,i,1.0\n")
        assert code == 1
        assert err == (f"error: {tmp_path / 'data.csv'}: row 4: id 3 "
                       "already appears in row 3\n")
        assert not (tmp_path / "r.txt").exists()

    def test_non_binary_label_exits_one(self, tmp_path, capsys):
        code, err = self.evaluate_error(
            tmp_path, capsys, "id,p_fraud,label_pred\n0,0.3,0\n1,0.7,1\n",
            self.DATA.replace("0,0,0,d", "0,0,-1,d"))
        assert code == 1
        assert err == "error: labels must be 0/1, found [-1]\n"

    def test_empty_data_csv_exits_one(self, tmp_path, capsys):
        code, err = self.evaluate_error(
            tmp_path, capsys, "id,p_fraud,label_pred\n0,0.3,0\n", "")
        assert code == 1
        assert err.startswith("error: ") and "id,timestamp,label" in err

    def test_missing_scores_file_exits_one(self, tmp_path, capsys):
        code, err = self.evaluate_error(tmp_path, capsys, None, self.DATA)
        assert code == 1
        assert err.startswith("error: cannot read scores CSV")

    def test_scores_for_unknown_id_exits_one(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,p_fraud,label_pred\n99,0.3,0\n")
        data = tmp_path / "data.csv"
        data.write_text("id,timestamp,label,device,ip,f0\n0,0,0,d,i,0.0\n")
        code = main(["evaluate", "--scores", str(scores), "--data", str(data),
                     "--out", str(tmp_path / "r.txt")])
        assert code == 1
        assert "99" in capsys.readouterr().err


def config_lines(artifact) -> list[str]:
    """The resolved-configuration lines of an artifact's manifest."""
    text = (artifact.parent / (artifact.name + ".manifest")).read_text()
    return text.split("# resolved configuration\n", 1)[1].splitlines()


class TestTrainVariants:
    def test_infinite_lr_fails_before_training(self, workspace, tmp_path,
                                               capsys):
        out = tmp_path / "inf.ckpt"
        code = main(["train", "--data", str(workspace / "data.csv"),
                     "--props", str(workspace / "props.cfg"),
                     "--config", str(workspace / "run.cfg"),
                     "--set", "trainer.lr=inf", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: lr must be finite and positive")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_baseline_model_disables_everything(self, workspace, tmp_path):
        out = tmp_path / "baseline.ckpt"
        code = main(["train", "--data", str(workspace / "data.csv"),
                     "--props", str(workspace / "props.cfg"),
                     "--config", str(workspace / "run.cfg"),
                     "--model", "baseline", "--out", str(out)])
        assert code == 0
        params = load_params(str(out))
        assert not params.config.use_attention
        assert not params.config.use_gate

    def test_individual_toggles(self, workspace, tmp_path):
        out = tmp_path / "nogate.ckpt"
        code = main(["train", "--data", str(workspace / "data.csv"),
                     "--props", str(workspace / "props.cfg"),
                     "--config", str(workspace / "run.cfg"),
                     "--no-gate", "--out", str(out)])
        assert code == 0
        params = load_params(str(out))
        assert params.config.use_attention
        assert not params.config.use_gate

    @pytest.mark.parametrize("flags, expect", [
        (["--random-sampling"],
         ["sampler.mode = uniform", "sampler.oversample_count = 0"]),
        (["--no-oversample"],
         ["sampler.mode = deterministic_topz", "sampler.oversample_count = 0"]),
        # a flag wins over --set, as an alias applied after it
        (["--set", "sampler.mode=weighted_without_replacement",
          "--random-sampling"], ["sampler.mode = uniform"]),
        (["--model", "baseline"],
         ["sampler.mode = uniform", "sampler.oversample_count = 0",
          "model.use_attention = false", "model.use_gate = false"]),
    ])
    def test_ablation_flags_recorded_in_manifest(self, workspace, tmp_path,
                                                 flags, expect):
        out = tmp_path / "ablated.ckpt"
        code = main(["train", "--data", str(workspace / "data.csv"),
                     "--props", str(workspace / "props.cfg"),
                     "--config", str(workspace / "run.cfg"),
                     *flags, "--out", str(out)])
        assert code == 0
        lines = config_lines(out)
        for line in expect:
            assert line in lines

    def test_repeat_run_byte_identical(self, workspace, tmp_path):
        outs = []
        for name in ("a.ckpt", "b.ckpt"):
            out = tmp_path / name
            code = main(["train", "--data", str(workspace / "data.csv"),
                         "--props", str(workspace / "props.cfg"),
                         "--config", str(workspace / "run.cfg"),
                         "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_set_override_changes_model(self, workspace, tmp_path):
        out = tmp_path / "wide.ckpt"
        code = main(["train", "--data", str(workspace / "data.csv"),
                     "--props", str(workspace / "props.cfg"),
                     "--config", str(workspace / "run.cfg"),
                     "--set", "model.hidden=10", "--out", str(out)])
        assert code == 0
        assert load_params(str(out)).config.hidden_dim == 10


class TestPredictVariants:
    def test_only_test_subset(self, workspace, tmp_path):
        out = tmp_path / "test_scores.csv"
        code = main(["predict", "--ckpt", str(workspace / "model.ckpt"),
                     "--data", str(workspace / "data.csv"),
                     "--props", str(workspace / "props.cfg"),
                     "--config", str(workspace / "run.cfg"),
                     "--only", "test", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert 1 < len(lines) < 81  # header + strict subset

    def test_random_sampling_flag_is_deterministic(self, workspace, tmp_path):
        texts = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            code = main(["predict", "--ckpt", str(workspace / "model.ckpt"),
                         "--data", str(workspace / "data.csv"),
                         "--props", str(workspace / "props.cfg"),
                         "--config", str(workspace / "run.cfg"),
                         "--random-sampling", "--out", str(out)])
            assert code == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert texts[0].splitlines()[0] == "id,p_fraud,label_pred"

    def test_random_sampling_flag_is_uniform_mode(self, workspace, tmp_path):
        texts = {}
        for name, flags in (("flag.csv", ["--random-sampling"]),
                            ("key.csv", ["--set", "sampler.mode=uniform"])):
            out = tmp_path / name
            code = main(["predict", "--ckpt", str(workspace / "model.ckpt"),
                         "--data", str(workspace / "data.csv"),
                         "--props", str(workspace / "props.cfg"),
                         "--config", str(workspace / "run.cfg"),
                         *flags, "--out", str(out)])
            assert code == 0
            texts[name] = out.read_text()
            assert "sampler.mode = uniform" in config_lines(out)
        assert texts["flag.csv"] == texts["key.csv"]
        assert texts["flag.csv"] != (workspace / "scores.csv").read_text()

    def test_zhat_checkpoint_mismatch_exits_one(self, workspace, tmp_path,
                                                capsys):
        code = main(["predict", "--ckpt", str(workspace / "model.ckpt"),
                     "--data", str(workspace / "data.csv"),
                     "--props", str(workspace / "props.cfg"),
                     "--config", str(workspace / "run.cfg"),
                     "--set", "sampler.z_hat=4, 4",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "z_hat" in capsys.readouterr().err


    def predict_with(self, workspace, tmp_path, run_text, name):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(run_text)
        out = tmp_path / f"{name}.csv"
        code = main(["predict", "--ckpt", str(workspace / "model.ckpt"),
                     "--data", str(workspace / "data.csv"),
                     "--props", str(workspace / "props.cfg"),
                     "--config", str(cfg), "--out", str(out)])
        assert code == 0
        return out

    def test_model_k_comes_from_the_checkpoint(self, workspace, tmp_path):
        """A config setting z_hat for the checkpoint's layers needs no
        model.K; the manifest records the checkpoint's."""
        out = self.predict_with(workspace, tmp_path,
                                RUN.replace("model.K = 1\n", ""), "no_k")
        assert out.read_text() == (workspace / "scores.csv").read_text()
        assert "model.K = 1" in config_lines(out)

    def test_model_keys_come_from_the_checkpoint(self, workspace, tmp_path):
        """A baseline checkpoint's switches reach the manifest; the config's
        switches change neither the manifest nor the scores."""
        cfg, ckpt = tmp_path / "readme.cfg", tmp_path / "baseline.ckpt"
        cfg.write_text(README_RUN_CFG)
        common = ["--data", str(workspace / "data.csv"),
                  "--props", str(workspace / "props.cfg"), "--config", str(cfg)]
        assert main(["train", *common, "--model", "baseline",
                     "--out", str(ckpt)]) == 0
        outs = []
        for name, flags in (("plain", []),
                            ("off", ["--set", "model.use_attention=false",
                                     "--set", "model.use_gate=false"])):
            outs.append(tmp_path / f"{name}.csv")
            assert main(["predict", "--ckpt", str(ckpt), *common, *flags,
                         "--out", str(outs[-1])]) == 0
        lines = config_lines(outs[0])
        assert "model.use_attention = false" in lines
        assert "model.use_gate = false" in lines
        assert lines == config_lines(outs[1])
        assert outs[0].read_text() == outs[1].read_text()

    def test_z_hat_defaults_to_twenty_per_checkpoint_layer(self, workspace,
                                                           tmp_path):
        run_text = RUN.replace("model.K = 1\n", "").replace(
            "sampler.z_hat = 4\n", "")
        out = self.predict_with(workspace, tmp_path, run_text, "no_z")
        lines = config_lines(out)
        assert "model.K = 1" in lines and "sampler.z_hat = 20" in lines


class TestMissingInputFiles:
    """Each loader ends a command with one `error:` line, not a traceback."""

    @pytest.mark.parametrize("command, flag, what", [
        ("predict", "--ckpt", "checkpoint"),            # model.load_params
        ("build-graph", "--data", "data CSV"),          # datagen.ingest_csv
        ("build-graph", "--props", "propositions file"),  # load_propositions
        ("train", "--config", "run config"),            # load_run_config
        ("generate", "--scenario", "scenario file"),    # load_scenario
    ])
    def test_missing_file_exits_one(self, workspace, tmp_path, capsys,
                                    command, flag, what):
        args = {"--data": str(workspace / "data.csv"),
                "--props": str(workspace / "props.cfg"),
                "--config": str(workspace / "run.cfg"),
                "--ckpt": str(workspace / "model.ckpt"),
                "--scenario": str(workspace / "scenario.cfg")}
        takes = {"generate": ("--scenario",),
                 "build-graph": ("--data", "--props", "--config"),
                 "train": ("--data", "--props", "--config"),
                 "predict": ("--ckpt", "--data", "--props", "--config")}
        missing = str(tmp_path / "missing.file")
        args[flag] = missing
        argv = [command, "--out", str(tmp_path / "out")]
        for name in takes[command]:
            argv += [name, args[name]]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error: cannot read {what} {missing}: "
                       "No such file or directory\n")
        assert not os.path.exists(tmp_path / "out")


class TestMalformedCheckpoint:
    """A checkpoint integer that does not parse ends as one `error:` line."""

    @pytest.mark.parametrize("prefix, bad", [
        ("k_layers", "one"),
        ("use_gate", "yes"),
        ("TENSOR layer0.W", "six"),
    ])
    def test_malformed_integer_exits_one(self, workspace, tmp_path, capsys,
                                         prefix, bad):
        lines = (workspace / "model.ckpt").read_text().splitlines()
        row = next(i for i, ln in enumerate(lines)
                   if ln.startswith(prefix + " "))
        parts = lines[row].split()
        parts[len(prefix.split())] = bad
        lines[row] = " ".join(parts)
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_text("\n".join(lines) + "\n")
        code = main(["predict", "--ckpt", str(ckpt),
                     "--data", str(workspace / "data.csv"),
                     "--props", str(workspace / "props.cfg"),
                     "--config", str(workspace / "run.cfg"),
                     "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: checkpoint ") and err.count("\n") == 1
        assert repr(bad) in err


class TestAblate:
    def test_grid_rows_and_output(self, workspace, tmp_path, capsys):
        out = tmp_path / "ablation.csv"
        code = main(["ablate", "--data", str(workspace / "data.csv"),
                     "--props", str(workspace / "props.cfg"),
                     "--config", str(workspace / "run.cfg"),
                     "--set", "trainer.epochs=2",
                     "--seeds", "0,1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sampling,attention,gate,seed,auc,f1,recall,precision"
        assert len(lines) == 1 + 8 * 2  # full grid x two seeds
        cells = {tuple(ln.split(",")[:4]) for ln in lines[1:]}
        assert ("adaptive", "on", "on", "0") in cells
        assert ("random", "off", "off", "1") in cells
        for ln in lines[1:]:
            auc = float(ln.split(",")[4])
            assert 0.0 <= auc <= 1.0
        assert "sampling,attention,gate" in capsys.readouterr().out

    @pytest.mark.parametrize("seeds", ["abc", "0,,1", "-1"])
    def test_bad_seeds_one_line_error(self, workspace, tmp_path, capsys,
                                      seeds):
        out = tmp_path / "ablation.csv"
        code = main(["ablate", "--data", str(workspace / "data.csv"),
                     "--props", str(workspace / "props.cfg"),
                     "--config", str(workspace / "run.cfg"),
                     "--seeds", seeds, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: --seeds") and err.count("\n") == 1
        assert repr(seeds) in err
        assert not out.exists()

    def test_arms_override_the_configs_switches(self, workspace, tmp_path):
        """Each arm sets its attention and gate switches, so a config that
        turns them off leaves the grid as it is."""
        grids = []
        for name, flags in (("plain.csv", []),
                            ("off.csv", ["--set", "model.use_gate=false",
                                         "--set", "model.use_attention=false"])):
            out = tmp_path / name
            code = main(["ablate", "--data", str(workspace / "data.csv"),
                         "--props", str(workspace / "props.cfg"),
                         "--config", str(workspace / "run.cfg"),
                         "--set", "trainer.epochs=2", *flags,
                         "--out", str(out)])
            assert code == 0
            grids.append(out.read_text())
        assert grids[0] == grids[1]

    def test_adaptive_arms_sample_adaptively(self, workspace, tmp_path):
        """A config that samples uniformly leaves the grid as it is: an
        adaptive arm samples adaptively, and differs from its random arm."""
        grids = []
        for name, flags in (("plain.csv", []),
                            ("uniform.csv", ["--set", "sampler.mode=uniform"])):
            out = tmp_path / name
            code = main(["ablate", "--data", str(workspace / "data.csv"),
                         "--props", str(workspace / "props.cfg"),
                         "--config", str(workspace / "run.cfg"),
                         "--set", "trainer.epochs=2", *flags,
                         "--out", str(out)])
            assert code == 0
            grids.append(out.read_text())
        assert grids[0] == grids[1]
        rows = [ln.split(",") for ln in grids[1].splitlines()[1:]]
        assert ([r[4:] for r in rows if r[0] == "adaptive"]
                != [r[4:] for r in rows if r[0] == "random"])
