import csv
import io
import json
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sparsefront import attacks as A
from sparsefront import cli
from sparsefront import models as M
from sparsefront import transform as T
from sparsefront.data import filter_pair, load_mnist
from sparsefront.frontend import FrontEndConfig

from conftest import load_synth, needs_mnist, write_corrupt_split


def run_cli(*argv):
    """The exit status of the CLI process; --help and --version exit through SystemExit."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def edit_header(model_file, edit):
    """Rewrite the JSON header of `model_file` by `edit`, which changes the header dict in place;
    a file no command writes, such as an SVM's without its digit pair."""
    blob = model_file.read_bytes()
    start = len(M.MODEL_MAGIC) + 4
    size = int.from_bytes(blob[len(M.MODEL_MAGIC):start], "big")
    fields = json.loads(blob[start:start + size])
    edit(fields)
    head = json.dumps(fields, sort_keys=True).encode()
    model_file.write_bytes(M.MODEL_MAGIC + len(head).to_bytes(4, "big") + head
                           + blob[start + size:])


# model name -> (train argv, model file, attacks run against it)
MODELS = {
    "svm_plain": (["train-svm", "--epochs", 20, "--no-defense"],
                  "svm_3v7_plain.model", ("none", "semiwhite", "white")),
    "svm_defended": (["train-svm", "--epochs", 20, "--clip"],
                     "svm_3v7_sparse_rho0.02.model", ("none", "semiwhite", "white")),
    "net_defended": (["train-net", "--arch", "reduced_dense", "--epochs", 1, "--clip"],
                     "net_reduced_dense_sparse_rho0.03.model",
                     ("none", "fgsm", "semiwhite", "white")),
}


def _clip(model, attack):
    """`--clip`, except for attack none on svm_plain, which has no reconstruction to clamp."""
    return [] if (model, attack) == ("svm_plain", "none") else ["--clip"]


@pytest.fixture(scope="module")
def trained(synth_data, tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = {}
    for name, (argv, model_file, _) in MODELS.items():
        assert run_cli(*argv, "--data", synth_data, "--seed", 0, "--out", root / name) == 0
        paths[name] = root / name / model_file
    return paths


class TestSyntheticAttack:
    @pytest.mark.parametrize("model,attack", [
        (name, attack) for name, (_, _, attacks) in MODELS.items() for attack in attacks
    ])
    def test_reports_repeat(self, model, attack, trained, synth_data, tmp_path):
        blobs = []
        epsilon = 0 if attack == "none" else 0.2
        for name in ("a1", "a2"):
            out = tmp_path / name
            assert run_cli("attack", "--data", synth_data, "--model", trained[model],
                           "--attack", attack, "--epsilon", epsilon, *_clip(model, attack),
                           "--out", out) == 0
            blobs.append(((out / "report.csv").read_bytes(),
                          (out / "report.json").read_bytes()))
        assert blobs[0] == blobs[1]
        # no attack reads a seed, so its manifest records none
        assert "seed" not in json.loads((out / "manifest.json").read_text())["config"]
        report = json.loads(blobs[0][1])
        assert report["summary"]["samples"] == len(report["records"]) > 0
        # each report.csv row is its report.json record, the pair split in two
        rows = list(csv.DictReader(io.StringIO(blobs[0][0].decode())))
        assert len(rows) == len(report["records"])
        for row, record in zip(rows, report["records"]):
            expected = {name: cli._fmt(value) if isinstance(value, float) else str(value)
                        for name, value in record.items() if name != "chosen_pair"}
            expected["pair_i"], expected["pair_t"] = map(str, record["chosen_pair"])
            assert row == expected
        if attack == "none":
            assert report["summary"]["attacked_accuracy"] == report["summary"]["clean_accuracy"]
            assert all(r["predicted_gap"] == r["achieved_gap"] == 0.0
                       for r in report["records"])

    def test_limit_keeps_the_first_samples(self, trained, synth_data, tmp_path):
        records = {}
        for limit in (0, 50):
            out = tmp_path / f"limit{limit}"
            assert run_cli("attack", "--data", synth_data, "--model", trained["net_defended"],
                           "--attack", "white", "--epsilon", 0.2, "--clip", "--limit", limit,
                           "--out", out) == 0
            report = json.loads((out / "report.json").read_text())
            records[limit] = [(r["sample"], r["label"]) for r in report["records"]]
        # evaluation batches of other sizes may move the last bits, so compare no floats
        assert report["summary"]["samples"] == len(records[50]) == 50
        assert records[50] == records[0][:50]

    @pytest.mark.parametrize("model", ["svm_defended", "net_defended"])
    def test_white_attack_builds_no_dense_operator(self, model, trained, synth_data, tmp_path,
                                                   monkeypatch):
        # the frozen adjoint comes from the separable atom tables
        def refuse(*args):
            raise AssertionError("dense operator built")

        monkeypatch.setattr(T, "analysis_matrix", refuse)
        monkeypatch.setattr(T, "synthesis_matrix", refuse)
        assert run_cli("attack", "--data", synth_data, "--model", trained[model],
                       "--attack", "white", "--epsilon", 0.2, "--out", tmp_path) == 0

    @pytest.mark.parametrize("model", [
        M.LinearModel(np.ones(2), 0.0, digits=(3, 7)),
        M.build_network({"input_shape": (4,), "layers": [("dense", 10)]}, seed=0),
    ], ids=["svm_dim_2", "network_input_shape_4"])
    def test_width_mismatch_exits_2(self, model, synth_data, tmp_path, capsys):
        model_file = tmp_path / "narrow.model"
        M.save_model(model, model_file)
        rc = run_cli("attack", "--data", synth_data, "--model", model_file,
                     "--attack", "none", "--epsilon", 0, "--out", tmp_path / "x")
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {model_file}: the model takes {model.n_inputs} inputs, " \
               "the test images have 784" in err

    @pytest.mark.parametrize("epsilon,limit", [("nan", 0), ("inf", 0), (0.1, -5)])
    def test_bad_input_exits_2(self, epsilon, limit, trained, synth_data, tmp_path, capsys):
        rc = run_cli("attack", "--data", synth_data, "--model", trained["svm_plain"],
                     "--attack", "semiwhite", "--epsilon", epsilon, "--limit", limit,
                     "--out", tmp_path / "x")
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_fgsm_on_svm_exits_2(self, trained, synth_data, tmp_path, capsys):
        rc = run_cli("attack", "--data", synth_data, "--model", trained["svm_plain"],
                     "--attack", "fgsm", "--epsilon", 0.1, "--out", tmp_path / "x")
        assert rc == 2
        assert "error: the fgsm attack needs a network" in capsys.readouterr().err

    def test_label_outside_the_classes_exits_2(self, trained, tmp_path, capsys):
        write_corrupt_split(tmp_path, "t10k", 12)
        rc = run_cli("attack", "--data", tmp_path, "--model", trained["net_defended"],
                     "--attack", "white", "--epsilon", 0.1, "--out", tmp_path / "x")
        assert rc == 2
        assert (f"error: {tmp_path / 't10k-labels-idx1-ubyte'}: label 12 is not a digit 0..9"
                in capsys.readouterr().err)


class TestMalformedNetwork:
    def test_attack_on_a_network_without_final_dense_exits_2(self, synth_data, tmp_path, capsys):
        # a payload of the size the layers imply, so the file is complete but for its last layer
        header = json.dumps({"model": "feedforward", "input_shape": [784], "front_end": None,
                             "layers": [["dense", 10], ["relu"]]}).encode()
        model_file = tmp_path / "relu_last.model"
        model_file.write_bytes(M.MODEL_MAGIC + len(header).to_bytes(4, "big") + header
                               + bytes(8 * (784 * 10 + 10)))
        rc = run_cli("attack", "--data", synth_data, "--model", model_file,
                     "--attack", "none", "--epsilon", 0, "--out", tmp_path / "x")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_file}") and "dense layer" in err


class TestBadTrainingSettings:
    @pytest.mark.parametrize("command", [["train-svm"], ["train-net", "--arch", "reduced_dense"]])
    @pytest.mark.parametrize("flag,value,field", [
        ("--lr", "nan", "learning_rate"),
        ("--lr", "inf", "learning_rate"),
        ("--weight-decay", "-1", "weight_decay"),
        ("--weight-decay", "inf", "weight_decay"),
        ("--seed", "-1", "seed"),
    ])
    def test_exits_2(self, command, flag, value, field, synth_data, tmp_path, capsys):
        rc = run_cli(*command, flag, value, "--epochs", 1, "--data", synth_data,
                     "--out", tmp_path / "x")
        assert rc == 2
        assert f"error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "x" / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["train-svm"], ["train-net", "--arch", "reduced_dense"], ["sweep", "--rhos", "0.02"],
        ["table1", "--arch", "reduced_dense"], ["attenuation", "--n", 64, "--k", 4, "--trials", 10],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_refused_before_data(self, argv, tmp_path, capsys):
        # the data directory does not exist, so reading any data would fail first
        data = ["--data", tmp_path / "absent"] if argv[0] != "attenuation" else []
        assert run_cli(*argv, "--seed", -1, *data, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err.startswith(
            "error: seed must be a nonnegative integer, got -1")
        assert not (tmp_path / "x" / "manifest.json").exists()

    def test_bad_flag_value_is_one_error_line(self, tmp_path, capsys):
        assert run_cli("train-svm", "--epochs", "x", "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error: argument --epochs: invalid int value: 'x'"
        assert err[1].startswith("usage: sparsefront train-svm ")

    # a list flag's parse error names the form it expects, not a private function
    @pytest.mark.parametrize("command,flag,value,expected", [
        ("train-svm", "--digits", "3,7,", "two comma-separated digits"),
        ("sweep", "--rhos", "0.02,x", "comma-separated numbers"),
        ("sweep", "--epsilons", "0.1;0.2", "comma-separated numbers"),
    ], ids=["digits", "rhos", "epsilons"])
    def test_list_flag_error_names_the_form(self, command, flag, value, expected, tmp_path,
                                            capsys):
        assert run_cli(command, f"{flag}={value}", "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"error: argument {flag}: expected {expected}, got {value!r}"

    # a 12 in either split, or an empty one, is refused before any training
    @pytest.mark.parametrize("prefix,label,message", [
        ("train", 12, "label 12 is not a digit 0..9"),
        ("t10k", 12, "label 12 is not a digit 0..9"),
        ("train", None, "the split has no samples"),
        ("t10k", None, "the split has no samples"),
    ])
    def test_corrupt_split_exits_2_before_training(self, prefix, label, message, tmp_path,
                                                   capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(M, "train_network", refuse)
        data = write_corrupt_split(tmp_path / "data", prefix, label)
        rc = run_cli("train-net", "--arch", "reduced_dense", "--epochs", 1, "--data", data,
                     "--out", tmp_path / "x")
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {data / f'{prefix}-labels-idx1-ubyte'}: {message}\n")
        assert list((tmp_path / "x").iterdir()) == []  # neither a model file nor a manifest

    def test_all_zero_svm_exits_2(self, tmp_path, capsys):
        # a split whose 3s and 7s are all blank trains an all-zero SVM
        synth = load_synth()
        for prefix, stream in (("train", 0), ("t10k", 1)):
            pixels, labels = synth.generate(3, 40, stream)
            pixels[(labels == 3) | (labels == 7)] = 0
            synth.write_idx(tmp_path / f"{prefix}-images-idx3-ubyte",
                            tmp_path / f"{prefix}-labels-idx1-ubyte", pixels, labels)
        rc = run_cli("train-svm", "--no-defense", "--epochs", 2, "--data", tmp_path,
                     "--out", tmp_path / "x")
        assert rc == 2
        assert "error: SVM training produced an all-zero weight vector" in capsys.readouterr().err
        assert not (tmp_path / "x" / "manifest.json").exists()


CDF97 = T.Basis("cdf97_biorthogonal", 28, 28, 1)

# case -> (argv, each model it trains: task, recipe flags given, seed, clip, rho or None, arch)
HANDED = {
    "train-svm": (["train-svm"], [("svm", {}, 0, False, 0.02, None)]),
    "train-net-paper_cnn": (["train-net", "--arch", "paper_cnn", "--lr", 0.2],
                            [("cnn", {"learning_rate": 0.2}, 0, False, 0.03, "paper_cnn")]),
    "train-net-reduced_dense": (["train-net", "--arch", "reduced_dense"],
                                [("cnn", {}, 0, False, 0.03, "reduced_dense")]),
    "sweep": (["sweep", "--rhos", "0.02,0.04", "--seed", 5],
              [("svm", {}, 5, False, 0.02, None), ("svm", {}, 5, False, 0.04, None)]),
    "table1": (["table1", "--arch", "reduced_dense", "--seed", 5],
               [("svm", {}, 5, True, None, None), ("svm", {}, 5, True, 0.02, None),
                ("cnn", {}, 5, True, None, "reduced_dense"),
                ("cnn", {}, 5, True, 0.03, "reduced_dense")]),
}


class TestTrainerInputs:
    """What each command hands its trainer: recipe, recipe flags, seed, clip, front end."""

    @pytest.mark.parametrize("case", list(HANDED))
    def test_config_and_arch(self, case, synth_data, tmp_path, monkeypatch):
        handed = []

        def trainer(x, y, config, arch=None, log=None):
            handed.append((config, arch, len(y)))
            return SimpleNamespace(front_end=config.front_end)

        monkeypatch.setattr(M, "train_linear_svm", trainer)
        monkeypatch.setattr(M, "train_network", trainer)
        monkeypatch.setattr(M, "save_model", lambda model, path: None)
        monkeypatch.setattr(A, "evaluate", lambda model, test, spec: A.EvalReport(
            clean_accuracy=0.0, attacked_accuracy=0.0, mean_distortion=0.0, columns={}))
        argv, models = HANDED[case]
        assert run_cli(*argv, "--data", synth_data, "--out", tmp_path) == 0
        train = load_mnist(synth_data, "train")
        samples = {"svm": len(filter_pair(train, 3, 7)), "cnn": len(train)}
        expected = []
        for task, flags, seed, clip, rho, arch in models:
            recipe = cli.SVM_DEFAULTS if task == "svm" else cli.NET_DEFAULTS[arch]
            fe = None if rho is None else FrontEndConfig(CDF97, rho)
            config = M.TrainConfig(seed=seed, front_end=fe, clip_recon=clip, **recipe | flags)
            expected.append((config, arch and M.ARCH_PRESETS[arch], samples[task]))
        assert handed == expected


class TestUnreadSettings:
    """A run offers and records only the settings it reads."""

    # each run would succeed if the setting were ignored
    @pytest.mark.parametrize("argv,setting", [
        (["attenuation", "--n", 64, "--k", 4, "--trials", 10, "--basis-kind", "identity",
          "--levels", 2], "levels"),
        (["train-net", "--arch", "reduced_dense", "--epochs", 1, "--dropout", 0.3], "--dropout"),
        (["train-svm", "--epochs", 1, "--no-defense", "--rho", 0.05], "--rho"),
        (["train-svm", "--epochs", 1, "--no-defense", "--basis", "haar"], "--basis"),
        (["train-net", "--arch", "reduced_dense", "--epochs", 1, "--no-defense",
          "--levels", 2], "--levels"),
        (["train-net", "--arch", "reduced_dense", "--epochs", 1, "--no-defense",
          "--rho", 0.02], "--rho"),
        (["train-svm", "--epochs", 1, "--no-defense", "--clip"], "--clip"),
        (["train-net", "--arch", "reduced_dense", "--epochs", 1, "--no-defense",
          "--clip"], "--clip"),
    ], ids=["identity_levels", "reduced_dense_dropout", "svm_no_defense_rho",
            "svm_no_defense_basis", "net_no_defense_levels", "net_no_defense_rho",
            "svm_no_defense_clip", "net_no_defense_clip"])
    def test_ignored_setting_exits_2(self, argv, setting, synth_data, tmp_path, capsys):
        data = ["--data", synth_data] if argv[0] != "attenuation" else []
        assert run_cli(*argv, *data, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert "error:" in err and setting in err
        assert not (tmp_path / "x" / "manifest.json").exists()

    def test_attack_none_with_epsilon_exits_2(self, trained, synth_data, tmp_path, capsys):
        # no attack runs, so no computation reads the budget
        assert run_cli("attack", "--data", synth_data, "--model", trained["svm_plain"],
                       "--attack", "none", "--epsilon", 0.5, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err.startswith(
            "error: attack none reads no epsilon, so it must be 0, got 0.5")
        assert not (tmp_path / "x" / "manifest.json").exists()

    def test_attack_none_clip_without_front_end_exits_2(self, trained, synth_data, tmp_path,
                                                        capsys):
        # no attack perturbs the images and no front end reconstructs them, so nothing is clamped
        assert run_cli("attack", "--data", synth_data, "--model", trained["svm_plain"],
                       "--attack", "none", "--epsilon", 0, "--clip", "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err.startswith("error: --clip: attack none on a model without")
        assert not (tmp_path / "x" / "manifest.json").exists()

    @pytest.mark.parametrize("command,rho", [("train-svm", 0.02), ("train-net", 0.03)])
    def test_no_defense_accepts_default_settings(self, command, rho, synth_data, tmp_path):
        # the defaults spelled out are the defaults, so they are not settings the run ignores
        arch = ["--arch", "reduced_dense"] if command == "train-net" else []
        assert run_cli(command, *arch, "--epochs", 1, "--no-defense", "--rho", rho,
                       "--basis", "cdf97", "--levels", 1, "--data", synth_data,
                       "--out", tmp_path / "x") == 0
        config = json.loads((tmp_path / "x" / "manifest.json").read_text())["config"]
        assert (config["rho"], config["basis"], config["levels"]) == (rho, "cdf97", 1)

    # the SVM's digit pair comes from its model file and table1 runs at PAPER_SETTINGS
    @pytest.mark.parametrize("command,flag", [
        ("attack", "--seed"), ("table1", "--clip"), ("attack", "--digits"),
        ("table1", "--svm-epsilon"), ("table1", "--svm-rho"), ("table1", "--cnn-epsilon"),
        ("table1", "--cnn-rho"),
    ])
    def test_flag_not_offered(self, command, flag, capsys):
        assert run_cli(command, "--help") == 0
        assert flag not in re.findall(r"--[\w-]+", capsys.readouterr().out)
        assert run_cli(command, flag, "1") == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestSvmDigitPair:
    """attack evaluates an SVM on the digit pair its model file records."""

    def test_attack_reads_the_trained_pair(self, synth_data, tmp_path):
        train, atk = tmp_path / "train", tmp_path / "atk"
        assert run_cli("train-svm", "--digits", "4,9", "--epochs", 20, "--no-defense",
                       "--data", synth_data, "--out", train) == 0
        model_file = train / "svm_4v9_plain.model"
        assert run_cli("attack", "--data", synth_data, "--model", model_file,
                       "--attack", "none", "--epsilon", 0, "--out", atk) == 0
        trained = json.loads((train / "report.json").read_text())["summary"]
        attacked = json.loads((atk / "report.json").read_text())["summary"]
        assert attacked["samples"] == trained["test_samples"]
        assert attacked["clean_accuracy"] == trained["clean_accuracy"]
        assert M.load_model(model_file).digits == (4, 9)

    # a malformed header, refused before any data is read, so an absent data directory
    # changes nothing
    @pytest.mark.parametrize("data", ["synth", "absent"])
    @pytest.mark.parametrize("header", ["null", "absent"])
    def test_model_without_pair_exits_2(self, header, data, trained, synth_data, tmp_path,
                                        capsys):
        model_file = tmp_path / "old.model"
        model_file.write_bytes(trained["svm_plain"].read_bytes())
        if header == "null":
            edit_header(model_file, lambda fields: fields.update(digits=None))
        else:  # a file written before the pair was recorded
            edit_header(model_file, lambda fields: fields.pop("digits"))
        data_dir = synth_data if data == "synth" else tmp_path / "no_data"
        rc = run_cli("attack", "--data", data_dir, "--model", model_file,
                     "--attack", "none", "--epsilon", 0, "--out", tmp_path / "x")
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith(f"error: {model_file}: malformed model header")
        assert sum("error:" in line for line in lines) == 1
        assert not (tmp_path / "x" / "manifest.json").exists()


class TestMissingInputs:
    def test_missing_model_errors(self, tmp_path, capsys):
        rc = run_cli("attack", "--model", tmp_path / "nope.model",
                     "--attack", "white", "--epsilon", "0.1", "--out", tmp_path / "x")
        assert rc != 0

    # a pair filter_pair would refuse is refused before any data is read
    @pytest.mark.parametrize("command", ["train-svm", "sweep", "replayed"])
    @pytest.mark.parametrize("pair,message", [
        ("3,3", "digit pair must be distinct"),
        ("3,12", "digits must be in 0..9"),
        ("-1,5", "digits must be in 0..9"),
    ], ids=["same", "twelve", "negative"])
    def test_bad_digit_pair_exits_2_before_data(self, command, pair, message, tmp_path, capsys):
        flags = [f"--digits={pair}"]
        if command == "replayed":
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps({"command": "train-svm",
                                            "config": {"digits": list(map(int, pair.split(",")))}}))
            command, flags = "train-svm", ["--config", manifest]
        # the data directory does not exist, so reading any data would fail first
        assert run_cli(command, *flags, "--data", tmp_path / "absent",
                       "--out", tmp_path / "x") == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("error: ") and lines[0].endswith(f"argument --digits: {message}")
        assert sum("error:" in line for line in lines) == 1
        assert not (tmp_path / "x" / "manifest.json").exists()

    # every refusal the flags and the model file allow is made before the test split is read
    @pytest.mark.parametrize("model,argv,message", [
        ("svm", ["--attack", "none", "--epsilon", 0.5],
         "attack none reads no epsilon, so it must be 0, got 0.5"),
        ("svm", ["--attack", "none", "--epsilon", 0, "--clip"],
         "--clip: attack none on a model without a front end clamps nothing"),
        ("svm", ["--attack", "fgsm", "--epsilon", 0.1],
         "the fgsm attack needs a network, and this model is a linear SVM"),
        ("svm_no_pair", ["--attack", "none", "--epsilon", 0],
         "malformed model header (KeyError: 'digits')"),
        ("svm", ["--attack", "semiwhite", "--epsilon", 0.1, "--limit", -1],
         "--limit must be a nonnegative integer, got -1"),
        ("svm", ["--attack", "semiwhite", "--epsilon", "nan"],
         "epsilon must be a number in [0, inf), got nan"),
        (None, ["--attack", "semiwhite", "--epsilon", 0.1],
         "attack needs --model (or --config with an attack manifest)"),
    ], ids=["none_epsilon", "none_clip_bare", "fgsm_svm", "svm_no_pair", "limit", "epsilon_nan",
            "no_model"])
    def test_attack_refusal_exits_2_before_data(self, model, argv, message, tmp_path, capsys):
        flags = []
        if model is not None:
            model_file = tmp_path / f"{model}.model"
            M.save_model(M.LinearModel(np.ones(784), 0.0, digits=(3, 7)), model_file)
            if model == "svm_no_pair":
                edit_header(model_file, lambda fields: fields.pop("digits"))
            flags = ["--model", model_file]
        # the data directory does not exist, so reading any data would fail first
        assert run_cli("attack", *flags, *argv, "--data", tmp_path / "absent",
                       "--out", tmp_path / "x") == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("error: ") and lines[0].endswith(message)
        assert sum("error:" in line for line in lines) == 1
        assert not (tmp_path / "x" / "manifest.json").exists()

    def test_missing_data_dir_names_fetch_command(self, tmp_path, capsys):
        rc = run_cli("train-svm", "--digits", "3,7", "--data", tmp_path / "empty",
                     "--out", tmp_path / "o")
        assert rc != 0
        assert "fetch-data" in capsys.readouterr().err


class TestAttenuationCommand:
    def test_report_and_manifest(self, tmp_path):
        out = tmp_path / "atten"
        rc = run_cli("attenuation", "--n", 256, "--k", 8, "--trials", 200,
                     "--mode", "both", "--seed", 3, "--out", out)
        assert rc == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "n,k,basis,mode,mean_ratio,stderr,trials,seed"
        assert len(report) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "attenuation"
        assert manifest["config"]["n"] == 256
        assert manifest["version"]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("attenuation", "--n", 128, "--k", 4, "--trials", 100,
                           "--mode", "semiwhite", "--seed", 5, "--out", out) == 0
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
        ca = json.loads((a / "manifest.json").read_text())["config"]
        cb = json.loads((b / "manifest.json").read_text())["config"]
        ca.pop("out"), cb.pop("out")
        assert ca == cb

    @pytest.mark.parametrize("basis", ["identity", "haar", "cdf97"])
    def test_both_rows_are_the_single_mode_rows(self, basis, tmp_path):
        rows = {}
        for mode in ("both", "semiwhite", "white"):
            out = tmp_path / mode
            assert run_cli("attenuation", "--n", 256, "--k", 8, "--trials", 100,
                           "--basis-kind", basis, "--mode", mode, "--seed", 3, "--out", out) == 0
            rows[mode] = (out / "report.csv").read_text().splitlines()[1:]
        assert rows["both"] == rows["semiwhite"] + rows["white"]

    def test_cdf97_semiwhite_ratio_is_k_over_n(self, tmp_path):
        # E[P_S] = (K/N) I for uniform S and G F = I, so semiwhite concentrates at K/N
        # under CDF 9/7 too; the bound is the lab's own, 5 standard errors
        out = tmp_path / "cdf97"
        assert run_cli("attenuation", "--basis-kind", "cdf97", "--n", 784, "--k", 16,
                       "--trials", 4000, "--mode", "semiwhite", "--out", out) == 0
        with open(out / "report.csv") as f:
            (row,) = csv.DictReader(f)
        assert (row["basis"], row["mode"]) == ("cdf97", "semiwhite")
        assert abs(float(row["mean_ratio"]) - 16 / 784) <= 5 * float(row["stderr"])

    def test_invalid_k_exits_nonzero(self, tmp_path, capsys):
        rc = run_cli("attenuation", "--n", 16, "--k", 99, "--trials", 10,
                     "--out", tmp_path / "x")
        assert rc != 0
        assert "error" in capsys.readouterr().err


def _attenuation_manifest(tmp_path):
    out = tmp_path / "run"
    assert run_cli("attenuation", "--n", 64, "--k", 4, "--trials", 50,
                   "--mode", "semiwhite", "--seed", 2, "--out", out) == 0
    return out / "manifest.json"


class TestConfigFile:
    def test_config_file_sets_defaults_flags_win(self, tmp_path):
        manifest = _attenuation_manifest(tmp_path)
        out1 = tmp_path / "o1"
        assert run_cli("attenuation", "--config", manifest, "--out", out1) == 0
        rows = (out1 / "report.csv").read_text().splitlines()
        assert rows[1].startswith("64,4,identity,semiwhite")
        out2 = tmp_path / "o2"
        assert run_cli("attenuation", "--config", manifest, "--k", 8, "--out", out2) == 0
        rows = (out2 / "report.csv").read_text().splitlines()
        assert rows[1].startswith("64,8,identity,semiwhite")
        assert json.loads((out2 / "manifest.json").read_text())["config"]["k"] == 8

    def test_out_not_inherited(self, tmp_path, monkeypatch):
        manifest = _attenuation_manifest(tmp_path)
        before = (tmp_path / "run" / "report.csv").read_bytes()
        monkeypatch.chdir(tmp_path)
        assert run_cli("attenuation", "--config", manifest, "--k", 8) == 0
        assert (tmp_path / "runs" / "attenuation" / "report.csv").exists()
        assert (tmp_path / "run" / "report.csv").read_bytes() == before

    # case -> the command replayed and the setting its error line must name; a
    # number given for a path names the missing file instead
    MALFORMED = {
        "missing": ("train-svm", ""), "not_json": ("train-svm", ""),
        "not_a_manifest": ("train-svm", ""), "wrong_command": ("train-svm", ""),
        "unknown_key": ("train-svm", "trails"), "bad_basis": ("train-svm", "basis"),
        "float_epochs": ("train-svm", "epochs"), "string_clip": ("train-svm", "clip"),
        "one_digit": ("train-svm", "digits"), "net_float_epochs": ("train-net", "epochs"),
        "attack_digits": ("attack", "digits"), "attack_number_model": ("attack", "'5'"),
        "attack_list_epsilon": ("attack", "epsilon"), "net_bool_lr": ("train-net", "lr"),
        "attack_seed": ("attack", "seed"), "attenuation_bad_mode": ("attenuation", "--mode"),
        "sweep_attack_none": ("sweep", "--attack"),
        "table1_settings": ("table1", "cnn_epsilon, cnn_rho, svm_epsilon, svm_rho"),
        "config_pairs": ("attack", "not a sparsefront manifest"),
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_manifest_exits_2(self, case, synth_data, trained, tmp_path, capsys):
        command, setting = self.MALFORMED[case]
        path = tmp_path / "manifest.json"
        config = {"command": "train-svm", "out": "x", "epochs": 1}

        def manifest(**settings):
            return json.dumps({"command": command,
                               "config": {"command": command, "out": "x", **settings}})

        content = {
            "not_json": "epochs = 1\n",
            "not_a_manifest": json.dumps(config),
            "wrong_command": json.dumps({"command": "attack", "config": config}),
            "unknown_key": manifest(epochs=1, trails=7),
            "bad_basis": manifest(epochs=1, basis="foo"),
            "float_epochs": manifest(epochs=1.5),
            "string_clip": manifest(clip="no"),
            "one_digit": manifest(digits=[3]),
            "net_float_epochs": manifest(epochs=1.5),
            "attack_digits": manifest(digits=[3, 7]),
            "attack_number_model": manifest(model=5),
            "attack_list_epsilon": manifest(epsilon=[0.1]),
            "net_bool_lr": manifest(lr=True),
            "attack_seed": manifest(seed=0),
            "attenuation_bad_mode": manifest(mode="bogus"),
            "sweep_attack_none": manifest(attack="none"),
            "table1_settings": manifest(svm_epsilon=0.12, svm_rho=0.02, cnn_epsilon=0.25,
                                        cnn_rho=0.03),
            # the settings as [key, value] pairs, not as a JSON object
            "config_pairs": json.dumps({"command": command,
                                        "config": [["command", command], ["limit", 5]]}),
        }
        if case in content:
            path.write_text(content[case])
        capsys.readouterr()
        # these flags alone make a valid run, so ignoring the manifest would exit 0
        flags = {
            "train-svm": ["--epochs", 1],
            "train-net": [],
            "attack": ["--model", trained["svm_plain"], "--attack", "none", "--epsilon", 0],
            "attenuation": ["--n", 64, "--k", 4, "--trials", 10],
            "sweep": ["--rhos", 0.02, "--epsilons", 0.1],
            "table1": ["--arch", "reduced_dense"],
        }[command]
        # a flag would win over the manifest's value
        flags = {"attack_number_model": flags[2:],
                 "attack_list_epsilon": flags[:-2]}.get(case, flags)
        data = ["--data", synth_data] if command != "attenuation" else []  # it reads no data
        rc = run_cli(command, "--config", path, *data, *flags, "--out", tmp_path / "o")
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and setting in err

    def test_overridden_value_still_checked(self, synth_data, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "train-net", "config": {"epochs": 1.5}}))
        rc = run_cli("train-net", "--config", path, "--epochs", 1, "--data", synth_data,
                     "--out", tmp_path / "o")
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: argument --epochs: ")
        assert not (tmp_path / "o" / "manifest.json").exists()

    # a manifest records null for a setting left to its default; a flag may still fill it
    @pytest.mark.parametrize("command,setting,flags", [
        ("train-net", "epochs", ["--arch", "reduced_dense", "--epochs", 1]),
        ("train-svm", "data", ["--epochs", 1]),
    ])
    def test_flag_fills_null_setting(self, command, setting, flags, synth_data, tmp_path):
        nulls = {"train-net": dict(epochs=None, lr=None, batch_size=None,
                                   weight_decay=None, dropout=None, data=None),
                 "train-svm": dict(data=None)}[command]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": command,
                                    "config": {"command": command, "out": "x", **nulls}}))
        out = tmp_path / "o"
        assert run_cli(command, "--config", path, "--data", synth_data, *flags,
                       "--out", out) == 0
        recorded = json.loads((out / "manifest.json").read_text())["config"]
        assert recorded[setting] == {"epochs": 1, "data": str(synth_data)}[setting]

    @pytest.mark.parametrize("omitted", ["--model", "--attack", "--epsilon"])
    def test_attack_without_config_needs_its_flags(self, omitted, trained, synth_data,
                                                   tmp_path, capsys):
        flags = {"--model": trained["svm_plain"], "--attack": "none", "--epsilon": 0}
        flags.pop(omitted)
        rc = run_cli("attack", "--data", synth_data, *(x for kv in flags.items() for x in kv),
                     "--out", tmp_path / "o")
        assert rc == 2
        assert omitted in capsys.readouterr().err


def _runs(data, models):
    """Every manifest-writing run of this module: name -> argv without --out."""
    runs = {name: [*argv, "--data", data, "--seed", 0] for name, (argv, _, _) in MODELS.items()}
    for name, (_, _, attacks) in MODELS.items():
        for attack in attacks:
            runs[f"attack-{name}-{attack}"] = [
                "attack", "--data", data, "--model", models[name], "--attack", attack,
                "--epsilon", 0 if attack == "none" else 0.2, *_clip(name, attack)]
    runs["attenuation"] = ["attenuation", "--n", 256, "--k", 8, "--trials", 200,
                           "--basis-kind", "haar", "--mode", "both", "--seed", 3]
    runs["sweep"] = ["sweep", "--data", data, "--rhos", "0.02,0.04", "--epsilons", "0.1,0.2",
                     "--clip"]
    runs["table1"] = ["table1", "--data", data, "--arch", "reduced_dense"]
    return runs


RUN_ARGV = _runs("", dict.fromkeys(MODELS, ""))

# command -> each setting its manifest records, at a valid value other than its default
NON_DEFAULT = {
    "train-svm": dict(data="d", seed=5, rho=0.05, basis="haar", levels=2, no_defense=True,
                      clip=True, digits=[4, 9], epochs=3, lr=0.3, batch_size=16,
                      weight_decay=0.001),
    "train-net": dict(data="d", seed=5, rho=0.05, basis="haar", levels=2, no_defense=True,
                      clip=True, arch="paper_cnn", epochs=2, lr=0.2, batch_size=32,
                      weight_decay=0.01, dropout=0.3),
    "attack": dict(data="d", model="m.model", attack="semiwhite", epsilon=0.2, clip=True,
                   limit=7),
    "sweep": dict(data="d", seed=5, digits=[4, 9], rhos=[0.01, 0.03], epsilons=[0.1, 0.2],
                  attack="semiwhite", basis="haar", levels=2, clip=True),
    "attenuation": dict(n=256, k=8, trials=50, basis_kind="haar", mode="white", levels=2,
                        seed=3),
    "table1": dict(data="d", seed=4, arch="reduced_dense", basis="haar", levels=2, clip=False),
}


class TestReplay:
    """Re-running from a manifest reproduces the run's outputs byte for byte."""

    def test_every_manifest_command_replayed(self):
        parser = cli.build_parser()
        usage = parser.format_usage()
        commands = re.search(r"\{(.*?)\}", usage).group(1).split(",")
        with_config = {c for c in commands
                       if not parser.parse_known_args([c, "--config", "m.json"])[1]}
        assert with_config == {argv[0] for argv in RUN_ARGV.values()}

    @pytest.mark.parametrize("command", list(NON_DEFAULT))
    def test_every_setting_replayed(self, command, tmp_path, monkeypatch):
        # nothing runs; main records the settings the command was handed
        for name in vars(cli).copy():
            if name.startswith("cmd_"):
                monkeypatch.setattr(cli, name, lambda args: None)
        plain = vars(cli.build_parser().parse_args([command]))
        settings = NON_DEFAULT[command]
        assert set(settings) == set(plain) - {"command", "out", "config", "func"}
        assert [key for key, value in settings.items() if value == plain[key]] == []
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": command,
                                    "config": {"command": command, "out": "x", **settings}}))
        monkeypatch.chdir(tmp_path)
        assert run_cli(command, "--config", path) == 0
        recorded = json.loads((tmp_path / plain["out"] / "manifest.json").read_text())["config"]
        assert recorded.pop("out") == plain["out"]
        assert recorded == {"command": command, **settings}

    @pytest.mark.parametrize("name", list(RUN_ARGV))
    def test_replay_matches(self, name, synth_data, trained, tmp_path):
        argv = _runs(synth_data, trained)[name]
        run, replay = tmp_path / "run", tmp_path / "replay"
        assert run_cli(*argv, "--out", run) == 0
        assert run_cli(argv[0], "--config", run / "manifest.json", "--out", replay) == 0
        # every file under the run directory, table1's row reports too
        files = sorted(p.relative_to(run) for p in run.rglob("*"))
        assert files == sorted(p.relative_to(replay) for p in replay.rglob("*"))
        assert Path("manifest.json") in files and len(files) > 1
        for file in files:
            if (run / file).is_dir():
                assert (replay / file).is_dir(), file
            elif file == Path("manifest.json"):
                first, second = (json.loads((d / file).read_text()) for d in (run, replay))
                assert first["config"].pop("out") == str(run)
                assert second["config"].pop("out") == str(replay)
                assert first == second
            else:
                assert (run / file).read_bytes() == (replay / file).read_bytes(), file


def train_defended_svm(digits, out):
    """The exit status of train-svm for a defended 3-vs-7 SVM written to `out`."""
    return run_cli("train-svm", "--data", digits, "--digits", "3,7", "--epochs", 30, "--lr", "0.3",
                   "--rho", "0.02", "--levels", 1, "--clip", "--out", out, "--seed", 0)


class TestTrainAndAttack:
    @needs_mnist
    def test_svm_train_attack_roundtrip(self, digits, tmp_path):
        out = tmp_path / "svm"
        assert train_defended_svm(digits, out) == 0
        summary = json.loads((out / "report.json").read_text())["summary"]
        assert summary["clean_accuracy"] > 0.9

    def test_svm_train_attack_files(self, digits, digits_test, tmp_path):
        # on MNIST the limit keeps 200 samples; the synthetic split holds fewer 3s and 7s
        samples = min(200, len(filter_pair(digits_test, 3, 7)))
        out = tmp_path / "svm"
        assert train_defended_svm(digits, out) == 0
        model_file = out / "svm_3v7_sparse_rho0.02.model"
        assert model_file.exists()

        atk = tmp_path / "atk"
        rc = run_cli("attack", "--data", digits, "--model", model_file, "--attack", "white",
                     "--epsilon", "0.12", "--clip", "--limit", 200, "--out", atk)
        assert rc == 0
        report = json.loads((atk / "report.json").read_text())
        assert report["summary"]["samples"] == samples
        assert len(report["records"]) == samples
        csv_lines = (atk / "report.csv").read_text().splitlines()
        assert len(csv_lines) == samples + 1

    def test_train_deterministic_model_bytes(self, digits, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = run_cli("train-svm", "--data", digits, "--digits", "3,7", "--epochs", 5,
                         "--lr", "0.3", "--no-defense", "--out", out, "--seed", 7)
            assert rc == 0
            outs.append(out / "svm_3v7_plain.model")
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_attack_reports_reproducible(self, digits, tmp_path):
        out = tmp_path / "svm"
        assert run_cli("train-svm", "--data", digits, "--digits", "3,7", "--epochs", 5,
                       "--lr", "0.3", "--no-defense", "--out", out, "--seed", 0) == 0
        model_file = out / "svm_3v7_plain.model"
        blobs = []
        for name in ("a1", "a2"):
            atk = tmp_path / name
            assert run_cli("attack", "--data", digits, "--model", model_file, "--attack",
                           "semiwhite", "--epsilon", "0.12", "--limit", 100, "--out", atk) == 0
            blobs.append(((atk / "report.csv").read_bytes(),
                          (atk / "report.json").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_zero_epsilon_attack_matches_clean(self, digits, tmp_path):
        out = tmp_path / "svm"
        assert run_cli("train-svm", "--data", digits, "--digits", "3,7", "--epochs", 5,
                       "--lr", "0.3", "--no-defense", "--out", out, "--seed", 0) == 0
        atk = tmp_path / "atk0"
        assert run_cli("attack", "--data", digits, "--model", out / "svm_3v7_plain.model",
                       "--attack", "none", "--epsilon", "0", "--out", atk) == 0
        summary = json.loads((atk / "report.json").read_text())["summary"]
        assert summary["attacked_accuracy"] == summary["clean_accuracy"]


class TestSweep:
    def test_single_point_matches_attack(self, digits, tmp_path):
        out = tmp_path / "sweep"
        rc = run_cli("sweep", "--data", digits, "--digits", "3,7", "--rhos", "0.02",
                     "--epsilons", "0.12", "--attack", "white", "--levels", 1,
                     "--clip", "--seed", 0, "--out", out)
        assert rc == 0
        rows = (out / "report.csv").read_text().splitlines()
        assert rows[0] == "rho,epsilon,attacked_accuracy,note"
        assert len(rows) == 2
        assert rows[1].endswith("best")

    def test_empty_grid_rejected(self, tmp_path):
        rc = run_cli("sweep", "--digits", "3,7", "--rhos", "", "--epsilons", "0.1",
                     "--out", tmp_path / "s")
        assert rc != 0

    @pytest.mark.parametrize("flag,grid", [
        ("--rhos", ["--rhos", "0.02,0.02,0.05", "--epsilons", "0.12"]),
        ("--epsilons", ["--rhos", "0.02,0.05", "--epsilons", "0.12,0.12"]),
    ])
    def test_repeated_grid_value_rejected(self, tmp_path, capsys, flag, grid):
        # checked before any data is read, so no MNIST is needed
        assert run_cli("sweep", *grid, "--out", tmp_path / "s") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err

    # an empty item is refused, so a stray comma does not run a shorter grid
    @pytest.mark.parametrize("flag,value", [("--rhos", "0.02,,0.03"), ("--epsilons", "0.1,")],
                             ids=["rhos", "epsilons"])
    def test_empty_grid_item_rejected(self, flag, value, tmp_path, capsys):
        assert run_cli("sweep", f"{flag}={value}", "--data", tmp_path / "absent",
                       "--out", tmp_path / "s") == 2
        assert capsys.readouterr().err.startswith(
            f"error: argument {flag}: expected comma-separated numbers, got {value!r}")

    def test_replayed_repeated_grid_names_the_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "sweep", "config": {"rhos": [0.02, 0.02]}}))
        assert run_cli("sweep", "--config", manifest, "--data", tmp_path / "absent",
                       "--out", tmp_path / "s") == 2
        assert capsys.readouterr().err.startswith(
            f"error: {manifest}: argument --rhos: expected distinct values, got '0.02,0.02'")

    @pytest.mark.parametrize("grid,named", [
        (["--rhos", "0.02,2", "--epsilons", "0.12"], "rho"),
        (["--rhos", "0.02", "--epsilons", "0.1,nan"], "epsilon"),
    ], ids=["rho", "epsilon"])
    def test_bad_grid_value_rejected_before_data(self, tmp_path, capsys, grid, named):
        # the data directory does not exist, so reading any data would fail first
        assert run_cli("sweep", *grid, "--data", tmp_path / "absent", "--out", tmp_path / "s") == 2
        assert capsys.readouterr().err.startswith(f"error: {named} ")


class TestTable1:
    def test_undefended_white_is_semiwhite(self, synth_data):
        # without a front end, evaluate linearizes the same bare model for both attacks
        train, test = (load_mnist(synth_data, split) for split in ("train", "test"))
        pair_train, pair_test = (filter_pair(split, *cli.PAPER_DIGITS) for split in (train, test))
        config = M.TrainConfig(seed=0, epochs=2, learning_rate=0.1)
        models = [
            (M.train_linear_svm(pair_train.images, pair_train.labels, config), pair_test),
            (M.train_network(train.images, train.labels, config, M.REDUCED_DENSE), test),
        ]
        for model, split in models:
            white, semiwhite = (A.evaluate(model, split, A.AttackSpec(kind, 0.2, clip=True))
                                for kind in ("white", "semiwhite"))
            assert list(white.columns) == list(semiwhite.columns)
            for name, column in white.columns.items():
                assert column.tobytes() == semiwhite.columns[name].tobytes(), name
            assert white.clean_accuracy == semiwhite.clean_accuracy
            assert white.attacked_accuracy == semiwhite.attacked_accuracy

    def test_row_reports(self, synth_data, tmp_path, monkeypatch):
        evaluate, kinds = A.evaluate, []

        def counted(model, test, spec):
            kinds.append(spec.kind)
            return evaluate(model, test, spec)

        monkeypatch.setattr(A, "evaluate", counted)
        assert run_cli("table1", "--arch", "reduced_dense", "--data", synth_data,
                       "--out", tmp_path) == 0
        # ten rows, of which the two undefended white rows reuse their semiwhite reports
        assert len(kinds) == 8 and kinds.count("white") == 2
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == sorted(
            "_".join(key) for key in cli.PAPER_TABLE)
        for task in ("svm", "cnn"):
            white, semiwhite = ((tmp_path / f"{task}_{attack}_none" / "report.csv").read_bytes()
                                for attack in ("white", "semiwhite"))
            assert white == semiwhite, task
        summary = json.loads((tmp_path / "svm_white_sparse" / "report.json").read_text())["summary"]
        assert {key: summary[key] for key in ("task", "attack", "defense", "epsilon", "clip")} == {
            "task": "svm", "attack": "white", "defense": "sparse", "epsilon": 0.12, "clip": True}

    def test_rows_are_attack_runs_on_the_saved_models(self, synth_data, tmp_path):
        def written(run):
            """An attack report's per-sample records and its CSV bytes."""
            return (json.loads((run / "report.json").read_text())["records"],
                    (run / "report.csv").read_bytes())

        out = tmp_path / "table1"
        assert run_cli("table1", "--arch", "reduced_dense", "--data", synth_data,
                       "--out", out) == 0
        for key in cli.PAPER_TABLE:
            row = out / "_".join(key)
            summary = json.loads((row / "report.json").read_text())["summary"]
            assert summary["model"] == f"{key[0]}_{key[2]}.model"
            rerun = tmp_path / "attack" / row.name
            assert run_cli("attack", "--data", synth_data, "--model", out / summary["model"],
                           "--attack", summary["attack"], "--epsilon", summary["epsilon"],
                           *(["--clip"] if summary["clip"] else []), "--out", rerun) == 0
            assert written(row) == written(rerun), row.name
        # each model is the file the single-model command writes at its default recipe
        for name, argv, model_file in [
            ("svm_sparse", ["train-svm", "--clip"], "svm_3v7_sparse_rho0.02.model"),
            ("svm_none", ["train-svm", "--no-defense"], "svm_3v7_plain.model"),
            ("cnn_sparse", ["train-net", "--arch", "reduced_dense", "--clip"],
             "net_reduced_dense_sparse_rho0.03.model"),
            ("cnn_none", ["train-net", "--arch", "reduced_dense", "--no-defense"],
             "net_reduced_dense_plain.model"),
        ]:
            assert run_cli(*argv, "--data", synth_data, "--out", tmp_path / name) == 0
            assert (out / f"{name}.model").read_bytes() == \
                (tmp_path / name / model_file).read_bytes(), name

    # a manifest replays a basis or architecture that argparse's choices would refuse
    @pytest.mark.parametrize("config,flags,named", [
        ({}, ["--levels", 9], "levels must be"),
        ({"basis": "db4"}, [], "--basis"),
        ({"arch": "vgg"}, [], "--arch"),
    ], ids=["levels", "replayed_basis", "replayed_arch"])
    def test_bad_setting_rejected_before_data(self, tmp_path, capsys, config, flags, named):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "table1", "config": config}))
        # the data directory does not exist, so reading any data would fail first
        assert run_cli("table1", "--config", manifest, *flags, "--data", tmp_path / "absent",
                       "--out", tmp_path / "t") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err


def train_net(data, out, *flags):
    """The exit status of a one-epoch undefended train-net run on `data`."""
    return run_cli("train-net", "--data", data, "--epochs", 1, "--no-defense", "--seed", 0,
                   "--out", out, *flags)


class TestNetworkTraining:
    # tiny runs: one epoch for speed, reduced preset
    @needs_mnist
    def test_train_net_smoke(self, digits, tmp_path):
        assert train_net(digits, tmp_path, "--arch", "reduced_dense") == 0
        summary = json.loads((tmp_path / "report.json").read_text())["summary"]
        assert summary["clean_accuracy"] > 0.9

    def test_train_net_writes_a_loadable_model(self, digits, tmp_path):
        assert train_net(digits, tmp_path, "--arch", "reduced_dense") == 0
        assert M.load_model(tmp_path / "net_reduced_dense_plain.model").n_classes == 10

    def test_dropout_rewrites_the_preset_entries(self, tmp_path):
        data = load_synth().write_split(tmp_path / "data", 3, 60, 20)
        models = {}
        for name, flags in (("default", []), ("half", ["--dropout", 0.5]),
                            ("low", ["--dropout", 0.3])):
            assert train_net(data, tmp_path / name, "--arch", "paper_cnn", "--batch-size", 16,
                             *flags) == 0
            models[name] = tmp_path / name / "net_paper_cnn_plain.model"
        rates = [e for e in M.load_model(models["low"]).arch["layers"] if e[0] == "dropout"]
        assert rates == [["dropout", 0.3], ["dropout", 0.3]]
        assert models["half"].read_bytes() == models["default"].read_bytes()

    def test_bad_dropout_rate_exits_2(self, synth_data, tmp_path, capsys):
        assert train_net(synth_data, tmp_path / "x", "--arch", "paper_cnn", "--dropout", 1.5) == 2
        assert "error: dropout rate must be a number in [0, 1), got 1.5" in capsys.readouterr().err
        assert not (tmp_path / "x" / "manifest.json").exists()


def _readme_commands():
    """Every `sparsefront ...` line of README's fenced sh blocks, as an argv list."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["sparsefront"]:
                commands.append(argv[1:])
    return commands


class TestReadme:
    def test_command_lines_parse(self):
        # parse only: nothing runs
        commands = _readme_commands()
        assert len(commands) > 5
        refused = []
        for argv in commands:
            try:
                cli.build_parser().parse_args(argv)
            except ValueError as exc:
                refused.append(f"sparsefront {shlex.join(argv)}: {exc}")
        assert not refused, "\n".join(refused)
