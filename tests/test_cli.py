"""End-to-end command-line tests on a small synthetic dataset."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import read_trajectory
from _synth import planted_motif_dataset
from subsketch.cli import (
    DATASET_DEFAULTS,
    build_parser,
    main,
    parse_config_file,
    resolve_settings,
)
from subsketch.dataset import Graph, make_folds, parse_tu_dataset, write_tu_dataset
from subsketch.errors import ConfigError
from subsketch.persist import load_model
from subsketch.trainer import VARIANTS


# --- config file parsing -------------------------------------------------


def test_config_file_values_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "epochs = 7\n"
        "k0=0.25  # trailing comment\n"
        "fold-count = 5\n"
        "dk = none\n"
        "dataset = TOY\n"
        "\n"
    )
    values = parse_config_file(str(path))
    assert values == {
        "epochs": 7,
        "k0": 0.25,
        "fold_count": 5,
        "dk": None,
        "dataset": "TOY",
    }


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("bogus = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_file(str(path))


def test_config_file_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = soon\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_file(str(path))


def test_config_file_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_config_file(str(tmp_path / "nope.cfg"))


def test_config_file_requires_assignment(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_file(str(path))


# --- settings resolution -------------------------------------------------


def _parse(argv):
    return build_parser().parse_args(argv)


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("dataset = TOY\nepochs = 7\nseed = 2\n")
    settings = resolve_settings(
        _parse(["train", "--config", str(path), "--seed", "5"])
    )
    assert settings.dataset == "TOY"
    assert settings.config.epochs == 7  # from file
    assert settings.config.seed == 5  # flag wins
    assert settings.config.lr == 0.01  # untouched default


def test_dataset_presets_fill_n_and_s():
    settings = resolve_settings(_parse(["train", "--dataset", "DD"]))
    assert (settings.config.n, settings.config.s) == DATASET_DEFAULTS["DD"]
    override = resolve_settings(_parse(["train", "--dataset", "DD", "--n", "7"]))
    assert override.config.n == 7
    assert override.config.s == DATASET_DEFAULTS["DD"][1]


def test_dataset_required():
    with pytest.raises(ConfigError, match="no dataset"):
        resolve_settings(_parse(["train"]))


def test_directory_defaults():
    settings = resolve_settings(_parse(["train", "--dataset", "X"]))
    assert settings.data_dir == "data"
    assert settings.out_dir == "out"
    assert settings.dataset_dir.endswith("data/X")


# --- options per command -------------------------------------------------

PATHS = {"--dataset", "--data-dir", "--out-dir"}
TRAINING = PATHS | {"--config", "--seed", "--epochs", "--k0", "--n", "--s", "--beta", "--jobs"}


def test_each_command_takes_only_the_settings_it_reads():
    """evaluate and explain score with the saved model's settings, and
    ablate runs every variant, so none takes a flag it would ignore."""
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    options, positionals, required = {}, {}, {}
    for name, parser in commands.items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        options[name] = {opt for a in actions for opt in a.option_strings}
        positionals[name] = [a.dest for a in actions if not a.option_strings]
        required[name] = {a.option_strings[0] for a in actions if a.required and a.option_strings}
    assert options == {
        "train": TRAINING | {"--variant"},
        "evaluate": PATHS,
        "ablate": TRAINING,
        "explain": PATHS,
    }
    assert sum(map(len, options.values())) == 29
    assert positionals == {"train": [], "evaluate": ["fold"], "ablate": [], "explain": ["graph_id"]}
    # Without a config file, --dataset is the only source of the dataset.
    assert required == {"train": set(), "evaluate": {"--dataset"}, "ablate": set(), "explain": {"--dataset"}}


# --- subcommands on a synthetic dataset ---------------------------------


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    dataset_dir = root / "data" / "SYN"
    dataset_dir.mkdir(parents=True)
    graphs = planted_motif_dataset(
        np.random.default_rng(7), num_graphs=30, base_nodes=9
    )
    write_tu_dataset(graphs, str(dataset_dir), "SYN")
    return root


def _train_args(root, out_name, extra=()):
    return [
        "train",
        "--dataset", "SYN",
        "--data-dir", str(root / "data"),
        "--out-dir", str(root / out_name),
        "--n", "4", "--s", "4", "--epochs", "12", "--seed", "3",
        *extra,
    ]


@pytest.fixture(scope="module")
def trained(workspace):
    assert main(_train_args(workspace, "out")) == 0
    return workspace, workspace / "out"


def test_train_writes_report_and_model(trained, capsys):
    _, out = trained
    report = json.loads((out / "report.json").read_text())
    assert len(report["fold_accuracies"]) == 10
    assert 0.0 <= report["mean_accuracy"] <= 1.0
    assert report["config"]["n"] == 4
    assert report["config"]["seed"] == 3
    assert len(report["final_ks"]) == 10
    assert len(report["stopped_epochs"]) == 10
    assert (out / "model.bin").is_file()
    assert (out / "model.manifest.json").is_file()
    rows = read_trajectory(str(out / "trajectory.csv"))
    assert {row["fold"] for row in rows} == set(range(10))
    assert max(row["epoch"] for row in rows) <= 11


def test_train_output_mentions_accuracy(workspace, capsys):
    assert main(_train_args(workspace, "out_echo")) == 0
    message = capsys.readouterr().out
    assert "SYN: accuracy" in message
    assert "±" in message


def test_repeat_run_is_byte_identical(trained):
    root, out = trained
    assert main(_train_args(root, "out_again")) == 0
    again = root / "out_again"
    for name in ("report.json", "trajectory.csv", "model.bin"):
        assert (out / name).read_bytes() == (again / name).read_bytes(), name


def test_evaluate_reports_fold_accuracy(trained, capsys):
    root, out = trained
    args = [
        "evaluate",
        "--dataset", "SYN",
        "--data-dir", str(root / "data"),
        "--out-dir", str(out),
    ]
    assert main(args) == 0
    fold = json.loads((out / "model.manifest.json").read_text())["fold"]
    accuracy = json.loads((out / "report.json").read_text())["fold_accuracies"][fold]
    assert f"fold {fold}: accuracy {accuracy:.4f}" in capsys.readouterr().out


def test_evaluate_reads_the_manifest_once(trained, monkeypatch):
    import builtins

    opened = []
    real_open = builtins.open

    def counting(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(os.path.basename(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    assert _evaluate_exit(*trained) == 0
    assert opened.count("model.manifest.json") == 1


def test_evaluate_scores_the_fold_the_model_held_out(workspace, capsys):
    # Seed 2 saves the model that held out fold 7, which trained on fold 0.
    assert main(_train_args(workspace, "out_seed2", ["--seed", "2", "--epochs", "3"])) == 0
    out = workspace / "out_seed2"
    fold = json.loads((out / "model.manifest.json").read_text())["fold"]
    accuracy = json.loads((out / "report.json").read_text())["fold_accuracies"][fold]
    assert fold != 0
    capsys.readouterr()
    assert _evaluate_exit(workspace, out) == 0
    assert f"fold {fold}: accuracy {accuracy:.4f}" in capsys.readouterr().out
    assert _evaluate_exit(workspace, out, str(fold)) == 0
    assert f"fold {fold}: accuracy {accuracy:.4f}" in capsys.readouterr().out
    assert _evaluate_exit(workspace, out, "0") == 2
    err = capsys.readouterr().err
    assert f"held out fold {fold} and trained on the graphs of fold 0" in err


def test_evaluate_of_a_model_saved_with_no_fold_needs_one(trained, tmp_path, capsys):
    manifest_path, manifest = _doctored_model(trained, tmp_path)
    manifest["fold"] = None  # how a model saved outside cross-validation reads
    manifest_path.write_text(json.dumps(manifest))
    args = ["--dataset", "SYN", "--data-dir", str(trained[0] / "data"), "--out-dir", str(tmp_path)]
    assert main(["evaluate", *args]) == 2
    assert f"{manifest_path} names no held-out fold" in capsys.readouterr().err
    assert main(["evaluate", "4", *args]) == 0
    assert "fold 4: accuracy" in capsys.readouterr().out


@pytest.mark.parametrize("fold", [True, -1, 10, 1.0, "0"], ids=repr)
def test_evaluate_rejects_a_manifest_fold_off_the_fold_range(trained, tmp_path, capsys, fold):
    manifest_path, manifest = _doctored_model(trained, tmp_path)
    manifest["fold"] = fold
    manifest_path.write_text(json.dumps(manifest))
    assert _evaluate_exit(trained[0], tmp_path) == 2
    err = capsys.readouterr().err
    assert f"{manifest_path}: fold must be null or an integer in [0, 10)" in err


def test_evaluate_fold_out_of_range(trained, capsys):
    root, out = trained
    args = [
        "evaluate", "99",
        "--dataset", "SYN",
        "--data-dir", str(root / "data"),
        "--out-dir", str(out),
    ]
    assert main(args) == 2
    assert "out of range" in capsys.readouterr().err


def test_evaluate_without_model(workspace, capsys):
    args = [
        "evaluate",
        "--dataset", "SYN",
        "--data-dir", str(workspace / "data"),
        "--out-dir", str(workspace / "empty_out"),
    ]
    assert main(args) == 2
    assert "missing model file" in capsys.readouterr().err


def _doctored_model(trained, tmp_path):
    """A copy of the trained model's files; returns the manifest path and dict."""
    _, out = trained
    for file in ("model.bin", "model.manifest.json"):
        shutil.copy(out / file, tmp_path / file)
    manifest_path = tmp_path / "model.manifest.json"
    return manifest_path, json.loads(manifest_path.read_text())


def _evaluate_exit(root, out_dir, *fold):
    return main([
        "evaluate", *fold,
        "--dataset", "SYN",
        "--data-dir", str(root / "data"),
        "--out-dir", str(out_dir),
    ])


@pytest.mark.parametrize(
    "target, name, shape",
    [
        ("pool.p", "pool.q", [16, 1]),  # renamed
        ("encoder.layer1", "encoder.layer1", [8, 32]),  # same size as [16, 16]
        ("encoder.layer0", "encoder.layer0", [2, 8]),  # no config gives this
        ("encoder.layer0", "encoder.layer0", [4.0, 16]),  # equal, but not an int
    ],
)
def test_evaluate_rejects_manifest_off_the_parameter_spec(
    trained, tmp_path, capsys, target, name, shape
):
    manifest_path, manifest = _doctored_model(trained, tmp_path)
    entry = next(item for item in manifest["arrays"] if item["name"] == target)
    entry["name"], entry["shape"] = name, shape
    manifest_path.write_text(json.dumps(manifest))
    assert _evaluate_exit(trained[0], tmp_path) == 2
    err = capsys.readouterr().err
    assert str(manifest_path) in err and name in err


def test_evaluate_rejects_array_entry_without_shape(trained, tmp_path, capsys):
    manifest_path, manifest = _doctored_model(trained, tmp_path)
    del manifest["arrays"][2]["shape"]
    manifest_path.write_text(json.dumps(manifest))
    assert _evaluate_exit(trained[0], tmp_path) == 2
    assert str(manifest_path) in capsys.readouterr().err


def test_evaluate_rejects_unknown_config_key(trained, tmp_path, capsys):
    manifest_path, manifest = _doctored_model(trained, tmp_path)
    manifest["config"]["bogus"] = 1
    manifest_path.write_text(json.dumps(manifest))
    assert _evaluate_exit(trained[0], tmp_path) == 2
    err = capsys.readouterr().err
    assert str(manifest_path) in err and "bogus" in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", 12.5),
        ("n", True),
        ("s", 5.0),
        ("batch_size", 2.5),
        ("seed", 1.5),
        ("seed", -1),
        ("b_com", 0.5),
        ("fold_count", 10.0),
    ],
)
@pytest.mark.parametrize("command", ["evaluate", "explain"])
def test_manifest_config_of_wrong_type_or_sign_exits_two(
    trained, tmp_path, capsys, field, value, command
):
    manifest_path, manifest = _doctored_model(trained, tmp_path)
    manifest["config"][field] = value
    manifest_path.write_text(json.dumps(manifest))
    args = [
        command, "0",
        "--dataset", "SYN",
        "--data-dir", str(trained[0] / "data"),
        "--out-dir", str(tmp_path),
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert str(manifest_path) in err and f"{field} must" in err


@pytest.mark.parametrize(
    "command, fold_count, fold",
    [("evaluate", 0, 0), ("evaluate", 1, None), ("explain", 1, None)],
)
def test_manifest_of_fewer_than_two_folds_exits_two(
    trained, tmp_path, capsys, command, fold_count, fold
):
    """Such a model once blamed its fold, explained graphs with exit 0, or
    failed in the fold split without naming the manifest."""
    manifest_path, manifest = _doctored_model(trained, tmp_path)
    manifest["config"]["fold_count"] = fold_count
    manifest["fold"] = fold
    manifest_path.write_text(json.dumps(manifest))
    args = [
        command, "0" if command == "evaluate" else "3",
        "--dataset", "SYN",
        "--data-dir", str(trained[0] / "data"),
        "--out-dir", str(tmp_path),
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert str(manifest_path) in err and "fold_count must be at least 2" in err


@pytest.mark.parametrize(
    "final_k",
    [float("nan"), float("inf"), 0, -0.5, 7.5, "0.5", True],
    ids=["NaN", "Infinity", "0", "-0.5", "7.5", "string", "true"],
)
def test_evaluate_rejects_final_k_off_the_unit_interval(
    trained, tmp_path, capsys, final_k
):
    manifest_path, manifest = _doctored_model(trained, tmp_path)
    manifest["final_k"] = final_k  # json writes NaN and Infinity bare
    manifest_path.write_text(json.dumps(manifest))
    assert _evaluate_exit(trained[0], tmp_path) == 2
    err = capsys.readouterr().err
    assert str(manifest_path) in err and "final_k" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"schema_version": 1,, "arrays": []}', "not valid JSON"),
        ("[1, 2]", "expected a JSON object"),
    ],
)
def test_evaluate_rejects_manifest_that_is_not_a_json_object(
    trained, tmp_path, capsys, text, message
):
    manifest_path, _ = _doctored_model(trained, tmp_path)
    manifest_path.write_text(text)
    assert _evaluate_exit(trained[0], tmp_path) == 2
    err = capsys.readouterr().err
    assert str(manifest_path) in err and message in err


@settings(max_examples=150, deadline=None)
@given(
    target=st.sampled_from(("model.manifest.json", "model.bin")),
    truncate=st.booleans(),
    where=st.floats(0.0, 1.0, exclude_max=True),
    flip=st.integers(1, 255),
)
def test_damaged_model_files_load_or_exit_two(trained, target, truncate, where, flip):
    """A truncated or byte-flipped model file either still loads or fails
    with an error the CLI reports with exit 2; nothing else escapes."""
    root, out = trained
    with tempfile.TemporaryDirectory() as tmp:
        for file in ("model.bin", "model.manifest.json"):
            shutil.copy(out / file, os.path.join(tmp, file))
        path = os.path.join(tmp, target)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        at = int(where * len(blob))
        if truncate:
            del blob[at:]
        else:
            blob[at] ^= flip
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            load_model(tmp)
        except (ConfigError, FileNotFoundError):
            assert _evaluate_exit(root, tmp) == 2


@pytest.mark.parametrize(
    "poison, first",
    [("all NaN", "encoder.layer0"), ("one infinity", "sketch.w_mi")],
)
@pytest.mark.parametrize("command", ["evaluate", "explain"])
def test_non_finite_model_values_exit_two(trained, tmp_path, capsys, poison, first, command):
    """A model.bin of NaN would score every graph as class 0 and exit 0."""
    _, manifest = _doctored_model(trained, tmp_path)
    blob = tmp_path / "model.bin"
    values = np.frombuffer(blob.read_bytes(), dtype="<f8").copy()
    if poison == "all NaN":
        values[:] = np.nan
    else:
        sizes = [int(np.prod(item["shape"])) for item in manifest["arrays"]]
        names = [item["name"] for item in manifest["arrays"]]
        values[sum(sizes[: names.index(first)]) + 1] = -np.inf
    blob.write_bytes(values.astype("<f8").tobytes())
    args = [
        command, "3",
        "--dataset", "SYN",
        "--data-dir", str(trained[0] / "data"),
        "--out-dir", str(tmp_path),
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert str(blob) in err and f"array {first} holds a NaN or an infinity" in err
    assert not (tmp_path / "graph_3.json").exists()


@pytest.mark.parametrize("command", ["evaluate", "explain"])
def test_finite_but_huge_model_exits_two_naming_model_bin(trained, tmp_path, capsys, command):
    """Every value passes the finiteness check, but the scores overflow: the
    command once warned, scored NaN as class 0 and wrote NaN into JSON."""
    _doctored_model(trained, tmp_path)
    blob = tmp_path / "model.bin"
    values = np.frombuffer(blob.read_bytes(), dtype="<f8") * 1e300
    assert np.isfinite(values).all()
    blob.write_bytes(values.astype("<f8").tobytes())
    args = [
        command, *(["5"] if command == "explain" else []),
        "--dataset", "SYN",
        "--data-dir", str(trained[0] / "data"),
        "--out-dir", str(tmp_path),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(
        rf"error: {re.escape(str(blob))}: the model gives graph \d+ a class "
        r"distribution that is not finite\n", err
    ), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin", "model.manifest.json"]


def test_train_fold_whose_model_scores_non_finite_exits_one(workspace, monkeypatch, capsys):
    import subsketch.trainer as trainer

    train_fold = trainer.train_fold

    def huge(*args, **kwargs):
        result = train_fold(*args, **kwargs)
        for arr in result.model.values():
            arr *= 1e300
        return result

    monkeypatch.setattr(trainer, "train_fold", huge)
    assert main(_train_args(workspace, "out_huge_model", ["--epochs", "1"])) == 1
    assert re.fullmatch(
        r"error: training diverged in fold 0: the model gives graph \d+ a class "
        r"distribution that is not finite\n", capsys.readouterr().err
    )
    assert not (workspace / "out_huge_model" / "model.bin").exists()


def test_evaluate_rejects_model_bin_of_partial_values(trained, tmp_path, capsys):
    _doctored_model(trained, tmp_path)
    blob = tmp_path / "model.bin"
    blob.write_bytes(blob.read_bytes()[:-3])
    assert _evaluate_exit(trained[0], tmp_path) == 2
    assert str(blob) in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        (b"1\xe9", "non-ASCII byte 0xe9"),
        (b"99999999999999999999", "64-bit integer range"),
    ],
)
def test_train_rejects_malformed_bytes(workspace, tmp_path, capsys, line, message):
    dataset_dir = tmp_path / "data" / "SYN"
    shutil.copytree(workspace / "data" / "SYN", dataset_dir)
    indicator = dataset_dir / "SYN_graph_indicator.txt"
    rows = indicator.read_bytes().splitlines()
    rows[4] = line
    indicator.write_bytes(b"\n".join(rows) + b"\n")
    args = [
        "train", "--dataset", "SYN", "--data-dir", str(tmp_path / "data"),
        "--out-dir", str(tmp_path / "out"), "--epochs", "1",
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "SYN_graph_indicator.txt:5: " in err and message in err


def test_train_rejects_edge_id_past_int32(workspace, tmp_path, capsys):
    dataset_dir = tmp_path / "data" / "SYN"
    shutil.copytree(workspace / "data" / "SYN", dataset_dir)
    edge_file = dataset_dir / "SYN_A.txt"
    rows = edge_file.read_bytes().splitlines()
    rows[2] = b"3000000000, 1"
    edge_file.write_bytes(b"\n".join(rows) + b"\n")
    args = [
        "train", "--dataset", "SYN", "--data-dir", str(tmp_path / "data"),
        "--out-dir", str(tmp_path / "out"), "--epochs", "1",
    ]
    assert main(args) == 2
    assert "SYN_A.txt:3: node id out of range" in capsys.readouterr().err


def test_missing_dataset_directory(workspace, capsys):
    args = [
        "train",
        "--dataset", "MISSING",
        "--data-dir", str(workspace / "data"),
        "--out-dir", str(workspace / "out_missing"),
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "MISSING" in err and "not found" in err


def test_unknown_config_key_exits_with_two(workspace, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("mystery = 4\n")
    args = ["train", "--config", str(config)]
    assert main(args) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, where",
    [
        ("# two values for n\nepochs = 1\nn = 3\nn = 5\n", "4: 'n' is already set on line 3"),
        # Keys are compared after '-' becomes '_', so these two are one key.
        ("batch-size = 4\nbatch_size = 8\n", "2: 'batch_size' is already set on line 1"),
    ],
    ids=["same-spelling", "dash-and-underscore"],
)
def test_config_key_set_twice_exits_two_naming_both_lines(
    workspace, tmp_path, capsys, text, where
):
    config = tmp_path / "twice.cfg"
    config.write_text(text)
    args = _train_args(workspace, "out_twice", extra=["--config", str(config)])
    del args[args.index("--n") : args.index("--n") + 2]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {config}:{where}\n"
    assert not (workspace / "out_twice").exists()


def test_config_file_not_utf8_exits_with_two(workspace, tmp_path, capsys):
    config = tmp_path / "latin1.cfg"
    config.write_bytes(b"epochs = 3\n# caf\xe9\n")
    args = _train_args(workspace, "out_latin1", extra=["--config", str(config)])
    assert main(args) == 2
    assert f"{config}:2: not valid UTF-8" in capsys.readouterr().err


def test_negative_seed_flag_exits_with_two(workspace, capsys):
    args = _train_args(workspace, "out_negative_seed", extra=["--seed=-1"])
    assert main(args) == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err


def test_nan_learning_rate_in_config_exits_with_two(workspace, tmp_path, capsys):
    config = tmp_path / "nan.cfg"
    config.write_text("lr = nan\n")
    args = _train_args(workspace, "out_nan", extra=["--config", str(config)])
    assert main(args) == 2
    assert "lr must be finite and non-negative, got nan" in capsys.readouterr().err


def test_diverging_training_exits_one_naming_fold_epoch_and_batch(
    workspace, tmp_path, capsys
):
    config = tmp_path / "hot.cfg"
    config.write_text("lr = 10\nl2 = 0\nbatch_size = 4\n")
    args = _train_args(workspace, "out_hot", extra=["--config", str(config)])
    args[args.index("--epochs") + 1] = "3"
    assert main(args) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: training diverged in fold \d+, epoch \d+, batch \d+: [^\n]+\n", err
    ), err


def test_overflowing_epoch_loss_sum_exits_one_without_warnings(
    workspace, tmp_path, capsys
):
    # Each batch's loss is finite, but with beta near the float limit the
    # loss times the batch size overflows the epoch's running sum.
    config = tmp_path / "huge_beta.cfg"
    config.write_text("fold_count = 2\nbatch_size = 200\nbeta = 1e308\n")
    args = _train_args(workspace, "out_huge_beta", extra=["--config", str(config)])
    args[args.index("--epochs") + 1] = "1"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: training diverged in fold 0, epoch 0, batch 0: [^\n]+\n", err
    ), err
    assert not (workspace / "out_huge_beta" / "model.bin").exists()


def test_invalid_flag_value_exits_with_two(workspace, capsys):
    args = _train_args(workspace, "out_badk", extra=["--k0", "1.5"])
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err


_IGNORED = [
    ("--config", None), ("--seed", "5"), ("--variant", "no_mi"), ("--epochs", "1"),
    ("--k0", "0.1"), ("--n", "3"), ("--s", "2"), ("--beta", "7"), ("--jobs", "4"),
]


@pytest.mark.parametrize(
    "command, flag, value",
    [(c, f, v) for c in ("evaluate", "explain") for f, v in _IGNORED]
    + [("ablate", "--variant", "no_mi")],
)
def test_flag_the_command_does_not_read_exits_two(
    trained, tmp_path, capsys, command, flag, value
):
    root, out = trained
    if value is None:  # a config file that evaluate and explain would not read
        value = str(tmp_path / "run.cfg")
        (tmp_path / "run.cfg").write_text("seed = 3\n")
    if command == "ablate":  # kept small, since ablate ran in full before
        head = ["ablate", "--out-dir", str(tmp_path / "ab"), "--n", "4", "--s", "4", "--epochs", "1"]
    else:
        head = [command, "0", "--out-dir", str(out)]
    args = [*head, "--dataset", "SYN", "--data-dir", str(root / "data"), flag, value]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and flag in err
    assert f"usage: subsketch {command} " in err  # the subcommand's usage


def test_ablate_config_file_naming_a_variant_exits_two(workspace, tmp_path, capsys):
    config = tmp_path / "ablate.cfg"
    config.write_text("epochs = 1\nvariant = no_mi\n")
    args = [
        "ablate", "--config", str(config), "--dataset", "SYN",
        "--data-dir", str(workspace / "data"), "--out-dir", str(tmp_path / "ab"),
        "--n", "4", "--s", "4",
    ]
    assert main(args) == 2
    assert f"{config}:2: 'variant' is not read by this command" in capsys.readouterr().err


def _relabelled_copy(root, tmp_path, suffix):
    """The SYN files with the first line of ``SYN_<suffix>`` set to 40, a
    node category or class the trained model has never seen."""
    data = tmp_path / "data"
    shutil.copytree(root / "data" / "SYN", data / "SYN")
    path = data / "SYN" / f"SYN_{suffix}"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(["40", *lines[1:]]) + "\n")
    return data


@pytest.mark.parametrize(
    "suffix, what",
    [("node_labels.txt", "node categories"), ("graph_labels.txt", "classes")],
)
@pytest.mark.parametrize("command", ["evaluate", "explain"])
def test_dataset_the_saved_model_cannot_score_exits_two(
    trained, tmp_path, capsys, suffix, what, command
):
    root, out = trained
    data = _relabelled_copy(root, tmp_path, suffix)
    # Graph 0 carries the new label: explain it, and evaluate its fold.
    graphs = parse_tu_dataset(str(root / "data" / "SYN"), "SYN")
    fold = make_folds(graphs, load_model(str(out))[1].seed, 10).assignments[0]
    target = str(fold) if command == "evaluate" else "0"
    args = [command, target, "--dataset", "SYN"]
    assert main([*args, "--data-dir", str(data), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert what in err
    assert str(data / "SYN") in err and str(out / "model.manifest.json") in err


# --- ablate -------------------------------------------------------------


@pytest.fixture(scope="module")
def ablated(workspace):
    args = [
        "ablate",
        "--dataset", "SYN",
        "--data-dir", str(workspace / "data"),
        "--out-dir", str(workspace / "ab"),
        "--n", "4", "--s", "4", "--epochs", "6", "--seed", "3",
    ]
    assert main(args) == 0
    return workspace / "ab"


def test_ablate_covers_every_variant(ablated):
    lines = (ablated / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "variant,mean_accuracy,std_accuracy"
    variants = [line.split(",")[0] for line in lines[1:]]
    assert variants == list(VARIANTS)
    for line in lines[1:]:
        mean = float(line.split(",")[1])
        assert 0.0 <= mean <= 1.0
    for variant in VARIANTS:
        assert (ablated / f"trajectory_{variant}.csv").is_file()
    assert (ablated / "ablation.txt").read_text().count("±") == len(VARIANTS)


def test_ablate_fixed_variant_keeps_every_subgraph(ablated):
    rows = read_trajectory(str(ablated / "trajectory_fixed_k.csv"))
    assert rows
    assert all(row["k"] == 1.0 for row in rows)
    assert all(row["reward"] is None for row in rows)


def test_ablate_adaptive_variant_moves_k(ablated):
    rows = read_trajectory(str(ablated / "trajectory_full.csv"))
    assert {row["k"] for row in rows} != {1.0}


def test_ablate_samples_each_graph_once(workspace, tmp_path, monkeypatch):
    # The four variants share n and s, so the three after the first reuse
    # the subgraphs the first one sampled.
    import subsketch.trainer as trainer

    sampled = []
    sample = trainer.sample_subgraphs
    monkeypatch.setattr(
        trainer, "sample_subgraphs", lambda g, n, s: sampled.append(g.index) or sample(g, n, s)
    )
    args = [
        "ablate", "--dataset", "SYN", "--data-dir", str(workspace / "data"),
        "--out-dir", str(tmp_path / "ab"), "--n", "4", "--s", "4", "--epochs", "1",
    ]
    assert main(args) == 0
    assert sorted(sampled) == list(range(30))


# --- explain ------------------------------------------------------------

NODE_LINE = re.compile(
    r'^n(\d+) \[label="(\d+)", fillcolor="([^"]+)", '
    r"width=(\d+\.\d+), height=(\d+\.\d+), fixedsize=true\];$"
)
EDGE_LINE = re.compile(r"^n(\d+) -- n(\d+);$")


def check_dot(text):
    """Validate the DOT file structurally and return nodes, edges, clusters."""
    lines = [line.strip() for line in text.strip().splitlines()]
    assert lines[0].startswith("graph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    depth = 0
    cluster = None
    nodes, edges, clusters = {}, [], []
    for line in lines:
        if line.endswith("{"):
            depth += 1
            if line.startswith("subgraph cluster_"):
                cluster = int(line[len("subgraph cluster_"):-1].strip())
                clusters.append(cluster)
        elif line == "}":
            depth -= 1
            assert depth >= 0
            cluster = None
        elif match := NODE_LINE.match(line):
            node = int(match.group(1))
            assert node == int(match.group(2))
            assert node not in nodes, f"node {node} declared twice"
            assert match.group(4) == match.group(5)  # square nodes
            nodes[node] = {
                "color": match.group(3),
                "width": float(match.group(4)),
                "cluster": cluster,
            }
        elif match := EDGE_LINE.match(line):
            edges.append((int(match.group(1)), int(match.group(2))))
        elif line.startswith("label=") or line.startswith("node ["):
            continue
        else:
            raise AssertionError(f"unexpected DOT line: {line!r}")
    assert depth == 0
    assert len(set(clusters)) == len(clusters)
    return nodes, edges, clusters


@pytest.fixture(scope="module")
def explained(trained):
    root, out = trained
    args = [
        "explain", "5",
        "--dataset", "SYN",
        "--data-dir", str(root / "data"),
        "--out-dir", str(out),
    ]
    assert main(args) == 0
    detail = json.loads((out / "graph_5.json").read_text())
    dot = (out / "graph_5.dot").read_text()
    return detail, dot


def test_explain_selection_matches_ratio(explained):
    detail, _ = explained
    expected = max(1, math.ceil(detail["k"] * len(detail["subgraphs"]) - 1e-9))
    assert detail["selection_count"] == expected
    assert len(detail["selected_subgraphs"]) == expected
    selected_ids = [sub["index"] for sub in detail["selected_subgraphs"]]
    flagged = [sub["index"] for sub in detail["subgraphs"] if sub["selected"]]
    assert sorted(selected_ids) == sorted(flagged)
    # Ranked by projection score, best first.
    vals = [sub["val"] for sub in detail["selected_subgraphs"]]
    assert vals == sorted(vals, reverse=True)
    unselected = [s["val"] for s in detail["subgraphs"] if not s["selected"]]
    assert all(v >= u for v in vals for u in unselected)


def test_explain_distributions_are_consistent(explained):
    detail, _ = explained
    summed = np.zeros(len(detail["graph_distribution"]))
    for sub in detail["selected_subgraphs"]:
        row = np.asarray(sub["class_distribution"])
        assert abs(row.sum() - 1.0) < 1e-9
        summed += row
    renormalised = summed / summed.sum()
    assert np.allclose(renormalised, detail["graph_distribution"], atol=1e-9)
    assert detail["predicted_label"] == int(np.argmax(detail["graph_distribution"]))


def test_explain_gates_follow_scores(explained):
    detail, _ = explained
    for sub in detail["selected_subgraphs"]:
        expected = 1.0 / (1.0 + math.exp(-sub["val"]))
        assert abs(sub["gate"] - expected) < 1e-12
        weights = np.asarray(list(sub["intra_weights"].values()))
        assert abs(weights.sum() - 1.0) < 1e-9
        assert set(map(int, sub["intra_weights"])) == set(sub["nodes"])


def test_explain_dot_is_well_formed(explained):
    detail, dot = explained
    nodes, edges, clusters = check_dot(dot)
    graph_nodes = {
        node for sub in detail["subgraphs"] for node in sub["nodes"]
    }
    covered = {
        node for sub in detail["selected_subgraphs"] for node in sub["nodes"]
    }
    assert set(nodes) >= graph_nodes
    for node, info in nodes.items():
        if node in covered:
            assert info["cluster"] is not None
            assert info["color"] != "grey"
            assert info["width"] > 0.25
        else:
            assert info["cluster"] is None
            assert info["color"] == "grey"
            assert info["width"] == 0.25
    assert set(clusters) <= {s["index"] for s in detail["selected_subgraphs"]}
    for u, v in edges:
        assert u < v
    assert len(edges) == len(set(edges))


def test_explain_unknown_graph_id(trained, capsys):
    root, out = trained
    args = [
        "explain", "999",
        "--dataset", "SYN",
        "--data-dir", str(root / "data"),
        "--out-dir", str(out),
    ]
    assert main(args) == 2
    assert "unknown graph id" in capsys.readouterr().err


# --- whole runs on generated datasets -----------------------------------

_TU_FILES = ("A.txt", "graph_indicator.txt", "graph_labels.txt", "node_labels.txt")
# Each corruption and the files it may hit.  A missing node-label file is
# no corruption, since the parser then falls back to degrees.
_CORRUPTIONS = {
    "missing": _TU_FILES[:3],
    "ragged": _TU_FILES,
    "non_ascii": _TU_FILES,
    "label_count": _TU_FILES[2:],
    "cross_edge": _TU_FILES[:1],
}


@st.composite
def tu_runs(draw):
    """A small 2-class TU dataset, run settings, and at most one corruption
    as ``(kind, suffix, line index)``."""
    sizes = draw(st.lists(st.integers(2, 8), min_size=6, max_size=12))
    labels = draw(st.permutations([i % 2 for i in range(len(sizes))]))
    graphs = []
    for index, (size, label) in enumerate(zip(sizes, labels)):
        ids = st.integers(0, size - 1)
        edges = draw(st.lists(st.tuples(ids, ids), max_size=2 * size))
        node_labels = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        graphs.append(Graph(index, label, edges, tuple(node_labels)))
    flags = [
        "--n", str(draw(st.integers(1, 5))), "--s", str(draw(st.integers(1, 6))),
        "--seed", str(draw(st.integers(0, 3))),
    ]
    kind = draw(st.sampled_from([None, *_CORRUPTIONS]))
    if kind is None:
        return graphs, flags, None
    return graphs, flags, (kind, draw(st.sampled_from(_CORRUPTIONS[kind])), draw(st.integers(0, 200)))


def _corrupt(dataset_dir, kind, suffix, at):
    """Apply one corruption; return the file name and the 1-based line it
    reports, or None where the message names no line."""
    name = f"SYN_{suffix}"
    path = os.path.join(dataset_dir, name)
    if kind == "missing":
        os.remove(path)
        return name, None
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    line = None
    if kind == "label_count":  # one label too few
        lines.pop()
    elif kind == "cross_edge":  # the first node and the last are in different graphs
        with open(os.path.join(dataset_dir, "SYN_graph_indicator.txt"), "rb") as fh:
            nodes = len(fh.read().splitlines())
        lines.append(b"1, %d" % nodes)
        line = len(lines)
    elif not lines:  # an edge file with no edges: add the bad row
        lines.append(b"1, 1, 1" if kind == "ragged" else b"1, 1\xe9")
        line = 1
    else:
        line = at % len(lines) + 1
        lines[line - 1] += b", 1" if kind == "ragged" else b"\xe9"
    with open(path, "wb") as fh:
        fh.write(b"".join(row + b"\n" for row in lines))
    return name, line


def _run(args):
    """``main(args)``'s exit status and stderr, checked against the CLI's
    contract: 0, 2, or 1 only for a diverged training run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(args)
    err = err.getvalue()
    assert status in (0, 2) or status == 1 and "training diverged" in err, (args, status, err)
    return status, err


@settings(max_examples=15, deadline=None, derandomize=True)
@given(tu_runs())
def test_generated_datasets_run_or_exit_two(run):
    """train, evaluate and explain 0 on generated TU directories: a valid
    one trains to byte-identical artifacts when repeated with its seed, and
    a corrupted one exits 2 naming the file (and the line, where there is
    one)."""
    graphs, flags, corruption = run
    with tempfile.TemporaryDirectory() as tmp:
        write_tu_dataset(graphs, os.path.join(tmp, "data", "SYN"), "SYN")
        config = os.path.join(tmp, "run.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write("fold_count = 2\n")

        def command(name, data, out, *rest):
            common = ["--dataset", "SYN", "--data-dir", os.path.join(tmp, data),
                      "--out-dir", os.path.join(tmp, out)]
            if name == "train":
                return ["train", *common, "--config", config, "--epochs", "1", *flags]
            return [name, *rest, *common]

        first, _ = _run(command("train", "data", "out"))
        if first == 0:
            assert _run(command("train", "data", "again"))[0] == 0
            for artifact in ("report.json", "trajectory.csv", "model.bin"):
                with open(os.path.join(tmp, "out", artifact), "rb") as a, \
                        open(os.path.join(tmp, "again", artifact), "rb") as b:
                    assert a.read() == b.read(), artifact
            assert _run(command("evaluate", "data", "out"))[0] == 0
            assert _run(command("explain", "data", "out", "0"))[0] == 0
        if corruption is None:
            return
        kind, suffix, at = corruption
        shutil.copytree(os.path.join(tmp, "data"), os.path.join(tmp, "bad"))
        name, line = _corrupt(os.path.join(tmp, "bad", "SYN"), kind, suffix, at)
        where = name if line is None else f"{name}:{line}"
        runs = [command("train", "bad", "bad_out")]
        if first == 0:  # a saved model to open, so the dataset is read
            runs += [command("evaluate", "bad", "out"), command("explain", "bad", "out", "0")]
        for args in runs:
            status, err = _run(args)
            assert status == 2 and where in err, (args, err)
