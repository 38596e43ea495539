"""Round-trip tests for model, report, trajectory, and ablation files."""

import hashlib
import json

import numpy as np
import pytest

from subsketch.errors import ConfigError
from subsketch.persist import (
    SCHEMA_VERSION,
    load_model,
    save_model,
    write_csv,
    write_report,
)
from subsketch.trainer import RunReport, TrainConfig, init_model

from _reference import read_trajectory


def small_config(**overrides) -> TrainConfig:
    base = dict(n=4, s=4, d1=6, d2=8, heads=2, epochs=3, fold_count=5)
    base.update(overrides)
    return TrainConfig(**base)


def test_model_round_trip_is_exact(tmp_path):
    config = small_config(seed=11)
    model = init_model(np.random.default_rng(0), 5, 3, config)
    save_model(str(tmp_path), model, config, final_k=0.625, fold=3)
    loaded, loaded_config, final_k = load_model(str(tmp_path))
    assert loaded_config == config
    assert final_k == 0.625
    manifest = json.loads((tmp_path / "model.manifest.json").read_text())
    assert manifest["fold"] == 3
    original = model.registry()
    restored = loaded.registry()
    assert list(original) == list(restored)
    for name in original:
        assert np.array_equal(original[name], restored[name]), name


# The on-disk layout of init_model(default_rng(0), 7 features, 2 classes,
# TrainConfig()): array order, names and shapes, and model.bin's bytes.
# Glorot init is plain uniform draws with no BLAS, so the hash is portable.
PINNED_ARRAYS = [
    {"name": "encoder.layer0", "shape": [7, 16]},
    {"name": "encoder.layer1", "shape": [16, 16]},
    {"name": "encoder.w_intra", "shape": [16, 16]},
    {"name": "encoder.a_intra", "shape": [16, 1]},
    {"name": "pool.p", "shape": [16, 1]},
    {"name": "sketch.w_inter0", "shape": [96, 16]},
    {"name": "sketch.w_inter1", "shape": [96, 16]},
    {"name": "sketch.a_inter0", "shape": [192, 1]},
    {"name": "sketch.a_inter1", "shape": [192, 1]},
    {"name": "sketch.w_mi", "shape": [96, 96]},
    {"name": "classifier.w", "shape": [96, 2]},
    {"name": "classifier.b", "shape": [1, 2]},
]
PINNED_SHA256 = "7024505e79553d958dfca9f92130e1a81844b242d5fd6dd886afadac57a2170a"


def test_init_and_saved_layout_are_pinned(tmp_path):
    config = TrainConfig()
    save_model(str(tmp_path), init_model(np.random.default_rng(0), 7, 2, config), config, 0.5)
    manifest = json.loads((tmp_path / "model.manifest.json").read_text())
    assert manifest["arrays"] == PINNED_ARRAYS
    blob = (tmp_path / "model.bin").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == PINNED_SHA256


def test_load_model_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="missing model file"):
        load_model(str(tmp_path))


def test_load_model_rejects_unknown_schema(tmp_path):
    config = small_config()
    model = init_model(np.random.default_rng(0), 5, 2, config)
    save_model(str(tmp_path), model, config, final_k=0.5)
    manifest_path = tmp_path / "model.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["schema_version"] = SCHEMA_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="schema"):
        load_model(str(tmp_path))


def test_load_model_rejects_truncated_binary(tmp_path):
    config = small_config()
    model = init_model(np.random.default_rng(0), 5, 2, config)
    save_model(str(tmp_path), model, config, final_k=0.5)
    blob = (tmp_path / "model.bin").read_bytes()
    (tmp_path / "model.bin").write_bytes(blob + b"\x00" * 8)
    with pytest.raises(ConfigError, match="manifest describes"):
        load_model(str(tmp_path))


def test_report_payload(tmp_path):
    config = small_config()
    report = RunReport(
        fold_accuracies=[0.5, 0.75],
        mean_accuracy=0.625,
        std_accuracy=0.125,
        trajectories=[],
        wall_clock_seconds=1.5,
    )
    path = tmp_path / "report.json"
    write_report(str(path), report, "TOY", config, [0.5, 0.25], [3, 2])
    payload = json.loads(path.read_text())
    assert payload["dataset"] == "TOY"
    assert payload["fold_accuracies"] == [0.5, 0.75]
    assert payload["mean_accuracy"] == 0.625
    assert payload["final_ks"] == [0.5, 0.25]
    assert payload["stopped_epochs"] == [3, 2]
    assert payload["config"]["n"] == 4
    # Timing is deliberately left out so identical runs write identical bytes.
    assert "wall_clock" not in path.read_text()


def test_trajectory_round_trip(tmp_path):
    rows = [
        {"fold": 0, "epoch": 0, "loss": 1.25, "train_acc": 0.5,
         "k": 0.5, "reward": None, "terminated": False},
        {"fold": 0, "epoch": 1, "loss": 1.125, "train_acc": 0.625,
         "k": 0.75, "reward": 1.0, "terminated": False},
        {"fold": 1, "epoch": 0, "loss": 1.0, "train_acc": 0.75,
         "k": 0.25, "reward": -1.0, "terminated": True},
    ]
    path = tmp_path / "trajectory.csv"
    write_csv(str(path), rows)
    assert read_trajectory(str(path)) == rows


def test_ablation_csv(tmp_path):
    rows = [
        {"variant": "full", "mean_accuracy": 0.875, "std_accuracy": 0.06},
        {"variant": "no_mi", "mean_accuracy": 0.75, "std_accuracy": 0.1},
    ]
    path = tmp_path / "ablation.csv"
    write_csv(str(path), rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "variant,mean_accuracy,std_accuracy"
    assert len(lines) == 3
    assert lines[1].startswith("full,0.875")


def test_csv_bytes_are_the_trajectory_and_ablation_layout(tmp_path):
    """The exact bytes the separate trajectory and ablation writers wrote
    before ``write_csv`` replaced both: rounded floats, ints, bools as 0/1,
    None as an empty cell, strings as they are, and ``\\r\\n`` line ends."""
    trajectory = [
        {"fold": 1, "epoch": 12, "loss": 0.7500000000000002, "train_acc": 2 / 3,
         "k": 0.1 + 0.2, "reward": None, "terminated": True},
        {"fold": 1, "epoch": 13, "loss": 1e-12, "train_acc": 1.0,
         "k": 0.25, "reward": -1, "terminated": False},
    ]
    ablation = [
        {"variant": "full", "mean_accuracy": 0.7500000000000002, "std_accuracy": 0.0},
        {"variant": "no_mi", "mean_accuracy": 1 / 3, "std_accuracy": 123456.789012345},
    ]
    write_csv(str(tmp_path / "trajectory.csv"), trajectory)
    write_csv(str(tmp_path / "ablation.csv"), ablation)
    assert (tmp_path / "trajectory.csv").read_bytes() == (
        b"fold,epoch,loss,train_acc,k,reward,terminated\r\n"
        b"1,12,0.75,0.6666666667,0.3,,1\r\n"
        b"1,13,1e-12,1,0.25,-1,0\r\n"
    )
    assert (tmp_path / "ablation.csv").read_bytes() == (
        b"variant,mean_accuracy,std_accuracy\r\n"
        b"full,0.75,0\r\n"
        b"no_mi,0.3333333333,123456.789\r\n"
    )
