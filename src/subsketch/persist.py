"""File formats for trained models, run reports, and trajectories.

A model is stored as two files: ``model.bin``, the model's arrays in
``param_spec`` order concatenated flat as little-endian float64, and
``model.manifest.json`` naming each array, its shape, and the training
configuration plus the final pooling ratio and the held-out fold (null for
a model saved outside cross-validation).  :func:`read_manifest` is the one
reader of the manifest, and :func:`load_arrays` reads ``model.bin`` by
what it returns; :func:`load_model` runs the two, and a caller that needs
the manifest too runs them itself.  Loading checks the array list against
``param_spec`` and rejects any value that is not finite.  The split keeps
the dump trivially readable from any language.  Reports deliberately
exclude wall-clock time so repeated runs with one seed produce
byte-identical files.

Every CSV artifact goes through :func:`write_csv`: a header of the first
row's keys, one ``\\r\\n``-ended line per row, floats as ``%.10g``, bools
as 0/1 and ``None`` as an empty cell.  Every JSON artifact goes through
:func:`write_json`, which refuses NaN and infinities.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict
from itertools import zip_longest

import numpy as np

from .errors import ConfigError
from .trainer import FoldResult, ModelParams, RunReport, TrainConfig, param_spec

SCHEMA_VERSION = 1


def save_model(
    out_dir: str,
    model: ModelParams,
    config: TrainConfig,
    final_k: float,
    fold: int | None = None,
) -> None:
    flat = np.concatenate([arr.reshape(-1) for arr in model.values()])
    with open(os.path.join(out_dir, "model.bin"), "wb") as fh:
        fh.write(flat.astype("<f8").tobytes())
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "final_k": final_k,
        "fold": fold,
        "config": asdict(config),
        "arrays": [
            {"name": name, "shape": list(arr.shape)} for name, arr in model.items()
        ],
    }
    write_json(os.path.join(out_dir, "model.manifest.json"), manifest)


def read_manifest(out_dir: str) -> tuple[dict, TrainConfig]:
    """A saved model's manifest and its training configuration, with both
    model files present and the schema version, the configuration and the
    held-out ``fold`` (null for a model saved outside cross-validation)
    checked."""
    manifest_path = os.path.join(out_dir, "model.manifest.json")
    for path in (manifest_path, os.path.join(out_dir, "model.bin")):
        if not os.path.isfile(path):
            raise FileNotFoundError(f"missing model file: {path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise ConfigError(f"{manifest_path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError(
            f"{manifest_path}: expected a JSON object, got {type(manifest).__name__}"
        )
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"{manifest_path}: unsupported model schema "
            f"{manifest.get('schema_version')!r}"
        )
    try:
        config = TrainConfig(**manifest["config"])
        fold = manifest["fold"]
    except (KeyError, TypeError, ValueError) as exc:
        # A missing field, an unknown config key or a bad value.
        raise ConfigError(f"{manifest_path}: malformed manifest: {exc!r}") from None
    if fold is not None and (type(fold) is not int or not 0 <= fold < config.fold_count):
        raise ConfigError(
            f"{manifest_path}: fold must be null or an integer in "
            f"[0, {config.fold_count}), got {fold!r}"
        )
    return manifest, config


def load_model(out_dir: str) -> tuple[ModelParams, TrainConfig, float]:
    """The saved model in ``out_dir``, its configuration and its final ratio."""
    manifest, config = read_manifest(out_dir)
    model, final_k = load_arrays(out_dir, manifest, config)
    return model, config, final_k


def load_arrays(
    out_dir: str, manifest: dict, config: TrainConfig
) -> tuple[ModelParams, float]:
    """The model and its final ratio, from ``model.bin`` and what
    :func:`read_manifest` returned for ``out_dir``."""
    manifest_path = os.path.join(out_dir, "model.manifest.json")
    bin_path = os.path.join(out_dir, "model.bin")
    try:
        declared = [(item["name"], tuple(item["shape"])) for item in manifest["arrays"]]
        final_k = manifest["final_k"]
        # Feature and class counts come from the two arrays that carry them;
        # every other shape follows from the config.
        shapes = dict(declared)
        spec = param_spec(
            shapes.get("encoder.layer0", (0,))[0], shapes.get("classifier.w", (0, 0))[1], config
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"{manifest_path}: malformed manifest: {exc!r}") from None
    # Saved models have k in [dk, 1]; a bool is no number, NaN fails both tests.
    if type(final_k) not in (int, float) or not 0.0 < final_k <= 1.0:
        raise ConfigError(
            f"{manifest_path}: final_k must be a number in (0, 1], got {final_k!r}"
        )
    for got, want in zip_longest(declared, spec):
        if got != want:
            raise ConfigError(
                f"{manifest_path}: array {got} where its config expects {want}"
            )
    for name, shape in spec:
        if any(type(dim) is not int or dim < 1 for dim in shape):
            raise ConfigError(
                f"{manifest_path}: array {name} has shape {list(shape)}; "
                "dimensions must be positive integers"
            )
    with open(bin_path, "rb") as fh:
        blob = fh.read()
    sizes = [math.prod(shape) for _, shape in spec]
    if len(blob) != 8 * sum(sizes):
        raise ConfigError(
            f"{bin_path} holds {len(blob)} bytes but the manifest describes "
            f"{sum(sizes)} float64 values"
        )
    flat = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    model, cursor = ModelParams(), 0
    for (name, shape), size in zip(spec, sizes):
        model[name] = flat[cursor : cursor + size].reshape(shape)
        cursor += size
        if not np.isfinite(model[name]).all():
            raise ConfigError(f"{bin_path}: array {name} holds a NaN or an infinity")
    return model, float(final_k)


def write_report(
    path: str, report: RunReport, dataset: str, config: TrainConfig,
    results: list[FoldResult],
) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "dataset": dataset,
        "config": asdict(config),
        "fold_accuracies": report.fold_accuracies,
        "mean_accuracy": report.mean_accuracy,
        "std_accuracy": report.std_accuracy,
        "final_ks": [r.final_k for r in results],
        "stopped_epochs": [r.trajectory[-1]["epoch"] for r in results],
    }
    write_json(path, payload)


def _cell(value):
    if isinstance(value, float):
        return f"{value:.10g}"
    return int(value) if isinstance(value, bool) else value  # csv writes None as ""


def write_csv(path: str, rows: list[dict]) -> None:
    """Rows of one set of keys, in the layout of every CSV artifact."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _cell(value) for key, value in row.items()})


def write_json(path: str, payload: dict) -> None:
    """Indented JSON and a final newline: the layout of every JSON artifact."""
    # NaN and infinities, which JSON cannot hold, are refused before the
    # file is opened.
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
