"""Command-line interface: train, evaluate, ablate, and explain.

Each subcommand takes only the settings it reads.  ``train`` and ``ablate``
layer built-in defaults, a ``key=value`` config file (``--config``) and
flags; ``evaluate`` and ``explain`` score with the saved model's settings,
and ``evaluate`` scores the fold the saved model held out.  Datasets are
read from ``DATA_DIR/NAME/NAME_*.txt`` in the usual benchmark layout;
artifacts go to ``--out-dir``.

Exit codes: 0 on success, 2 for configuration, dataset-format, and
missing-file problems and for a saved model that scores a graph as
non-finite, 1 for anything else.  Errors print to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

from .dataset import dataset_stats, make_folds, parse_tu_dataset
from .errors import ConfigError, DatasetFormatError, ScoresNotFinite
from .explain import explain_graph, write_dot, write_graph_json
from .persist import load_arrays, read_manifest, save_model, write_csv, write_report
from .trainer import (
    FIELD_TYPES,
    VARIANTS,
    TrainConfig,
    cross_validate,
    evaluate_accuracy,
    precompute_tensors,
)

# (subgraph count n, subgraph size s) presets for the common benchmarks;
# small molecules need fewer, larger views than protein graphs.
DATASET_DEFAULTS = {
    "MUTAG": (12, 5),
    "PTC": (12, 5),
    "PTC_MR": (12, 5),
    "PROTEINS": (20, 6),
    "NCI1": (20, 6),
    "NCI109": (20, 6),
    "DD": (30, 8),
}

_PATH_KEYS = ("dataset", "data_dir", "out_dir")


def parse_config_file(path: str, unread: tuple[str, ...] = ()) -> dict:
    """Read UTF-8 ``key = value`` lines (``#`` comments); refuse ``unread`` keys."""
    if not os.path.isfile(path):
        raise FileNotFoundError(f"config file not found: {path}")
    parsers = {field.name: FIELD_TYPES[field.type][1] for field in fields(TrainConfig)}
    parsers.update(dict.fromkeys(_PATH_KEYS, str))
    values: dict = {}
    first_line: dict = {}  # key -> the line that set it
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:  # surrogateescape keeps each undecodable byte as a lone surrogate
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise ConfigError(f"{path}:{lineno}: not valid UTF-8") from None
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, _, text = line.partition("=")
            key = key.strip().replace("-", "_")
            text = text.strip()
            if key in unread:
                raise ConfigError(f"{path}:{lineno}: {key!r} is not read by this command")
            if key not in parsers:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in first_line:
                raise ConfigError(
                    f"{path}:{lineno}: {key!r} is already set on line {first_line[key]}"
                )
            first_line[key] = lineno
            try:
                values[key] = parsers[key](text)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {text!r}") from exc
    return values


@dataclass(frozen=True)
class Paths:
    dataset: str
    data_dir: str
    out_dir: str

    @property
    def dataset_dir(self) -> str:
        return os.path.join(self.data_dir, self.dataset)


@dataclass(frozen=True)
class Settings(Paths):
    config: TrainConfig


def resolve_paths(args: argparse.Namespace, file_values: dict) -> Paths:
    """Flags first, then config-file values, then ``data`` and ``out``."""
    dataset = args.dataset or file_values.get("dataset")
    if not dataset:
        raise ConfigError("no dataset specified (use --dataset or a config file)")
    data_dir = args.data_dir or file_values.get("data_dir") or "data"
    out_dir = args.out_dir or file_values.get("out_dir") or "out"
    return Paths(dataset, data_dir, out_dir)


_FLAG_KEYS = ("seed", "variant", "epochs", "k0", "n", "s", "beta", "jobs")


def resolve_settings(args: argparse.Namespace) -> Settings:
    """Defaults < config file < flags, then a dataset preset for unset ``n``
    and ``s``.  A ``_FLAG_KEYS`` key the command has no flag for is refused."""
    unread = tuple(key for key in _FLAG_KEYS if key not in args)
    file_values = parse_config_file(args.config, unread) if args.config else {}
    paths = resolve_paths(args, file_values)
    overrides = {k: v for k, v in file_values.items() if k not in _PATH_KEYS}
    for key in _FLAG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    preset = DATASET_DEFAULTS.get(paths.dataset.upper())
    if preset is not None:
        overrides.setdefault("n", preset[0])
        overrides.setdefault("s", preset[1])
    return Settings(paths.dataset, paths.data_dir, paths.out_dir, TrainConfig(**overrides))


def _load_graphs(paths: Paths):
    if not os.path.isdir(paths.dataset_dir):
        raise FileNotFoundError(f"dataset directory not found: {paths.dataset_dir}")
    return parse_tu_dataset(paths.dataset_dir, paths.dataset)


@contextmanager
def _saved_model(args: argparse.Namespace):
    """Open a saved model as ``(paths, model, config, final_k, fold, graphs)``,
    ``fold`` being the one it held out (None if saved outside
    cross-validation), refusing before any forward pass a dataset with more
    node categories or classes than the model's first layer and classifier
    hold.  Scores that are not finite inside the block exit 2, naming the
    model's ``model.bin``."""
    paths = resolve_paths(args, {})
    manifest, config = read_manifest(paths.out_dir)
    model, final_k = load_arrays(paths.out_dir, manifest, config)
    graphs = _load_graphs(paths)
    stats = dataset_stats(graphs)
    manifest_path = os.path.join(paths.out_dir, "model.manifest.json")
    for what, need, have in (
        ("node categories", stats.feature_dim, model["encoder.layer0"].shape[0]),
        ("classes", stats.num_classes, model["classifier.w"].shape[1]),
    ):
        if need > have:
            raise ConfigError(
                f"{paths.dataset_dir} has {need} {what}, but the model in "
                f"{manifest_path} was trained on {have}"
            )
    try:
        yield paths, model, config, final_k, manifest["fold"], graphs
    except ScoresNotFinite as exc:
        raise ConfigError(f"{os.path.join(paths.out_dir, 'model.bin')}: {exc}") from None


def cmd_train(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    graphs = _load_graphs(settings)
    os.makedirs(settings.out_dir, exist_ok=True)
    report, results = cross_validate(graphs, settings.config)
    write_report(
        os.path.join(settings.out_dir, "report.json"),
        report, settings.dataset, settings.config, results,
    )
    write_csv(
        os.path.join(settings.out_dir, "trajectory.csv"),
        [row for rows in report.trajectories for row in rows],
    )
    best = max(results, key=lambda r: (r.test_accuracy, -r.fold))
    save_model(
        settings.out_dir, best.model, settings.config, best.final_k, fold=best.fold
    )
    print(
        f"{settings.dataset}: accuracy {report.mean_accuracy:.4f} "
        f"± {report.std_accuracy:.4f} over {settings.config.fold_count} folds"
    )
    print(
        f"saved fold {best.fold} model (test accuracy {best.test_accuracy:.4f}) "
        f"to {settings.out_dir}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Score the fold the saved model held out; a model saved with no fold
    (outside cross-validation) scores the fold given."""
    with _saved_model(args) as (paths, model, config, final_k, saved, graphs):
        fold = saved if args.fold is None else args.fold
        manifest = os.path.join(paths.out_dir, "model.manifest.json")
        if fold is None:
            raise ConfigError(f"the model in {manifest} names no held-out fold; give a fold")
        _, test_ids = make_folds(graphs, config.seed, config.fold_count).split(fold)
        if saved is not None and fold != saved:
            raise ConfigError(
                f"the model in {manifest} held out fold {saved} and trained on the "
                f"graphs of fold {fold}; evaluate fold {saved}"
            )
        tensors = {i: precompute_tensors(graphs[i], config.n, config.s) for i in test_ids}
        accuracy = evaluate_accuracy(model, tensors, test_ids, final_k, config)
    print(
        f"{paths.dataset} fold {fold}: accuracy {accuracy:.4f} "
        f"({len(test_ids)} graphs, k={final_k:.4f})"
    )
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    graphs = _load_graphs(settings)
    os.makedirs(settings.out_dir, exist_ok=True)
    rows = []
    for variant in VARIANTS:
        config = replace(settings.config, variant=variant)
        if variant == "fixed_k":
            # Hold the pooling ratio at 1.0 so the run isolates what the
            # adaptive agent contributes over keeping every subgraph.
            config = replace(config, k0=1.0)
        report, _ = cross_validate(graphs, config)
        rows.append(
            {
                "variant": variant,
                "mean_accuracy": report.mean_accuracy,
                "std_accuracy": report.std_accuracy,
            }
        )
        write_csv(
            os.path.join(settings.out_dir, f"trajectory_{variant}.csv"),
            [row for rows in report.trajectories for row in rows],
        )
    write_csv(os.path.join(settings.out_dir, "ablation.csv"), rows)
    lines = [f"{settings.dataset} ablation ({settings.config.fold_count} folds)"]
    for row in rows:
        lines.append(
            f"  {row['variant']:<10} {row['mean_accuracy']:.4f} "
            f"± {row['std_accuracy']:.4f}"
        )
    summary = "\n".join(lines) + "\n"
    with open(
        os.path.join(settings.out_dir, "ablation.txt"), "w", encoding="utf-8"
    ) as fh:
        fh.write(summary)
    print(summary, end="")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    with _saved_model(args) as (paths, model, config, final_k, _, graphs):
        if not 0 <= args.graph_id < len(graphs):
            raise ConfigError(
                f"unknown graph id {args.graph_id} "
                f"(dataset has graphs 0..{len(graphs) - 1})"
            )
        graph = graphs[args.graph_id]
        detail = explain_graph(model, config, graph, final_k)
    dot_path = os.path.join(paths.out_dir, f"graph_{graph.index}.dot")
    json_path = os.path.join(paths.out_dir, f"graph_{graph.index}.json")
    write_graph_json(json_path, detail)  # first: it refuses values JSON cannot hold
    write_dot(dot_path, graph, detail)
    print(
        f"graph {graph.index}: predicted class {detail['predicted_label']} "
        f"(true {detail['true_label']}), kept {detail['selection_count']} "
        f"of {config.n} subgraphs"
    )
    print(f"wrote {dot_path} and {json_path}")
    return 0


def _add_paths(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--dataset", required=required, help="dataset name, e.g. MUTAG")
    parser.add_argument("--data-dir", dest="data_dir", help="dataset root (default: data)")
    parser.add_argument("--out-dir", dest="out_dir", help="artifact directory (default: out)")


def _add_training(parser: argparse.ArgumentParser) -> None:
    _add_paths(parser, required=False)  # a config file may name it
    parser.add_argument("--config", help="key=value settings file")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--epochs", type=int, help="epoch budget per fold")
    parser.add_argument("--k0", type=float, help="initial pooling ratio")
    parser.add_argument("--n", type=int, help="subgraphs sampled per graph")
    parser.add_argument("--s", type=int, help="nodes per subgraph")
    parser.add_argument("--beta", type=float, help="mutual-information loss weight")
    parser.add_argument("--jobs", type=int, help="parallel fold workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsketch",
        description="Subgraph-based graph classification with adaptive pooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run cross-validated training")
    _add_training(train)
    train.add_argument("--variant", choices=VARIANTS, help="training variant")
    train.set_defaults(func=cmd_train, parser=train)

    evaluate = sub.add_parser("evaluate", help="score a saved model on one fold")
    _add_paths(evaluate, required=True)
    evaluate.add_argument(
        "fold", nargs="?", type=int, help="fold index (default: the one the model held out)"
    )
    evaluate.set_defaults(func=cmd_evaluate, parser=evaluate)

    ablate = sub.add_parser("ablate", help="compare all training variants")
    _add_training(ablate)
    ablate.set_defaults(func=cmd_ablate, parser=ablate)

    explain = sub.add_parser("explain", help="inspect one graph with a saved model")
    _add_paths(explain, required=True)
    explain.add_argument("graph_id", type=int, help="graph index in the dataset")
    explain.set_defaults(func=cmd_explain, parser=explain)
    return parser


def main(argv: list[str] | None = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # refused by the subcommand, so show its usage
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except (ConfigError, DatasetFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # keep CLI failures as messages, not tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
