"""Behavioural evidence on synthetic data with a planted class motif.

Class-1 graphs contain a 4-clique, class-0 graphs do not; everything else
is random.  A model that actually learns subgraph structure separates the
classes well above the 50% majority rate, and the pooling-ratio agent
settles long before the epoch budget runs out.
"""

from dataclasses import replace

import numpy as np
import pytest

from _synth import planted_motif_dataset
from subsketch.dataset import parse_tu_dataset, write_tu_dataset
from subsketch.trainer import TrainConfig, cross_validate


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    raw = planted_motif_dataset(np.random.default_rng(5), num_graphs=40, base_nodes=10)
    # Round-trip through the on-disk format so features are label one-hots,
    # exactly as they would be for a parsed benchmark dataset.
    write_tu_dataset(raw, str(root), "SYN")
    return parse_tu_dataset(str(root), "SYN")


LEARN = TrainConfig(
    n=6, s=4, d1=8, d2=16, epochs=80, lr=0.05,
    batch_size=10, fold_count=5, seed=0,
)


def _majority_rate(graphs):
    """Accuracy of always predicting the most common class."""
    labels = [g.label for g in graphs]
    return max(labels.count(c) for c in set(labels)) / len(labels)


@pytest.fixture(scope="module")
def full_run(graphs):
    return cross_validate(graphs, LEARN)


def test_learns_planted_motif(graphs, full_run):
    report, _ = full_run
    majority = _majority_rate(graphs)
    assert majority == 0.5
    assert report.mean_accuracy > majority + 0.15


def test_agent_settles_before_budget(full_run):
    _, results = full_run
    for result in results:
        last = result.trajectory[-1]
        assert last["terminated"], f"fold {result.fold} never froze"
        frozen_at = next(
            row["epoch"] for row in result.trajectory if row["terminated"]
        )
        # Ten ratio observations are needed before freezing is possible.
        assert 9 <= frozen_at < LEARN.epochs - 1


def test_final_ratio_stays_on_grid(full_run):
    _, results = full_run
    dk = LEARN.resolved_dk
    for result in results:
        assert dk - 1e-9 <= result.final_k <= 1.0 + 1e-9
        steps = result.final_k / dk
        assert abs(steps - round(steps)) < 1e-6


def test_rewards_are_signs(full_run):
    _, results = full_run
    seen = set()
    for result in results:
        for row in result.trajectory:
            if row["reward"] is not None:
                assert row["reward"] in (-1.0, 0.0, 1.0)
                seen.add(row["reward"])
    assert seen  # the agent actually took scored steps


def test_trajectory_length_matches_stop(full_run):
    _, results = full_run
    for result in results:
        # One row per epoch run, so the last row's epoch is where it stopped.
        assert [row["epoch"] for row in result.trajectory] == list(
            range(len(result.trajectory))
        )


def test_folds_train_distinct_models(full_run):
    _, results = full_run
    first = results[0].model.registry()
    second = results[1].model.registry()
    assert any(
        not np.array_equal(first[name], second[name]) for name in first
    )


def test_wall_clock_recorded(full_run):
    report, _ = full_run
    assert report.wall_clock_seconds > 0.0


def test_corrupt_negative_sampling_also_learns(graphs):
    report, _ = cross_validate(graphs, replace(LEARN, variant="mi_corrupt"))
    assert report.mean_accuracy > _majority_rate(graphs) + 0.1
