"""Top-k subgraph selection and the agent that adapts the ratio k.

Selection scores each subgraph embedding by projection onto a trainable
direction ``p`` (``val = z . p / ||p||``), keeps the ``ceil(k * n)`` largest,
and gates each kept embedding by ``sigmoid(val)`` so ``p`` receives gradient
through the classification loss even though ranking itself is discrete.
The trainer computes scores and gates on the tape; :func:`rank_topk` ranks.

The ratio k is tuned between epochs by tabular Q-learning.  The table is
keyed on k discretized to multiples of the step ``dk`` — a deliberate
abstraction: keying on the selected index set would blow up the state space
while reward and termination only ever look at accuracy and k.  Reward is
the sign of the epoch-over-epoch accuracy change; the agent freezes once
the last ten k values span at most ``dk``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np


def selection_count(k: float, n: int) -> int:
    """``ceil(k * n)`` with a tiny back-off so float noise in k*n cannot
    bump an exact integer product up to the next count."""
    return max(1, math.ceil(k * n - 1e-9))


def rank_topk(values: np.ndarray, k: float) -> list[int]:
    """Indices of the ``ceil(k*n)`` largest values, ties by ascending index."""
    count = selection_count(k, len(values))
    return (-values).argsort(kind="stable")[:count].tolist()


def compute_reward(acc_now: float, acc_prev: float) -> int:
    """+1/0/-1 on accuracy up/same/down, compared at 6-decimal precision."""
    a, b = round(acc_now, 6), round(acc_prev, 6)
    if a > b:
        return 1
    if a == b:
        return 0
    return -1


def annealed_epsilon(
    epoch: int, start: float = 0.9, end: float = 0.1, span: int = 50
) -> float:
    """Linear anneal from start to end over the first ``span`` epochs."""
    if epoch >= span:
        return end
    return start + (end - start) * epoch / span


@dataclass
class PoolingAgent:
    """Q-learning over discretized k; mutated only between epochs."""

    k: float
    dk: float
    gamma: float = 1.0
    epsilon: float = 0.9
    alpha: float = 0.1
    q_table: dict[int, list[float]] = field(default_factory=dict)
    k_history: deque = field(default_factory=lambda: deque(maxlen=10))
    prev_acc: float | None = None
    frozen: bool = False
    prev_state: int | None = None
    prev_action: int | None = None
    last_reward: int | None = None

    # Action index 0 is +dk, index 1 is -dk.

    def state(self) -> int:
        return round(self.k / self.dk)

    def q_row(self, state: int) -> list[float]:
        return self.q_table.setdefault(state, [0.0, 0.0])

    def choose_action(self, rng: np.random.Generator) -> int:
        if self.frozen:
            raise ValueError("agent is frozen; no further actions")
        if rng.random() < self.epsilon:
            return int(rng.integers(2))
        row = self.q_row(self.state())
        return 0 if row[0] >= row[1] else 1  # ties prefer +dk

    def q_update(
        self, state_prev: int, action: int, reward: float, state_new: int
    ) -> None:
        row = self.q_row(state_prev)
        target = reward + self.gamma * max(self.q_row(state_new))
        row[action] += self.alpha * (target - row[action])

    def apply_action(self, action: int) -> float:
        delta = self.dk if action == 0 else -self.dk
        self.k = float(np.clip(self.k + delta, self.dk, 1.0))
        return self.k

    def check_termination(self) -> bool:
        if len(self.k_history) < 10:
            return False
        # <= dk is inclusive; the 1e-9 absorbs float residue in k +/- dk sums.
        if max(self.k_history) - min(self.k_history) <= self.dk + 1e-9:
            self.frozen = True
        return self.frozen

    def step_epoch(self, acc_now: float, rng: np.random.Generator) -> float:
        """End-of-epoch transition; returns the k to use next epoch."""
        if self.frozen:
            self.last_reward = None
            return self.k
        state_now = self.state()
        if self.prev_state is not None:
            self.last_reward = compute_reward(acc_now, self.prev_acc)
            self.q_update(self.prev_state, self.prev_action, self.last_reward, state_now)
        action = self.choose_action(rng)
        self.prev_state = state_now
        self.prev_action = action
        self.prev_acc = acc_now
        self.apply_action(action)
        self.k_history.append(self.k)
        self.check_termination()
        return self.k
