import numpy as np
import pytest

from subsketch.pooling import (
    PoolingAgent,
    annealed_epsilon,
    compute_reward,
    rank_topk,
    selection_count,
)

from _reference import projection_values, topk_select


def test_k_one_keeps_everything_in_score_order():
    zs = np.array([[1.0], [3.0], [2.0]])
    idx, gates = topk_select(zs, np.array([1.0]), k=1.0)
    assert idx == [1, 2, 0]
    assert len(gates) == 3


def test_two_of_three():
    zs = np.array([[3.0], [1.0], [2.0]])
    idx, _ = topk_select(zs, np.array([1.0]), k=2 / 3)
    assert idx == [0, 2]


def test_ties_break_by_ascending_index():
    zs = np.array([[2.0], [2.0], [1.0], [2.0]])
    idx, _ = topk_select(zs, np.array([1.0]), k=0.5)
    assert idx == [0, 1]


def test_matches_brute_force_sort_oracle():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        zs = rng.standard_normal((16, 5))
        p = rng.standard_normal(5)
        values = zs @ p / np.linalg.norm(p)
        for k in (0.25, 0.5, 0.75):
            idx, gates = topk_select(zs, p, k)
            count = int(np.ceil(k * 16))
            # Exhaustive oracle: stable sort on (-value, index) pairs.
            want = [i for _, i in sorted((-values[i], i) for i in range(16))][:count]
            assert idx == want
            np.testing.assert_allclose(
                gates, 1 / (1 + np.exp(-values[idx])), atol=1e-12
            )


def test_selection_count_floors_at_one_and_resists_float_noise():
    assert selection_count(0.05, 4) == 1
    assert selection_count(0.75, 16) == 12
    assert selection_count(0.1 + 0.2, 10) == 3  # 0.30000000000000004 * 10
    for n in (1, 5, 12):
        for k in np.linspace(0.01, 1.0, 50):
            count = selection_count(float(k), n)
            assert 1 <= count <= n


def test_gates_monotone_in_value():
    zs = np.array([[v] for v in (-2.0, -0.5, 0.0, 1.0, 3.0)])
    idx, gates = topk_select(zs, np.array([1.0]), k=1.0)
    assert list(gates) == sorted(gates, reverse=True)


def test_zero_projection_rejected():
    with pytest.raises(ValueError, match="zero norm"):
        projection_values(np.ones((3, 2)), np.zeros(2))


def test_bad_ratio_rejected():
    with pytest.raises(ValueError, match="pooling ratio"):
        topk_select(np.ones((3, 2)), np.ones(2), k=0.0)


def test_rank_topk_plain_values():
    assert rank_topk(np.array([0.1, 0.9, 0.5]), 1.0) == [1, 2, 0]


def test_reward_signs():
    assert compute_reward(0.90, 0.80) == 1
    assert compute_reward(0.80, 0.80) == 0
    assert compute_reward(0.70, 0.80) == -1
    # Equality is judged after rounding to 6 decimals.
    assert compute_reward(0.8000000004, 0.8) == 0
    assert compute_reward(0.800001, 0.8) == 1


def test_choose_action_pure_exploration_is_even():
    agent = PoolingAgent(k=0.5, dk=0.1, epsilon=1.0)
    rng = np.random.default_rng(0)
    draws = [agent.choose_action(rng) for _ in range(10_000)]
    assert abs(np.mean(draws) - 0.5) < 0.05


def test_choose_action_greedy_and_tie_rule():
    agent = PoolingAgent(k=0.5, dk=0.1, epsilon=0.0)
    agent.q_table[agent.state()] = [0.5, -0.2]
    rng = np.random.default_rng(1)
    assert all(agent.choose_action(rng) == 0 for _ in range(20))
    agent.q_table[agent.state()] = [0.0, 0.0]
    assert agent.choose_action(rng) == 0  # ties prefer +dk


def test_choose_action_frozen_rejected():
    agent = PoolingAgent(k=0.5, dk=0.1, frozen=True)
    with pytest.raises(ValueError, match="frozen"):
        agent.choose_action(np.random.default_rng(0))


def test_q_update_zero_reward_fixed_point():
    agent = PoolingAgent(k=0.5, dk=0.1)
    agent.q_update(5, 0, 0.0, 6)
    assert agent.q_table[5] == [0.0, 0.0]


def test_q_update_myopic_reduction():
    agent = PoolingAgent(k=0.5, dk=0.1, gamma=0.0, alpha=1.0)
    agent.q_table[7] = [0.3, 0.3]
    agent.q_update(7, 1, -1.0, 8)
    assert agent.q_table[7][1] == pytest.approx(-1.0)


def test_termination_needs_ten_values():
    agent = PoolingAgent(k=0.5, dk=0.1)
    agent.k_history.extend([0.5] * 9)
    assert not agent.check_termination()
    agent.k_history.append(0.5)
    assert agent.check_termination()
    assert agent.frozen


def test_termination_range_inclusive():
    agent = PoolingAgent(k=0.2, dk=0.1)
    agent.k_history.extend([0.1, 0.2] * 5)  # range exactly dk
    assert agent.check_termination()
    wide = PoolingAgent(k=0.3, dk=0.1)
    wide.k_history.extend([0.1, 0.3] * 5)  # range 2*dk
    assert not wide.check_termination()


def test_step_epoch_frozen_is_inert():
    agent = PoolingAgent(k=0.37, dk=0.1, frozen=True)
    rng = np.random.default_rng(0)
    assert agent.step_epoch(0.9, rng) == 0.37
    assert agent.step_epoch(0.1, rng) == 0.37
    assert agent.last_reward is None


def test_step_epoch_clips_at_floor():
    agent = PoolingAgent(k=0.1, dk=0.1, epsilon=0.0)
    agent.q_table[agent.state()] = [0.0, 5.0]  # greedy action is -dk
    agent.step_epoch(0.5, np.random.default_rng(0))
    assert agent.k == pytest.approx(0.1)


def test_step_epoch_bookkeeping_updates_previous_transition():
    agent = PoolingAgent(k=0.5, dk=0.1, epsilon=0.0, gamma=0.0, alpha=1.0)
    rng = np.random.default_rng(3)
    agent.step_epoch(0.6, rng)  # no previous transition yet
    assert agent.last_reward is None
    first_state, first_action = agent.prev_state, agent.prev_action
    agent.step_epoch(0.7, rng)  # accuracy rose: reward +1 lands on (s0, a0)
    assert agent.last_reward == 1
    assert agent.q_table[first_state][first_action] == pytest.approx(1.0)


def test_epsilon_anneal():
    assert annealed_epsilon(0) == pytest.approx(0.9)
    assert annealed_epsilon(25) == pytest.approx(0.5)
    assert annealed_epsilon(50) == pytest.approx(0.1)
    assert annealed_epsilon(500) == pytest.approx(0.1)


def mock_environment_run(seed, episodes=200):
    """Reward +1 only within dk/2 of k*=0.5, else -1; anneal to greedy."""
    rng = np.random.default_rng(seed)
    agent = PoolingAgent(k=0.9, dk=0.05, gamma=0.9, epsilon=1.0, alpha=0.2)
    ks = []
    for episode in range(episodes):
        agent.epsilon = annealed_epsilon(episode, start=1.0, end=0.0, span=120)
        state = agent.state()
        action = agent.choose_action(rng)
        agent.apply_action(action)
        reward = 1.0 if abs(agent.k - 0.5) <= agent.dk / 2 else -1.0
        agent.q_update(state, action, reward, agent.state())
        ks.append(agent.k)
    return agent, ks


@pytest.mark.parametrize("seed", range(5))
def test_mock_environment_convergence(seed):
    agent, ks = mock_environment_run(seed)
    assert all(0.0 < k <= 1.0 for k in ks)
    # Greedy phase holds k within one step of the rewarded ratio.
    assert all(abs(k - 0.5) <= agent.dk + 1e-12 for k in ks[-20:])
    assert all(np.isfinite(v) for row in agent.q_table.values() for v in row)


@pytest.mark.parametrize("seed", range(3))
def test_step_epoch_drives_k_toward_better_accuracy(seed):
    """Accuracy peaks at k=0.5; the full epoch loop should freeze near it."""
    rng = np.random.default_rng(seed)
    agent = PoolingAgent(k=0.9, dk=0.1, gamma=0.9, epsilon=0.9, alpha=0.2)
    froze_at = None
    for epoch in range(300):
        agent.epsilon = annealed_epsilon(epoch, start=0.9, end=0.05, span=80)
        acc = 1.0 - abs(agent.k - 0.5)
        agent.step_epoch(acc, rng)
        if agent.frozen:
            froze_at = epoch
            break
    assert froze_at is not None
    frozen_k = agent.k
    for epoch in range(5):
        assert agent.step_epoch(0.0, rng) == frozen_k
