import numpy as np
import pytest

from ddqn_trader.agent import (
    Agent,
    AgentConfig,
    EpsilonSchedule,
    ReplayBuffer,
    TransitionBatch,
    compute_targets,
    epsilon_at,
    select_action,
    train_step,
)
from ddqn_trader.env import Action
from ddqn_trader.errors import ConfigError
from ddqn_trader.net import (
    NetConfig,
    NetParams,
    Workspace,
    adam_step,
    forward,
    init_params,
    loss_and_grads,
)
from ddqn_trader.seeding import rng_streams

CHI2_CRIT_DF9_P01 = 21.666  # chi-square critical value, df=9, p=0.01
CHI2_CRIT_DF2_P01 = 9.210  # df=2


def tiny_agent(seed=0, **overrides):
    defaults = dict(
        net=NetConfig(input_dim=2, dropout_rate=0.0, l2_activity=0.0),
        batch_size=4,
        replay_capacity=512,
        target_sync_every=5,
        lr=1e-3,
    )
    defaults.update(overrides)
    return Agent.create(AgentConfig(**defaults), rngs=rng_streams(seed))


def transition(reward=0.01, done=False, seed=0, width=2):
    """``ReplayBuffer.store`` arguments: (state, action, reward, next_state, done)."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=width), int(rng.integers(0, 3)), reward, rng.normal(size=width), done


def fill_buffer(agent, n, seed=0):
    for i in range(n):
        agent.buffer.store(*transition(reward=0.001 * i, seed=seed + i))


# --------------------------------------------------------- epsilon schedule

def test_epsilon_endpoints():
    schedule = EpsilonSchedule(total_episodes=1000, linear_until=500)
    assert epsilon_at(schedule, 0) == 1.0
    assert epsilon_at(schedule, 1000) == 0.01


def test_epsilon_linear_midpoint():
    schedule = EpsilonSchedule(total_episodes=1000, linear_until=500)
    # halfway through the linear leg: 1.0 + (0.1 - 1.0) * 0.5
    assert epsilon_at(schedule, 250) == pytest.approx(0.55, abs=1e-12)


def test_epsilon_knee_continuity():
    schedule = EpsilonSchedule(total_episodes=1000, linear_until=500)
    assert epsilon_at(schedule, 500) == pytest.approx(0.1, abs=1e-12)


def test_epsilon_monotone_and_clamped():
    schedule = EpsilonSchedule(total_episodes=400, linear_until=100)
    values = [epsilon_at(schedule, e) for e in range(401)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(0.01 <= v <= 1.0 for v in values)


def test_epsilon_schedule_validation():
    with pytest.raises(ConfigError):
        EpsilonSchedule(total_episodes=100, linear_until=0)
    with pytest.raises(ConfigError):
        EpsilonSchedule(total_episodes=100, linear_until=50, eps_end=0.0)
    with pytest.raises(ValueError):
        epsilon_at(EpsilonSchedule(total_episodes=10, linear_until=5), 11)


# ------------------------------------------------------------ select_action

def test_greedy_argmax():
    agent = tiny_agent()
    # bias-only net: q = b3 for any state through zeroed weights
    agent.online = NetParams(
        [np.zeros(s) for s in agent.config.net.layer_shapes],
        [np.zeros(64), np.zeros(64), np.array([0.1, 0.5, 0.2])],
    )
    assert select_action(agent, np.zeros(2), epsilon=0.0) == Action.NEUTRAL


def test_greedy_tie_breaks_to_lowest_index():
    agent = tiny_agent()
    agent.online = NetParams(
        [np.zeros(s) for s in agent.config.net.layer_shapes],
        [np.zeros(64), np.zeros(64), np.array([0.3, 0.3, 0.1])],
    )
    assert select_action(agent, np.zeros(2), epsilon=0.0) == Action.SHORT


def test_greedy_shift_invariance():
    agent = tiny_agent(seed=3)
    rng = np.random.default_rng(5)
    states = rng.normal(size=(50, 2))
    before = [select_action(agent, s, 0.0) for s in states]
    shifted = agent.online.clone()
    shifted.biases[2] += 7.5  # constant shift on all outputs
    agent.online = shifted
    after = [select_action(agent, s, 0.0) for s in states]
    assert before == after


def test_epsilon_one_uniform_frequencies():
    agent = tiny_agent()
    rng = np.random.default_rng(123)
    draws = np.array([int(select_action(agent, np.zeros(2), 1.0, rng)) for _ in range(30_000)])
    counts = np.bincount(draws, minlength=3)
    freqs = counts / 30_000
    assert np.all((freqs >= 0.32) & (freqs <= 0.35))
    chi2 = float(((counts - 10_000.0) ** 2 / 10_000.0).sum())
    assert chi2 < CHI2_CRIT_DF2_P01


def test_select_action_requires_rng_when_exploring():
    agent = tiny_agent()
    with pytest.raises(ValueError, match="rng"):
        select_action(agent, np.zeros(2), epsilon=0.5)


# ------------------------------------------------------------ replay buffer

def test_ring_overwrites_oldest():
    buf = ReplayBuffer(capacity=2)
    for i in range(3):
        buf.store(*transition(reward=float(i), seed=i))
    assert len(buf) == 2
    # a twin generator replays the rng.integers slot draws inside sample
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    seen = set()
    for _ in range(16):
        rewards = buf.sample(2, rng).rewards
        slots = twin.integers(0, 2, size=2).tolist()
        # the third store wrapped onto slot 0, the oldest; slot 1 keeps the second
        assert rewards.tolist() == [[2.0, 1.0][slot] for slot in slots]
        seen.update(slots)
    assert seen == {0, 1}


def test_buffer_size_grows_then_caps():
    buf = ReplayBuffer(capacity=5)
    assert len(buf) == 0
    buf.store(*transition())
    assert len(buf) == 1
    for i in range(10):
        buf.store(*transition(seed=i))
    assert len(buf) == 5


def test_buffer_grows_past_initial_allocation():
    buf = ReplayBuffer(capacity=5000)
    stored = [transition(reward=float(i), seed=i) for i in range(2000)]
    for item in stored:
        buf.store(*item)
    assert len(buf) == 2000
    batch = buf.sample(2000, np.random.default_rng(3))
    slots = np.random.default_rng(3).integers(0, 2000, size=2000)  # sample's draws
    assert slots.min() < 1024 <= slots.max()  # both sides of the first allocation
    assert batch.rewards.tolist() == slots.astype(float).tolist()
    for row, slot in enumerate(slots):
        state, action, _, next_state, _ = stored[slot]
        assert np.array_equal(batch.states[row], state)
        assert np.array_equal(batch.next_states[row], next_state)
        assert batch.actions[row] == action


def test_sample_single():
    buf = ReplayBuffer(capacity=4)
    buf.store(*transition(reward=0.42))
    batch = buf.sample(1, np.random.default_rng(0))
    assert batch.rewards.tolist() == [0.42]


def test_sample_underfilled_errors():
    buf = ReplayBuffer(capacity=8)
    buf.store(*transition())
    with pytest.raises(ValueError, match="stored transitions"):
        buf.sample(2, np.random.default_rng(0))


def test_sample_uniform_chi_square():
    buf = ReplayBuffer(capacity=10)
    for i in range(10):
        buf.store(*transition(reward=float(i), seed=i))
    rng = np.random.default_rng(11)
    counts = np.zeros(10)
    n_draws = 20_000
    for _ in range(n_draws // 4):
        batch = buf.sample(4, rng)
        for r in batch.rewards:
            counts[int(r)] += 1
    expected = n_draws / 10.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_CRIT_DF9_P01


# ---------------------------------------------------------- double-Q target

def _two_net_agent(online_head, target_head):
    """Shared body collapsing any state to a2=relu(s0+s1); heads differ."""
    config = AgentConfig(
        net=NetConfig(input_dim=2, hidden_dims=(1, 1), dropout_rate=0.0, l2_activity=0.0),
        batch_size=1, replay_capacity=4, gamma=0.9,
    )
    agent = Agent.create(config, rngs=rng_streams(0))
    body_w = [np.array([[1.0], [1.0]]), np.array([[1.0]])]
    body_b = [np.zeros(1), np.zeros(1)]
    agent.online = NetParams(body_w + [np.array([online_head])], body_b + [np.zeros(3)])
    agent.target = NetParams(
        [w.copy() for w in body_w] + [np.array([target_head])],
        [b.copy() for b in body_b] + [np.zeros(3)],
    )
    return agent


def test_double_q_uses_online_argmax_evaluated_by_target():
    # s' = (0.6, 0.4) -> a2 = 1.0 exactly, so q == head weights
    agent = _two_net_agent(online_head=[0.0, 0.1, 0.5], target_head=[0.9, 0.2, 0.3])
    batch = TransitionBatch(
        states=np.array([[0.0, 0.0]]),
        actions=np.array([0]),
        rewards=np.array([0.05]),
        next_states=np.array([[0.6, 0.4]]),
        dones=np.array([False]),
    )
    y = compute_targets(agent, batch)
    # online argmax is action 2; target evaluates it at 0.3
    assert y[0] == pytest.approx(0.05 + 0.9 * 0.3, abs=1e-12)
    # the max-form target would bootstrap from the target's own max, 0.9
    max_form = 0.05 + 0.9 * 0.9
    assert abs(y[0] - max_form) > 0.5


def test_done_transition_target_is_reward():
    agent = _two_net_agent([0.0, 0.1, 0.5], [0.9, 0.2, 0.3])
    batch = TransitionBatch(
        states=np.zeros((1, 2)), actions=np.array([1]), rewards=np.array([0.02]),
        next_states=np.array([[0.6, 0.4]]), dones=np.array([True]),
    )
    assert compute_targets(agent, batch)[0] == 0.02


def test_gamma_zero_target_is_reward():
    agent = _two_net_agent([0.0, 0.1, 0.5], [0.9, 0.2, 0.3])
    agent.config = AgentConfig(
        net=agent.config.net, batch_size=1, replay_capacity=4, gamma=0.0,
    )
    batch = TransitionBatch(
        states=np.zeros((1, 2)), actions=np.array([1]), rewards=np.array([0.07]),
        next_states=np.array([[0.6, 0.4]]), dones=np.array([False]),
    )
    assert compute_targets(agent, batch)[0] == 0.07


def test_identical_networks_reduce_to_max_form():
    for seed in range(20):
        agent = tiny_agent(seed=seed)
        agent.target = agent.online.clone()
        rng = np.random.default_rng(seed)
        batch = TransitionBatch(
            states=rng.normal(size=(16, 2)),
            actions=rng.integers(0, 3, size=16),
            rewards=rng.normal(scale=0.01, size=16),
            next_states=rng.normal(size=(16, 2)),
            dones=rng.random(16) < 0.1,
        )
        y = compute_targets(agent, batch)
        q_target, _ = forward(agent.target, batch.next_states, agent.config.net)
        max_form = batch.rewards + agent.config.gamma * q_target.max(axis=1) * ~batch.dones
        assert np.array_equal(y, max_form)


def test_target_magnitude_bound():
    rng = np.random.default_rng(9)
    for seed in range(10):
        agent = tiny_agent(seed=seed, gamma=float(rng.uniform(0, 1)))
        r_max = 0.05
        batch = TransitionBatch(
            states=rng.normal(size=(8, 2)),
            actions=rng.integers(0, 3, size=8),
            rewards=rng.uniform(-r_max, r_max, size=8),
            next_states=rng.normal(size=(8, 2)),
            dones=rng.random(8) < 0.2,
        )
        y = compute_targets(agent, batch)
        q_target, _ = forward(agent.target, batch.next_states, agent.config.net)
        bound = r_max + agent.config.gamma * np.abs(q_target).max() + 1e-12
        assert np.all(np.abs(y) <= bound)


# ---------------------------------------------------------------- train_step

def test_train_step_skipped_until_warmup():
    agent = tiny_agent()
    assert train_step(agent) is None
    assert agent.gradient_steps == 0
    fill_buffer(agent, 3)
    assert train_step(agent) is None  # 3 < batch_size 4
    fill_buffer(agent, 1, seed=50)
    assert train_step(agent) is not None
    assert agent.gradient_steps == 1


def test_explicit_warmup_threshold():
    agent = tiny_agent(warmup=10)
    fill_buffer(agent, 9)
    assert train_step(agent) is None
    fill_buffer(agent, 1, seed=99)
    assert train_step(agent) is not None


def test_target_syncs_on_schedule():
    agent = tiny_agent(target_sync_every=3)
    fill_buffer(agent, 8)
    probe = np.random.default_rng(1).normal(size=(6, 2))
    config = agent.config.net

    def target_q():
        return forward(agent.target, probe, config)[0]

    initial = target_q()
    train_step(agent)
    train_step(agent)
    assert np.array_equal(target_q(), initial)  # unchanged between syncs
    train_step(agent)  # counter hits 3 -> sync
    synced = target_q()
    online_q, _ = forward(agent.online, probe, config)
    assert np.array_equal(synced, online_q)


def test_train_step_deterministic():
    def one_loss():
        agent = tiny_agent(seed=42)
        fill_buffer(agent, 16, seed=7)
        return train_step(agent)

    assert one_loss() == one_loss()


def test_dropout_draws_do_not_disturb_replay_stream():
    # same replay stream regardless of dropout usage: first sampled batch of a
    # dropout agent matches that of a no-dropout agent built from the same seed
    a = tiny_agent(seed=5)
    b = Agent.create(
        AgentConfig(
            net=NetConfig(input_dim=2, dropout_rate=0.25, l2_activity=0.0),
            batch_size=4, replay_capacity=512, target_sync_every=5, lr=1e-3,
        ),
        rngs=rng_streams(5),
    )
    for agent in (a, b):
        fill_buffer(agent, 8, seed=3)
    batch_a = a.buffer.sample(4, a._replay_rng)
    batch_b = b.buffer.sample(4, b._replay_rng)
    assert np.array_equal(batch_a.states, batch_b.states)


def test_train_step_matches_unfused_reference():
    # the fused step (one online pass over [states; next_states], reused
    # workspace, in-place target sync) against the unfused primitives
    config = AgentConfig(
        net=NetConfig(input_dim=2, dropout_rate=0.25, l2_activity=1e-3),
        batch_size=32, replay_capacity=512, target_sync_every=10, lr=1e-3,
    )
    agent = Agent.create(config, rngs=rng_streams(4))
    ref = Agent.create(config, rngs=rng_streams(4))
    for a in (agent, ref):
        for i in range(200):
            a.buffer.store(*transition(reward=0.001 * i, done=i % 17 == 0, seed=i))
    online, target, adam = ref.online, ref.target, ref.adam
    for step in range(1, 51):
        loss = train_step(agent)
        batch = ref.buffer.sample(32, ref._replay_rng)
        q_online, _ = forward(online, batch.next_states, config.net)
        q_target, _ = forward(target, batch.next_states, config.net)
        best = np.argmax(q_online, axis=1)
        targets = batch.rewards + config.gamma * q_target[np.arange(32), best] * ~batch.dones
        ref_loss, grads = loss_and_grads(online, batch.states, batch.actions, targets,
                                         config.net, rng=ref._dropout_rng)
        online, adam = adam_step(online, grads, adam, config.lr)
        if step % 10 == 0:
            target = online.clone()
        assert loss == ref_loss
        assert np.array_equal(agent.online.flat, online.flat)
        assert np.array_equal(agent.target.flat, target.flat)
        assert np.array_equal(agent.adam.m, adam.m)
        assert np.array_equal(agent.adam.v, adam.v)
        assert agent.adam.t == adam.t == step


def test_workspace_reuse_leaks_nothing():
    config = NetConfig(input_dim=3, dropout_rate=0.25, l2_activity=1e-3)
    params = init_params(config, np.random.default_rng(0))
    ws = Workspace(config, 8, stacked=True)
    data = np.random.default_rng(1)
    for n in (8, 5, 8):
        states = data.normal(size=(n, 3))
        next_states = data.normal(size=(n, 3))
        actions = data.integers(0, 3, size=n)
        targets = data.normal(size=n)
        ws.hidden(params, states, next_states)
        loss, grads = ws.loss_and_grads(params, actions, targets, np.random.default_rng(n))
        fresh_loss, fresh_grads = loss_and_grads(params, states, actions, targets, config,
                                                 rng=np.random.default_rng(n))
        assert loss == fresh_loss
        assert np.array_equal(grads.flat, fresh_grads.flat)
