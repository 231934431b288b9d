import math
import os
import re
import sys

import numpy as np
import pytest

from ddqn_trader.agent import (
    MAX_REPLAY_CAPACITY,
    Agent,
    AgentConfig,
    EpsilonSchedule,
    ReplayBuffer,
    _FramePass,
    epsilon_at,
    select_action,
    sync_target,
    train_step,
)
from ddqn_trader.env import Action
from ddqn_trader.errors import ConfigError, NumericsError
from ddqn_trader.net import (
    NetConfig,
    Workspace,
    adam_step,
    forward,
    init_params,
    loss_and_grads,
)
from reference import (
    TransitionBatch,
    compute_targets,
    frame_targets,
    load_train_rows,
    params_from_layers,
    sample,
    taken,
)

CHI2_CRIT_DF9_P01 = 21.666  # chi-square critical value, df=9, p=0.01
CHI2_CRIT_DF2_P01 = 9.210  # df=2


# The states matrix replay rows index: 64 rows of 2 features.
STATES = np.random.default_rng(100).normal(size=(64, 2))


def tiny_agent(seed=0, **overrides):
    defaults = dict(
        net=NetConfig(input_dim=2, dropout_rate=0.0, l2_activity=0.0),
        batch_size=4,
        replay_capacity=512,
        target_sync_every=5,
        lr=1e-3,
    )
    defaults.update(overrides)
    return Agent.create(AgentConfig(**defaults), seed=seed)


def replay(agent, states=STATES):
    """An empty replay buffer of ``agent``'s capacity over ``states``, as
    ``run_training`` builds one."""
    return ReplayBuffer(agent.config.replay_capacity, states)


def transition(reward=0.01, done=False, seed=0, rows=len(STATES)):
    """``ReplayBuffer.store`` arguments (row, action, reward, done) for a
    states matrix of ``rows`` rows."""
    rng = np.random.default_rng(seed)
    return int(rng.integers(0, rows - 1)), int(rng.integers(0, 3)), reward, done


def fill_buffer(buffer, n, seed=0):
    for i in range(n):
        buffer.store(*transition(reward=0.001 * i, seed=seed + i))


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


@pytest.mark.parametrize("eps", [
    dict(eps_start=math.inf), dict(eps_start=1.5), dict(eps_start=math.nan),
    dict(eps_knee=math.nan), dict(eps_end=math.nan), dict(eps_knee=0.001),
])
def test_epsilon_schedule_requires_ordered_probabilities(eps):
    with pytest.raises(ConfigError, match="0 < eps_end <= eps_knee <= eps_start <= 1"):
        EpsilonSchedule(total_episodes=100, linear_until=50, **eps)


def test_epsilon_schedule_defaults_linear_until_to_half():
    assert EpsilonSchedule(total_episodes=9).linear_until == 4
    assert EpsilonSchedule(total_episodes=1).linear_until == 1
    assert EpsilonSchedule().total_episodes == 1000


@pytest.mark.parametrize("lr", [0.0, -1e-4, math.nan, math.inf])
def test_agent_config_requires_finite_positive_lr(lr):
    with pytest.raises(ConfigError, match="lr must be finite and > 0"):
        AgentConfig(net=NetConfig(input_dim=2), lr=lr)


@pytest.mark.parametrize("capacity", [0, MAX_REPLAY_CAPACITY + 1, 10**30])
def test_agent_config_bounds_replay_capacity(capacity):
    with pytest.raises(ConfigError, match=r"replay_capacity must be in \[1, 1000000000\]"):
        AgentConfig(net=NetConfig(input_dim=2), batch_size=1, replay_capacity=capacity)
    assert AgentConfig(net=NetConfig(input_dim=2),
                       replay_capacity=MAX_REPLAY_CAPACITY).replay_capacity == 10**9


# ------------------------------------------------------------ select_action

def test_greedy_argmax():
    agent = tiny_agent()
    # bias-only net: q = b3 for any state through zeroed weights
    agent.online = params_from_layers(
        [np.zeros(s) for s in agent.config.net.layer_shapes],
        [np.zeros(64), np.zeros(64), np.array([0.1, 0.5, 0.2])],
    )
    assert select_action(agent, np.zeros(2), epsilon=0.0) == Action.NEUTRAL


def test_greedy_tie_breaks_to_lowest_index():
    agent = tiny_agent()
    agent.online = params_from_layers(
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("weight", [np.nan, 1e200])
def test_greedy_action_rejects_non_finite_q_values(weight):
    # NaN weights give NaN Q-values and 1e200 weights overflow; argmax would
    # turn either into Action.SHORT
    agent = tiny_agent()
    agent.online.flat[:] = weight
    with pytest.raises(NumericsError, match="^non-finite Q-values for the greedy action$"):
        select_action(agent, np.full(2, 0.5), epsilon=0.0)
    # exploring draws its action without a forward, as before
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(20):
        twin.random()  # the draw against epsilon
        expected = Action(int(twin.integers(0, 3)))
        assert select_action(agent, np.full(2, 0.5), 1.0, rng) == expected


def test_select_action_requires_rng_when_exploring():
    agent = tiny_agent()
    with pytest.raises(ValueError, match="rng"):
        select_action(agent, np.zeros(2), epsilon=0.5)


# ------------------------------------------------------------ replay buffer

def test_ring_overwrites_oldest():
    buf = ReplayBuffer(capacity=2, states=STATES)
    for i in range(3):
        buf.store(*transition(reward=float(i), seed=i))
    assert len(buf) == 2
    # a twin generator replays the rng.integers slot draws inside draw
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    seen = set()
    for _ in range(16):
        _, _, rewards, _ = taken(buf, buf.draw(2, rng))
        slots = twin.integers(0, 2, size=2).tolist()
        # the third store wrapped onto slot 0, the oldest; slot 1 keeps the second
        assert rewards.tolist() == [[2.0, 1.0][slot] for slot in slots]
        seen.update(slots)
    assert seen == {0, 1}


def test_buffer_size_grows_then_caps():
    buf = ReplayBuffer(capacity=5, states=STATES)
    assert len(buf) == 0
    buf.store(*transition())
    assert len(buf) == 1
    for i in range(10):
        buf.store(*transition(seed=i))
    assert len(buf) == 5


def test_buffer_ring_correct_across_slot_1024():
    buf = ReplayBuffer(capacity=5000, states=STATES)
    stored = [transition(reward=float(i), seed=i) for i in range(2000)]
    for item in stored:
        buf.store(*item)
    assert len(buf) == 2000
    rows, actions, rewards, dones = taken(buf, buf.draw(2000, np.random.default_rng(3)))
    slots = np.random.default_rng(3).integers(0, 2000, size=2000)  # draw's draws
    assert slots.min() < 1024 <= slots.max()  # both sides of slot 1024
    assert rewards.tolist() == slots.astype(float).tolist()
    assert rows.tolist() == [stored[slot][0] for slot in slots]
    assert actions.tolist() == [stored[slot][1] for slot in slots]
    assert not dones.any()


def test_sample_single():
    buf = ReplayBuffer(capacity=4, states=STATES)
    buf.store(*transition(reward=0.42))
    _, _, rewards, _ = taken(buf, buf.draw(1, np.random.default_rng(0)))
    assert rewards.tolist() == [0.42]


def test_sample_underfilled_errors():
    buf = ReplayBuffer(capacity=8, states=STATES)
    buf.store(*transition())
    with pytest.raises(ValueError, match="stored transitions"):
        buf.draw(2, np.random.default_rng(0))


def test_sample_uniform_chi_square():
    buf = ReplayBuffer(capacity=10, states=STATES)
    for i in range(10):
        buf.store(*transition(reward=float(i), seed=i))
    rng = np.random.default_rng(11)
    counts = np.zeros(10)
    n_draws = 20_000
    for _ in range(n_draws // 4):
        _, _, rewards, _ = taken(buf, buf.draw(4, rng))
        for r in rewards:
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
    agent = Agent.create(config, seed=0)
    body_w = [np.array([[1.0], [1.0]]), np.array([[1.0]])]
    body_b = [np.zeros(1), np.zeros(1)]
    agent.online = params_from_layers(body_w + [np.array([online_head])], body_b + [np.zeros(3)])
    agent.target = params_from_layers(
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
    y = frame_targets(agent, batch)
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
    assert frame_targets(agent, batch)[0] == 0.02


def test_gamma_zero_target_is_reward():
    agent = _two_net_agent([0.0, 0.1, 0.5], [0.9, 0.2, 0.3])
    agent.config = AgentConfig(
        net=agent.config.net, batch_size=1, replay_capacity=4, gamma=0.0,
    )
    batch = TransitionBatch(
        states=np.zeros((1, 2)), actions=np.array([1]), rewards=np.array([0.07]),
        next_states=np.array([[0.6, 0.4]]), dones=np.array([False]),
    )
    assert frame_targets(agent, batch)[0] == 0.07


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
        y = frame_targets(agent, batch)
        q_target = forward(agent.target, batch.next_states, agent.config.net)
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
        y = frame_targets(agent, batch)
        q_target = forward(agent.target, batch.next_states, agent.config.net)
        bound = r_max + agent.config.gamma * np.abs(q_target).max() + 1e-12
        assert np.all(np.abs(y) <= bound)


# ---------------------------------------------------------------- train_step

def test_train_step_skipped_until_warmup():
    agent = tiny_agent()
    buffer = replay(agent)
    assert train_step(agent, buffer) is None
    assert agent.gradient_steps == 0
    fill_buffer(buffer, 3)
    assert train_step(agent, buffer) is None  # 3 < batch_size 4
    fill_buffer(buffer, 1, seed=50)
    assert train_step(agent, buffer) is not None
    assert agent.gradient_steps == 1


def test_explicit_warmup_threshold():
    agent = tiny_agent(warmup=10)
    buffer = replay(agent)
    fill_buffer(buffer, 9)
    assert train_step(agent, buffer) is None
    fill_buffer(buffer, 1, seed=99)
    assert train_step(agent, buffer) is not None


def test_target_syncs_on_schedule():
    agent = tiny_agent(target_sync_every=3)
    buffer = replay(agent)
    fill_buffer(buffer, 8)
    probe = np.random.default_rng(1).normal(size=(6, 2))
    config = agent.config.net

    def target_q():
        return forward(agent.target, probe, config)

    initial = target_q()
    train_step(agent, buffer)
    train_step(agent, buffer)
    assert np.array_equal(target_q(), initial)  # unchanged between syncs
    train_step(agent, buffer)  # counter hits 3 -> sync
    synced = target_q()
    online_q = forward(agent.online, probe, config)
    assert np.array_equal(synced, online_q)


def test_train_step_deterministic():
    def one_loss():
        agent = tiny_agent(seed=42)
        buffer = replay(agent)
        fill_buffer(buffer, 16, seed=7)
        return train_step(agent, buffer)

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
        seed=5,
    )
    buffers = [replay(a), replay(b)]
    for buffer in buffers:
        fill_buffer(buffer, 8, seed=3)
    assert np.array_equal(buffers[0].draw(4, a._replay_rng), buffers[1].draw(4, b._replay_rng))


def test_train_step_matches_unfused_reference():
    # the frame-indexed step (one online pass over the touched rows, the
    # target's Q-values over the frame kept between weight changes, reused
    # workspace, in-place target sync) against the unfused primitives on
    # explicit states
    config = AgentConfig(
        net=NetConfig(input_dim=2, dropout_rate=0.25, l2_activity=1e-3),
        batch_size=32, replay_capacity=512, target_sync_every=10, lr=1e-3,
    )
    agent = Agent.create(config, seed=4)
    ref = Agent.create(config, seed=4)
    buffer = replay(agent)
    for i in range(200):
        buffer.store(*transition(reward=0.001 * i, done=i % 17 == 0, seed=i))
    online, target, adam = ref.online, ref.target, ref.adam
    for step in range(1, 51):
        loss = train_step(agent, buffer)
        batch = sample(buffer, 32, ref._replay_rng)
        q_online = forward(online, batch.next_states, config.net)
        q_target = forward(target, batch.next_states, config.net)
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
    ws = Workspace(config, 8)
    data = np.random.default_rng(1)
    for n in (8, 5, 8):
        states = data.normal(size=(n, 3))
        actions = data.integers(0, 3, size=n)
        targets = data.normal(size=n)
        loss, grads = ws.loss_and_grads(params, *load_train_rows(config, params, states),
                                        actions, targets, np.random.default_rng(n))
        fresh_loss, fresh_grads = loss_and_grads(params, states, actions, targets, config,
                                                 rng=np.random.default_rng(n))
        assert loss == fresh_loss
        assert np.array_equal(grads.flat, fresh_grads.flat)


# ------------------------------------------------------- frame-indexed replay

def test_store_rejects_row_without_next_state():
    buf = ReplayBuffer(capacity=8, states=STATES)
    for row in (-1, len(STATES) - 1, len(STATES)):
        with pytest.raises(ValueError, match="outside"):
            buf.store(row, 0, 0.0, False)
    buf.store(len(STATES) - 2, 0, 0.0, False)  # the last row with a next row
    assert len(buf) == 1
    with pytest.raises(TypeError, match="states"):
        ReplayBuffer(capacity=8)  # a buffer always indexes a states matrix


@pytest.mark.parametrize("frame_rows, batch, sync_every", [
    (200, 16, 3),  # F > 2B: only the touched rows are computed
    (20, 32, 1),  # F < 2B, and a target sync after every step
    (400, 16, 1),  # F >> 2B, and the target's frame forward rerun at every step
    # B mod 4 != 0: the train head runs over padded rows
    (200, 17, 3),
    (200, 18, 2),
    (200, 19, 1),
    (7, 3, 2),  # F < 2B with B = 3, and most rows touched
    (300, 2, 5),
    (40, 7, 4),
    (200, 1, 3),  # B = 1: the reference's passes are padded from one row
])
def test_frame_path_matches_reference_bit_for_bit(monkeypatch, frame_rows, batch, sync_every):
    import ddqn_trader.agent as agent_module

    states = np.random.default_rng(frame_rows).normal(size=(frame_rows, 3))
    last_row = frame_rows - 2
    if frame_rows > 2 * batch:
        # A row no transition touches: the online pass must not read it, and
        # the target's forward over the frame, which does, may change no
        # target and raise nothing.
        states[-1] = np.nan
        last_row = frame_rows - 3
    config = AgentConfig(
        net=NetConfig(input_dim=3, dropout_rate=0.2, l2_activity=1e-3),
        batch_size=batch, replay_capacity=512, target_sync_every=sync_every, lr=1e-2,
    )
    agent = Agent.create(config, seed=6)
    ref = Agent.create(config, seed=6)
    buffer = replay(agent, states)
    data = np.random.default_rng(8)
    for i in range(3 * batch):
        row, action = int(data.integers(0, last_row + 1)), int(data.integers(0, 3))
        buffer.store(row, action, 0.01 * (i % 7), i % 5 == 0)

    recorded = []
    frame_targets = agent_module._FramePass.targets
    monkeypatch.setattr(agent_module._FramePass, "targets",
                        lambda self, *args: recorded.append(frame_targets(self, *args))
                        or recorded[-1])
    saw_done = False
    for step in range(1, 13):
        if step == 6:  # a new target object, not a sync, is read from the next step on
            # (with other values, or equal ones when the target syncs every step)
            agent.target, ref.target = agent.online.clone(), ref.online.clone()
        if step == 8:  # a new target object with equal values
            agent.target, ref.target = agent.target.clone(), ref.target.clone()
        if step == 11:  # an edit in place, with no sync since the last step
            for params in (agent.target, ref.target):
                params.weights[1][::3] *= 0.5
        loss = train_step(agent, buffer)
        frame = agent._frame
        touched = np.unique(np.concatenate([frame.rows, frame.rows + 1]))
        assert np.count_nonzero(frame.touched) == len(touched) <= min(frame_rows, 2 * batch)

        batch_ref = sample(buffer, batch, ref._replay_rng)
        targets = compute_targets(ref, batch_ref)
        ref_loss, grads = loss_and_grads(ref.online, batch_ref.states, batch_ref.actions,
                                         targets, config.net, rng=ref._dropout_rng)
        ref.online, ref.adam = adam_step(ref.online, grads, ref.adam, config.lr)
        if step % sync_every == 0:
            sync_target(ref)

        saw_done |= bool(batch_ref.dones.any())
        assert np.array_equal(recorded[-1], targets)
        assert loss == ref_loss
        assert np.array_equal(frame.ws.grads.flat, grads.flat)
        assert np.array_equal(agent.online.flat, ref.online.flat)
        assert np.array_equal(agent.target.flat, ref.target.flat)
        assert np.array_equal(agent.adam.m, ref.adam.m)
        assert np.array_equal(agent.adam.v, ref.adam.v)
    assert saw_done and len(recorded) == 12


def test_target_forward_runs_once_per_set_of_target_weights(monkeypatch):
    # The target's Q-values are one eval forward over the frame, run at the
    # first step and again only when the target's weights change bit for bit.
    import ddqn_trader.net as net_module

    states = np.random.default_rng(3).normal(size=(40, 8))
    config = AgentConfig(net=NetConfig(input_dim=8, dropout_rate=0.0, l2_activity=0.0),
                         batch_size=8, replay_capacity=512)
    agent = Agent.create(config, seed=2)
    agent.target = init_params(config.net, np.random.default_rng(9))
    frame = _FramePass(config.net, states, 8)
    calls = []
    real_forward = net_module.forward
    monkeypatch.setattr(net_module, "forward",
                        lambda params, *args: calls.append(params) or real_forward(params, *args))
    data = np.random.default_rng(4)

    def forwards():
        rows, actions = data.integers(0, len(states) - 1, size=8), data.integers(0, 3, size=8)
        rewards, dones = data.normal(size=8) * 0.01, data.random(8) < 0.25
        frame.rows[:], frame.rewards[:], frame.dones[:] = rows, rewards, dones
        before = len(calls)
        y = frame.targets(agent.online, agent.target, config.gamma)
        batch = TransitionBatch(states[rows], actions, rewards, states[rows + 1], dones)
        assert np.array_equal(y, compute_targets(agent, batch))
        assert all(params is agent.target for params in calls[before:])
        return len(calls) - before

    assert forwards() == 1  # the first step
    assert forwards() == 0  # an unchanged target
    agent.target = agent.target.clone()  # a new object with equal values
    assert forwards() == 0
    sync_target(agent)
    assert forwards() == 1
    agent.target = init_params(config.net, np.random.default_rng(10))  # other values
    assert forwards() == 1
    agent.target.weights[1][::3] *= 0.5  # an edit in place
    assert forwards() == 1
    agent.target.biases[2][0] = -0.0  # only a zero's sign differs
    assert forwards() == 1
    assert forwards() == 0


@pytest.mark.parametrize("batch", [12, 13])
def test_target_cache_holds_eval_q_values_of_next_rows(batch):
    # The cache is the target's eval forward over the whole frame, bit for
    # bit, so every next row a batch reads holds that forward's Q-values, the
    # frame's last rows too.
    states = np.random.default_rng(5).normal(size=(83, 8))
    config = AgentConfig(net=NetConfig(input_dim=8), batch_size=batch, replay_capacity=512)
    agent = Agent.create(config, seed=4)
    agent.target = init_params(config.net, np.random.default_rng(11))
    q_eval = forward(agent.target, states, config.net)
    frame = _FramePass(config.net, states, batch)
    data = np.random.default_rng(batch)
    for _ in range(6):
        frame.rows[:] = data.integers(0, len(states) - 1, size=batch)
        frame.rewards[:], frame.dones[:] = 0.0, False
        frame.targets(agent.online, agent.target, config.gamma)
        assert np.array_equal(frame.cache, q_eval)


# ------------------------------------------------------------- the hot path

# numpy's Python-level wrappers that the gradient step calls as ndarray
# methods or ufuncs instead: each entry costs a Python frame or more per call
_WRAPPER_FILE = re.compile(r"numpy/(_?core/(fromnumeric|numeric)\.py|lib/)")
_WRAPPERS = {"take", "sum", "mean", "argmax", "sort", "flatnonzero", "array_equal", "all",
             "append"}
# the Python functions behind ndarray methods such as .all() and .sum(): every
# frame entered here counts
_METHODS_FILE = re.compile(r"numpy/_?core/_methods\.py$")


def _wrappers_entered(call):
    entered = []

    def profile(frame, event, arg):
        code = frame.f_code
        path = code.co_filename.replace(os.sep, "/")
        if event == "call" and (_METHODS_FILE.search(path) or (
                code.co_name in _WRAPPERS and _WRAPPER_FILE.search(path))):
            entered.append(f"{code.co_filename}:{code.co_name}")

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered


def test_gradient_step_enters_no_numpy_wrapper():
    assert _wrappers_entered(lambda: np.sum(np.ones(2)))  # the probe sees a wrapper
    assert _wrappers_entered(lambda: np.ones(2).all())  # and ndarray.all()'s Python frame
    states = np.random.default_rng(6).normal(size=(421, 2))
    config = AgentConfig(net=NetConfig(input_dim=2), batch_size=256, replay_capacity=4096,
                         target_sync_every=1000)
    agent = Agent.create(config, seed=0)
    buffer = ReplayBuffer(config.replay_capacity, states)
    for i in range(1000):
        buffer.store(*transition(reward=0.001 * i, done=i % 50 == 0, seed=i, rows=len(states)))
    for _ in range(3):
        train_step(agent, buffer)
    assert _wrappers_entered(lambda: train_step(agent, buffer)) == []  # warm target cache
    sync_target(agent)
    assert _wrappers_entered(lambda: train_step(agent, buffer)) == []  # cache refilled
    assert np.array_equal(agent._frame.cache_weights, agent.target.flat)
