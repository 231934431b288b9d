import json

import numpy as np
import pytest

from ddqn_trader.agent import Agent, AgentConfig, EpsilonSchedule, epsilon_at, train_step
from ddqn_trader.env import CostModel, EnvConfig
from ddqn_trader.errors import CheckpointError, ConfigError, NumericsError
from ddqn_trader.market_data import ModelId, build_features, synth_generate
from ddqn_trader.net import NetConfig, forward
from ddqn_trader.seeding import rng_streams
from ddqn_trader.training import (
    EpisodeRecord,
    TrainConfig,
    TrainLog,
    config_hash,
    load_checkpoint,
    outperformance_ma,
    run_training,
    save_checkpoint,
    write_log_csv,
    write_summary_json,
)

NO_COST = CostModel(0.0, 0.0)


def trend_frame(mu=-0.001, sigma=0.0, n_days=140, seed=2):
    prices = synth_generate(mu=mu, sigma=sigma, n_days=n_days, seed=seed)
    return build_features(ModelId.M0, {"spx": prices})


def small_config(frame, episodes=3, seed=0, costs=NO_COST, **agent_overrides):
    agent_args = dict(
        net=NetConfig(input_dim=2, dropout_rate=0.0, l2_activity=0.0),
        batch_size=8,
        replay_capacity=4096,
        target_sync_every=10,
        lr=1e-3,
    )
    agent_args.update(agent_overrides)
    return TrainConfig(
        env=EnvConfig(frame=frame, episode_length=30, costs=costs),
        agent=AgentConfig(**agent_args),
        schedule=EpsilonSchedule(total_episodes=max(episodes, 2), linear_until=1),
        episodes=episodes,
        seed=seed,
    )


ALWAYS_SHORT = lambda obs, rng: 0
ALWAYS_LONG = lambda obs, rng: 2


def test_completes_all_episodes():
    log, _ = run_training(small_config(trend_frame(), episodes=3))
    assert len(log.records) == 3
    assert log.termination == "completed"
    assert log.early_stop_episode is None
    assert [r.episode for r in log.records] == [0, 1, 2]


def test_total_env_steps_is_episodes_times_t():
    config = small_config(trend_frame(), episodes=4)
    log, _ = run_training(config)
    assert sum(r.steps for r in log.records) == 4 * config.env.episode_length


def test_scripted_winner_stops_at_streak():
    # constant Short on a noiseless downtrend beats the market every episode
    config = small_config(trend_frame(mu=-0.001), episodes=100)
    log, _ = run_training(config, action_override=ALWAYS_SHORT)
    assert log.termination == "early_stop"
    assert log.early_stop_episode == 25
    assert len(log.records) == 25
    assert all(r.outperformed for r in log.records)


def test_nav_tie_does_not_count_as_outperformance():
    # constant Long at zero cost ties the market exactly; strict inequality
    config = small_config(trend_frame(mu=0.002), episodes=30)
    log, _ = run_training(config, action_override=ALWAYS_LONG)
    assert log.termination == "completed"
    assert len(log.records) == 30
    assert not any(r.outperformed for r in log.records)
    for r in log.records:
        assert r.agent_nav == r.market_nav


def test_streak_resets_on_loss():
    # deterministic alternating winner/loser via an episode-counting policy
    calls = {"episode_step": 0}

    def alternating(obs, rng):
        episode = calls["episode_step"] // 30
        calls["episode_step"] += 1
        return 0 if episode % 2 == 0 else 2  # Short wins, Long ties (never wins)

    config = small_config(trend_frame(mu=-0.001), episodes=12)
    log, _ = run_training(config, action_override=alternating)
    assert log.termination == "completed"
    flags = [r.outperformed for r in log.records]
    assert flags == [i % 2 == 0 for i in range(12)]


def test_epsilon_recorded_matches_schedule():
    config = small_config(trend_frame(), episodes=5)
    log, _ = run_training(config)
    for r in log.records:
        assert r.epsilon == epsilon_at(config.schedule, r.episode)


def test_gradient_steps_cumulative_and_warmup():
    config = small_config(trend_frame(), episodes=2, batch_size=8, warmup=8)
    log, agent = run_training(config)
    # first 7 steps skipped (buffer < 8), everything after trains
    assert log.records[0].gradient_steps == 30 - 7
    assert log.records[1].gradient_steps == 60 - 7
    assert agent.gradient_steps == 60 - 7


def test_two_runs_identical_logs(tmp_path):
    config = small_config(trend_frame(sigma=0.005), episodes=6, seed=11)
    paths = []
    for name in ("a.csv", "b.csv"):
        log, _ = run_training(config)
        path = tmp_path / name
        write_log_csv(log, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_log_csv_format(tmp_path):
    log, _ = run_training(small_config(trend_frame(), episodes=2))
    path = tmp_path / "log.csv"
    write_log_csv(log, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "episode,epsilon,agent_nav,market_nav,outperformed"
    assert len(lines) == 3


def test_summary_json(tmp_path):
    log, _ = run_training(small_config(trend_frame(), episodes=2))
    path = tmp_path / "summary.json"
    write_summary_json(log, path, wall_time_s=1.234)
    summary = json.loads(path.read_text())
    assert summary["termination"] == "completed"
    assert summary["episodes_completed"] == 2
    assert summary["config_hash"] == config_hash(log.config_snapshot)
    assert summary["config"]["agent"]["gamma"] == 0.9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_aborts_with_episode():
    config = small_config(trend_frame(sigma=0.01), episodes=2, lr=1e200)
    with pytest.raises(NumericsError, match="episode 0"):
        run_training(config)


def test_target_sync_unit_episodes():
    frame = trend_frame(sigma=0.01)
    # tau=1 episode: target equals online after the run
    config = small_config(frame, episodes=1, target_sync_every=1,
                          target_sync_unit="episodes")
    _, agent = run_training(config)
    probe = np.random.default_rng(0).normal(size=(5, 2))
    q_online, _ = forward(agent.online, probe, agent.config.net)
    q_target, _ = forward(agent.target, probe, agent.config.net)
    assert np.array_equal(q_online, q_target)
    # tau=2 episodes but only 1 episode run: no sync ever happened
    config2 = small_config(frame, episodes=1, target_sync_every=2,
                           target_sync_unit="episodes")
    _, agent2 = run_training(config2)
    q_online2, _ = forward(agent2.online, probe, agent2.config.net)
    q_target2, _ = forward(agent2.target, probe, agent2.config.net)
    assert not np.array_equal(q_online2, q_target2)


def test_train_config_validation():
    frame = trend_frame()
    with pytest.raises(ConfigError, match="episodes"):
        small_config(frame, episodes=0)
    with pytest.raises(ConfigError, match="schedule"):
        TrainConfig(
            env=EnvConfig(frame=frame, episode_length=30, costs=NO_COST),
            agent=AgentConfig(net=NetConfig(input_dim=2), batch_size=8, replay_capacity=64),
            schedule=EpsilonSchedule(total_episodes=5, linear_until=2),
            episodes=10,
        )


# --------------------------------------------------------- outperformance_ma

def _log_from_flags(flags):
    records = [
        EpisodeRecord(i, 0.5, 1.0 if f else -1.0, 0.0, f, 10, 0)
        for i, f in enumerate(flags)
    ]
    return TrainLog(records, "completed", None, {})


def test_ma_all_outperformed():
    ma = outperformance_ma(_log_from_flags([True] * 80), window=50)
    assert np.all(ma == 1.0)


def test_ma_alternating_settles_at_half():
    ma = outperformance_ma(_log_from_flags([i % 2 == 0 for i in range(200)]), window=50)
    # counting oracle after warm-in: any 50-wide window holds exactly 25 wins
    assert np.all(ma[49:] == 0.5)


def test_ma_partial_window_divisor():
    flags = [True] * 10
    ma = outperformance_ma(_log_from_flags(flags), window=50)
    assert len(ma) == 10
    assert np.all(ma == 1.0)
    mixed = outperformance_ma(_log_from_flags([True, False, True]), window=50)
    assert mixed.tolist() == [1.0, 0.5, 2.0 / 3.0]


# ---------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip(tmp_path):
    config = small_config(trend_frame(sigma=0.01), episodes=2, seed=8)
    _, agent = run_training(config)
    path = tmp_path / "agent.json"
    save_checkpoint(agent, path)
    loaded = load_checkpoint(path)
    probe = np.random.default_rng(0).normal(size=(100, 2))
    q_before, _ = forward(agent.online, probe, agent.config.net)
    q_after, _ = forward(loaded.online, probe, loaded.config.net)
    assert np.array_equal(q_before, q_after)
    assert loaded.config == agent.config
    assert np.array_equal(loaded.target.flat, agent.target.flat)
    assert np.array_equal(loaded.adam.m, agent.adam.m)
    assert np.array_equal(loaded.adam.v, agent.adam.v)
    assert loaded.adam.t == agent.adam.t
    assert loaded.gradient_steps == agent.gradient_steps
    assert len(loaded.buffer) == 0  # replay is not checkpointed
    again = tmp_path / "again.json"
    save_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("block", ["net_config", "agent_config"])
@pytest.mark.parametrize("change", ["missing", "extra"])
def test_checkpoint_config_key_mismatch_rejected(tmp_path, block, change):
    # seed and warmup default to None, so a missing one must not load as None
    _, agent = run_training(small_config(trend_frame(), episodes=1))
    path = tmp_path / "agent.json"
    save_checkpoint(agent, path)
    record = json.loads(path.read_text())
    if change == "missing":
        key = "seed" if block == "net_config" else "warmup"
        del record[block][key]
        expected = rf"missing \['{key}'\]"
    else:
        record[block]["momentum"] = 0.5
        expected = r"unexpected \['momentum'\]"
    path.write_text(json.dumps(record))
    with pytest.raises(CheckpointError, match=expected):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    _, agent = run_training(small_config(trend_frame(), episodes=1))
    path = tmp_path / "agent.json"
    save_checkpoint(agent, path)
    record = json.loads(path.read_text())
    record["version"] = 99
    path.write_text(json.dumps(record))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


@pytest.mark.parametrize("block", ["online", "target", "adam"])
def test_checkpoint_non_finite_rejected(tmp_path, block):
    _, agent = run_training(small_config(trend_frame(), episodes=1))
    path = tmp_path / "agent.json"
    save_checkpoint(agent, path)
    record = json.loads(path.read_text())
    key = "v_biases" if block == "adam" else "weights"
    record[block][key][0][0] = float("nan")
    path.write_text(json.dumps(record))  # json writes the bare NaN token it also reads
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(path)


def test_checkpoint_missing_layer_rejected(tmp_path):
    _, agent = run_training(small_config(trend_frame(), episodes=1))
    path = tmp_path / "agent.json"
    save_checkpoint(agent, path)
    record = json.loads(path.read_text())
    record["target"]["weights"].pop()
    record["target"]["biases"].pop()
    path.write_text(json.dumps(record))
    with pytest.raises(CheckpointError, match="blocks"):
        load_checkpoint(path)


def test_checkpoint_corrupt_file(tmp_path):
    path = tmp_path / "agent.json"
    path.write_text("{not json")
    with pytest.raises(CheckpointError, match="cannot load"):
        load_checkpoint(path)


def test_checkpoint_resume_matches_uninterrupted_step(tmp_path):
    # same rng streams and same refilled buffer -> identical next update
    def fresh_agent():
        agent = Agent.create(
            AgentConfig(
                net=NetConfig(input_dim=2, dropout_rate=0.1, l2_activity=1e-6),
                batch_size=8, replay_capacity=256, lr=1e-3,
            ),
            rngs=rng_streams(7),
        )
        rng = np.random.default_rng(40)
        for _ in range(32):
            agent.buffer.store(rng.normal(size=2), int(rng.integers(0, 3)),
                               float(rng.normal(scale=0.01)), rng.normal(size=2), False)
        train_step(agent)
        return agent

    def refill(agent):
        rng = np.random.default_rng(41)
        for _ in range(32):
            agent.buffer.store(rng.normal(size=2), int(rng.integers(0, 3)),
                               float(rng.normal(scale=0.01)), rng.normal(size=2), False)

    uninterrupted = fresh_agent()
    streams = rng_streams(99)
    uninterrupted._replay_rng = streams["replay"]
    uninterrupted._dropout_rng = streams["dropout"]
    uninterrupted.buffer = type(uninterrupted.buffer)(uninterrupted.config.replay_capacity)
    refill(uninterrupted)
    loss_u = train_step(uninterrupted)

    resumed_source = fresh_agent()
    path = tmp_path / "resume.json"
    save_checkpoint(resumed_source, path)
    resumed = load_checkpoint(path, seed=99)
    refill(resumed)
    loss_r = train_step(resumed)

    assert loss_u == loss_r
    for a, b in zip(uninterrupted.online.weights, resumed.online.weights):
        assert np.array_equal(a, b)
