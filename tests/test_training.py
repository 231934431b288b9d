import dataclasses
import json
import typing

import numpy as np
import pytest

from ddqn_trader.agent import Agent, AgentConfig, EpsilonSchedule, ReplayBuffer, epsilon_at, train_step
from ddqn_trader.env import CostModel, EnvConfig
from ddqn_trader.errors import CheckpointError, ConfigError, NumericsError
from ddqn_trader.evaluation import PerformanceReport
from ddqn_trader.market_data import ModelId, build_features, synth_generate
from ddqn_trader.net import NetConfig, forward
from ddqn_trader.seeding import rng_streams
from ddqn_trader.training import (
    TrainConfig,
    config_hash,
    load_checkpoint,
    record_type,
    run_training,
    save_checkpoint,
    write_log_csv,
    write_summary_json,
)

from conftest import version_1_record, with_head

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


def test_non_finite_loss_aborts_with_episode():
    config = small_config(trend_frame(sigma=0.01), episodes=2, lr=1e200)
    # the first gradient step comes at step 7, once 8 transitions fill a batch;
    # its 1e200 update makes the second step's activations overflow
    with pytest.raises(NumericsError, match="^episode 0, step 8: non-finite values in"):
        run_training(config)


def test_non_finite_greedy_action_aborts_with_episode():
    # acting nearly always greedy: the first gradient step, at step 7, makes
    # the online Q-values overflow, and step 8 acts on them before it trains
    config = dataclasses.replace(
        small_config(trend_frame(sigma=0.01), episodes=2, lr=1e200),
        schedule=EpsilonSchedule(total_episodes=2, eps_start=1e-9, eps_knee=1e-9, eps_end=1e-9))
    with pytest.raises(NumericsError,
                       match="^episode 0, step 8: non-finite Q-values for the greedy action$"):
        run_training(config)


def test_target_sync_unit_episodes():
    frame = trend_frame(sigma=0.01)
    # tau=1 episode: target equals online after the run
    config = small_config(frame, episodes=1, target_sync_every=1,
                          target_sync_unit="episodes")
    _, agent = run_training(config)
    probe = np.random.default_rng(0).normal(size=(5, 2))
    q_online = forward(agent.online, probe, agent.config.net)
    q_target = forward(agent.target, probe, agent.config.net)
    assert np.array_equal(q_online, q_target)
    # tau=2 episodes but only 1 episode run: no sync ever happened
    config2 = small_config(frame, episodes=1, target_sync_every=2,
                           target_sync_unit="episodes")
    _, agent2 = run_training(config2)
    q_online2 = forward(agent2.online, probe, agent2.config.net)
    q_target2 = forward(agent2.target, probe, agent2.config.net)
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
    # a 2-feature frame and an 8-input net fail here, not at the first step
    with pytest.raises(ConfigError, match="frame has 2 features but the net's input_dim is 8"):
        small_config(frame, net=NetConfig(input_dim=8))


@pytest.mark.parametrize("episodes, held, overrides", [
    (3, 60, dict(replay_capacity=60, warmup=60)),  # the ring caps at the warmup
    (1, 30, dict(batch_size=30)),  # one 30-step episode stores one batch
], ids=["ring_at_warmup", "run_at_batch"])
def test_train_config_rejects_a_run_without_gradient_steps(episodes, held, overrides):
    # The ring never holds more than min(replay_capacity, episodes x
    # episode_length) transitions; one fewer than the batch or the warmup
    # and no gradient step could ever run.
    frame = trend_frame()
    log, _ = run_training(small_config(frame, episodes=episodes, **overrides))
    assert log.records[-1].gradient_steps >= 1
    if "replay_capacity" in overrides:
        overrides["replay_capacity"] = held - 1
    else:
        overrides["batch_size"] = held + 1
    with pytest.raises(ConfigError, match="no gradient step can run") as err:
        small_config(frame, episodes=episodes, **overrides)
    for key in ("replay_capacity", "episodes", "episode_length", "batch_size", "warmup"):
        assert key in str(err.value)


# ---------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip(tmp_path):
    config = small_config(trend_frame(sigma=0.01), episodes=2, seed=8)
    _, agent = run_training(config)
    path = tmp_path / "agent.json"
    save_checkpoint(agent, path)
    loaded = load_checkpoint(path)
    probe = np.random.default_rng(0).normal(size=(100, 2))
    q_before = forward(agent.online, probe, agent.config.net)
    q_after = forward(loaded.online, probe, loaded.config.net)
    assert np.array_equal(q_before, q_after)
    assert loaded.config == agent.config
    assert np.array_equal(loaded.target.flat, agent.target.flat)
    assert np.array_equal(loaded.adam.m, agent.adam.m)
    assert np.array_equal(loaded.adam.v, agent.adam.v)
    assert loaded.adam.t == agent.adam.t
    assert loaded.gradient_steps == agent.gradient_steps
    assert not hasattr(loaded, "buffer")  # replay belongs to a training run, not the agent
    again = tmp_path / "again.json"
    save_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_bytes_equal_streaming_json_dump(tmp_path):
    _, agent = run_training(small_config(trend_frame(sigma=0.01), episodes=2, seed=3))
    agent.online.flat[:4] = [-0.0, 5e-324, 1e16, 0.1 + 0.2]
    path = tmp_path / "agent.json"
    save_checkpoint(agent, path)
    with open(tmp_path / "ref.json", "w") as fh:
        json.dump(json.loads(path.read_text()), fh)
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()
    assert b"-0.0, 5e-324, 1e+16, 0.30000000000000004" in path.read_bytes()


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A trained agent and the record its checkpoint holds."""
    _, agent = run_training(small_config(trend_frame(), episodes=1))
    path = tmp_path_factory.mktemp("saved") / "agent.json"
    save_checkpoint(agent, path)
    return agent, json.loads(path.read_text())


def load_record(tmp_path, record):
    path = tmp_path / "agent.json"
    path.write_text(json.dumps(record))  # json writes the bare NaN token it also reads
    return load_checkpoint(path)


def test_checkpoint_layout_is_flat_vectors(saved):
    agent, record = saved
    assert record["version"] == 2
    assert record["online"] == agent.online.flat.tolist()
    assert record["target"] == agent.target.flat.tolist()
    assert record["adam"] == {"m": agent.adam.m.tolist(), "v": agent.adam.v.tolist(),
                              "t": agent.adam.t}
    assert record["gradient_steps"] == agent.gradient_steps > 0
    assert set(record["net_config"]) == {"input_dim", "hidden_dims", "dropout_rate",
                                         "l2_activity"}


@pytest.mark.parametrize("block", ["net_config", "agent_config"])
@pytest.mark.parametrize("change", ["missing", "extra"])
def test_checkpoint_config_key_mismatch_rejected(tmp_path, saved, block, change):
    # dropout_rate and warmup have defaults, so a missing one must not load as the default
    record = json.loads(json.dumps(saved[1]))
    if change == "missing":
        key = "dropout_rate" if block == "net_config" else "warmup"
        del record[block][key]
        expected = rf"missing \['{key}'\]"
    else:
        record[block]["momentum"] = 0.5
        expected = r"unexpected \['momentum'\]"
    with pytest.raises(CheckpointError, match=expected):
        load_record(tmp_path, record)


def test_checkpoint_version_mismatch(tmp_path, saved):
    record = dict(saved[1], version=99)
    with pytest.raises(CheckpointError, match="version"):
        load_record(tmp_path, record)


def test_checkpoint_version_1_rejected(tmp_path, saved):
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1, expected 2"):
        load_record(tmp_path, version_1_record(saved[1]))


@pytest.mark.parametrize("width", [5, 2])
@pytest.mark.parametrize("with_key", [False, True])
def test_checkpoint_head_not_three_wide_rejected(tmp_path, saved, width, with_key):
    record = with_head(saved[1], width)
    if with_key:  # the head width is no config field
        record["net_config"] = dict(record["net_config"], output_dim=width)
    message = (r"unexpected \['output_dim'\]" if with_key
               else "online must be a list of 4547 floats")
    with pytest.raises(CheckpointError, match=message):
        load_record(tmp_path, record)


@pytest.mark.parametrize("counter", ["adam.t", "gradient_steps"])
@pytest.mark.parametrize("value", [2.5, True, -4, "5", None, 2.0])
def test_checkpoint_counter_must_be_non_negative_integer(tmp_path, saved, counter, value):
    record = json.loads(json.dumps(saved[1]))
    if counter == "adam.t":
        record["adam"]["t"] = value
    else:
        record["gradient_steps"] = value
    with pytest.raises(CheckpointError, match=rf"{counter} must be an integer >= 0, got "):
        load_record(tmp_path, record)


@pytest.mark.parametrize("block, key, change", [
    (None, "gradient_steps", "missing"),
    (None, "replay", "extra"),
    ("adam", "t", "missing"),
    ("adam", "beta1", "extra"),
])
def test_checkpoint_key_set_must_be_exact(tmp_path, saved, block, key, change):
    record = json.loads(json.dumps(saved[1]))
    target = record if block is None else record[block]
    if change == "missing":
        del target[key]
    else:
        target[key] = 0.9
    what = "checkpoint" if block is None else block
    expected = (rf"{what} keys: missing \['{key}'\], unexpected \[\]$" if change == "missing"
                else rf"{what} keys: missing \[\], unexpected \['{key}'\]$")
    with pytest.raises(CheckpointError, match=expected):
        load_record(tmp_path, record)


@pytest.mark.parametrize("values, message", [
    (lambda flat: [flat[:128], flat[128:]], "target must be a list of 4547 floats"),
    (lambda flat: [flat[:128], flat[128:256]], "target must be a list of 4547 floats"),
    (lambda flat: ["0.5"] + flat[1:], "target must be a list of 4547 floats"),
    (lambda flat: [None] + flat[1:], "target must be a list of 4547 floats"),
    (lambda flat: {"weights": flat}, "target must be a list of 4547 floats"),
    (lambda flat: [0] * len(flat), "target must be a list of 4547 floats"),
], ids=["ragged", "nested", "string", "null", "object", "integers"])
def test_checkpoint_vector_must_be_flat_floats(tmp_path, saved, values, message):
    record = dict(saved[1], target=values(saved[1]["target"]))
    with pytest.raises(CheckpointError, match=message):
        load_record(tmp_path, record)


@pytest.mark.parametrize("change", [{"input_dim": 2.0}, {"hidden_dims": [64.0, 64]}])
def test_checkpoint_non_integer_layer_width_rejected(tmp_path, saved, change):
    record = dict(saved[1], net_config=dict(saved[1]["net_config"], **change))
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        load_record(tmp_path, record)


@pytest.mark.parametrize("warmup", [None, 0, 12])
def test_checkpoint_warmup_null_or_integer_loads(tmp_path, saved, warmup):
    record = json.loads(json.dumps(saved[1]))
    record["agent_config"]["warmup"] = warmup
    assert load_record(tmp_path, record).config.warmup == warmup


@pytest.mark.parametrize("cls", [NetConfig, AgentConfig, PerformanceReport])
def test_record_field_types_are_checked_by_from_record(cls):
    # a field of a type from_record cannot check fails here, not at load time
    for name, annotation in typing.get_type_hints(cls).items():
        if cls is AgentConfig and name == "net":
            continue  # read from the checkpoint's own net_config record
        record_type(annotation)  # raises for a type it has no check for


def test_checkpoint_not_an_object_rejected(tmp_path):
    path = tmp_path / "agent.json"
    path.write_text("[2]")
    with pytest.raises(CheckpointError, match="unsupported checkpoint version None"):
        load_checkpoint(path)


@pytest.mark.parametrize("block", ["online", "target", "adam"])
def test_checkpoint_non_finite_rejected(tmp_path, saved, block):
    record = json.loads(json.dumps(saved[1]))
    values = record["adam"]["v"] if block == "adam" else record[block]
    values[-1] = float("nan")
    with pytest.raises(CheckpointError, match="non-finite"):
        load_record(tmp_path, record)


def test_checkpoint_missing_layer_rejected(tmp_path, saved):
    record = dict(saved[1], target=saved[1]["target"][: -(64 * 3 + 3)])
    with pytest.raises(CheckpointError, match="target must be a list of 4547 floats"):
        load_record(tmp_path, record)


def test_checkpoint_corrupt_file(tmp_path):
    path = tmp_path / "agent.json"
    path.write_text("{not json")
    with pytest.raises(CheckpointError, match="cannot load"):
        load_checkpoint(path)


def test_checkpoint_resume_matches_uninterrupted_step(tmp_path):
    # same rng streams and same refilled buffer -> identical next update
    states = np.random.default_rng(39).normal(size=(40, 2))

    def random_buffer(agent, seed):
        """A fresh buffer over ``states`` as a training run builds one, holding
        32 random transitions."""
        buffer = ReplayBuffer(agent.config.replay_capacity, states)
        rng = np.random.default_rng(seed)
        for _ in range(32):
            buffer.store(int(rng.integers(0, len(states) - 1)), int(rng.integers(0, 3)),
                         float(rng.normal(scale=0.01)), False)
        return buffer

    def fresh_agent():
        agent = Agent.create(
            AgentConfig(
                net=NetConfig(input_dim=2, dropout_rate=0.1, l2_activity=1e-6),
                batch_size=8, replay_capacity=256, lr=1e-3,
            ),
            seed=7,
        )
        train_step(agent, random_buffer(agent, 40))
        return agent

    uninterrupted = fresh_agent()
    streams = rng_streams(99)
    uninterrupted._replay_rng = streams["replay"]
    uninterrupted._dropout_rng = streams["dropout"]
    loss_u = train_step(uninterrupted, random_buffer(uninterrupted, 41))

    resumed_source = fresh_agent()
    path = tmp_path / "resume.json"
    save_checkpoint(resumed_source, path)
    resumed = load_checkpoint(path, seed=99)
    loss_r = train_step(resumed, random_buffer(resumed, 41))

    assert loss_u == loss_r
    for a, b in zip(uninterrupted.online.weights, resumed.online.weights):
        assert np.array_equal(a, b)
