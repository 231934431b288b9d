"""Acceptance battery: one test per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines inline.
The two statistical criteria (06 learning sanity, 07 cost sensitivity) train
real desk-scale agents, one per seed and cost preset; ``workers.map_jobs`` runs
those trainings side by side, one worker process per core.
"""

import os

import numpy as np
import pytest

from ddqn_trader.agent import Agent, AgentConfig, EpsilonSchedule
from ddqn_trader.env import Action, COST_PRESETS, CostModel, EnvConfig, TradingEnv
from ddqn_trader.evaluation import oracle_actions, run_backtest, score_actions
from ddqn_trader.market_data import ModelId, SplitSpec, build_features, split, synth_generate
from ddqn_trader.net import (
    NetConfig,
    NetParams,
    forward,
    init_params,
    loss_and_grads,
    param_count,
)
from ddqn_trader.training import TrainConfig, run_training, save_checkpoint, write_log_csv
from reference import TransitionBatch, frame_targets
from workers import map_in_workers, map_jobs

NO_COST = CostModel(0.0, 0.0)


def verdict(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}"
    if detail:
        line += f" :: {detail}"
    print("\n" + line)
    assert ok, line


# -------------------------------------------------------------- criterion 1

def test_criterion_01_parameter_counts():
    expected = {2: 4547, 4: 4675, 6: 4803, 8: 4931}
    got = {w: param_count(NetConfig(input_dim=w)) for w in expected}
    verdict(1, "parameter-count exactness", got == expected, f"{got}")


# -------------------------------------------------------------- criterion 2

def _fd_loss(params, states, actions, targets, config):
    loss, _ = loss_and_grads(params, states, actions, targets, config)
    return loss


def _fd_coordinate(arr, idx, params, states, actions, targets, config, h=1e-5):
    orig = arr[idx]
    arr[idx] = orig + h
    up = _fd_loss(params, states, actions, targets, config)
    arr[idx] = orig - h
    down = _fd_loss(params, states, actions, targets, config)
    arr[idx] = orig
    return (up - down) / (2 * h)


def _random_fixture(seed, rng, full_size=False):
    if full_size:
        config = NetConfig(
            input_dim=int(rng.choice([2, 4, 6, 8])),
            dropout_rate=0.0,
            l2_activity=float(rng.choice([0.0, 1e-6, 1e-3])),
        )
    else:
        config = NetConfig(
            input_dim=int(rng.choice([2, 4, 6, 8])),
            hidden_dims=(int(rng.integers(3, 11)), int(rng.integers(3, 9))),
            dropout_rate=0.0,
            l2_activity=float(rng.choice([0.0, 1e-6, 1e-3])),
        )
    params = init_params(config, np.random.default_rng(seed))
    batch = int(rng.integers(1, 9))
    states = rng.normal(size=(batch, config.input_dim))
    actions = rng.integers(0, 3, size=batch)
    targets = rng.normal(size=batch)
    return config, params, states, actions, targets


def _kink_free(params, states, config):
    # keep pre-activations away from the ReLU kink so central differences stay valid
    x = np.asarray(states)
    z1 = x @ params.weights[0] + params.biases[0]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.weights[1] + params.biases[1]
    return min(np.abs(z1).min(), np.abs(z2).min()) > 1e-4


def test_criterion_02_gradient_fidelity():
    rng = np.random.default_rng(2024)
    checked = 0
    max_err = 0.0
    candidate = 0
    while checked < 100:
        candidate += 1
        full_size = checked >= 97  # last three at the production 64x64 width
        config, params, states, actions, targets = _random_fixture(candidate, rng, full_size)
        if not _kink_free(params, states, config):
            continue
        _, analytic = loss_and_grads(params, states, actions, targets, config)
        coords = []
        for kind in ("weights", "biases"):
            for layer in range(3):
                arr = getattr(params, kind)[layer]
                for idx in np.ndindex(arr.shape):
                    coords.append((kind, layer, idx))
        if full_size:
            pick = rng.choice(len(coords), size=400, replace=False)
            coords = [coords[i] for i in pick]
        for kind, layer, idx in coords:
            arr = getattr(params, kind)[layer]
            numeric = _fd_coordinate(arr, idx, params, states, actions, targets, config)
            analytic_val = getattr(analytic, kind)[layer][idx]
            denom = max(abs(analytic_val), abs(numeric))
            err = abs(analytic_val - numeric)
            if denom > 1e-4:
                max_err = max(max_err, err / denom)
            ok = err <= 1e-8 + 1e-4 * denom
            if not ok:
                verdict(2, "gradient fidelity", False,
                        f"fixture {checked} {kind}[{layer}]{idx}: "
                        f"analytic {analytic_val:.3e} vs fd {numeric:.3e}")
        checked += 1
    verdict(2, "gradient fidelity", True,
            f"{checked} fixtures, max relative error {max_err:.2e} < 1e-4")


# -------------------------------------------------------------- criterion 3

def _fixture_agent(online_head, target_head, gamma=0.9):
    config = AgentConfig(
        net=NetConfig(input_dim=2, hidden_dims=(1, 1), dropout_rate=0.0, l2_activity=0.0),
        batch_size=1, replay_capacity=4, gamma=gamma,
    )
    agent = Agent.create(config, seed=0)
    body_w = [np.array([[1.0], [1.0]]), np.array([[1.0]])]
    body_b = [np.zeros(1), np.zeros(1)]
    agent.online = NetParams(body_w + [np.array([online_head])], body_b + [np.zeros(3)])
    agent.target = NetParams(
        [w.copy() for w in body_w] + [np.array([target_head])],
        [b.copy() for b in body_b] + [np.zeros(3)],
    )
    return agent


def test_criterion_03_double_q_correctness():
    # The targets come from the frame path train_step runs (reference.frame_targets).
    # handcrafted fixture: s' = (0.6, 0.4) collapses to a2 = 1, so q == head row
    agent = _fixture_agent([0.0, 0.1, 0.5], [0.9, 0.2, 0.3])
    batch = TransitionBatch(
        states=np.zeros((2, 2)),
        actions=np.array([0, 1]),
        rewards=np.array([0.05, 0.02]),
        next_states=np.array([[0.6, 0.4], [0.6, 0.4]]),
        dones=np.array([False, True]),
    )
    y = frame_targets(agent, batch)
    hand = 0.05 + 0.9 * 0.3  # online argmax = Long, target evaluates Long at 0.3
    max_form = 0.05 + 0.9 * 0.9  # the max-form target bootstraps from 0.9
    ok = (
        abs(y[0] - hand) <= 1e-12
        and abs(y[1] - 0.02) <= 1e-12  # done transition
        and abs(y[0] - max_form) > 0.1  # provably not the max form
    )

    # with identical networks the two formulas agree exactly
    max_dev = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        config = AgentConfig(
            net=NetConfig(input_dim=2, dropout_rate=0.0, l2_activity=0.0),
            batch_size=4, replay_capacity=16, gamma=float(rng.uniform(0, 1)),
        )
        shared = Agent.create(config, seed=seed)
        shared.target = shared.online.clone()
        fixture = TransitionBatch(
            states=rng.normal(size=(4, 2)),
            actions=rng.integers(0, 3, size=4),
            rewards=rng.normal(scale=0.01, size=4),
            next_states=rng.normal(size=(4, 2)),
            dones=rng.random(4) < 0.2,
        )
        y_double = frame_targets(shared, fixture)
        q_next = forward(shared.target, fixture.next_states, config.net)
        y_max = fixture.rewards + config.gamma * q_next.max(axis=1) * ~fixture.dones
        max_dev = max(max_dev, float(np.abs(y_double - y_max).max()))
    ok = ok and max_dev <= 1e-12
    verdict(3, "double-Q target correctness", ok,
            f"hand fixture y={y[0]:.6f} (max-form {max_form:.6f}); "
            f"equal-net max deviation {max_dev:.1e}")


# -------------------------------------------------------------- criterion 4

def _enumerate_best_total(returns, costs):
    t_len = len(returns)
    grids = np.meshgrid(*[np.arange(3)] * t_len, indexing="ij")
    actions = np.stack([g.ravel() for g in grids], axis=1)
    positions = actions - 1
    prev = np.concatenate(
        [np.zeros((len(actions), 1), dtype=np.int64), positions[:, :-1]], axis=1
    )
    trades = np.abs(positions - prev)
    step_cost = np.where(trades > 0, trades * costs.trading_cost, costs.time_cost)
    totals = np.zeros(len(actions))
    for k in range(t_len):  # sequential accumulation, same order as a replay
        totals += returns[k] * positions[:, k] - step_cost[:, k]
    return float(totals.max())


def _replay_total(actions, returns, costs):
    total, pos = 0.0, 0
    for a, r in zip(actions, returns):
        new_pos = int(a) - 1
        trades = abs(new_pos - pos)
        total += r * new_pos - (trades * costs.trading_cost if trades else costs.time_cost)
        pos = new_pos
    return total


def test_criterion_04_oracle_optimality():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        returns = rng.normal(0, 0.01, size=10)
        costs = CostModel(
            trading_cost=float(rng.uniform(0, 3e-3)),
            time_cost=float(rng.uniform(0, 3e-4)),
        )
        dp_total = _replay_total(oracle_actions(returns, costs), returns, costs)
        best = _enumerate_best_total(returns, costs)
        worst = max(worst, abs(dp_total - best))
    verdict(4, "oracle optimality vs 3^10 enumeration", worst == 0.0,
            f"20 instances, max |dp - enum| = {worst:.1e}")


# -------------------------------------------------------------- criterion 5

def test_criterion_05_accounting_identities():
    prices = synth_generate(0.0005, 0.01, 320, seed=5)
    frame = build_features(ModelId.M0, {"spx": prices})

    # backtest NAV equals the reward sum
    agent = Agent.create(
        AgentConfig(net=NetConfig(input_dim=2, dropout_rate=0.0), batch_size=4,
                    replay_capacity=64),
        seed=1,
    )
    result = run_backtest(agent, frame, CostModel(2e-4, 1e-5))
    nav_ok = abs(result.agent_nav[-1] - result.rewards.sum()) <= 1e-12

    # always-Long at zero cost reproduces the market NAV exactly
    env = TradingEnv(EnvConfig(frame=frame, episode_length=200, costs=NO_COST, start=0))
    env.reset()
    for _ in range(200):
        env.step(Action.LONG)
    long_ok = env.state.agent_nav == env.state.market_nav

    # Short -> Long charges exactly two trading costs
    env2 = TradingEnv(
        EnvConfig(frame=frame, episode_length=5, costs=CostModel(1e-4, 0.0), start=0)
    )
    env2.reset()
    env2.step(Action.SHORT)
    flip = env2.step(Action.LONG)
    flip_ok = flip.cost_paid == 2e-4 and flip.trade_count == 2

    verdict(5, "accounting identities", nav_ok and long_ok and flip_ok,
            f"nav_sum={nav_ok}, long=market={long_ok}, flip=2x cost={flip_ok}")


# -------------------------------------------------------------- criterion 6

def _learning_accuracy(train_frame, test_frame, oracle, seed):
    config = TrainConfig(
        env=EnvConfig(frame=train_frame, episode_length=252, costs=NO_COST),
        agent=AgentConfig(net=NetConfig(input_dim=2), batch_size=256,
                          replay_capacity=100_000),
        schedule=EpsilonSchedule(total_episodes=200, linear_until=100),
        episodes=200,
        seed=seed,
    )
    _, agent = run_training(config)
    result = run_backtest(agent, test_frame, NO_COST)
    _, accuracy = score_actions(result.actions, oracle)
    return accuracy


@pytest.mark.slow
def test_criterion_06_learning_sanity():
    prices = synth_generate(mu=0.01, sigma=0.0, n_days=700, seed=42, regime="meanrevert")
    frame = build_features(ModelId.M0, {"spx": prices})
    train_frame, test_frame = split(
        frame, SplitSpec(frame.dates[0], frame.dates[420], frame.dates[-1])
    )
    oracle = oracle_actions(test_frame.target_returns[1:], NO_COST)
    accuracies = map_jobs(_learning_accuracy,
                          [(train_frame, test_frame, oracle, seed) for seed in range(5)])
    passing = sum(a >= 0.90 for a in accuracies)
    verdict(6, "learning sanity on alternating market", passing >= 3,
            f"{passing}/5 seeds >= 0.90, accuracies "
            + str([round(a, 3) for a in accuracies]))


# -------------------------------------------------------------- criterion 7

def _neutral_frequency(train_frame, test_frame, seed, costs):
    config = TrainConfig(
        env=EnvConfig(frame=train_frame, episode_length=100, costs=costs),
        agent=AgentConfig(net=NetConfig(input_dim=2), batch_size=256,
                          replay_capacity=50_000),
        schedule=EpsilonSchedule(total_episodes=120, linear_until=60),
        episodes=120,
        early_stop_streak=121,  # run the full budget for a fair comparison
        seed=seed,
    )
    _, agent = run_training(config)
    result = run_backtest(agent, test_frame, costs)
    return float(np.mean(result.actions == int(Action.NEUTRAL)))


@pytest.mark.slow
def test_criterion_07_cost_sensitivity():
    prices = synth_generate(mu=5e-5, sigma=0.0015, n_days=460, seed=77, regime="meanrevert")
    frame = build_features(ModelId.M0, {"spx": prices})
    train_frame, test_frame = split(
        frame, SplitSpec(frame.dates[0], frame.dates[250], frame.dates[-1])
    )

    seeds = range(5)
    freqs = map_jobs(_neutral_frequency,
                     [(train_frame, test_frame, s, COST_PRESETS[preset])
                      for preset in ("high", "none") for s in seeds])
    high, none = freqs[: len(seeds)], freqs[len(seeds):]
    ok = float(np.median(high)) > float(np.median(none))
    failing = [s for s, (h, n) in enumerate(zip(high, none)) if h <= n]
    verdict(7, "neutral position under high costs", ok,
            f"median neutral freq high={np.median(high):.3f} vs none={np.median(none):.3f}; "
            f"per-seed high={[round(h, 3) for h in high]} none={[round(n, 3) for n in none]}; "
            f"seeds where high<=none: {failing or 'none'}")


# -------------------------------------------------------------- criterion 8

def test_criterion_08_random_agent_baseline():
    rng = np.random.default_rng(88)
    n = 12_000
    oracle = oracle_actions(rng.normal(0, 0.01, size=n), CostModel())
    random_actions = rng.integers(0, 3, size=n)
    _, accuracy = score_actions(random_actions, oracle)
    ok = abs(accuracy - 1.0 / 3.0) <= 0.02
    verdict(8, "random-agent accuracy near 1/3", ok, f"accuracy {accuracy:.4f} over {n} steps")


# -------------------------------------------------------------- criterion 9

def _determinism_config():
    prices = synth_generate(0.0004, 0.008, 200, seed=9)
    frame = build_features(ModelId.M0, {"spx": prices})
    return TrainConfig(
        env=EnvConfig(frame=frame, episode_length=30, costs=CostModel()),
        agent=AgentConfig(net=NetConfig(input_dim=2), batch_size=8, replay_capacity=4096,
                          lr=1e-3, target_sync_every=10),
        schedule=EpsilonSchedule(total_episodes=6, linear_until=3),
        episodes=6,
        seed=31,
    )


def test_criterion_09_training_determinism(tmp_path):
    config = _determinism_config()
    payloads = []
    for name in ("one.csv", "two.csv"):
        log, _ = run_training(config)
        path = tmp_path / name
        write_log_csv(log, path)
        payloads.append(path.read_bytes())
    verdict(9, "byte-identical training logs", payloads[0] == payloads[1],
            f"{len(payloads[0])} bytes each")


def _trained_files(config, out_dir):
    """The train log's and the checkpoint's bytes, with the BLAS thread setting."""
    log, agent = run_training(config)
    write_log_csv(log, out_dir / "train_log.csv")
    save_checkpoint(agent, out_dir / "checkpoint.json")
    return ((out_dir / "train_log.csv").read_bytes(), (out_dir / "checkpoint.json").read_bytes(),
            os.environ.get("OPENBLAS_NUM_THREADS"))


def test_worker_trains_like_this_process(tmp_path):
    # the slow criteria train in workers: one must give the same files as here
    config = _determinism_config()
    (tmp_path / "worker").mkdir()
    (tmp_path / "here").mkdir()
    [(log, checkpoint, threads)] = map_in_workers(_trained_files,
                                                  [(config, tmp_path / "worker")], workers=1)
    here_log, here_checkpoint, _ = _trained_files(config, tmp_path / "here")
    assert threads == "1"
    assert log == here_log
    assert checkpoint == here_checkpoint


# ------------------------------------------------------------- criterion 10

def test_criterion_10_early_stop_protocol():
    prices = synth_generate(mu=-0.001, sigma=0.0, n_days=140, seed=10)
    frame = build_features(ModelId.M0, {"spx": prices})
    config = TrainConfig(
        env=EnvConfig(frame=frame, episode_length=30, costs=NO_COST),
        agent=AgentConfig(net=NetConfig(input_dim=2), batch_size=8, replay_capacity=4096),
        schedule=EpsilonSchedule(total_episodes=100, linear_until=50),
        episodes=100,
        seed=0,
    )
    log, _ = run_training(config, action_override=lambda obs, rng: int(Action.SHORT))
    ok = (
        log.termination == "early_stop"
        and log.early_stop_episode == 25
        and len(log.records) == 25
        and all(r.outperformed for r in log.records)
    )
    verdict(10, "early stop at 25 straight wins", ok,
            f"termination={log.termination} at episode {log.early_stop_episode}")
