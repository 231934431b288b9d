import dataclasses
import math
import os

import numpy as np
import pytest

from ddqn_trader import evaluation
from ddqn_trader.agent import Agent, AgentConfig, EpsilonSchedule, select_action
from ddqn_trader.env import COST_PRESETS, Action, CostModel, EnvConfig, TradingEnv
from ddqn_trader.errors import DataError, NumericsError
from ddqn_trader.evaluation import (
    PerformanceReport,
    annualized_metrics,
    emit_report,
    market_report,
    oracle_actions,
    performance_report,
    render_report_json,
    run_backtest,
    score_actions,
)
from ddqn_trader.market_data import ModelId
from ddqn_trader.net import NetConfig, NetParams, forward
from ddqn_trader.training import TrainConfig, run_training

from conftest import make_frame

NO_COST = CostModel(0.0, 0.0)


def make_agent(width=2, seed=0):
    return Agent.create(
        AgentConfig(net=NetConfig(input_dim=width, dropout_rate=0.0, l2_activity=0.0),
                    batch_size=4, replay_capacity=64),
        seed=seed,
    )


def zeroed_agent(width=2):
    agent = make_agent(width)
    shapes = agent.config.net.layer_shapes
    agent.online = NetParams([np.zeros(s) for s in shapes], [np.zeros(s[1]) for s in shapes])
    agent.target = agent.online.clone()
    return agent


def enumerate_best(returns, costs):
    """Exhaustive 3^T search; sequential accumulation matches the env's order."""
    returns = np.asarray(returns, dtype=np.float64)
    t_len = len(returns)
    grids = np.meshgrid(*[np.arange(3)] * t_len, indexing="ij")
    actions = np.stack([g.ravel() for g in grids], axis=1)
    positions = actions - 1
    prev = np.concatenate([np.zeros((len(actions), 1), dtype=np.int64), positions[:, :-1]],
                          axis=1)
    trades = np.abs(positions - prev)
    step_cost = np.where(trades > 0, trades * costs.trading_cost, costs.time_cost)
    totals = np.zeros(len(actions))
    for k in range(t_len):
        totals += returns[k] * positions[:, k] - step_cost[:, k]
    best = np.argmax(totals)
    return totals[best], actions[best]


def replay_total(actions, returns, costs):
    total = 0.0
    pos = 0
    for a, r in zip(actions, returns):
        new_pos = int(a) - 1
        trades = abs(new_pos - pos)
        total += r * new_pos - (trades * costs.trading_cost if trades else costs.time_cost)
        pos = new_pos
    return total


# ---------------------------------------------------------------- backtest

def test_zeroed_agent_goes_short_by_tie_break(frame300):
    costs = CostModel(trading_cost=1e-4, time_cost=0.0)
    result = run_backtest(zeroed_agent(), frame300, costs)
    assert np.all(result.actions == int(Action.SHORT))
    expected = -frame300.target_returns[1:]
    expected[0] -= 1e-4  # one initial trade, unchanged afterwards at zero time cost
    assert np.allclose(result.rewards, expected, atol=1e-15)


def test_backtest_two_row_frame_is_one_step():
    frame = make_frame([0.0, 0.013])
    result = run_backtest(zeroed_agent(), frame, NO_COST)
    assert len(result.rewards) == 1
    assert result.rewards[0] == -0.013


def test_backtest_rerun_identical(frame300):
    agent = make_agent(seed=5)
    a = run_backtest(agent, frame300, CostModel())
    b = run_backtest(agent, frame300, CostModel())
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.rewards, b.rewards)


def test_backtest_does_not_learn_or_store(frame300):
    agent = make_agent(seed=5)
    before = [w.copy() for w in agent.online.weights]
    run_backtest(agent, frame300, CostModel())
    assert not hasattr(agent, "buffer")  # nothing to store into
    assert agent.gradient_steps == 0
    for w_old, w_new in zip(before, agent.online.weights):
        assert np.array_equal(w_old, w_new)


def test_backtest_width_mismatch(frame300):
    with pytest.raises(DataError, match="features"):
        run_backtest(make_agent(width=4), frame300, NO_COST)


def test_backtest_nav_matches_env_replay(frame300):
    agent = make_agent(seed=9)
    costs = CostModel(2e-4, 1e-5)
    result = run_backtest(agent, frame300, costs)
    env = TradingEnv(EnvConfig(frame=frame300, episode_length=len(frame300) - 1,
                               costs=costs, start=0))
    env.reset()
    for action in result.actions:
        env.step(int(action))
    assert abs(env.state.agent_nav - result.agent_nav[-1]) <= 1e-12
    assert abs(result.agent_nav[-1] - result.rewards.sum()) <= 1e-12


def trained_agent(frame, costs, seed):
    config = TrainConfig(
        env=EnvConfig(frame=frame, episode_length=60, costs=costs),
        agent=AgentConfig(net=NetConfig(input_dim=frame.n_features), batch_size=16,
                          replay_capacity=1_000),
        schedule=EpsilonSchedule(total_episodes=4, linear_until=2),
        episodes=4,
        seed=seed,
    )
    return run_training(config)[1]


@pytest.mark.parametrize("seed, trained", [(1, False), (6, False), (3, True)])
def test_batched_backtest_matches_per_step_path(frame300, seed, trained):
    """The batched backtest equals select_action plus TradingEnv.step, exactly."""
    costs = CostModel(2e-4, 1e-5)
    agent = trained_agent(frame300, costs, seed) if trained else make_agent(seed=seed)
    result = run_backtest(agent, frame300, costs)

    n = len(frame300) - 1
    expected = [int(select_action(agent, frame300.values[i], 0.0)) for i in range(n)]
    assert result.actions.dtype == np.int64 and result.positions.dtype == np.int64
    assert result.actions.tolist() == expected
    env = TradingEnv(EnvConfig(frame=frame300, episode_length=n, costs=costs, start=0))
    env.reset()
    steps = [env.step(a) for a in expected]
    assert result.positions.tolist() == [s.position for s in steps]
    assert result.market_returns.tolist() == [s.market_return for s in steps]
    assert result.rewards.tolist() == [s.reward for s in steps]
    assert result.gross_returns.tolist() == [s.market_return * s.position for s in steps]
    assert (result.gross_returns - [s.cost_paid for s in steps]).tolist() == result.rewards.tolist()
    assert len(set(expected)) > 1  # a constant policy would not exercise trades and holds


@pytest.mark.parametrize("model", [ModelId.M0, ModelId.M3])
def test_acting_agrees_with_backtest_bit_for_bit_on_near_ties(model):
    # Every network pass runs over padded rows, so a 1-row forward equals the
    # batched one in every bit. The output units of actions 0 and 1 differ by
    # about 1e-16, so a Q-value rounded another way would flip some actions.
    rng = np.random.default_rng(model.n_features)
    frame = make_frame(rng.normal(scale=0.01, size=998), model=model)
    agent = make_agent(width=model.n_features, seed=2)
    w3 = agent.online.weights[2]
    w3[:, 1] = w3[:, 0] + 1e-16 * rng.normal(size=len(w3))
    states = frame.values[:-1]
    q = forward(agent.online, states, agent.config.net)
    for i in range(len(states)):
        one = forward(agent.online, states[i : i + 1], agent.config.net)
        assert one.tobytes() == q[i : i + 1].tobytes(), f"row {i}"
    actions = [int(select_action(agent, row, 0.0)) for row in states]
    assert actions == run_backtest(agent, frame, NO_COST).actions.tolist()
    assert min(np.bincount(actions, minlength=3)) > 100  # near-ties both ways


def test_backtest_non_finite_q_values_raise(frame300):
    agent = make_agent(seed=5)
    agent.online.flat[:] *= 1e120  # finite weights whose Q-values overflow
    with pytest.raises(NumericsError, match=frame300.dates[0].isoformat()):
        run_backtest(agent, frame300, NO_COST)


def test_backtest_non_finite_q_values_name_first_bad_date(frame300):
    values = frame300.values.copy()
    values[17] = 1e308  # a finite feature row whose Q-values overflow
    frame = make_frame(frame300.target_returns, values)
    with pytest.raises(NumericsError, match=frame.dates[17].isoformat()):
        run_backtest(make_agent(seed=5), frame, NO_COST)


def test_backtest_one_row_frame_rejected():
    with pytest.raises(DataError, match="at least 2 frame rows, got 1"):
        run_backtest(zeroed_agent(), make_frame([0.01]), NO_COST)


# ------------------------------------------------------- annualized metrics

def test_metrics_all_zero():
    e_r, std_r, sharpe = annualized_metrics(np.zeros(10))
    assert (e_r, std_r, sharpe) == (0.0, 0.0, None)


def test_metrics_constant_return():
    e_r, std_r, sharpe = annualized_metrics(np.full(30, 0.001))
    assert e_r == pytest.approx(0.252, abs=1e-15)
    assert std_r == pytest.approx(0.0, abs=1e-12)
    assert sharpe is None


def test_metrics_alternating_sample_std():
    n = 100
    daily = 0.01 * (-1.0) ** np.arange(n)
    e_r, std_r, sharpe = annualized_metrics(daily)
    assert e_r == 0.0
    # sample-std oracle: sqrt(sum(x^2)/(n-1)) = 0.01*sqrt(n/(n-1))
    expected = math.sqrt(252.0) * 0.01 * math.sqrt(n / (n - 1))
    assert std_r == pytest.approx(expected, rel=1e-12)
    assert sharpe == 0.0


def test_metrics_shift_equivariance():
    rng = np.random.default_rng(3)
    daily = rng.normal(0, 0.01, size=500)
    e_r, std_r, _ = annualized_metrics(daily)
    e_r2, std_r2, _ = annualized_metrics(daily + 0.002)
    assert e_r2 - e_r == pytest.approx(252 * 0.002, abs=1e-9)
    assert std_r2 == pytest.approx(std_r, abs=1e-12)


def test_metrics_need_two_observations():
    with pytest.raises(ValueError):
        annualized_metrics(np.array([0.01]))


# ------------------------------------------------------------------ oracle

def test_oracle_zero_cost_follows_return_signs():
    returns = np.array([0.01, -0.02, 0.0, 0.004, -0.001])
    actions = oracle_actions(returns, NO_COST)
    assert actions.tolist() == [2, 0, 1, 2, 0]  # Neutral only on the exact zero


def test_oracle_costs_dominate_tiny_returns():
    costs = CostModel(trading_cost=1e-3, time_cost=1e-5)
    returns = np.array([1e-4, -1e-4])
    actions = oracle_actions(returns, costs)
    assert actions.tolist() == [1, 1]
    _, best = enumerate_best(returns, costs)
    assert best.tolist() == [1, 1]


@pytest.mark.parametrize("seed", range(6))
def test_oracle_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    returns = rng.normal(0, 0.01, size=7)
    costs = CostModel(
        trading_cost=float(rng.uniform(0, 2e-3)), time_cost=float(rng.uniform(0, 2e-4))
    )
    actions = oracle_actions(returns, costs)
    dp_total = replay_total(actions, returns, costs)
    best_total, _ = enumerate_best(returns, costs)
    assert dp_total == best_total


def oracle_reference(returns, costs):
    """The oracle DP as a plain triple loop over stages, previous positions and
    actions; ties go to the first action tried (Neutral, Short, Long)."""
    tc, kc = float(costs.trading_cost), float(costs.time_cost)
    value = [0.0, 0.0, 0.0]  # indexed by previous position + 1
    choices = []
    for r in reversed(np.asarray(returns, dtype=np.float64).tolist()):
        new_value, choice = [], []
        for p_prev in (-1, 0, 1):
            best, best_action = -math.inf, int(Action.NEUTRAL)
            for action in (Action.NEUTRAL, Action.SHORT, Action.LONG):
                pos = action.position
                trades = abs(pos - p_prev)
                cost = trades * tc if trades else kc
                total = r * pos - cost + value[pos + 1]
                if total > best:
                    best, best_action = total, int(action)
            new_value.append(best)
            choice.append(best_action)
        value = new_value
        choices.append(choice)
    actions, pos = [], 0
    for choice in reversed(choices):
        actions.append(choice[pos + 1])
        pos = actions[-1] - 1
    return np.array(actions, dtype=np.int64)


def random_oracle_case(rng, kind):
    n = int(rng.integers(1, 60))
    returns = rng.normal(0, 0.01, size=n)
    if kind == "rounded":  # many exact ties between totals
        returns = np.round(returns, 3)
    elif kind == "zeros":
        returns[rng.random(n) < 0.5] = rng.choice([0.0, -0.0])
    elif kind == "special":
        mask = rng.random(n) < 0.3
        returns[mask] = rng.choice([math.inf, -math.inf, math.nan, -0.0, 0.0, 1e308, -1e308],
                                   size=int(mask.sum()))
    elif kind == "grid":
        returns = rng.choice([0.0, 1e-5, -1e-5, 1e-4, -1e-4, 2e-4, -2e-4, math.nan], size=n)
    return returns


@pytest.mark.parametrize("costs", [*COST_PRESETS.values(), CostModel(0.0, 0.0),
                                   CostModel(2e-4, 0.0), CostModel(0.0, 1e-4)],
                         ids=[*COST_PRESETS, "zero", "trade-only", "time-only"])
@pytest.mark.parametrize("kind", ["normal", "rounded", "zeros", "special", "grid"])
def test_oracle_equals_triple_loop_reference(costs, kind):
    rng = np.random.default_rng([len(kind), int(costs.trading_cost * 1e6),
                                 int(costs.time_cost * 1e6)])
    for _ in range(70):
        returns = random_oracle_case(rng, kind)
        assert oracle_actions(returns, costs).tolist() == oracle_reference(returns, costs).tolist()


def test_oracle_position_changes_monotone_in_cost():
    rng = np.random.default_rng(44)
    for _ in range(10):
        returns = rng.normal(0, 0.01, size=40)
        prev_changes = None
        for tc in (0.0, 1e-4, 5e-4, 1e-3, 5e-3):
            actions = oracle_actions(returns, CostModel(tc, 1e-5))
            positions = np.concatenate([[0], actions - 1])
            changes = int(np.abs(np.diff(positions)).sum())
            if prev_changes is not None:
                assert changes <= prev_changes
            prev_changes = changes


# ----------------------------------------------------------- score_actions

def test_score_identical_sequences():
    actions = np.array([0, 1, 2, 2, 0])
    assert score_actions(actions, actions) == (0.0, 1.0)


def test_score_hand_arithmetic():
    mse, accuracy = score_actions(np.array([2, 2]), np.array([0, 1]))
    assert mse == 2.5  # (4 + 1) / 2
    assert accuracy == 0.0


def test_score_length_mismatch():
    with pytest.raises(ValueError, match="shape"):
        score_actions(np.array([1, 2]), np.array([1]))


def test_random_actions_score_one_third():
    rng = np.random.default_rng(15)
    oracle = oracle_actions(rng.normal(0, 0.01, size=12_000), CostModel())
    random_actions = rng.integers(0, 3, size=12_000)
    _, accuracy = score_actions(random_actions, oracle)
    assert abs(accuracy - 1.0 / 3.0) < 0.02


# ------------------------------------------------------------------ report

def test_emit_report_rows_and_market(tmp_path, frame300):
    agent = make_agent(seed=2)
    costs = CostModel()
    result = run_backtest(agent, frame300, costs)
    report_path, curves_path = emit_report({"M0": result}, costs, tmp_path)
    rows = __import__("json").loads((tmp_path / "report.json").read_text())
    assert [r["model"] for r in rows] == ["M0", "market"]
    market_row = rows[1]
    oracle = oracle_actions(result.market_returns, costs)
    long_fraction = float(np.mean(oracle == int(Action.LONG)))
    assert market_row["accuracy"] == pytest.approx(long_fraction, abs=5e-7)
    curves = (tmp_path / "nav_curves.csv").read_text().strip().splitlines()
    assert curves[0] == "date,model,nav"
    assert len(curves) == 1 + 2 * len(result.rewards)


def test_emit_report_byte_stable(tmp_path, frame300):
    agent = make_agent(seed=2)
    costs = CostModel()
    result = run_backtest(agent, frame300, costs)
    first = tmp_path / "a"
    second = tmp_path / "b"
    emit_report({"M0": result}, costs, first)
    emit_report({"M0": result}, costs, second)
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
    assert (first / "nav_curves.csv").read_bytes() == (second / "nav_curves.csv").read_bytes()


def nav_curves_reference(results, path):
    """nav_curves.csv written one line at a time, as each result's own dates
    and NAVs formatted in turn."""
    items = sorted(results.items())
    with open(path, "w", newline="") as fh:
        fh.write("date,model,nav\n")
        for name, res in items:
            for d, nav in zip(res.dates, res.agent_nav):
                fh.write(f"{d.isoformat()},{name},{nav:.6f}\n")
        first = items[0][1]
        for d, nav in zip(first.dates, first.market_nav):
            fh.write(f"{d.isoformat()},market,{nav:.6f}\n")


def test_emit_report_nav_curves_equal_line_by_line_writer(tmp_path, frame300):
    costs = CostModel()
    edge = np.array([-0.0, 1e-7, -1e-7, 5e-7, -5e-7, 0.5e-6, 2.5e-6, 123456789.123456789,
                     -9.87654321e12, 1e16, 0.1 + 0.2])
    results = {}
    for name, seed in (("M1", 4), ("M0", 3)):
        result = run_backtest(make_agent(seed=seed), frame300, costs)
        nav = result.agent_nav.copy()
        nav[seed::5][:len(edge)] = edge[:len(nav[seed::5])]
        results[name] = dataclasses.replace(result, agent_nav=nav)
    market = results["M0"].market_nav.copy()
    market[:len(edge)] = edge[::-1]
    results["M0"] = dataclasses.replace(results["M0"], market_nav=market)
    emit_report(results, costs, tmp_path)
    nav_curves_reference(results, tmp_path / "ref.csv")
    written = (tmp_path / "nav_curves.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    for text in (b",M0,-0.000000\n", b",M1,0.000000\n", b",market,10000000000000000.000000\n"):
        assert text in written


def test_emit_report_failed_write_keeps_previous_files(tmp_path, frame300, monkeypatch):
    costs = CostModel()
    emit_report({"M0": run_backtest(make_agent(seed=2), frame300, costs)}, costs, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def open_failing_on_curves(path, *args, **kwargs):
        if os.path.basename(path).startswith("nav_curves"):
            raise OSError("no space left on device")
        return open(path, *args, **kwargs)

    monkeypatch.setattr(evaluation, "open", open_failing_on_curves, raising=False)
    other = run_backtest(make_agent(seed=5), frame300, costs)
    with pytest.raises(OSError, match="no space"):
        emit_report({"M0": other}, costs, tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert sorted(before) == ["nav_curves.csv", "report.json"]  # and no *.tmp file


def test_report_gross_switch_changes_returns(frame300):
    agent = make_agent(seed=2)
    costs = CostModel(1e-3, 1e-4)
    result = run_backtest(agent, frame300, costs)
    oracle = oracle_actions(result.market_returns, costs)
    net_row = performance_report(result, oracle, "M0", use_gross=False)
    gross_row = performance_report(result, oracle, "M0", use_gross=True)
    assert gross_row.e_r > net_row.e_r  # costs only ever subtract


def test_market_report_is_long_and_hold(frame300):
    result = run_backtest(make_agent(seed=2), frame300, NO_COST)
    oracle = oracle_actions(result.market_returns, NO_COST)
    row = market_report(result, oracle)
    e_r, std_r, _ = annualized_metrics(result.market_returns)
    assert row.model == "market"
    assert row.e_r == e_r and row.std_r == std_r


def test_render_report_null_sharpe():
    report = PerformanceReport("M0", 0.1, 0.0, None, 1.5, 0.5, 10)
    text = render_report_json([report])
    assert '"sharpe": null' in text


@pytest.mark.parametrize("field, value", [("e_r", -math.inf), ("std_r", math.nan),
                                          ("sharpe", math.inf)])
def test_render_report_rejects_non_finite_metric(field, value):
    metrics = dict(e_r=0.1, std_r=0.2, sharpe=0.5)
    metrics[field] = value
    report = PerformanceReport("M0", metrics["e_r"], metrics["std_r"], metrics["sharpe"],
                               1.5, 0.5, 10)
    with pytest.raises(NumericsError, match=f"non-finite {field}"):
        render_report_json([report])
