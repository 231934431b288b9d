import numpy as np
import pytest

from ddqn_trader.env import Action, CostModel, EnvConfig, TradingEnv
from ddqn_trader.errors import ConfigError

from conftest import make_frame

NO_COST = CostModel(0.0, 0.0)


def test_action_position_mapping():
    assert [a.position for a in (Action.SHORT, Action.NEUTRAL, Action.LONG)] == [-1, 0, 1]
    assert len(Action) == 3


def test_cost_model_rejects_negative():
    with pytest.raises(ConfigError):
        CostModel(-1e-4, 0.0)


@pytest.mark.parametrize("costs", [(float("nan"), 0.0), (float("inf"), 0.0), (0.0, float("nan")),
                                   (0.0, float("inf")), (0.0, float("-inf"))])
def test_cost_model_rejects_non_finite(costs):
    with pytest.raises(ConfigError, match="finite"):
        CostModel(*costs)


def test_reset_fixed_start(frame10):
    env = TradingEnv(EnvConfig(frame=frame10, episode_length=5, costs=NO_COST, start=0))
    obs = env.reset()
    st = env.state
    assert (st.t, st.cursor, st.position) == (0, 0, 0)
    assert st.agent_nav == 0.0 and st.market_nav == 0.0
    assert np.array_equal(obs, frame10.values[0])


def test_reset_random_start_bounds(frame300):
    env = TradingEnv(EnvConfig(frame=frame300, episode_length=252, costs=NO_COST))
    rng = np.random.default_rng(0)
    starts = set()
    for _ in range(10_000):
        env.reset(rng)
        starts.add(env.state.cursor)
    assert min(starts) == 0
    assert max(starts) == 47  # 300 rows - 1 - 252
    assert all(0 <= s <= 47 for s in starts)


def test_reset_random_mode_needs_rng(frame10):
    env = TradingEnv(EnvConfig(frame=frame10, episode_length=5, costs=NO_COST))
    with pytest.raises(ConfigError, match="rng"):
        env.reset()


def test_frame_too_short_for_episode(frame10):
    with pytest.raises(ConfigError, match="episode_length"):
        EnvConfig(frame=frame10, episode_length=252, costs=NO_COST)


def test_fixed_start_out_of_range(frame10):
    with pytest.raises(ConfigError, match="start"):
        EnvConfig(frame=frame10, episode_length=5, costs=NO_COST, start=5)


def test_step_long_gets_next_return(frame10):
    env = TradingEnv(EnvConfig(frame=frame10, episode_length=3, costs=NO_COST, start=0))
    env.reset()
    result = env.step(Action.LONG)
    assert result.reward == frame10.target_returns[1]
    assert result.market_return == frame10.target_returns[1]
    assert np.array_equal(result.observation, frame10.values[1])


def test_step_short_to_long_charges_two_trades(frame10):
    costs = CostModel(trading_cost=1e-4, time_cost=0.0)
    env = TradingEnv(EnvConfig(frame=frame10, episode_length=5, costs=costs, start=0))
    env.reset()
    first = env.step(Action.SHORT)
    assert first.trade_count == 1
    assert first.cost_paid == 1e-4
    second = env.step(Action.LONG)
    assert second.trade_count == 2
    assert second.cost_paid == 2e-4
    assert second.reward == frame10.target_returns[2] * 1 - 2e-4


def test_step_unchanged_position_pays_time_cost(frame10):
    costs = CostModel(trading_cost=1e-4, time_cost=1e-5)
    env = TradingEnv(EnvConfig(frame=frame10, episode_length=5, costs=costs, start=0))
    env.reset()
    result = env.step(Action.NEUTRAL)  # Neutral -> Neutral: no trade
    assert result.trade_count == 0
    assert result.cost_paid == 1e-5
    assert result.reward == frame10.target_returns[1] * 0 - 1e-5


def test_step_after_done_errors(frame10):
    env = TradingEnv(EnvConfig(frame=frame10, episode_length=2, costs=NO_COST, start=0))
    env.reset()
    env.step(Action.LONG)
    result = env.step(Action.LONG)
    assert result.done
    with pytest.raises(RuntimeError, match="done"):
        env.step(Action.LONG)


def test_episode_runs_exactly_t_steps(frame300):
    env = TradingEnv(EnvConfig(frame=frame300, episode_length=252, costs=NO_COST, start=10))
    env.reset()
    steps = 0
    done = False
    while not done:
        done = env.step(Action.NEUTRAL).done
        steps += 1
    assert steps == 252
    assert env.state.cursor == 10 + 252


def step_navs(env, actions):
    """Run ``actions`` from a reset; per step, the StepResult's reward and market
    return and the env state's agent and market NAV after it, as four arrays."""
    env.reset()
    rows = []
    for action in actions:
        result = env.step(action)
        rows.append((result.reward, result.market_return,
                     env.state.agent_nav, env.state.market_nav))
    return np.array(rows).T


def test_nav_curves_prefix_sums():
    frame = make_frame([0.0, 0.01, -0.005, 0.002])
    env = TradingEnv(EnvConfig(frame=frame, episode_length=2, costs=NO_COST, start=0))
    rewards, market, agent_nav, market_nav = step_navs(env, [Action.LONG] * 2)
    assert agent_nav.tolist() == pytest.approx([0.01, 0.005], abs=1e-15)
    assert market_nav.tolist() == pytest.approx([0.01, 0.005], abs=1e-15)
    assert np.array_equal(agent_nav, np.cumsum(rewards))
    assert np.array_equal(market_nav, np.cumsum(market))


def test_all_neutral_zero_cost_curve_is_zero(frame10):
    env = TradingEnv(EnvConfig(frame=frame10, episode_length=6, costs=NO_COST, start=0))
    _, _, agent_nav, _ = step_navs(env, [Action.NEUTRAL] * 6)
    assert np.all(agent_nav == 0.0)


def test_always_long_reproduces_market_exactly(frame300):
    env = TradingEnv(EnvConfig(frame=frame300, episode_length=100, costs=NO_COST, start=3))
    rewards, market, agent_nav, market_nav = step_navs(env, [Action.LONG] * 100)
    assert np.array_equal(rewards, market)
    assert np.array_equal(agent_nav, market_nav)


def test_always_short_negates_market_exactly(frame300):
    env = TradingEnv(EnvConfig(frame=frame300, episode_length=100, costs=NO_COST, start=3))
    rewards, _, agent_nav, market_nav = step_navs(env, [Action.SHORT] * 100)
    assert np.array_equal(np.cumsum(rewards), -market_nav)
    assert np.array_equal(agent_nav, -market_nav)


def test_agent_nav_equals_reward_sum(frame300):
    rng = np.random.default_rng(12)
    costs = CostModel(3e-4, 2e-5)
    env = TradingEnv(EnvConfig(frame=frame300, episode_length=200, costs=costs, start=0))
    env.reset()
    rewards = [env.step(int(rng.integers(0, 3))).reward for _ in range(200)]
    assert abs(env.state.agent_nav - sum(rewards)) <= 1e-12


def test_cost_accounting_identity(frame300):
    # total cost = trading_cost * unit position changes + time_cost * unchanged steps
    rng = np.random.default_rng(77)
    costs = CostModel(5e-4, 1e-5)
    env = TradingEnv(EnvConfig(frame=frame300, episode_length=150, costs=costs, start=0))
    env.reset()
    actions = rng.integers(0, 3, size=150)
    paid = 0.0
    for a in actions:
        paid += env.step(int(a)).cost_paid
    positions = np.concatenate([[0], actions - 1])
    unit_changes = np.abs(np.diff(positions)).sum()
    unchanged = int((np.diff(positions) == 0).sum())
    expected = costs.trading_cost * unit_changes + costs.time_cost * unchanged
    assert paid == pytest.approx(expected, abs=1e-15)


def test_step_deterministic(frame300):
    def run():
        env = TradingEnv(EnvConfig(frame=frame300, episode_length=80, costs=CostModel(), start=5))
        env.reset()
        rng = np.random.default_rng(4)
        return [env.step(int(rng.integers(0, 3))).reward for _ in range(80)]

    assert run() == run()
