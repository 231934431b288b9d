"""Out-of-sample backtest, annualized performance keys, and oracle scoring.

The backtest walks the greedy policy once through a test frame as a single
episode (no exploration, no learning). Reported metrics:

    E(R)   = 252 * mean(daily reward)
    std(R) = sqrt(252) * std(daily reward, n-1)
    Sharpe = E(R) / std(R)           (undefined when std is zero)
    MSE    = mean squared difference of action codes vs the oracle
    Acc    = fraction of exact matches vs the oracle

The oracle is the hindsight-optimal action sequence under the same cost model,
found by dynamic programming over the three position states. Costs make
neutral positions genuinely optimal in places, so matching it is harder than
calling return signs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import net
from .agent import Agent
from .env import Action, CostModel
from .errors import DataError, NumericsError
from .market_data import FeatureFrame

# Oracle tie-break preference: Neutral first, then the lower position.
_TIE_ORDER = (Action.NEUTRAL, Action.SHORT, Action.LONG)


@dataclass(frozen=True)
class BacktestResult:
    dates: tuple
    actions: np.ndarray
    positions: np.ndarray
    rewards: np.ndarray
    gross_returns: np.ndarray  # position * market return, before costs
    market_returns: np.ndarray
    agent_nav: np.ndarray
    market_nav: np.ndarray


@dataclass(frozen=True)
class PerformanceReport:
    model: str
    e_r: float
    std_r: float
    sharpe: float | None
    mse: float
    accuracy: float
    n_days: int


def run_backtest(agent: Agent, frame: FeatureFrame, costs: CostModel) -> BacktestResult:
    """Greedy single pass over the whole frame: len(frame) - 1 steps.

    The observation is the frame row alone (the position is not part of it),
    so no greedy action depends on an earlier one: one batched eval forward
    gives every day's Q-values, and ties go to the lowest action index, as in
    ``select_action``. Positions, costs and rewards follow ``TradingEnv.step``
    with the same float64 operation per element, so they match a step-by-step
    replay bit for bit. Raises NumericsError if any Q-value is non-finite.
    """
    if frame.n_features != agent.config.net.input_dim:
        raise DataError(
            f"frame has {frame.n_features} features but the agent expects "
            f"{agent.config.net.input_dim}"
        )
    if len(frame) < 2:
        raise DataError(f"backtest needs at least 2 frame rows, got {len(frame)}")
    q, _ = net.forward(agent.online, frame.values[:-1], agent.config.net, mode="eval")
    finite = np.isfinite(q).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NumericsError(
            f"non-finite Q-values for the observation of {frame.dates[bad].isoformat()} "
            f"(test day {bad + 1} of {len(q)})"
        )
    actions = np.argmax(q, axis=1)
    positions = actions - 1
    trades = np.abs(np.diff(positions, prepend=0))
    cost = np.where(trades > 0, trades * costs.trading_cost, costs.time_cost)
    market = frame.target_returns[1:].copy()
    gross = market * positions
    rewards = gross - cost
    return BacktestResult(
        dates=frame.dates[1:],
        actions=actions,
        positions=positions,
        rewards=rewards,
        gross_returns=gross,
        market_returns=market,
        agent_nav=np.cumsum(rewards),
        market_nav=np.cumsum(market),
    )


def annualized_metrics(daily_returns: np.ndarray) -> tuple[float, float, float | None]:
    """(E(R), std(R), Sharpe); Sharpe is None for a constant series."""
    daily = np.asarray(daily_returns, dtype=np.float64)
    if len(daily) < 2:
        raise ValueError(f"need >= 2 observations, got {len(daily)}")
    e_r = 252.0 * float(np.mean(daily))
    if np.all(daily == daily[0]):  # exact, float-noise-free zero variance
        return e_r, 0.0, None
    std_r = float(np.sqrt(252.0) * np.std(daily, ddof=1))
    sharpe = e_r / std_r if std_r > 0.0 else None
    return e_r, std_r, sharpe


def oracle_actions(returns: np.ndarray, costs: CostModel) -> np.ndarray:
    """Hindsight-optimal actions under the step cost model.

    ``returns[k]`` is the market return paid to the action taken at step k.
    Backward value iteration over the previous-position state, starting
    Neutral; ties prefer Neutral, then Short.
    """
    # Python floats: the same IEEE double arithmetic as numpy scalars, far
    # less overhead per operation in this 3 x 3 inner loop
    returns = np.asarray(returns, dtype=np.float64).tolist()
    tc, kc = float(costs.trading_cost), float(costs.time_cost)
    options = [(int(action), action.position) for action in _TIE_ORDER]
    # value[p+1] = best achievable total reward from stage k onward given
    # previous position p; choices[k][p+1] = the action that attains it
    value = [0.0, 0.0, 0.0]
    choices = []
    for r in reversed(returns):
        new_value, choice = [], []
        for p_prev in (-1, 0, 1):
            best = -math.inf
            best_action = int(Action.NEUTRAL)
            for action, pos in options:
                trades = abs(pos - p_prev)
                cost = trades * tc if trades else kc
                total = r * pos - cost + value[pos + 1]
                if total > best:
                    best = total
                    best_action = action
            new_value.append(best)
            choice.append(best_action)
        value = new_value
        choices.append(choice)
    actions = []
    pos = 0
    for choice in reversed(choices):
        actions.append(choice[pos + 1])
        pos = actions[-1] - 1
    return np.array(actions, dtype=np.int64)


def score_actions(actions: np.ndarray, oracle: np.ndarray) -> tuple[float, float]:
    """(MSE over raw action codes, exact-match accuracy)."""
    actions = np.asarray(actions)
    oracle = np.asarray(oracle)
    if actions.shape != oracle.shape:
        raise ValueError(f"action sequences differ in shape: {actions.shape} vs {oracle.shape}")
    diff = actions.astype(np.float64) - oracle.astype(np.float64)
    return float(np.mean(diff**2)), float(np.mean(actions == oracle))


def performance_report(
    result: BacktestResult, oracle: np.ndarray, model: str, use_gross: bool = False
) -> PerformanceReport:
    """Score one backtest. ``use_gross`` switches E(R)/std(R) to pre-cost returns."""
    daily = result.gross_returns if use_gross else result.rewards
    e_r, std_r, sharpe = annualized_metrics(daily)
    mse, accuracy = score_actions(result.actions, oracle)
    return PerformanceReport(model, e_r, std_r, sharpe, mse, accuracy, len(daily))


def market_report(result: BacktestResult, oracle: np.ndarray) -> PerformanceReport:
    """Long-and-hold benchmark: raw market returns, constant-Long actions."""
    e_r, std_r, sharpe = annualized_metrics(result.market_returns)
    all_long = np.full(len(oracle), int(Action.LONG))
    mse, accuracy = score_actions(all_long, oracle)
    return PerformanceReport("market", e_r, std_r, sharpe, mse, accuracy, len(oracle))


def _fmt(x: float | None) -> str:
    return "null" if x is None else f"{x:.6f}"


def render_report_json(reports: list[PerformanceReport]) -> str:
    """Deterministic JSON: sorted keys, fixed 6-decimal numbers."""
    lines = ["["]
    for i, r in enumerate(reports):
        sep = "," if i < len(reports) - 1 else ""
        lines.append(
            "  {"
            + f'"accuracy": {_fmt(r.accuracy)}, '
            + f'"e_r": {_fmt(r.e_r)}, '
            + f'"model": {json.dumps(r.model)}, '
            + f'"mse": {_fmt(r.mse)}, '
            + f'"n_days": {r.n_days}, '
            + f'"sharpe": {_fmt(r.sharpe)}, '
            + f'"std_r": {_fmt(r.std_r)}'
            + "}"
            + sep
        )
    lines.append("]")
    return "\n".join(lines) + "\n"


def emit_report(
    results: dict[str, BacktestResult],
    costs: CostModel,
    out_dir,
    use_gross: bool = False,
) -> tuple[str, str]:
    """Write report.json (one row per model plus market) and nav_curves.csv.

    All results must cover the same window; the oracle is computed once from
    that window's market returns under the given cost model.
    """
    if not results:
        raise ValueError("no backtest results to report")
    items = sorted(results.items())
    first = items[0][1]
    for _, res in items[1:]:
        if res.dates != first.dates or not np.array_equal(res.market_returns,
                                                          first.market_returns):
            raise DataError("backtest results cover different windows")
    oracle = oracle_actions(first.market_returns, costs)
    reports = [performance_report(res, oracle, name, use_gross) for name, res in items]
    reports.append(market_report(first, oracle))

    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    curves_path = os.path.join(out_dir, "nav_curves.csv")
    with open(report_path, "w") as fh:
        fh.write(render_report_json(reports))
    with open(curves_path, "w", newline="") as fh:
        fh.write("date,model,nav\n")
        for name, res in items:
            for d, nav in zip(res.dates, res.agent_nav):
                fh.write(f"{d.isoformat()},{name},{nav:.6f}\n")
        for d, nav in zip(first.dates, first.market_nav):
            fh.write(f"{d.isoformat()},market,{nav:.6f}\n")
    return report_path, curves_path
