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
import typing
from dataclasses import dataclass

import numpy as np

from . import net
from .agent import Agent
from .env import Action, CostModel
from .errors import DataError, NumericsError
from .market_data import FeatureFrame
from .outputs import write_all

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


# (field, type) of each PerformanceReport field, in name order
_REPORT_TYPES = sorted(typing.get_type_hints(PerformanceReport).items())


# A non-finite Q-value is a NumericsError naming its day, so numpy's overflow
# warnings would only repeat it ahead of the one error line.
@np.errstate(over="ignore", invalid="ignore")
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
    q = net.forward(agent.online, frame.values[:-1], agent.config.net)
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

    Each stage is written out for its three previous positions times three
    actions. Every total is ``r * pos - cost + value`` in that order, and the
    best is kept by a strict ``>`` against a running best that starts at
    -inf, trying Neutral, then Short, then Long: a NaN total is never kept,
    and a previous position whose totals are all NaN or -inf gets Neutral.
    """
    # Python floats: the same IEEE double arithmetic as numpy scalars, far
    # less overhead per operation
    returns = np.asarray(returns, dtype=np.float64).tolist()
    tc, kc = float(costs.trading_cost), float(costs.time_cost)
    tc1, tc2 = 1 * tc, 2 * tc  # the cost of a one- and a two-unit trade
    neg_inf = -math.inf
    # v_short, v_neutral, v_long = best achievable total reward from stage k
    # onward given that previous position; choices[k] = the action codes
    # (0 Short, 1 Neutral, 2 Long) attaining them, as (after Short, after
    # Neutral, after Long)
    v_short = v_neutral = v_long = 0.0
    choices = []
    for r in reversed(returns):
        gain_neutral, gain_short, gain_long = r * 0, r * -1, r * 1
        # Neutral: one trade away from Short and from Long, held from Neutral
        neutral_traded = gain_neutral - tc1 + v_neutral
        if not neutral_traded > neg_inf:
            neutral_traded = neg_inf
        neutral_held = gain_neutral - kc + v_neutral
        if not neutral_held > neg_inf:
            neutral_held = neg_inf
        # previous position Short
        after_short, a_short = neutral_traded, 1
        total = gain_short - kc + v_short
        if total > after_short:
            after_short, a_short = total, 0
        total = gain_long - tc2 + v_long
        if total > after_short:
            after_short, a_short = total, 2
        # previous position Neutral
        after_neutral, a_neutral = neutral_held, 1
        total = gain_short - tc1 + v_short
        if total > after_neutral:
            after_neutral, a_neutral = total, 0
        total = gain_long - tc1 + v_long
        if total > after_neutral:
            after_neutral, a_neutral = total, 2
        # previous position Long
        after_long, a_long = neutral_traded, 1
        total = gain_short - tc2 + v_short
        if total > after_long:
            after_long, a_long = total, 0
        total = gain_long - kc + v_long
        if total > after_long:
            after_long, a_long = total, 2
        v_short, v_neutral, v_long = after_short, after_neutral, after_long
        choices.append((a_short, a_neutral, a_long))
    # an action's code is its position + 1, the index of its own entry
    actions = []
    action = int(Action.NEUTRAL)
    for choice in reversed(choices):
        action = choice[action]
        actions.append(action)
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


def render_report_json(reports: list[PerformanceReport]) -> str:
    """Deterministic JSON: one line per report, its fields in name order, a
    string quoted, an integer bare and any other number with 6 decimals.

    Raises NumericsError on a non-finite metric, which JSON cannot hold.
    """
    lines = []
    for r in reports:
        cells = []
        for name, kind in _REPORT_TYPES:
            value = getattr(r, name)
            if kind is str:
                text = json.dumps(value)
            elif kind is int:
                text = str(value)
            elif value is None:
                text = "null"
            elif math.isfinite(value):
                text = f"{value:.6f}"
            else:
                raise NumericsError(f"non-finite {name} ({value}) in the report of {r.model}")
            cells.append(f'"{name}": {text}')
        lines.append("  {" + ", ".join(cells) + "}")
    rows = ",\n".join(lines)
    return f"[\n{rows}\n]\n" if rows else "[\n]\n"


def emit_report(
    results: dict[str, BacktestResult],
    costs: CostModel,
    out_dir,
    use_gross: bool = False,
) -> tuple[str, str]:
    """Write report.json (one row per model plus market) and nav_curves.csv.

    Both are written to temp files first, so a failed write leaves the
    previous report.json and nav_curves.csv as they were. All results must
    cover the same window; the oracle is computed once from that window's
    market returns under the given cost model.
    """
    if not results:
        raise ValueError("no backtest results to report")
    items = sorted(results.items())
    first = items[0][1]
    for _, res in items[1:]:
        if res.dates != first.dates or not np.array_equal(res.market_returns,
                                                          first.market_returns):
            raise DataError("backtest results cover different windows")
    if len(first.rewards) < 2:  # annualized_metrics needs two daily returns
        raise DataError(f"a report needs at least 2 test days, got {len(first.rewards)}")
    oracle = oracle_actions(first.market_returns, costs)
    reports = [performance_report(res, oracle, name, use_gross) for name, res in items]
    reports.append(market_report(first, oracle))

    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    curves_path = os.path.join(out_dir, "nav_curves.csv")
    report_text = render_report_json(reports)  # raises before any file is written

    def write_curves(path: str) -> None:
        days = [d.isoformat() for d in first.dates]  # every result has these dates
        curves = [(name, res.agent_nav) for name, res in items] + [("market", first.market_nav)]
        lines = ["date,model,nav\n"]
        for name, navs in curves:
            lines += [f"{day},{name},{nav:.6f}\n" for day, nav in zip(days, navs.tolist())]
        with open(path, "w", newline="") as fh:
            fh.write("".join(lines))

    write_all({report_path: report_text, curves_path: write_curves})
    return report_path, curves_path
