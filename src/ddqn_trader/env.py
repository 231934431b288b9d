"""Episodic daily trading simulator over a feature frame.

One step: the agent observes the feature row at the cursor, picks an action in
{Short, Neutral, Long}, and is paid the raw traded-asset return realized on the
*next* row times its new position, minus costs. Costs are exclusive per step:
a position change pays trading_cost per unit of change (a full flip moves two
units), an unchanged position pays time_cost. NAV is the running sum of
rewards; the market benchmark NAV is the running sum of raw returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import ConfigError
from .market_data import FeatureFrame


class Action(IntEnum):
    SHORT = 0
    NEUTRAL = 1
    LONG = 2

    @property
    def position(self) -> int:
        return self.value - 1


@dataclass(frozen=True)
class CostModel:
    trading_cost: float = 1e-4  # per unit of position change
    time_cost: float = 1e-5  # per step with no change

    def __post_init__(self):
        if not (0 <= self.trading_cost < math.inf and 0 <= self.time_cost < math.inf):
            raise ConfigError(f"costs must be finite and >= 0, got {self}")


COST_PRESETS = {
    "paper": CostModel(1e-4, 1e-5),
    "none": CostModel(0.0, 0.0),
    "high": CostModel(1e-3, 1e-4),
}


@dataclass(frozen=True)
class EnvConfig:
    """``start=None`` draws the episode start row uniformly at reset; an int pins it."""

    frame: FeatureFrame
    episode_length: int = 252
    costs: CostModel = field(default_factory=CostModel)
    start: int | None = None

    def __post_init__(self):
        if self.episode_length < 1:
            raise ConfigError(f"episode_length must be >= 1, got {self.episode_length}")
        if self.episode_length > len(self.frame) - 1:
            raise ConfigError(
                f"episode_length {self.episode_length} needs at least "
                f"{self.episode_length + 1} frame rows, got {len(self.frame)}"
            )
        if self.start is not None and not 0 <= self.start <= self.max_start:
            raise ConfigError(f"fixed start {self.start} outside [0, {self.max_start}]")

    @property
    def max_start(self) -> int:
        return len(self.frame) - 1 - self.episode_length


@dataclass
class EnvState:
    t: int
    cursor: int
    position: int
    agent_nav: float
    market_nav: float
    done: bool


@dataclass(frozen=True)
class StepResult:
    observation: np.ndarray
    reward: float
    done: bool
    position: int
    trade_count: int
    cost_paid: float
    market_return: float


class TradingEnv:
    """Single-owner environment; independent instances may share one frame."""

    def __init__(self, config: EnvConfig):
        self.config = config
        self._state: EnvState | None = None

    @property
    def state(self) -> EnvState:
        if self._state is None:
            raise RuntimeError("environment not reset")
        return self._state

    def reset(self, rng: np.random.Generator | None = None) -> np.ndarray:
        """Start a fresh episode: Neutral position, both NAVs at zero.

        Returns the feature row at the start cursor. Random start mode needs a
        generator.
        """
        cfg = self.config
        if cfg.start is not None:
            start = cfg.start
        else:
            if rng is None:
                raise ConfigError("random start mode requires an rng")
            start = int(rng.integers(0, cfg.max_start + 1))
        self._state = EnvState(
            t=0, cursor=start, position=0, agent_nav=0.0, market_nav=0.0, done=False
        )
        return cfg.frame.values[start]

    def step(self, action: Action | int) -> StepResult:
        """Apply an action and advance one day. Errors after the episode is done."""
        action = Action(action)
        st = self.state
        if st.done:
            raise RuntimeError("episode is done; call reset")
        cfg = self.config
        new_pos = action.position
        trades = abs(new_pos - st.position)
        cost = trades * cfg.costs.trading_cost if trades > 0 else cfg.costs.time_cost
        market_return = float(cfg.frame.target_returns[st.cursor + 1])
        reward = market_return * new_pos - cost

        st.position = new_pos
        st.agent_nav += reward
        st.market_nav += market_return
        st.cursor += 1
        st.t += 1
        st.done = st.t == cfg.episode_length
        return StepResult(
            observation=cfg.frame.values[st.cursor],
            reward=reward,
            done=st.done,
            position=new_pos,
            trade_count=trades,
            cost_paid=cost,
            market_return=market_return,
        )
