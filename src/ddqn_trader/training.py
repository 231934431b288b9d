"""Episode loop: resets, per-step learning, NAV logging, early stop, checkpoints.

Each episode resets the environment at a random admissible row, runs exactly
``episode_length`` steps of act/step/store/train, and records whether the
agent's final NAV strictly beat the market's. Training stops early once that
happens ``early_stop_streak`` episodes in a row (the streak resets to zero on
any non-winning episode), otherwise it runs all episodes.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from . import net
from .agent import (
    Agent,
    AgentConfig,
    EpsilonSchedule,
    ReplayBuffer,
    epsilon_at,
    select_action,
    sync_target,
    train_step,
)
from .env import EnvConfig, TradingEnv
from .errors import CheckpointError, ConfigError, NumericsError
from .seeding import rng_streams

CHECKPOINT_VERSION = 1

# Optional policy hook: maps (observation, rng) to an action code. Lets the
# harness drive scripted baselines (random agent, constant positions) through
# the identical episode loop.
PolicyOverride = Callable[[np.ndarray, np.random.Generator], int]


@dataclass(frozen=True)
class TrainConfig:
    env: EnvConfig
    agent: AgentConfig
    schedule: EpsilonSchedule
    episodes: int = 1000
    early_stop_streak: int = 25
    ma_window: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.episodes < 1:
            raise ConfigError(f"episodes must be >= 1, got {self.episodes}")
        if self.early_stop_streak < 1:
            raise ConfigError(f"early_stop_streak must be >= 1, got {self.early_stop_streak}")
        if self.ma_window < 1:
            raise ConfigError(f"ma_window must be >= 1, got {self.ma_window}")
        if self.schedule.total_episodes < self.episodes:
            raise ConfigError(
                f"schedule covers {self.schedule.total_episodes} episodes, "
                f"need >= {self.episodes}"
            )


@dataclass(frozen=True)
class EpisodeRecord:
    episode: int
    epsilon: float
    agent_nav: float
    market_nav: float
    outperformed: bool
    steps: int
    gradient_steps: int  # cumulative


@dataclass
class TrainLog:
    records: list[EpisodeRecord]
    termination: str  # "completed" | "early_stop"
    early_stop_episode: int | None
    config_snapshot: dict


def run_training(
    config: TrainConfig, action_override: PolicyOverride | None = None
) -> tuple[TrainLog, Agent]:
    """Run the full training protocol; deterministic per (config, seed, data)."""
    streams = rng_streams(config.seed)
    agent = Agent.create(config.agent, rngs=streams)
    env = TradingEnv(config.env)
    records: list[EpisodeRecord] = []
    streak = 0
    termination = "completed"
    early_stop_episode = None
    for episode in range(config.episodes):
        eps = epsilon_at(config.schedule, episode)
        obs = env.reset(streams["env"])
        for _ in range(config.env.episode_length):
            if action_override is not None:
                action = int(action_override(obs, streams["epsilon"]))
            else:
                action = select_action(agent, obs, eps, streams["epsilon"])
            result = env.step(action)
            agent.buffer.store(obs, action, result.reward, result.observation, result.done)
            try:
                train_step(agent)
            except NumericsError as exc:
                raise NumericsError(f"episode {episode}: {exc}") from exc
            obs = result.observation
        if (
            config.agent.target_sync_unit == "episodes"
            and (episode + 1) % config.agent.target_sync_every == 0
        ):
            sync_target(agent)
        state = env.state
        outperformed = state.agent_nav > state.market_nav
        records.append(
            EpisodeRecord(
                episode=episode,
                epsilon=eps,
                agent_nav=state.agent_nav,
                market_nav=state.market_nav,
                outperformed=outperformed,
                steps=config.env.episode_length,
                gradient_steps=agent.gradient_steps,
            )
        )
        streak = streak + 1 if outperformed else 0
        if streak >= config.early_stop_streak:
            termination = "early_stop"
            early_stop_episode = episode + 1  # count of completed episodes
            break
    log = TrainLog(records, termination, early_stop_episode, config_snapshot(config))
    return log, agent


def outperformance_ma(log: TrainLog, window: int = 50) -> np.ndarray:
    """Trailing fraction of outperforming episodes; partial windows divide by
    however many episodes exist so far."""
    if not log.records:
        raise ValueError("empty training log")
    flags = np.array([r.outperformed for r in log.records], dtype=np.float64)
    out = np.empty(len(flags))
    for k in range(len(flags)):
        lo = max(0, k - window + 1)
        out[k] = flags[lo : k + 1].mean()
    return out


def config_snapshot(config: TrainConfig) -> dict:
    frame = config.env.frame
    agent = asdict(config.agent)
    agent["warmup"] = config.agent.effective_warmup
    return {
        "episodes": config.episodes,
        "early_stop_streak": config.early_stop_streak,
        "ma_window": config.ma_window,
        "seed": config.seed,
        "env": {
            "episode_length": config.env.episode_length,
            **asdict(config.env.costs),
            "start": config.env.start,
            "frame": {
                "model": frame.model_id.name,
                "rows": len(frame),
                "features": frame.n_features,
                "first_date": frame.dates[0].isoformat(),
                "last_date": frame.dates[-1].isoformat(),
            },
        },
        "agent": agent,
        "schedule": asdict(config.schedule),
    }


def config_hash(snapshot: dict) -> str:
    return hashlib.sha256(json.dumps(snapshot, sort_keys=True).encode()).hexdigest()


def write_log_csv(log: TrainLog, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "epsilon", "agent_nav", "market_nav", "outperformed"])
        for r in log.records:
            writer.writerow(
                [r.episode, repr(r.epsilon), repr(r.agent_nav), repr(r.market_nav),
                 int(r.outperformed)]
            )


def write_summary_json(log: TrainLog, path, wall_time_s: float) -> None:
    summary = {
        "termination": log.termination,
        "early_stop_episode": log.early_stop_episode,
        "episodes_completed": len(log.records),
        "config_hash": config_hash(log.config_snapshot),
        "config": log.config_snapshot,
        "wall_time_s": round(wall_time_s, 3),
    }
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_checkpoint(agent: Agent, path) -> None:
    """Versioned JSON snapshot of both networks, Adam state, and counters.

    Replay contents are deliberately not saved: a resumed run restarts
    collection from an empty buffer.
    """
    cfg = agent.config
    m = net.params_to_dict(net.NetParams.from_flat(agent.adam.m, cfg.net.layer_shapes))
    v = net.params_to_dict(net.NetParams.from_flat(agent.adam.v, cfg.net.layer_shapes))
    record = {
        "version": CHECKPOINT_VERSION,
        "net_config": asdict(cfg.net),
        "agent_config": {key: value for key, value in asdict(cfg).items() if key != "net"},
        "online": net.params_to_dict(agent.online),
        "target": net.params_to_dict(agent.target),
        "adam": {
            "m_weights": m["weights"],
            "m_biases": m["biases"],
            "v_weights": v["weights"],
            "v_biases": v["biases"],
            "t": agent.adam.t,
        },
        "gradient_steps": agent.gradient_steps,
    }
    with open(path, "w") as fh:
        json.dump(record, fh)


def _config_from_dict(cls, d: dict, **given):
    """``cls(**d, **given)``, where ``d`` must hold exactly the fields not in ``given``,
    so no dataclass default fills in for a key the checkpoint lacks."""
    expected = {f.name for f in fields(cls)} - given.keys()
    keys = set(d)
    if keys != expected:
        raise CheckpointError(
            f"{cls.__name__} keys: missing {sorted(expected - keys)}, "
            f"unexpected {sorted(keys - expected)}"
        )
    return cls(**d, **given)


def load_checkpoint(path, seed: int = 0) -> Agent:
    """Rebuild an agent from a checkpoint.

    RNG state is not checkpointed; replay/dropout streams are re-derived from
    ``seed``. The replay buffer starts empty.
    """
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot load checkpoint from {path}: {exc}") from exc
    version = record.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r}, expected {CHECKPOINT_VERSION}"
        )
    try:
        net_config = _config_from_dict(net.NetConfig, record["net_config"])
        config = _config_from_dict(AgentConfig, record["agent_config"], net=net_config)
        online = net.params_from_dict(record["online"], net_config)
        target = net.params_from_dict(record["target"], net_config)
        adam_rec = record["adam"]

        def moment(k: str) -> np.ndarray:
            blocks = {"weights": adam_rec[f"{k}_weights"], "biases": adam_rec[f"{k}_biases"]}
            return net.params_from_dict(blocks, net_config).flat

        adam = net.AdamState(moment("m"), moment("v"), t=int(adam_rec["t"]))
        gradient_steps = int(record["gradient_steps"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    for name, values in (("online", online.flat), ("target", target.flat),
                         ("Adam m", adam.m), ("Adam v", adam.v)):
        if not np.isfinite(values).all():
            raise CheckpointError(f"corrupt checkpoint {path}: non-finite {name} values")
    streams = rng_streams(seed)
    return Agent(
        config=config,
        online=online,
        target=target,
        adam=adam,
        buffer=ReplayBuffer(config.replay_capacity),
        replay_rng=streams["replay"],
        dropout_rng=streams["dropout"],
        gradient_steps=gradient_steps,
    )
