"""Episode loop: resets, per-step learning, NAV logging, early stop, checkpoints.

Each episode resets the environment at a random admissible row, runs exactly
``episode_length`` steps of act/step/store/train, and records whether the
agent's final NAV strictly beat the market's. Training stops early once that
happens ``early_stop_streak`` episodes in a row (the streak resets to zero on
any non-winning episode), otherwise it runs all episodes.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import sys
import typing
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
from .errors import CheckpointError, ConfigError, DataError, NumericsError
from .seeding import rng_streams

CHECKPOINT_VERSION = 2

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
    seed: int = 0

    def __post_init__(self):
        if self.episodes < 1:
            raise ConfigError(f"episodes must be >= 1, got {self.episodes}")
        if self.early_stop_streak < 1:
            raise ConfigError(f"early_stop_streak must be >= 1, got {self.early_stop_streak}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        width, input_dim = self.env.frame.n_features, self.agent.net.input_dim
        if width != input_dim:
            raise ConfigError(f"frame has {width} features but the net's input_dim is {input_dim}")
        if self.schedule.total_episodes < self.episodes:
            raise ConfigError(
                f"schedule covers {self.schedule.total_episodes} episodes, "
                f"need >= {self.episodes}"
            )
        # the ring never holds more transitions than the run stores
        held = min(self.agent.replay_capacity, self.episodes * self.env.episode_length)
        if held < max(self.agent.batch_size, self.agent.effective_warmup):
            raise ConfigError(
                f"no gradient step can run: replay holds at most min(replay_capacity "
                f"{self.agent.replay_capacity}, episodes {self.episodes} x episode_length "
                f"{self.env.episode_length}) = {held} transitions, fewer than "
                f"batch_size {self.agent.batch_size} or warmup {self.agent.effective_warmup}"
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


# Overflow in the net surfaces as a NumericsError naming the layer, so numpy's
# warnings would only repeat it ahead of the one error line.
@np.errstate(over="ignore", invalid="ignore")
def run_training(
    config: TrainConfig, action_override: PolicyOverride | None = None
) -> tuple[TrainLog, Agent]:
    """Run the full training protocol; deterministic per (config, seed, data)."""
    streams = rng_streams(config.seed)
    agent = Agent.create(config.agent, seed=config.seed)
    # A ring that never wraps stores and draws the same slots at any capacity,
    # so it holds no more than the run can store.
    capacity = min(config.agent.replay_capacity, config.episodes * config.env.episode_length)
    buffer = ReplayBuffer(capacity, config.env.frame.values)
    env = TradingEnv(config.env)
    records: list[EpisodeRecord] = []
    streak = 0
    termination = "completed"
    early_stop_episode = None
    for episode in range(config.episodes):
        eps = epsilon_at(config.schedule, episode)
        obs = env.reset(streams["env"])
        for step in range(config.env.episode_length):
            row = env.state.cursor
            if action_override is not None:
                action = int(action_override(obs, streams["epsilon"]))
            else:
                action = select_action(agent, obs, eps, streams["epsilon"])
            result = env.step(action)
            buffer.store(row, action, result.reward, result.done)
            try:
                train_step(agent, buffer)
            except NumericsError as exc:
                raise NumericsError(f"episode {episode}, step {step}: {exc}") from exc
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


def config_snapshot(config: TrainConfig) -> dict:
    frame = config.env.frame
    agent = asdict(config.agent)
    agent["warmup"] = config.agent.effective_warmup
    return {
        "episodes": config.episodes,
        "early_stop_streak": config.early_stop_streak,
        "seed": config.seed,
        "env": {
            "episode_length": config.env.episode_length,
            **asdict(config.env.costs),
            "start": config.env.start,
            "frame": {
                "model": frame.model_id.name,
                "features": frame.n_features,
                **frame.summary(),
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
    record = {
        "version": CHECKPOINT_VERSION,
        "net_config": asdict(cfg.net),
        "agent_config": {key: value for key, value in asdict(cfg).items() if key != "net"},
        "online": agent.online.flat.tolist(),
        "target": agent.target.flat.tolist(),
        "adam": {"m": agent.adam.m.tolist(), "v": agent.adam.v.tolist(), "t": agent.adam.t},
        "gradient_steps": agent.gradient_steps,
    }
    with open(path, "w") as fh:
        _write_json(fh, record)


def _write_json(fh, value) -> None:
    """Write ``json.dump(value, fh)``'s text: a dict (string keys only) entry
    by entry, any other value with one ``json.dumps`` call.

    ``json.dumps`` runs the C encoder, at about half the time of ``json.dump``'s
    pure-Python one. One call for the whole checkpoint held all its pieces at
    once and raised the process's peak RSS by about 1.9 MB; one call per entry
    holds only the largest entry's.
    """
    if not isinstance(value, dict):
        fh.write(json.dumps(value))
        return
    fh.write("{")
    for i, (key, item) in enumerate(value.items()):
        fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
        _write_json(fh, item)
    fh.write("}")


def _exact_keys(what: str, d, expected: set) -> dict:
    """``d``, which must be an object holding exactly the keys ``expected``: no
    default fills in for a missing key, and no unknown key is ignored."""
    if not isinstance(d, dict):
        raise DataError(f"{what} is not an object")
    keys = set(d)
    if keys != expected:
        raise DataError(f"{what} keys: missing {sorted(expected - keys)}, "
                        f"unexpected {sorted(keys - expected)}")
    return d


# field annotation -> (check of a JSON value, what the value must be). A bool
# is no int here, although Python makes it one; NaN, an infinity and an
# integer past the float range all fail the bound on a number.
_RECORD_TYPES = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
            "a finite number"),
    str: (lambda v: type(v) is str, "a string"),
    tuple[int, int]: (lambda v: type(v) is list and len(v) == 2
                      and all(type(x) is int for x in v), "a list of two integers"),
}


def record_type(annotation) -> tuple[Callable[[object], bool], str]:
    """The check and its wording for a field annotated ``annotation``: one of
    ``_RECORD_TYPES``, or such a type ``| None``, which also takes null."""
    args = typing.get_args(annotation)
    if type(None) in args:
        (inner,) = (arg for arg in args if arg is not type(None))
        check, expected = _RECORD_TYPES[inner]
        return (lambda v: v is None or check(v)), f"{expected} or null"
    return _RECORD_TYPES[annotation]


_type_hints = functools.cache(typing.get_type_hints)  # ~0.1 ms a class uncached


def from_record(cls, record, what: str, **given):
    """``cls(**record, **given)``, where ``record``, a JSON object, must hold
    exactly the fields not in ``given``, each of the type its annotation names.

    Raises DataError naming ``what`` and the first bad field.
    """
    hints = _type_hints(cls)
    names = [f.name for f in fields(cls) if f.name not in given]
    _exact_keys(what, record, set(names))
    for name in names:
        check, expected = record_type(hints[name])
        if not check(record[name]):
            shown = json.dumps(record[name])
            shown = shown if len(shown) <= 40 else shown[:37] + "..."
            raise DataError(f"{what} field {name!r} must be {expected}, got {shown}")
    return cls(**record, **given)


def load_checkpoint(path, seed: int = 0) -> Agent:
    """Rebuild an agent from what :func:`save_checkpoint` writes; reject anything else.

    RNG state is not checkpointed; replay/dropout streams are re-derived from
    ``seed``. Replay is not checkpointed either: a run that trains on builds
    its own buffer over its frame.
    """
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot load checkpoint from {path}: {exc}") from exc
    version = record.get("version") if isinstance(record, dict) else None
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r}, expected {CHECKPOINT_VERSION}"
        )
    try:
        _exact_keys("checkpoint", record, {"version", "net_config", "agent_config", "online",
                                           "target", "adam", "gradient_steps"})
        adam = _exact_keys("adam", record["adam"], {"m", "v", "t"})
        net_config = from_record(net.NetConfig, record["net_config"], "net_config")
        config = from_record(AgentConfig, record["agent_config"], "agent_config",
                             net=net_config)
        n = net.param_count(net_config)
        vectors = []
        for name, values in (("online", record["online"]), ("target", record["target"]),
                             ("Adam m", adam["m"]), ("Adam v", adam["v"])):
            try:
                flat = np.array(values)
            except ValueError:  # a ragged nesting of lists
                flat = None
            if flat is None or flat.dtype != np.float64 or flat.shape != (n,):
                raise CheckpointError(f"{name} must be a list of {n} floats")
            if not np.isfinite(flat).all():
                raise CheckpointError(f"non-finite {name} values")
            vectors.append(flat)
        for name, count in (("adam.t", adam["t"]), ("gradient_steps", record["gradient_steps"])):
            if type(count) is not int or count < 0:  # a bool is not an int here
                raise CheckpointError(f"{name} must be an integer >= 0, got {json.dumps(count)}")
        online, target = (net.NetParams.from_flat(v, net_config.layer_shapes) for v in vectors[:2])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    streams = rng_streams(seed)
    return Agent(
        config=config,
        online=online,
        target=target,
        adam=net.AdamState(vectors[2], vectors[3], adam["t"]),
        replay_rng=streams["replay"],
        dropout_rng=streams["dropout"],
        gradient_steps=record["gradient_steps"],
    )
