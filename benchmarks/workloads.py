"""The benchmark's workloads, built from a seed and run through ddqn_trader's public API.

Every workload iteration follows the CLI pipeline: ``prepare`` (features,
split, frame CSVs), then ``train`` (``run_training`` plus log and checkpoint)
on the train_* workloads, then ``evaluate`` (read the test frame, load the
checkpoint, backtest, DP oracle, report). eval_m3 skips ``train`` and
evaluates a fixed-seed untrained M3 checkpoint made at set-up instead.

Each phase times only its calls into the package, then checks its outputs;
a phase returns the list of problems it found, empty when the outputs are
correct.

Package functions are called through their modules (``training.run_training``,
not a local name) so that the traced run's patches see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import time
from dataclasses import dataclass

import numpy as np

from ddqn_trader import evaluation, market_data, net, training
from ddqn_trader.agent import Agent, AgentConfig, EpsilonSchedule
from ddqn_trader.env import COST_PRESETS, CostModel, EnvConfig
from ddqn_trader.market_data import FeatureFrame, ModelId, PriceSeries, SplitSpec
from ddqn_trader.net import NetConfig
from ddqn_trader.training import TrainConfig


@dataclass(frozen=True)
class Workload:
    name: str
    model: ModelId
    # (role, regime, mu, sigma) per synthetic price series
    assets: tuple[tuple[str, str, float, float], ...]
    n_days: int
    train_end: int  # frame row index of the last training day (negative counts from the end)
    costs: CostModel
    episodes: int | None  # None: no training, evaluate a fixed-seed untrained checkpoint
    batch_size: int
    replay_capacity: int
    schedule_episodes: int
    # Lowest greedy-vs-oracle accuracy on the test rows that counts as correct:
    # a guard against a "speed-up" that breaks learning. None: not checked.
    min_accuracy: float | None = None
    episode_length: int = 252

    def agent_config(self) -> AgentConfig:
        return AgentConfig(
            net=NetConfig(input_dim=self.model.n_features),
            batch_size=self.batch_size,
            replay_capacity=self.replay_capacity,
        )


WORKLOADS = {
    # Criterion-06 set-up with early stop off: small-batch gradient steps, where
    # per-call Python and allocation overhead dominates the kernels.
    "train_b256": Workload(
        name="train_b256",
        model=ModelId.M0,
        assets=(("spx", "meanrevert", 0.01, 0.0),),
        n_days=700,
        train_end=420,
        costs=COST_PRESETS["none"],
        episodes=10,
        batch_size=256,
        replay_capacity=100_000,
        schedule_episodes=200,
        min_accuracy=0.9,
    ),
    # Paper defaults (batch 4096, one-batch warmup, 1M replay, paper costs, sync
    # every 100 steps) on M3: the same layers bound by FLOPs and memory traffic.
    "train_b4096": Workload(
        name="train_b4096",
        model=ModelId.M3,
        assets=(
            ("spx", "meanrevert", 0.01, 0.002),
            ("russell", "trend", 3e-4, 0.012),
            ("wti", "trend", 0.0, 0.02),
            ("gold", "trend", 2e-4, 0.009),
        ),
        n_days=1000,
        train_end=-251,
        costs=COST_PRESETS["paper"],
        episodes=17,
        batch_size=4096,
        replay_capacity=1_000_000,
        schedule_episodes=1000,
    ),
    # No gradient steps: frame I/O, batch-1 forwards, env stepping and the DP
    # oracle over a ~750-day test window, like the paper's 2020-22 window.
    "eval_m3": Workload(
        name="eval_m3",
        model=ModelId.M3,
        assets=(
            ("spx", "trend", 3e-4, 0.011),
            ("russell", "trend", 3e-4, 0.014),
            ("wti", "trend", 0.0, 0.024),
            ("gold", "trend", 2e-4, 0.009),
        ),
        n_days=5000,
        train_end=-751,
        costs=COST_PRESETS["paper"],
        episodes=None,
        batch_size=4096,
        replay_capacity=1_000_000,
        schedule_episodes=1000,
    ),
}


def sha256(*paths: str) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def all_finite(value) -> bool:
    """True when every float in a parsed JSON document is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        value = list(value.values())
    return not isinstance(value, list) or all(all_finite(v) for v in value)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@dataclass
class Inputs:
    series: dict[str, PriceSeries]
    spec: SplitSpec
    checkpoint: str | None  # eval_m3's fixed checkpoint
    digest: str  # of everything set-up produced, to check set-up is deterministic


def setup(w: Workload, seed: int, work_dir: str) -> Inputs:
    """Generate the inputs from the seed, build features once and warm the net
    at the batch sizes the workload uses, so lazy library set-up is not timed
    later."""
    series = {
        role: market_data.synth_generate(
            mu, sigma, w.n_days, seed * 8 + k, regime=regime, asset_id=role
        )
        for k, (role, regime, mu, sigma) in enumerate(w.assets)
    }
    frame = market_data.build_features(w.model, series)
    spec = SplitSpec(frame.dates[0], frame.dates[w.train_end], frame.dates[-1])
    config = w.agent_config()
    scratch_rng = np.random.default_rng(0)  # never the workload's own streams
    params = net.init_params(config.net, scratch_rng)
    batch = w.batch_size if w.episodes is not None else 1
    states = scratch_rng.standard_normal((batch, config.net.input_dim))
    if w.episodes is not None:
        net.loss_and_grads(params, states, np.zeros(batch, dtype=np.int64),
                           np.zeros(batch), config.net, rng=scratch_rng)
    net.forward(params, states[:1], config.net)
    digest = hashlib.sha256(frame.values.tobytes() + frame.target_returns.tobytes())
    checkpoint = None
    if w.episodes is None:
        checkpoint = os.path.join(work_dir, "fixed_checkpoint.json")
        training.save_checkpoint(Agent.create(config, seed=seed), checkpoint)
        digest.update(sha256(checkpoint).encode())
    return Inputs(series, spec, checkpoint, digest.hexdigest())


@dataclass
class Prepared:
    wall_s: float
    train_frame: FeatureFrame
    test_frame: FeatureFrame
    test_path: str
    digest: str


def prepare(w: Workload, inputs: Inputs, work_dir: str) -> Prepared:
    train_path = os.path.join(work_dir, "train_frame.csv")
    test_path = os.path.join(work_dir, "test_frame.csv")
    started = time.perf_counter()
    frame = market_data.build_features(w.model, inputs.series)
    train_frame, test_frame = market_data.split(frame, inputs.spec)
    market_data.write_frame_csv(train_frame, train_path)
    market_data.write_frame_csv(test_frame, test_path)
    wall = time.perf_counter() - started
    return Prepared(wall, train_frame, test_frame, test_path, sha256(train_path, test_path))


@dataclass
class Trained:
    wall_s: float
    env_steps: int
    gradient_steps: int
    minor_faults: int
    checkpoint: str
    digest: str  # train log and checkpoint
    problems: list[str]


def train_config(w: Workload, frame: FeatureFrame, seed: int) -> TrainConfig:
    return TrainConfig(
        env=EnvConfig(frame=frame, episode_length=w.episode_length, costs=w.costs),
        agent=w.agent_config(),
        schedule=EpsilonSchedule(total_episodes=w.schedule_episodes,
                                 linear_until=w.schedule_episodes // 2),
        episodes=w.episodes,
        early_stop_streak=w.episodes + 1,  # early stop off: the episode count is fixed
        seed=seed,
    )


def train(w: Workload, prepared: Prepared, seed: int, work_dir: str) -> Trained:
    config = train_config(w, prepared.train_frame, seed)
    faults = minor_faults()
    started = time.perf_counter()
    log, agent = training.run_training(config)
    wall = time.perf_counter() - started
    faults = minor_faults() - faults
    log_path = os.path.join(work_dir, "train_log.csv")
    checkpoint = os.path.join(work_dir, "checkpoint.json")
    training.write_log_csv(log, log_path)
    training.save_checkpoint(agent, checkpoint)

    problems = []
    env_steps = w.episodes * w.episode_length
    expected_steps = env_steps - config.agent.effective_warmup + 1
    if agent.gradient_steps != expected_steps:
        problems.append(f"gradient_steps {agent.gradient_steps} != env steps {env_steps} "
                        f"- warmup {config.agent.effective_warmup} + 1")
    if log.termination != "completed" or len(log.records) != w.episodes:
        problems.append(f"training ended {log.termination} after {len(log.records)} episodes")
    navs = [nav for r in log.records for nav in (r.agent_nav, r.market_nav)]
    if not np.all(np.isfinite(navs)):
        problems.append("non-finite NAV in the train log")
    # A non-finite loss raises NumericsError inside training. The weights are
    # checked through the checkpoint, whatever its layout.
    with open(checkpoint) as fh:
        if not all_finite(json.load(fh)):
            problems.append("non-finite value in the checkpoint")
    return Trained(wall, env_steps, agent.gradient_steps, faults, checkpoint,
                   sha256(log_path, checkpoint), problems)


@dataclass
class Evaluated:
    wall_s: float
    backtest_s: float
    env_steps: int
    accuracy: float
    digest: str  # report.json and nav_curves.csv
    problems: list[str]


def evaluate(w: Workload, prepared: Prepared, checkpoint: str, seed: int,
             work_dir: str) -> Evaluated:
    out_dir = os.path.join(work_dir, "report")
    started = time.perf_counter()
    frame = market_data.read_frame_csv(prepared.test_path, w.model)
    agent = training.load_checkpoint(checkpoint, seed=seed)
    backtest_started = time.perf_counter()
    result = evaluation.run_backtest(agent, frame, w.costs)
    backtest = time.perf_counter() - backtest_started
    oracle = evaluation.oracle_actions(frame.target_returns[1:], w.costs)
    _, accuracy = evaluation.score_actions(result.actions, oracle)
    report_path, curves_path = evaluation.emit_report({w.model.name: result}, w.costs, out_dir)
    wall = time.perf_counter() - started

    problems = []
    expected = prepared.test_frame
    if not (frame.dates == expected.dates and np.array_equal(frame.values, expected.values)
            and np.array_equal(frame.target_returns, expected.target_returns)):
        problems.append("test frame does not round-trip through its CSV exactly")
    if not np.array_equal(result.agent_nav, np.cumsum(result.rewards)):
        problems.append("agent_nav != cumsum(rewards)")
    if np.any(result.rewards > result.gross_returns):
        problems.append("a reward exceeds its pre-cost return")
    if w.min_accuracy is not None and not accuracy >= w.min_accuracy:
        problems.append(f"oracle accuracy {accuracy:.4f} < {w.min_accuracy}")
    return Evaluated(wall, backtest, len(result.rewards), accuracy,
                     sha256(report_path, curves_path), problems)
