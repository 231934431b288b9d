"""Command-line surface: prepare, synth, train, evaluate, report.

Runs are driven by a flat ``key = value`` config file whose defaults reproduce
the standard hyperparameter set, so an empty config is a valid full setup.
Every command validates its whole configuration before writing anything.

Exit codes: 0 ok, 2 config/validation failure, 3 runtime/numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from datetime import date

from .agent import AgentConfig, EpsilonSchedule
from .env import COST_PRESETS, CostModel, EnvConfig
from .errors import CheckpointError, ConfigError, DataError, NumericsError
from .evaluation import emit_report, render_report_json, run_backtest, PerformanceReport
from .market_data import (
    MODEL_ROLES,
    ModelId,
    SplitSpec,
    build_features,
    load_csv,
    read_frame_csv,
    split,
    synth_generate,
    write_frame_csv,
)
from .net import NetConfig
from .training import (
    TrainConfig,
    load_checkpoint,
    run_training,
    save_checkpoint,
    write_log_csv,
    write_summary_json,
)

ASSET_ROLES = ("spx", "russell", "wti", "gold")


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# key -> (parser, default); None defaults are derived later
CONFIG_SCHEMA: dict[str, tuple] = {
    "model": (int, 0),
    "seed": (int, 0),
    "episodes": (int, 1000),
    "episode_length": (int, 252),
    "discount": (float, 0.9),
    "learning_rate": (float, 1e-4),
    "epsilon_start": (float, 1.0),
    "epsilon_end": (float, 0.01),
    "epsilon_knee": (float, 0.1),
    "linear_until": (int, None),
    "target_sync": (int, 100),
    "target_sync_unit": (str, "steps"),
    "replay_capacity": (int, 1_000_000),
    "batch_size": (int, 4096),
    "warmup": (int, None),
    "trading_cost": (float, 1e-4),
    "time_cost": (float, 1e-5),
    "ewma_decay": (float, 0.94),
    "horizon_scaled": (_parse_bool, False),
    "dropout": (float, 0.1),
    "l2_activity": (float, 1e-6),
    "early_stop_streak": (int, 25),
    "ma_window": (int, 50),
    "train_start": (date.fromisoformat, None),
    "train_end": (date.fromisoformat, None),
    "test_end": (date.fromisoformat, None),
    **{f"data.{role}": (str, None) for role in ASSET_ROLES},
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    @property
    def model(self) -> ModelId:
        m = self.values["model"]
        if m not in (0, 1, 2, 3):
            raise ConfigError(f"model must be 0..3, got {m}")
        return ModelId(m)

    def costs(self) -> CostModel:
        return CostModel(self.values["trading_cost"], self.values["time_cost"])

    def split_spec(self) -> SplitSpec:
        for key in ("train_start", "train_end", "test_end"):
            if self.values[key] is None:
                raise ConfigError(f"config key {key!r} is required")
        return SplitSpec(self.values["train_start"], self.values["train_end"],
                         self.values["test_end"])


def load_config(path: str | None) -> RunConfig:
    """Parse a flat key=value config file; unknown keys are an error."""
    values = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in CONFIG_SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            parser = CONFIG_SCHEMA[key][0]
            try:
                values[key] = parser(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return RunConfig(values)


def _apply_overrides(config: RunConfig, args) -> None:
    if getattr(args, "seed", None) is not None:
        config.values["seed"] = args.seed
    if getattr(args, "model", None) is not None:
        config.values["model"] = args.model
    if getattr(args, "costs", None) is not None:
        preset = COST_PRESETS[args.costs]
        config.values["trading_cost"] = preset.trading_cost
        config.values["time_cost"] = preset.time_cost


def _validate_ranges(config: RunConfig) -> None:
    v = config.values
    checks = [
        (v["episodes"] >= 1, "episodes must be >= 1"),
        (v["episode_length"] >= 1, "episode_length must be >= 1"),
        (0.0 <= v["discount"] <= 1.0, "discount must be in [0, 1]"),
        (v["learning_rate"] > 0, "learning_rate must be > 0"),
        (0 < v["ewma_decay"] < 1, "ewma_decay must be in (0, 1)"),
        (0 <= v["dropout"] < 1, "dropout must be in [0, 1)"),
        (v["l2_activity"] >= 0, "l2_activity must be >= 0"),
        (v["trading_cost"] >= 0, "trading_cost must be >= 0"),
        (v["time_cost"] >= 0, "time_cost must be >= 0"),
        (v["target_sync"] >= 1, "target_sync must be >= 1"),
        (1 <= v["batch_size"] <= v["replay_capacity"],
         "batch_size must be in [1, replay_capacity]"),
        (v["early_stop_streak"] >= 1, "early_stop_streak must be >= 1"),
        (v["ma_window"] >= 1, "ma_window must be >= 1"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    config.model  # range-checks the model id


def _output_paths(out_dir: str, names: list[str], force: bool) -> dict[str, str]:
    paths = {name: os.path.join(out_dir, name) for name in names}
    if not force:
        existing = [p for p in paths.values() if os.path.exists(p)]
        if existing:
            raise ConfigError(
                f"output exists (use --force to overwrite): {', '.join(sorted(existing))}"
            )
    return paths


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_atomic_with(path: str, writer_fn) -> None:
    tmp = path + ".tmp"
    writer_fn(tmp)
    os.replace(tmp, path)


def cmd_prepare(args) -> int:
    config = load_config(args.config)
    _apply_overrides(config, args)
    _validate_ranges(config)
    model = config.model
    spec = config.split_spec()
    series_by_role = {}
    asset_meta = {}
    for role in MODEL_ROLES[model]:
        path = config.values[f"data.{role}"]
        if path is None:
            raise ConfigError(f"{model.name} needs config key 'data.{role}'")
        series = load_csv(path, asset_id=role)
        series_by_role[role] = series
        asset_meta[role] = {"path": path, "rows": len(series), "dropped": series.drop_count}
    frame = build_features(
        model, series_by_role,
        decay=config.values["ewma_decay"],
        horizon_scaled=config.values["horizon_scaled"],
    )
    train_frame, test_frame = split(frame, spec)
    os.makedirs(args.out, exist_ok=True)
    paths = _output_paths(args.out, ["train_frame.csv", "test_frame.csv", "prepare.json"],
                          args.force)
    _write_atomic_with(paths["train_frame.csv"], lambda p: write_frame_csv(train_frame, p))
    _write_atomic_with(paths["test_frame.csv"], lambda p: write_frame_csv(test_frame, p))
    provenance = {
        "model": model.name,
        "ewma_decay": config.values["ewma_decay"],
        "horizon_scaled": config.values["horizon_scaled"],
        "columns": [list(c) for c in frame.columns],
        "assets": asset_meta,
        "split": {
            "train_start": spec.train_start.isoformat(),
            "train_end": spec.train_end.isoformat(),
            "test_end": spec.test_end.isoformat(),
        },
        "train": {
            "rows": len(train_frame),
            "first_date": train_frame.dates[0].isoformat(),
            "last_date": train_frame.dates[-1].isoformat(),
        },
        "test": {
            "rows": len(test_frame),
            "first_date": test_frame.dates[0].isoformat(),
            "last_date": test_frame.dates[-1].isoformat(),
        },
    }
    _write_atomic(paths["prepare.json"], json.dumps(provenance, indent=2, sort_keys=True) + "\n")
    print(f"prepared {model.name}: {len(train_frame)} train rows, {len(test_frame)} test rows")
    return 0


def cmd_synth(args) -> int:
    series = synth_generate(
        mu=args.mu, sigma=args.sigma, n_days=args.days, seed=args.seed,
        regime=args.regime, start=date.fromisoformat(args.start_date),
        start_price=args.start_price,
    )
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    if os.path.exists(args.out) and not args.force:
        raise ConfigError(f"output exists (use --force to overwrite): {args.out}")
    lines = ["date,close\n"]
    lines += [f"{d.isoformat()},{float(close)!r}\n" for d, close in zip(series.dates, series.closes)]
    _write_atomic(args.out, "".join(lines))
    print(f"wrote {len(series)} synthetic closes to {args.out}")
    return 0


def _train_config_from(config: RunConfig, frame) -> TrainConfig:
    v = config.values
    episodes = v["episodes"]
    linear_until = v["linear_until"]
    if linear_until is None:
        linear_until = max(1, episodes // 2)
    net_config = NetConfig(
        input_dim=frame.n_features,
        dropout_rate=v["dropout"],
        l2_activity=v["l2_activity"],
    )
    return TrainConfig(
        env=EnvConfig(frame=frame, episode_length=v["episode_length"], costs=config.costs()),
        agent=AgentConfig(
            net=net_config,
            gamma=v["discount"],
            lr=v["learning_rate"],
            batch_size=v["batch_size"],
            target_sync_every=v["target_sync"],
            target_sync_unit=v["target_sync_unit"],
            replay_capacity=v["replay_capacity"],
            warmup=v["warmup"],
        ),
        schedule=EpsilonSchedule(
            total_episodes=episodes,
            linear_until=linear_until,
            eps_start=v["epsilon_start"],
            eps_end=v["epsilon_end"],
            eps_knee=v["epsilon_knee"],
        ),
        episodes=episodes,
        early_stop_streak=v["early_stop_streak"],
        ma_window=v["ma_window"],
        seed=v["seed"],
    )


def cmd_train(args) -> int:
    config = load_config(args.config)
    _apply_overrides(config, args)
    _validate_ranges(config)
    frame = read_frame_csv(args.frame, config.model)
    train_config = _train_config_from(config, frame)
    os.makedirs(args.out, exist_ok=True)
    paths = _output_paths(args.out, ["train_log.csv", "train_summary.json", "checkpoint.json"],
                          args.force)
    started = time.monotonic()
    log, agent = run_training(train_config)
    wall = time.monotonic() - started
    _write_atomic_with(paths["train_log.csv"], lambda p: write_log_csv(log, p))
    _write_atomic_with(paths["train_summary.json"], lambda p: write_summary_json(log, p, wall))
    _write_atomic_with(paths["checkpoint.json"], lambda p: save_checkpoint(agent, p))
    print(
        f"trained {config.model.name}: {len(log.records)} episodes, {log.termination}"
        + (f" at episode {log.early_stop_episode}" if log.early_stop_episode else "")
    )
    return 0


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    _apply_overrides(config, args)
    _validate_ranges(config)
    agent = load_checkpoint(args.checkpoint, seed=config.values["seed"])
    width = agent.config.net.input_dim
    if args.model is not None:
        model_value = args.model
    elif width in (2, 4, 6, 8):
        model_value = (width // 2) - 1
    else:
        raise DataError(f"checkpoint width {width} maps to no model; pass --model")
    model = ModelId(model_value)
    frame = read_frame_csv(args.frame, model)
    if frame.n_features != width:
        raise DataError(
            f"checkpoint expects {width} input features but frame has {frame.n_features}"
        )
    costs = config.costs()
    result = run_backtest(agent, frame, costs)
    os.makedirs(args.out, exist_ok=True)
    _output_paths(args.out, ["report.json", "nav_curves.csv"], args.force)
    report_path, _ = emit_report({model.name: result}, costs, args.out, use_gross=args.gross)
    print(f"evaluated {model.name} over {len(result.rewards)} days -> {report_path}")
    return 0


def cmd_report(args) -> int:
    rows: dict[str, PerformanceReport] = {}
    for path in args.inputs:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read report {path}: {exc}") from exc
        if not isinstance(data, list):
            raise DataError(f"{path}: expected a list of report rows, got {type(data).__name__}")
        for i, row in enumerate(data):
            if not isinstance(row, dict):
                raise DataError(f"{path}: row {i} is not an object")
            try:
                report = PerformanceReport(
                    model=row["model"], e_r=row["e_r"], std_r=row["std_r"],
                    sharpe=row["sharpe"], mse=row["mse"], accuracy=row["accuracy"],
                    n_days=row["n_days"],
                )
            except KeyError as exc:
                raise DataError(f"{path}: row {i} lacks field {exc}") from None
            rows.setdefault(report.model, report)
    if not rows:
        raise DataError("no report rows found in inputs")
    ordered = [rows[name] for name in sorted(rows)]
    os.makedirs(args.out, exist_ok=True)
    paths = _output_paths(args.out, ["report.json"], args.force)
    _write_atomic(paths["report.json"], render_report_json(ordered))
    print(f"merged {len(args.inputs)} reports into {paths['report.json']} ({len(ordered)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddqn-trader",
        description="Train and evaluate a double deep Q-network trading agent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--model", type=int, choices=(0, 1, 2, 3), help="feature-set model id")
        p.add_argument("--costs", choices=sorted(COST_PRESETS),
                       help="cost preset overriding trading_cost/time_cost")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")

    p = sub.add_parser("prepare", help="build train/test feature frames from price CSVs")
    common(p)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("synth", help="generate a synthetic daily price CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--regime", choices=("trend", "meanrevert", "flat"), default="trend")
    p.add_argument("--mu", type=float, default=0.0005,
                   help="daily drift (alternation amplitude for meanrevert)")
    p.add_argument("--sigma", type=float, default=0.01, help="daily noise volatility")
    p.add_argument("--days", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-date", default="2018-01-01")
    p.add_argument("--start-price", type=float, default=100.0)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="run the training protocol on a prepared frame")
    common(p)
    p.add_argument("--frame", required=True, help="train feature-frame CSV")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="single out-of-sample pass of a trained agent")
    common(p)
    p.add_argument("--checkpoint", required=True, help="agent checkpoint JSON")
    p.add_argument("--frame", required=True, help="test feature-frame CSV")
    p.add_argument("--gross", action="store_true",
                   help="report returns before costs instead of net rewards")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("report", help="merge evaluation reports into one table")
    p.add_argument("inputs", nargs="+", help="report.json files to merge")
    p.add_argument("--out", default="out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DataError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, OSError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
