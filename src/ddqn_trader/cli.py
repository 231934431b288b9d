"""Command-line surface: prepare, synth, train, evaluate, report.

Runs are driven by a flat ``key = value`` config file. Each key sets one field
of a library dataclass, or one parameter of a library function, as listed in
``CONFIG_KEYS``. A key the file leaves out takes that owner's default, so the
defaults and range checks are stated once, in the library.

Commands validate before writing anything, and each builds what it reads.
``train`` builds its ``TrainConfig`` from the train frame. ``prepare`` builds
the same ``TrainConfig`` from the train frame it has just made, so it rejects
whatever ``train`` would. ``evaluate`` builds the ``CostModel`` and checks the
seed as it loads the checkpoint; without the train frame it cannot check the
training keys. Every command rejects unknown keys and values that do not parse.
A command's output files replace the old ones all together or not at all
(:func:`outputs.write_all`).

Exit codes: 0 ok, 2 config/validation failure, 3 runtime/numeric failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import re
import sys
import time
from datetime import date

from .agent import AgentConfig, EpsilonSchedule
from .env import COST_PRESETS, CostModel, EnvConfig
from .errors import CheckpointError, ConfigError, DataError, NumericsError
from .evaluation import emit_report, render_report_json, run_backtest, PerformanceReport
from .market_data import (
    MODEL_ROLES,
    FeatureFrame,
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
from .outputs import write_all
from .training import (
    TrainConfig,
    from_record,
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


# key -> (parser, owner, field): the key sets the field of the dataclass, or
# the parameter of the function, ``owner``
CONFIG_KEYS: dict[str, tuple] = {
    "model": (lambda s: ModelId(int(s)), read_frame_csv, "model_id"),
    "seed": (int, TrainConfig, "seed"),
    "episodes": (int, EpsilonSchedule, "total_episodes"),
    "episode_length": (int, EnvConfig, "episode_length"),
    "discount": (float, AgentConfig, "gamma"),
    "learning_rate": (float, AgentConfig, "lr"),
    "epsilon_start": (float, EpsilonSchedule, "eps_start"),
    "epsilon_end": (float, EpsilonSchedule, "eps_end"),
    "epsilon_knee": (float, EpsilonSchedule, "eps_knee"),
    "linear_until": (int, EpsilonSchedule, "linear_until"),
    "target_sync": (int, AgentConfig, "target_sync_every"),
    "target_sync_unit": (str, AgentConfig, "target_sync_unit"),
    "replay_capacity": (int, AgentConfig, "replay_capacity"),
    "batch_size": (int, AgentConfig, "batch_size"),
    "warmup": (int, AgentConfig, "warmup"),
    "trading_cost": (float, CostModel, "trading_cost"),
    "time_cost": (float, CostModel, "time_cost"),
    "ewma_decay": (float, build_features, "decay"),
    "horizon_scaled": (_parse_bool, build_features, "horizon_scaled"),
    "dropout": (float, NetConfig, "dropout_rate"),
    "l2_activity": (float, NetConfig, "l2_activity"),
    "early_stop_streak": (int, TrainConfig, "early_stop_streak"),
    **{key: (date.fromisoformat, SplitSpec, key)
       for key in ("train_start", "train_end", "test_end")},
    **{f"data.{role}": (str, load_csv, "path") for role in ASSET_ROLES},
}


def load_config(args) -> dict:
    """The keys that ``args.config``, a flat key=value file, sets, parsed, with
    ``--seed``, ``--model`` and ``--costs`` applied; unknown keys are an error."""
    values = {}
    path = args.config
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
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = CONFIG_KEYS[key][0](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    if args.seed is not None:
        values["seed"] = args.seed
    if args.model is not None:
        values["model"] = ModelId(args.model)
    if args.costs is not None:
        preset = COST_PRESETS[args.costs]
        values.update(trading_cost=preset.trading_cost, time_cost=preset.time_cost)
    return values


def _value(values: dict, key: str):
    """The key's value as set, or else its owner's default."""
    if key in values:
        return values[key]
    _, owner, field = CONFIG_KEYS[key]
    default = inspect.signature(owner).parameters[field].default
    if default is inspect.Parameter.empty:
        raise ConfigError(f"config key {key!r} is required")
    return default


def _build(owner, values: dict, **given):
    """``owner(**given)`` with every field the config keys set; a ConfigError is
    reworded with the key names (``discount``, not ``gamma``)."""
    keys = {field: key for key, (_, own, field) in CONFIG_KEYS.items() if own is owner}
    try:
        return owner(**{field: _value(values, key) for field, key in keys.items()}, **given)
    except ConfigError as exc:
        names = re.compile(r"\b(" + "|".join(keys) + r")\b")
        raise ConfigError(names.sub(lambda m: keys[m[1]], str(exc))) from exc


def train_config(values: dict, frame: FeatureFrame) -> TrainConfig:
    """The training setup the config describes for ``frame``."""
    net = _build(NetConfig, values, input_dim=frame.n_features)
    env = _build(EnvConfig, values, frame=frame, costs=_build(CostModel, values))
    schedule = _build(EpsilonSchedule, values)
    return _build(TrainConfig, values, env=env, agent=_build(AgentConfig, values, net=net),
                  schedule=schedule, episodes=schedule.total_episodes)


def _output_paths(out_dir: str, names: list[str], force: bool) -> dict[str, str]:
    paths = {name: os.path.join(out_dir, name) for name in names}
    if not force:
        existing = [p for p in paths.values() if os.path.exists(p)]
        if existing:
            raise ConfigError(
                f"output exists (use --force to overwrite): {', '.join(sorted(existing))}"
            )
    return paths


def cmd_prepare(args) -> int:
    values = load_config(args)
    model = _value(values, "model")
    spec = _build(SplitSpec, values)
    series_by_role = {}
    asset_meta = {}
    for role in MODEL_ROLES[model]:
        key = f"data.{role}"
        if key not in values:
            raise ConfigError(f"{model.name} needs config key {key!r}")
        series = load_csv(values[key], asset_id=role)
        series_by_role[role] = series
        asset_meta[role] = {"path": values[key], "rows": len(series), "dropped": series.drop_count}
    frame = _build(build_features, values, model_id=model, series_by_role=series_by_role)
    train_frame, test_frame = split(frame, spec)
    train_config(values, train_frame)  # reject now what train would reject later
    os.makedirs(args.out, exist_ok=True)
    paths = _output_paths(args.out, ["train_frame.csv", "test_frame.csv", "prepare.json"],
                          args.force)
    provenance = {
        "model": model.name,
        "ewma_decay": _value(values, "ewma_decay"),
        "horizon_scaled": _value(values, "horizon_scaled"),
        "columns": [list(c) for c in frame.columns],
        "assets": asset_meta,
        "split": {
            "train_start": spec.train_start.isoformat(),
            "train_end": spec.train_end.isoformat(),
            "test_end": spec.test_end.isoformat(),
        },
        "train": train_frame.summary(),
        "test": test_frame.summary(),
    }
    write_all({
        paths["train_frame.csv"]: lambda p: write_frame_csv(train_frame, p),
        paths["test_frame.csv"]: lambda p: write_frame_csv(test_frame, p),
        paths["prepare.json"]: json.dumps(provenance, indent=2, sort_keys=True) + "\n",
    })
    print(f"prepared {model.name}: {len(train_frame)} train rows, {len(test_frame)} test rows")
    return 0


def cmd_synth(args) -> int:
    try:
        start = date.fromisoformat(args.start_date)
    except ValueError:
        raise ConfigError(f"--start-date must be a YYYY-MM-DD date, "
                          f"got {args.start_date!r}") from None
    series = synth_generate(
        mu=args.mu, sigma=args.sigma, n_days=args.days, seed=args.seed,
        regime=args.regime, start=start, start_price=args.start_price,
    )
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    if os.path.exists(args.out) and not args.force:
        raise ConfigError(f"output exists (use --force to overwrite): {args.out}")
    lines = ["date,close\n"]
    lines += [f"{d.isoformat()},{float(close)!r}\n" for d, close in zip(series.dates, series.closes)]
    write_all({args.out: "".join(lines)})
    print(f"wrote {len(series)} synthetic closes to {args.out}")
    return 0


def cmd_train(args) -> int:
    values = load_config(args)
    frame = _build(read_frame_csv, values, path=args.frame)
    config = train_config(values, frame)
    os.makedirs(args.out, exist_ok=True)
    paths = _output_paths(args.out, ["train_log.csv", "train_summary.json", "checkpoint.json"],
                          args.force)
    started = time.monotonic()
    log, agent = run_training(config)
    wall = time.monotonic() - started
    write_all({
        paths["train_log.csv"]: lambda p: write_log_csv(log, p),
        paths["train_summary.json"]: lambda p: write_summary_json(log, p, wall),
        paths["checkpoint.json"]: lambda p: save_checkpoint(agent, p),
    })
    print(
        f"trained {frame.model_id.name}: {len(log.records)} episodes, {log.termination}"
        + (f" at episode {log.early_stop_episode}" if log.early_stop_episode else "")
    )
    return 0


def cmd_evaluate(args) -> int:
    values = load_config(args)
    costs = _build(CostModel, values)
    agent = load_checkpoint(args.checkpoint, seed=_value(values, "seed"))
    width = agent.config.net.input_dim
    by_width = {m.n_features: m for m in ModelId}
    if args.model is not None:
        model = ModelId(args.model)
    elif width in by_width:
        model = by_width[width]
    else:
        raise DataError(f"checkpoint width {width} maps to no model; pass --model")
    frame = read_frame_csv(args.frame, model)
    result = run_backtest(agent, frame, costs)
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
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or text encoding
            raise DataError(f"cannot read report {path}: {exc}") from exc
        if not isinstance(data, list):
            raise DataError(f"{path}: expected a list of report rows, got {type(data).__name__}")
        for i, row in enumerate(data):
            report = from_record(PerformanceReport, row, f"{path}: row {i}")
            rows.setdefault(report.model, report)
    if not rows:
        raise DataError("no report rows found in inputs")
    ordered = [rows[name] for name in sorted(rows)]
    os.makedirs(args.out, exist_ok=True)
    paths = _output_paths(args.out, ["report.json"], args.force)
    write_all({paths["report.json"]: render_report_json(ordered)})
    print(f"merged {len(args.inputs)} reports into {paths['report.json']} ({len(ordered)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddqn-trader",
        description="Train and evaluate a double deep Q-network trading agent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
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
