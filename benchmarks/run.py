"""Benchmark of the ddqn_trader package: three workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload train_b256 --seed 0 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all --seed 0

One process runs one workload at a time as a closed loop with one caller:
the next iteration starts when the previous one has finished. ``--workload
all`` runs each workload in its own process, one after the other, because a
second BLAS process running alongside inflates timings many times over.

``--trace 0`` reports the end-to-end metrics and patches nothing.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics from the traced ones, plus the tracing overhead. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A result file with machine facts and span
summaries goes to ``.bench_results/`` in the checkout. See NOTES.md for
what each metric should move.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from statistics import median

from numpy import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")
WORKLOAD_NAMES = ("train_b256", "train_b4096", "eval_m3")
SETUP_REPEATS = 5
MIN_UNTRACED = 2  # the same-seed determinism check needs two repeats
HARD_STOP_S = 120.0  # start no iteration after this, whatever --seconds says
# Seconds for which train_* alternate prepare and evaluate after each training.
# They take milliseconds, and a shared machine's speed was seen to switch
# between two levels up to 2x apart every second or two, so their samples are
# spread over the run rather than taken in one burst after a training.
RESAMPLE_S = 4.0

sys.path.insert(0, HERE)
from tracing import Hook, Tracer, install, self_times, tail_percentile  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("env_steps_per_s", "1/s"),
    ("prepare_ms", "ms"),
    ("evaluate_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("market_data", "env", "agent", "net", "training", "evaluation")

PER_LAYER = (
    ("net.loss_and_grads.ms_p50", "ms"),
    ("net.adam_step.ms_p50", "ms"),
    ("net.forward.batch.ms_p50", "ms"),
    ("net.forward.b1.us_p50", "us"),
    ("net.forward.calls_per_grad_step", "count"),
    ("net.minor_faults_per_grad_step", "count"),
    ("agent.train_step.ms_p50", "ms"),
    ("agent.train_step.ms_p90", "ms"),
    ("agent.train_step.useful_ratio", "ratio"),
    ("agent.compute_targets.ms_p50", "ms"),
    ("agent.replay_sample.ms_p50", "ms"),
    ("agent.sync_target.count", "count"),
    ("agent.select_action.us_p50", "us"),
    ("agent.replay_store.us_p50", "us"),
    ("env.step.us_p50", "us"),
    ("env.reset.us_p50", "us"),
    ("training.run_training.self_share", "ratio"),
    ("training.load_checkpoint.ms", "ms"),
    ("evaluation.run_backtest.self_ms", "ms"),
    ("evaluation.oracle_actions.ms", "ms"),
    ("evaluation.emit_report.ms", "ms"),
    ("market_data.build_features.ms", "ms"),
    ("market_data.split.ms", "ms"),
    ("market_data.write_frame_csv.ms", "ms"),
    ("market_data.read_frame_csv.ms", "ms"),
    *((f"layer.{layer}.self_share", "ratio") for layer in LAYERS),
    ("trace.overhead_pct", "%"),
)


def _forward_span(args, kwargs, result):
    states = kwargs.get("states", args[1] if len(args) > 1 else None)
    try:
        rows = len(states)
    except TypeError:
        return None
    return "net.forward.b1" if rows == 1 else "net.forward.batch"


def _train_step_span(args, kwargs, result):
    return "agent.train_step.skipped" if result is None else None


def _hooks() -> list[Hook]:
    p = "ddqn_trader."
    return [
        Hook("market_data.build_features", p + "market_data", "build_features"),
        Hook("market_data.split", p + "market_data", "split"),
        Hook("market_data.write_frame_csv", p + "market_data", "write_frame_csv"),
        Hook("market_data.read_frame_csv", p + "market_data", "read_frame_csv"),
        Hook("env.reset", p + "env", "TradingEnv.reset"),
        Hook("env.step", p + "env", "TradingEnv.step"),
        Hook("agent.select_action", p + "agent", "select_action"),
        Hook("agent.replay_store", p + "agent", "ReplayBuffer.store"),
        Hook("agent.replay_sample", p + "agent", "ReplayBuffer.sample"),
        Hook("agent.compute_targets", p + "agent", "compute_targets"),
        Hook("agent.sync_target", p + "agent", "sync_target"),
        Hook("agent.train_step", p + "agent", "train_step", _train_step_span),
        Hook("net.forward", p + "net", "forward", _forward_span),
        Hook("net.loss_and_grads", p + "net", "loss_and_grads"),
        Hook("net.adam_step", p + "net", "adam_step"),
        Hook("training.run_training", p + "training", "run_training"),
        Hook("training.write_log_csv", p + "training", "write_log_csv"),
        Hook("training.save_checkpoint", p + "training", "save_checkpoint"),
        Hook("training.load_checkpoint", p + "training", "load_checkpoint"),
        Hook("evaluation.run_backtest", p + "evaluation", "run_backtest"),
        Hook("evaluation.oracle_actions", p + "evaluation", "oracle_actions"),
        Hook("evaluation.score_actions", p + "evaluation", "score_actions"),
        Hook("evaluation.emit_report", p + "evaluation", "emit_report"),
    ]


class Ledger:
    """Operations attempted and failed; a failure is a raised error or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.references: dict[str, str] = {}

    def run(self, what: str, fn):
        """Run one operation; return its result, or None if it raised."""
        self.attempted += 1
        try:
            result = fn()
        except Exception:
            self.failed += 1
            print(f"FAILED {what}: raised", file=sys.stderr)
            traceback.print_exc()
            return None
        problems = list(getattr(result, "problems", []))
        digest = getattr(result, "digest", None)
        if digest is not None:
            reference = self.references.setdefault(what, digest)
            if digest != reference:
                problems.append(f"output digest {digest[:12]} != first run's {reference[:12]}")
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)
        return result


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; the fact is informational
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") or k.startswith("MALLOC_")},
    }


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def describe(values: list[float], scale: float = 1.0) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    text = f"median of {len(values)}"
    q = tail_percentile(len(values))
    if q is not None and q > 50.0:
        text += f", p{q:g} {percentile(values, q) * scale:.6g}"
    return text


def import_seconds() -> float:
    """Wall time for a fresh interpreter to start and import numpy and the package."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import numpy, ddqn_trader"
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - started


def measure(workload, seed: int, seconds: float, trace: bool, work_dir: str, ledger: Ledger):
    """Closed loop of iterations for ``seconds``; returns the samples taken."""
    import workloads as wl

    samples = defaultdict(list)
    inputs = None
    for _ in range(SETUP_REPEATS):
        samples["import_s"].append(import_seconds())
        started = time.perf_counter()
        inputs = ledger.run("setup", lambda: wl.setup(workload, seed, work_dir))
        if inputs is None:
            return None
        samples["setup_s"].append(time.perf_counter() - started)
    tracer = Tracer()
    absent: list[str] = []
    loop_started = time.perf_counter()
    last = 0.0
    iteration = 0
    while True:
        elapsed = time.perf_counter() - loop_started
        traced = trace and iteration % 2 == 1
        untraced_done = len(samples["iteration_s.untraced"])
        enough = (untraced_done >= 1 and len(samples["iteration_s.traced"]) >= 1) if trace \
            else untraced_done >= MIN_UNTRACED
        if enough and (elapsed + last > seconds or elapsed > HARD_STOP_S):
            break
        uninstall = None
        if traced:
            uninstall, absent = install(tracer, _hooks(), "ddqn_trader")
        started = time.perf_counter()
        try:
            ok = _iteration(workload, inputs, seed, work_dir, ledger, samples,
                            tracer if traced else None)
        finally:
            if uninstall is not None:
                uninstall()
        last = time.perf_counter() - started
        if not ok:
            break
        samples["iteration_s." + ("traced" if traced else "untraced")].append(last)
        iteration += 1
    return samples, tracer, absent


def _iteration(workload, inputs, seed, work_dir, ledger, samples, tracer) -> bool:
    """prepare -> train -> evaluate, then on train_* prepare/evaluate pairs for
    ``RESAMPLE_S``. ``pipeline_s`` times the first three."""
    import workloads as wl

    def phase(name, fn):
        if tracer is None:
            return ledger.run(name, fn)
        index = tracer.open("bench." + name)
        try:
            return ledger.run(name, fn)
        finally:
            tracer.close(index)

    def prepare():
        prepared = phase("prepare", lambda: wl.prepare(workload, inputs, work_dir))
        if prepared is not None:
            samples["prepare_s"].append(prepared.wall_s)
        return prepared

    def evaluate(prepared, checkpoint) -> bool:
        evaluated = phase("evaluate",
                          lambda: wl.evaluate(workload, prepared, checkpoint, seed, work_dir))
        if evaluated is None:
            return False
        samples["evaluate_s"].append(evaluated.wall_s)
        samples["oracle_accuracy"].append(evaluated.accuracy)
        if workload.episodes is None and tracer is None:
            samples["env_steps"].append(evaluated.env_steps)
            samples["env_steps_wall_s"].append(evaluated.backtest_s)
        return True

    started = time.perf_counter()
    prepared = prepare()
    if prepared is None:
        return False
    checkpoint = inputs.checkpoint
    if workload.episodes is not None:
        trained = phase("train", lambda: wl.train(workload, prepared, seed, work_dir))
        if trained is None:
            return False
        checkpoint = trained.checkpoint
        if tracer is None:
            samples["env_steps"].append(trained.env_steps)
            samples["env_steps_wall_s"].append(trained.wall_s)
            samples["gradient_steps"].append(trained.gradient_steps)
            samples["minor_faults_per_grad_step"].append(
                trained.minor_faults / trained.gradient_steps)
        else:
            samples["gradient_steps.traced"].append(trained.gradient_steps)
    if not evaluate(prepared, checkpoint):
        return False
    samples["pipeline_s." + ("untraced" if tracer is None else "traced")].append(
        time.perf_counter() - started)
    resample_end = time.perf_counter() + (RESAMPLE_S if workload.episodes is not None else 0.0)
    while time.perf_counter() < resample_end:
        prepared = prepare()
        if prepared is None or not evaluate(prepared, checkpoint):
            return False
    return True


def end_to_end(samples) -> dict[str, float]:
    """env_steps_per_s is all env steps of the untraced calls that step the
    env -- ``run_training`` on train_*, every warmup step included, and
    ``run_backtest`` on eval_m3 -- over their summed wall time.

    A training lasts seconds, and a shared machine's speed changed within
    one, so the run's total is steadier than a median of a few trainings.
    """
    return {
        "setup_s": median(samples["import_s"]) + median(samples["setup_s"]),
        "env_steps_per_s": sum(samples["env_steps"]) / sum(samples["env_steps_wall_s"]),
        "prepare_ms": median(samples["prepare_s"]) * 1e3,
        "evaluate_ms": median(samples["evaluate_s"]) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(samples, spans) -> dict[str, float]:
    """Per-layer metrics from the traced iterations' spans.

    A metric whose span never occurred on this workload (training metrics on
    eval_m3, or a hook reported absent) reads 0.
    """
    selfs = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    own: dict[str, list[float]] = defaultdict(list)
    for span, self_s in zip(spans, selfs):
        durations[span.name].append(span.end - span.start)
        own[span.name].append(self_s)
    total = sum(span.end - span.start for span in spans if span.parent < 0)

    def p(name, q, scale, table=durations):
        values = table.get(name)
        return percentile(values, q) * scale if values else 0.0

    def count(name):
        return len(durations.get(name, ()))

    def share(names):
        return sum(sum(own[n]) for n in names) / total if total else 0.0

    grad_steps = sum(samples["gradient_steps.traced"])
    trainings = count("training.run_training")
    train_calls = count("agent.train_step") + count("agent.train_step.skipped")
    faults = samples["minor_faults_per_grad_step"]
    metrics = {
        "net.loss_and_grads.ms_p50": p("net.loss_and_grads", 50, 1e3, own),
        "net.adam_step.ms_p50": p("net.adam_step", 50, 1e3),
        "net.forward.batch.ms_p50": p("net.forward.batch", 50, 1e3),
        "net.forward.b1.us_p50": p("net.forward.b1", 50, 1e6),
        "net.forward.calls_per_grad_step":
            count("net.forward.batch") / grad_steps if grad_steps else 0.0,
        "net.minor_faults_per_grad_step": median(faults) if faults else 0.0,
        "agent.train_step.ms_p50": p("agent.train_step", 50, 1e3),
        "agent.train_step.ms_p90": p("agent.train_step", 90, 1e3),
        "agent.train_step.useful_ratio": count("agent.train_step") / train_calls
        if train_calls else 0.0,
        "agent.compute_targets.ms_p50": p("agent.compute_targets", 50, 1e3),
        "agent.replay_sample.ms_p50": p("agent.replay_sample", 50, 1e3),
        "agent.sync_target.count": count("agent.sync_target") / trainings if trainings else 0.0,
        "agent.select_action.us_p50": p("agent.select_action", 50, 1e6),
        "agent.replay_store.us_p50": p("agent.replay_store", 50, 1e6),
        "env.step.us_p50": p("env.step", 50, 1e6),
        "env.reset.us_p50": p("env.reset", 50, 1e6),
        "training.run_training.self_share":
            sum(own["training.run_training"]) / sum(durations["training.run_training"])
            if trainings else 0.0,
        "training.load_checkpoint.ms": p("training.load_checkpoint", 50, 1e3),
        "evaluation.run_backtest.self_ms": p("evaluation.run_backtest", 50, 1e3, own),
        "evaluation.oracle_actions.ms": p("evaluation.oracle_actions", 50, 1e3),
        "evaluation.emit_report.ms": p("evaluation.emit_report", 50, 1e3),
        "market_data.build_features.ms": p("market_data.build_features", 50, 1e3),
        "market_data.split.ms": p("market_data.split", 50, 1e3),
        "market_data.write_frame_csv.ms": p("market_data.write_frame_csv", 50, 1e3),
        "market_data.read_frame_csv.ms": p("market_data.read_frame_csv", 50, 1e3),
    }
    traced, untraced = samples["pipeline_s.traced"], samples["pipeline_s.untraced"]
    metrics["trace.overhead_pct"] = (median(traced) / median(untraced) - 1.0) * 100.0
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_share"] = share(
            [n for n in own if n.startswith(layer + ".")])
    return metrics


def span_table(spans) -> dict[str, dict]:
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for span, self_s in zip(spans, selfs):
        row = table.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += self_s
    return table


def run_one(args) -> int:
    try:
        import numpy  # noqa: F401

        sys.path.insert(0, SRC)
        import ddqn_trader  # noqa: F401
        import workloads as wl
    except ImportError as exc:
        print(f"error: cannot import the ddqn_trader package from {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    facts = machine_facts()
    facts["loadavg_before"] = loadavg()
    ledger = Ledger()
    work_dir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        measured = measure(workload, args.seed, args.seconds, bool(args.trace), work_dir, ledger)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    facts["loadavg_after"] = loadavg()
    if measured is None or not measured[0]["evaluate_s"]:
        print(f"error: {args.workload} completed no iteration", file=sys.stderr)
        return 1
    samples, tracer, absent = measured

    label = f"{args.workload} seed={args.seed} trace={args.trace}"
    print(f"machine {json.dumps(facts, sort_keys=True)}")
    iterations = len(samples["iteration_s.untraced"]) + len(samples["iteration_s.traced"])
    print(f"{label}: {iterations} iterations")
    if args.trace:
        metrics = per_layer(samples, tracer.spans)
        units = dict(PER_LAYER)
        if absent:
            print(f"absent hooks (their metrics read 0): {', '.join(absent)}")
        for name, unit in PER_LAYER:
            print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")
    else:
        metrics = end_to_end(samples)
        units = dict(END_TO_END)
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} fresh imports "
                       f"({median(samples['import_s']):.4f} s) + median of {SETUP_REPEATS} set-ups",
            "env_steps_per_s": f"{sum(samples['env_steps'])} env steps of "
            f"{len(samples['env_steps'])} "
            + ("run_training" if workload.episodes is not None else "run_backtest")
            + " calls / their wall time",
            "prepare_ms": describe(samples["prepare_s"], 1e3),
            "evaluate_ms": describe(samples["evaluate_s"], 1e3),
            "peak_rss_mb": "getrusage ru_maxrss of this process",
        }
        for name, unit in END_TO_END:
            print(f"  {name:<28} {metrics[name]:>14.6g} {unit:<6} {notes[name]}")

    # Printed and saved, but not gated: grad_step_ms does not exist on eval_m3,
    # oracle_accuracy is checked against a floor on train_b256 (a failure
    # counts in failed), and error_rate is 0 when correct.
    extra = {"oracle_accuracy": (median(samples["oracle_accuracy"]), "ratio",
                                 "greedy agent vs DP oracle on the test rows")}
    if samples["gradient_steps"]:
        extra["grad_step_ms"] = (
            sum(samples["env_steps_wall_s"]) / sum(samples["gradient_steps"]) * 1e3, "ms",
            f"run_training wall / gradient steps, {len(samples['gradient_steps'])} calls")
    extra["error_rate"] = (ledger.failed / ledger.attempted, "ratio",
                           f"{ledger.failed} of {ledger.attempted} operations failed")
    for name, (value, unit, note) in extra.items():
        print(f"  {name:<28} {value:>14.6g} {unit:<6} {note} (not gated)")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "machine": facts, "absent_hooks": absent,
                   "extra": {k: v for k, (v, _, _) in extra.items()},
                   "samples": samples,
                   "spans": span_table(tracer.spans)}, fh, indent=1, sort_keys=True)
    if args.trace:
        with open(stem + ".spans.csv", "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for span in tracer.spans:
                fh.write(f"{span.name},{span.start!r},{span.end!r},{span.parent}\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, strictly one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="how long to keep starting iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
