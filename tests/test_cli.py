import ast
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ddqn_trader import cli
from ddqn_trader.agent import MAX_REPLAY_CAPACITY, Agent, AgentConfig, EpsilonSchedule
from ddqn_trader.cli import CONFIG_KEYS, main
from ddqn_trader.env import CostModel, EnvConfig
from ddqn_trader.market_data import ModelId, load_csv, read_frame_csv
from ddqn_trader.net import NetConfig
from ddqn_trader.training import TrainConfig, config_hash, config_snapshot, save_checkpoint

from conftest import version_1_record, with_head

SMOKE_CONFIG = """
# desk-scale smoke setup
episodes = 3
episode_length = 20
batch_size = 8
replay_capacity = 512
learning_rate = 1e-3
linear_until = 1
train_start = {train_start}
train_end = {train_end}
test_end = {test_end}
data.spx = {spx}
data.russell = {russell}
"""


@pytest.fixture
def workspace(tmp_path):
    """Two synthetic price CSVs plus a smoke config covering them."""
    spx = tmp_path / "spx.csv"
    russell = tmp_path / "russell.csv"
    assert main(["synth", "--out", str(spx), "--days", "120", "--seed", "1",
                 "--sigma", "0.01"]) == 0
    assert main(["synth", "--out", str(russell), "--days", "120", "--seed", "2",
                 "--sigma", "0.012"]) == 0
    series = load_csv(spx)
    dates = series.dates
    config = tmp_path / "run.conf"
    config.write_text(
        SMOKE_CONFIG.format(
            train_start=dates[6].isoformat(),
            train_end=dates[80].isoformat(),
            test_end=dates[-1].isoformat(),
            spx=spx,
            russell=russell,
        )
    )
    return tmp_path, config


def test_synth_output_loads_and_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["synth", "--out", str(a), "--days", "50", "--seed", "3"]) == 0
    assert main(["synth", "--out", str(b), "--days", "50", "--seed", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(load_csv(a)) == 50


def test_synth_refuses_overwrite_without_force(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["synth", "--out", str(out), "--days", "20"]) == 0
    assert main(["synth", "--out", str(out), "--days", "20"]) == 2
    assert main(["synth", "--out", str(out), "--days", "20", "--force"]) == 0


def test_prepare_writes_frames_and_provenance(workspace):
    tmp_path, config = workspace
    out = tmp_path / "prep"
    assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "train_frame.csv").exists()
    assert (out / "test_frame.csv").exists()
    provenance = json.loads((out / "prepare.json").read_text())
    assert provenance["model"] == "M0"
    assert provenance["ewma_decay"] == 0.94
    assert provenance["assets"]["spx"]["dropped"] == 0
    assert provenance["train"]["rows"] > 0


def test_prepare_deterministic(workspace):
    tmp_path, config = workspace
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    assert main(["prepare", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["prepare", "--config", str(config), "--out", str(out2)]) == 0
    assert (out1 / "train_frame.csv").read_bytes() == (out2 / "train_frame.csv").read_bytes()
    assert (out1 / "prepare.json").read_bytes() == (out2 / "prepare.json").read_bytes()


def test_prepare_failed_write_replaces_nothing(workspace, capsys):
    tmp_path, config = workspace
    out = tmp_path / "prep"
    assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    changed = tmp_path / "decay.conf"
    changed.write_text(config.read_text() + "ewma_decay = 0.9\n")
    (out / "prepare.json.tmp").mkdir()  # its write fails after both frames are written
    code = main(["prepare", "--config", str(changed), "--out", str(out), "--force"])
    assert code == 3
    assert "prepare.json.tmp" in capsys.readouterr().err
    after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert after == before  # old frames, old provenance, and no temp file
    assert sorted(p.name for p in out.iterdir()) == sorted([*before, "prepare.json.tmp"])
    (out / "prepare.json.tmp").rmdir()
    assert main(["prepare", "--config", str(changed), "--out", str(out), "--force"]) == 0
    assert json.loads((out / "prepare.json").read_text())["ewma_decay"] == 0.9
    assert (out / "train_frame.csv").read_bytes() != before["train_frame.csv"]


def test_prepare_missing_asset_named(workspace):
    tmp_path, config = workspace
    out = tmp_path / "prep3"
    code = main(["prepare", "--config", str(config), "--model", "3", "--out", str(out)])
    assert code == 2
    assert not out.exists() or not list(out.iterdir())  # no partial outputs


def test_unknown_config_key_rejected_before_outputs(workspace):
    tmp_path, config = workspace
    bad = tmp_path / "bad.conf"
    bad.write_text(config.read_text() + "\nlearnig_rate = 0.1\n")
    out = tmp_path / "nope"
    assert main(["prepare", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


def test_removed_ma_window_key_is_unknown(workspace, capsys):
    tmp_path, config = workspace
    old = tmp_path / "old.conf"
    text = config.read_text() + "ma_window = 50\n"
    old.write_text(text)
    capsys.readouterr()
    assert main(["train", "--config", str(old), "--frame", str(tmp_path / "none.csv"),
                 "--out", str(tmp_path / "run")]) == 2
    line = text.count("\n")
    assert _one_error_line(capsys) == f"error: {old}:{line}: unknown config key 'ma_window'\n"
    assert not (tmp_path / "run").exists()


def test_bad_config_value_rejected(workspace):
    tmp_path, config = workspace
    bad = tmp_path / "bad2.conf"
    bad.write_text(config.read_text() + "\ndiscount = 1.5\n")
    assert main(["prepare", "--config", str(bad), "--out", str(tmp_path / "n2")]) == 2


def test_full_pipeline_train_evaluate_report(workspace):
    tmp_path, config = workspace
    prep, run, ev = tmp_path / "prep", tmp_path / "run", tmp_path / "eval"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    assert main(["train", "--config", str(config), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(run)]) == 0

    log_lines = (run / "train_log.csv").read_text().strip().splitlines()
    assert log_lines[0] == "episode,epsilon,agent_nav,market_nav,outperformed"
    assert len(log_lines) == 4  # header + 3 episodes
    summary = json.loads((run / "train_summary.json").read_text())
    assert summary["episodes_completed"] == 3

    assert main(["evaluate", "--config", str(config), "--checkpoint",
                 str(run / "checkpoint.json"), "--frame", str(prep / "test_frame.csv"),
                 "--out", str(ev)]) == 0
    rows = json.loads((ev / "report.json").read_text())
    assert [r["model"] for r in rows] == ["M0", "market"]
    for row in rows:
        assert set(row) == {"accuracy", "e_r", "model", "mse", "n_days", "sharpe", "std_r"}

    merged = tmp_path / "merged"
    assert main(["report", "--out", str(merged), str(ev / "report.json")]) == 0
    merged_rows = json.loads((merged / "report.json").read_text())
    assert [r["model"] for r in merged_rows] == ["M0", "market"]


def test_train_deterministic_across_runs(workspace):
    tmp_path, config = workspace
    prep = tmp_path / "prep"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--config", str(config), "--frame",
                     str(prep / "train_frame.csv"), "--out", str(out)]) == 0
        runs.append((out / "train_log.csv").read_bytes())
    assert runs[0] == runs[1]


def test_train_seed_override_changes_log(workspace):
    tmp_path, config = workspace
    prep = tmp_path / "prep"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    out1, out2 = tmp_path / "s0", tmp_path / "s1"
    assert main(["train", "--config", str(config), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(out1)]) == 0
    assert main(["train", "--config", str(config), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(out2), "--seed", "123"]) == 0
    assert (out1 / "train_log.csv").read_bytes() != (out2 / "train_log.csv").read_bytes()


def test_cost_preset_applied(workspace):
    tmp_path, config = workspace
    prep, run = tmp_path / "prep", tmp_path / "runhigh"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    assert main(["train", "--config", str(config), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(run), "--costs", "high"]) == 0
    summary = json.loads((run / "train_summary.json").read_text())
    assert summary["config"]["env"]["trading_cost"] == 1e-3
    assert summary["config"]["env"]["time_cost"] == 1e-4


def test_evaluate_width_mismatch_exit_code(workspace, tmp_path):
    ws, config = workspace
    prep, run = ws / "prep", ws / "run"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    assert main(["train", "--config", str(config), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(run)]) == 0
    # M1 frame against the M0-width checkpoint
    prep1 = ws / "prep1"
    assert main(["prepare", "--config", str(config), "--model", "1", "--out", str(prep1)]) == 0
    code = main(["evaluate", "--config", str(config), "--checkpoint",
                 str(run / "checkpoint.json"), "--frame", str(prep1 / "test_frame.csv"),
                 "--out", str(ws / "evbad")])
    assert code == 2


def test_evaluate_checkpoint_width_of_no_model_exit_code(workspace, capsys):
    ws, config = workspace
    prep = ws / "prep"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    checkpoint = ws / "width3.json"
    save_checkpoint(Agent.create(AgentConfig(net=NetConfig(input_dim=3))), checkpoint)
    capsys.readouterr()
    code = main(["evaluate", "--config", str(config), "--checkpoint", str(checkpoint),
                 "--frame", str(prep / "test_frame.csv"), "--out", str(ws / "ev")])
    assert code == 2
    assert _one_error_line(capsys) == (
        "error: checkpoint width 3 maps to no model; pass --model\n")
    assert not (ws / "ev").exists()


@pytest.mark.parametrize("corrupt, message", [
    (lambda record: with_head(record, 5), "online must be a list of 4547 floats"),
    (version_1_record, "unsupported checkpoint version 1, expected 2"),
    (lambda record: dict(record, adam=dict(record["adam"], t=2.5)),
     "adam.t must be an integer >= 0, got 2.5"),
    (lambda record: dict(record, gradient_steps=-4), "gradient_steps must be an integer >= 0"),
    (lambda record: dict(record, replay=[]),
     r"checkpoint keys: missing \[\], unexpected \['replay'\]"),
], ids=["head-5-wide", "version-1", "fractional-t", "negative-steps", "unknown-key"])
def test_evaluate_rejected_checkpoint_exit_code(workspace, capsys, corrupt, message):
    ws, config = workspace
    prep = ws / "prep"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    checkpoint = ws / "checkpoint.json"
    save_checkpoint(Agent.create(AgentConfig(net=NetConfig(input_dim=2))), checkpoint)
    checkpoint.write_text(json.dumps(corrupt(json.loads(checkpoint.read_text()))))
    capsys.readouterr()
    code = main(["evaluate", "--config", str(config), "--checkpoint", str(checkpoint),
                 "--frame", str(prep / "test_frame.csv"), "--out", str(ws / "ev")])
    assert code == 2
    assert re.search(message, _one_error_line(capsys))
    assert not (ws / "ev" / "report.json").exists()


@pytest.mark.parametrize("block, field, value, expected", [
    ("agent_config", "lr", True, "a finite number, got true"),
    ("agent_config", "batch_size", True, "an integer, got true"),
    ("net_config", "dropout_rate", False, "a finite number, got false"),
    ("agent_config", "target_sync_every", 2.0, "an integer, got 2.0"),
    ("agent_config", "gamma", "0.5", 'a finite number, got "0.5"'),
    ("net_config", "hidden_dims", [64, 64.0], "a list of two integers, got [64, 64.0]"),
    ("agent_config", "warmup", 2.5, "an integer or null, got 2.5"),
    ("net_config", "l2_activity", float("nan"), "a finite number, got NaN"),
    ("agent_config", "target_sync_unit", ["steps"] * 9,
     'a string, got ["steps", "steps", "steps", "steps", ...'),  # cut to 40 chars
], ids=["lr-true", "batch-true", "dropout-false", "sync-2.0", "gamma-string",
        "hidden-float", "warmup-2.5", "l2-nan", "unit-list"])
def test_evaluate_badly_typed_checkpoint_config_exit_code(workspace, capsys, block, field,
                                                          value, expected):
    ws, config = workspace
    prep = ws / "prep"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    checkpoint = ws / "checkpoint.json"
    save_checkpoint(Agent.create(AgentConfig(net=NetConfig(input_dim=2))), checkpoint)
    record = json.loads(checkpoint.read_text())
    record[block][field] = value
    checkpoint.write_text(json.dumps(record))
    capsys.readouterr()
    code = main(["evaluate", "--config", str(config), "--checkpoint", str(checkpoint),
                 "--frame", str(prep / "test_frame.csv"), "--out", str(ws / "ev")])
    assert code == 2
    assert _one_error_line(capsys) == (
        f"error: corrupt checkpoint {checkpoint}: {block} field '{field}' must be {expected}\n")
    assert not (ws / "ev").exists()


def test_prepare_zero_close_names_file(workspace, capsys):
    tmp_path, config = workspace
    spx = tmp_path / "spx.csv"
    lines = spx.read_text().splitlines()
    day = lines[3].split(",")[0]
    lines[3] = f"{day},0.0"
    spx.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "prep")]) == 2
    assert _one_error_line(capsys) == f"error: {spx}: spx: non-positive close on {day}\n"


def test_numeric_divergence_exit_code(workspace, capsys):
    # Each layer's overflow is a NumericsError naming it; numpy's own
    # RuntimeWarnings would land on stderr ahead of that one line.
    tmp_path, config = workspace
    bad = tmp_path / "diverge.conf"
    bad.write_text(config.read_text() + "\nlearning_rate = 1e200\n")
    prep, run = tmp_path / "prep", tmp_path / "rundiv"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    capsys.readouterr()
    code = main(["train", "--config", str(bad), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(run)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: episode 0, step ") and err.count("\n") == 1, err


def test_train_refuses_overwrite_without_force(workspace):
    tmp_path, config = workspace
    prep, run = tmp_path / "prep", tmp_path / "runf"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    args = ["train", "--config", str(config), "--frame", str(prep / "train_frame.csv"),
            "--out", str(run)]
    assert main(args) == 0
    assert main(args) == 2
    assert main(args + ["--force"]) == 0


@pytest.mark.parametrize("content", [
    {"model": "M0"},  # an object instead of a list of rows
    [{"model": "M0", "e_r": 0.1}],  # a row missing fields
])
def test_report_malformed_input_exit_code(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(content))
    assert main(["report", "--out", str(tmp_path / "merged"), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


GOOD_ROW = {"model": "M0", "e_r": 0.1, "std_r": 0.2, "sharpe": 0.5, "mse": 1.0,
            "accuracy": 0.5, "n_days": 10}


@pytest.mark.parametrize("field, value", [
    ("n_days", "ten"),  # was written bare, as invalid JSON
    ("model", 7),  # was written unquoted
    ("sharpe", True),  # was written as 1.000000
    ("e_r", "abc"),  # was a TypeError traceback
    ("n_days", True),
    ("n_days", 10.0),
    ("mse", None),
    ("accuracy", [0.5]),
    ("std_r", float("nan")),
    ("e_r", float("-inf")),
    pytest.param("e_r", 10**400, id="e_r-huge-int"),
])
def test_report_badly_typed_field_exit_code(tmp_path, capsys, field, value):
    path = tmp_path / "report.json"
    path.write_text(json.dumps([GOOD_ROW, {**GOOD_ROW, "model": "M1", field: value}]))
    out = tmp_path / "merged"
    assert main(["report", "--out", str(out), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: row 1 field '{field}' must be ")
    assert err.count("\n") == 1
    assert not (out / "report.json").exists()


def test_report_unknown_field_exit_code(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps([{**GOOD_ROW, "momentum": 0.5}]))
    out = tmp_path / "merged"
    assert main(["report", "--out", str(out), str(path)]) == 2
    assert _one_error_line(capsys) == (
        f"error: {path}: row 0 keys: missing [], unexpected ['momentum']\n")
    assert not out.exists()


def test_report_undecodable_input_exit_code(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_bytes(b"\xff\xfe[")  # was a UnicodeDecodeError traceback
    assert main(["report", "--out", str(tmp_path / "merged"), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read report {path}: ") and err.count("\n") == 1


def test_report_accepts_integer_metrics_and_null_sharpe(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps([{**GOOD_ROW, "e_r": 2, "sharpe": None}]))
    assert main(["report", "--out", str(tmp_path / "merged"), str(path)]) == 0
    text = (tmp_path / "merged" / "report.json").read_text()
    assert '"e_r": 2.000000' in text and '"sharpe": null' in text


def test_evaluate_non_numeric_frame_cell_exit_code(workspace, capsys):
    tmp_path, config = workspace
    prep, run = tmp_path / "prep", tmp_path / "run"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    assert main(["train", "--config", str(config), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(run)]) == 0
    frame = prep / "test_frame.csv"
    lines = frame.read_text().splitlines()
    lines[1] = lines[1].replace(",", ",abc", 1)
    frame.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["evaluate", "--config", str(config), "--checkpoint",
                 str(run / "checkpoint.json"), "--frame", str(frame),
                 "--out", str(tmp_path / "ev")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_evaluate_one_row_frame_exit_code(workspace, capsys):
    tmp_path, config = workspace
    prep, run = tmp_path / "prep", tmp_path / "run"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    assert main(["train", "--config", str(config), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(run)]) == 0
    frame = prep / "test_frame.csv"
    lines = frame.read_text().splitlines()
    # one row is no test day; two rows are one, too few for annualized metrics
    for rows, message in ((1, "at least 2 frame rows, got 1"), (2, "at least 2 test days, got 1")):
        frame.write_text("\n".join(lines[: 1 + rows]) + "\n")
        capsys.readouterr()
        code = main(["evaluate", "--config", str(config), "--checkpoint",
                     str(run / "checkpoint.json"), "--frame", str(frame),
                     "--out", str(tmp_path / "ev")])
        assert code == 2
        assert message in _one_error_line(capsys)
        assert not (tmp_path / "ev").exists()


def test_evaluate_non_finite_q_values_exit_code(workspace, capsys):
    tmp_path, config = workspace
    prep, run = tmp_path / "prep", tmp_path / "run"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    assert main(["train", "--config", str(config), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(run)]) == 0
    # finite weights that load, but whose Q-values overflow on every test day
    checkpoint = run / "checkpoint.json"
    record = json.loads(checkpoint.read_text())
    record["online"] = [v * 1e120 for v in record["online"]]
    checkpoint.write_text(json.dumps(record))
    capsys.readouterr()
    code = main(["evaluate", "--config", str(config), "--checkpoint", str(checkpoint),
                 "--frame", str(prep / "test_frame.csv"), "--out", str(tmp_path / "ev")])
    assert code == 3
    err = capsys.readouterr().err
    assert "non-finite Q-values" in err and err.count("\n") == 1
    assert not (tmp_path / "ev" / "report.json").exists()


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("line", ["trading_cost = inf", "trading_cost = nan", "time_cost = inf"])
def test_non_finite_cost_exit_code(workspace, capsys, line):
    tmp_path, config = workspace
    prep, run = tmp_path / "prep", tmp_path / "run"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    assert main(["train", "--config", str(config), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(run)]) == 0
    bad = tmp_path / "bad.conf"
    bad.write_text(config.read_text() + f"\n{line}\n")
    capsys.readouterr()
    assert main(["train", "--config", str(bad), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(tmp_path / "run_bad")]) == 2
    assert "cost" in _one_error_line(capsys)
    assert main(["evaluate", "--config", str(bad), "--checkpoint", str(run / "checkpoint.json"),
                 "--frame", str(prep / "test_frame.csv"), "--out", str(tmp_path / "ev")]) == 2
    assert "cost" in _one_error_line(capsys)
    assert not (tmp_path / "ev" / "report.json").exists()


def test_replay_capacity_past_ceiling_exit_code(workspace, capsys):
    tmp_path, config = workspace
    prep = tmp_path / "prep"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    bad = tmp_path / "bad.conf"
    bad.write_text(config.read_text() + "\nreplay_capacity = 1000000000000000000000000000000\n")
    capsys.readouterr()
    assert main(["train", "--config", str(bad), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(tmp_path / "run")]) == 2
    assert _one_error_line(capsys) == (
        f"error: replay_capacity must be in [1, 1000000000], got {10**30}\n")
    assert not (tmp_path / "run").exists()


def test_evaluate_checkpoint_replay_capacity_past_ceiling_exit_code(workspace, capsys):
    ws, config = workspace
    prep = ws / "prep"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    checkpoint = ws / "checkpoint.json"
    save_checkpoint(Agent.create(AgentConfig(net=NetConfig(input_dim=2))), checkpoint)
    record = json.loads(checkpoint.read_text())
    record["agent_config"]["replay_capacity"] = 10**30
    checkpoint.write_text(json.dumps(record))
    capsys.readouterr()
    code = main(["evaluate", "--config", str(config), "--checkpoint", str(checkpoint),
                 "--frame", str(prep / "test_frame.csv"), "--out", str(ws / "ev")])
    assert code == 2
    assert _one_error_line(capsys) == (
        f"error: corrupt checkpoint {checkpoint}: replay_capacity must be in "
        f"[1, 1000000000], got {10**30}\n")
    assert not (ws / "ev").exists()


def _main_under_4gib(*argv):
    """``cli.main(argv)`` in a child process limited to 4 GiB of address space."""
    child = textwrap.dedent(f"""
        import resource, sys
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, ({4 << 30}, hard))
        from ddqn_trader import cli
        sys.exit(cli.main(sys.argv[1:]))
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", child, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_evaluate_checkpoint_at_replay_ceiling_maps_no_buffer(workspace):
    # Evaluation stores no transition, so a checkpoint whose training run may
    # replay up to 10**9 transitions (25 GB of address space) evaluates in a
    # child process limited to 4 GiB of it.
    ws, config = workspace
    prep = ws / "prep"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    checkpoint = ws / "checkpoint.json"
    save_checkpoint(Agent.create(AgentConfig(net=NetConfig(input_dim=2))), checkpoint)
    record = json.loads(checkpoint.read_text())
    record["agent_config"]["replay_capacity"] = MAX_REPLAY_CAPACITY
    checkpoint.write_text(json.dumps(record))
    done = _main_under_4gib("evaluate", "--config", config, "--checkpoint", checkpoint,
                            "--frame", prep / "test_frame.csv", "--out", ws / "ev")
    assert done.returncode == 0, done.stderr
    assert (ws / "ev" / "report.json").exists()


def test_train_at_replay_ceiling_maps_only_the_run(workspace):
    # 2 episodes of 20 steps store 40 transitions, so the replay ring holds 40
    # slots, not the 10**9 (25 GB of address space) the config allows.
    ws, config = workspace
    prep = ws / "prep"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    big = ws / "big.conf"
    big.write_text(config.read_text()
                   + f"\nepisodes = 2\nreplay_capacity = {MAX_REPLAY_CAPACITY}\n")
    done = _main_under_4gib("train", "--config", big, "--frame", prep / "train_frame.csv",
                            "--out", ws / "run")
    assert done.returncode == 0, done.stderr
    assert (ws / "run" / "checkpoint.json").exists()


def test_negative_seed_exit_code(workspace, capsys):
    tmp_path, config = workspace
    prep, run = tmp_path / "prep", tmp_path / "run"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(run), "--seed", "-1"]) == 2
    assert "seed must be >= 0" in _one_error_line(capsys)


@pytest.mark.parametrize("args, message", [
    (["--days", "5"], "n_days must be >= 10"),
    (["--sigma", "-1"], "sigma must be"),
    (["--mu", "1e6"], "not finite"),
    (["--sigma", "1e308"], "not finite"),
    (["--start-date", "bad"], "--start-date must be a YYYY-MM-DD date, got 'bad'"),
    (["--start-date", "9999-12-30", "--days", "20"], "at most 2 weekdays"),
    (["--days", "100000000000000"], "runs past 9999-12-31"),
    (["--days", str(10**20)], "runs past 9999-12-31"),
    (["--seed", "-1"], "seed must be >= 0"),
])
def test_synth_bad_number_exit_code(tmp_path, capsys, args, message):
    out = tmp_path / "x.csv"
    assert main(["synth", "--out", str(out)] + args) == 2
    assert message in _one_error_line(capsys)
    assert not out.exists()


def _prepare_and_train(tmp_path, config, name="run"):
    prep, run = tmp_path / "prep", tmp_path / name
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    assert main(["train", "--config", str(config), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(run)]) == 0
    return prep, run


@pytest.mark.parametrize("line, key, field", [
    ("discount = 1.5", "discount", "gamma"),
    ("learning_rate = 0", "learning_rate", "lr"),
    ("target_sync = 0", "target_sync", "target_sync_every"),
    ("dropout = 1", "dropout", "dropout_rate"),
    ("episodes = 0", "episodes", "total_episodes"),
    ("epsilon_start = 2", "epsilon_start", "eps_start"),
    ("epsilon_end = 0", "epsilon_end", "eps_end"),
    ("epsilon_knee = 0.001", "epsilon_knee", "eps_knee"),
    ("ewma_decay = 1.5", "ewma_decay", "decay"),
])
def test_bad_value_message_names_the_config_key(workspace, capsys, line, key, field):
    tmp_path, config = workspace
    bad = tmp_path / "bad.conf"
    bad.write_text(config.read_text() + f"\n{line}\n")
    capsys.readouterr()
    assert main(["prepare", "--config", str(bad), "--out", str(tmp_path / "prep")]) == 2
    err = _one_error_line(capsys)
    assert re.search(rf"\b{key}\b", err) and not re.search(rf"\b{field}\b", err), err
    assert ", got " in err


@pytest.mark.parametrize("line", [
    "learning_rate = inf", "l2_activity = nan", "epsilon_start = inf", "warmup = -1",
    "linear_until = 5", "target_sync_unit = foo", "seed = -3", "early_stop_streak = 0",
])
def test_prepare_and_train_reject_the_same_values(workspace, capsys, line):
    tmp_path, config = workspace
    prep = tmp_path / "prep"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    bad = tmp_path / "bad.conf"
    bad.write_text(config.read_text() + f"\n{line}\n")
    key = line.split()[0]
    capsys.readouterr()
    assert main(["prepare", "--config", str(bad), "--out", str(tmp_path / "prep_bad")]) == 2
    assert key in _one_error_line(capsys)
    assert not (tmp_path / "prep_bad").exists()
    assert main(["train", "--config", str(bad), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(tmp_path / "run_bad")]) == 2
    assert key in _one_error_line(capsys)
    assert not (tmp_path / "run_bad").exists()


@pytest.mark.parametrize("lines", [
    "warmup = 60\nreplay_capacity = 50",  # the ring never reaches the warmup
    "episodes = 1\nbatch_size = 32",  # one 20-step episode stores less than a batch
], ids=["ring_below_warmup", "run_below_batch"])
def test_prepare_and_train_reject_a_run_without_gradient_steps(workspace, capsys, lines):
    tmp_path, config = workspace
    prep = tmp_path / "prep"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    bad = tmp_path / "bad.conf"
    bad.write_text(config.read_text() + f"\n{lines}\n")
    capsys.readouterr()
    assert main(["prepare", "--config", str(bad), "--out", str(tmp_path / "prep_bad")]) == 2
    assert "no gradient step can run" in _one_error_line(capsys)
    assert not (tmp_path / "prep_bad").exists()
    assert main(["train", "--config", str(bad), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(tmp_path / "run_bad")]) == 2
    assert "no gradient step can run" in _one_error_line(capsys)
    assert not (tmp_path / "run_bad").exists()


def test_prepare_rejects_episode_longer_than_train_frame(workspace, capsys):
    tmp_path, config = workspace
    bad = tmp_path / "bad.conf"
    bad.write_text(config.read_text() + "\nepisode_length = 500\n")
    capsys.readouterr()
    assert main(["prepare", "--config", str(bad), "--out", str(tmp_path / "prep")]) == 2
    assert "episode_length 500 needs at least 501 frame rows" in _one_error_line(capsys)
    assert not (tmp_path / "prep").exists()


def test_evaluate_ignores_training_only_keys(workspace):
    tmp_path, config = workspace
    prep, run = _prepare_and_train(tmp_path, config)
    other = tmp_path / "other.conf"
    other.write_text(config.read_text() + "\ndiscount = 1.5\nbatch_size = 4096\n")
    assert main(["evaluate", "--config", str(other), "--checkpoint", str(run / "checkpoint.json"),
                 "--frame", str(prep / "test_frame.csv"), "--out", str(tmp_path / "ev")]) == 0


def test_model_set_in_config_file_is_honoured(workspace):
    tmp_path, config = workspace
    m1 = tmp_path / "m1.conf"
    m1.write_text(config.read_text() + "\nmodel = 1\n")
    prep, run = _prepare_and_train(tmp_path, m1)
    assert json.loads((prep / "prepare.json").read_text())["model"] == "M1"
    frame = json.loads((run / "train_summary.json").read_text())["config"]["env"]["frame"]
    assert (frame["model"], frame["features"]) == ("M1", 4)


def test_train_summary_config_defaults_come_from_dataclasses(workspace):
    tmp_path, config = workspace
    prep, run = _prepare_and_train(tmp_path, config)
    frame = read_frame_csv(prep / "train_frame.csv", ModelId.M0)
    by_hand = TrainConfig(
        env=EnvConfig(frame=frame, episode_length=20),
        agent=AgentConfig(net=NetConfig(input_dim=frame.n_features), lr=1e-3, batch_size=8,
                          replay_capacity=512),
        schedule=EpsilonSchedule(total_episodes=3, linear_until=1),
        episodes=3,
    )
    summary = json.loads((run / "train_summary.json").read_text())
    assert summary["config"] == json.loads(json.dumps(config_snapshot(by_hand)))
    assert summary["config_hash"] == config_hash(config_snapshot(by_hand))


def test_config_keys_name_owner_fields_and_match_readme():
    for key, (_, owner, field) in CONFIG_KEYS.items():
        assert field in inspect.signature(owner).parameters, (key, owner, field)
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Config file", 1)[1].split("```")[1]
    assert sorted(re.findall(r"([\w.]+) = ", block)) == sorted(CONFIG_KEYS)


# Config fields that no config key and no argument of cli.train_config sets, and
# why each may stay unset from the CLI. Any other such field is a setting only
# the tests can reach.
CLI_UNSET_FIELDS = {
    (NetConfig, "hidden_dims"): "criteria 02 and 03 check gradients and targets on small nets",
    (EnvConfig, "start"): "criterion 05 pins episode starts",
}


def test_every_config_field_is_set_by_the_cli():
    set_by_cli = {(owner, field) for _, owner, field in CONFIG_KEYS.values()}
    tree = ast.parse(textwrap.dedent(inspect.getsource(cli.train_config)))
    for call in ast.walk(tree):  # the keyword arguments of each _build(Owner, values, ...)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_build":
            owner = getattr(cli, call.args[0].id)
            set_by_cli |= {(owner, keyword.arg) for keyword in call.keywords}
    fields = {(cls, f.name)
              for cls in (NetConfig, AgentConfig, EpsilonSchedule, CostModel, EnvConfig,
                          TrainConfig)
              for f in dataclasses.fields(cls)}
    unset = fields - set_by_cli - CLI_UNSET_FIELDS.keys()
    assert not unset, sorted(f"{cls.__name__}.{name}" for cls, name in unset)
    assert CLI_UNSET_FIELDS.keys() <= fields - set_by_cli  # no stale exception
