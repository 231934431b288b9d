import json

import pytest

from ddqn_trader.cli import main
from ddqn_trader.market_data import load_csv

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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_divergence_exit_code(workspace):
    tmp_path, config = workspace
    bad = tmp_path / "diverge.conf"
    bad.write_text(config.read_text() + "\nlearning_rate = 1e200\n")
    prep, run = tmp_path / "prep", tmp_path / "rundiv"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    code = main(["train", "--config", str(bad), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(run)])
    assert code == 3


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
    frame.write_text("\n".join(frame.read_text().splitlines()[:2]) + "\n")
    capsys.readouterr()
    code = main(["evaluate", "--config", str(config), "--checkpoint",
                 str(run / "checkpoint.json"), "--frame", str(frame),
                 "--out", str(tmp_path / "ev")])
    assert code == 2
    assert "at least 2 frame rows, got 1" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_non_finite_q_values_exit_code(workspace, capsys):
    tmp_path, config = workspace
    prep, run = tmp_path / "prep", tmp_path / "run"
    assert main(["prepare", "--config", str(config), "--out", str(prep)]) == 0
    assert main(["train", "--config", str(config), "--frame", str(prep / "train_frame.csv"),
                 "--out", str(run)]) == 0
    # finite weights that load, but whose Q-values overflow on every test day
    checkpoint = run / "checkpoint.json"
    record = json.loads(checkpoint.read_text())
    for key in ("weights", "biases"):
        record["online"][key] = [[v * 1e120 for v in layer] for layer in record["online"][key]]
    checkpoint.write_text(json.dumps(record))
    capsys.readouterr()
    code = main(["evaluate", "--config", str(config), "--checkpoint", str(checkpoint),
                 "--frame", str(prep / "test_frame.csv"), "--out", str(tmp_path / "ev")])
    assert code == 3
    err = capsys.readouterr().err
    assert "non-finite Q-values" in err and err.count("\n") == 1
    assert not (tmp_path / "ev" / "report.json").exists()
