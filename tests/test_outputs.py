import os
from pathlib import Path

import pytest

from ddqn_trader.outputs import write_all


def write_bytes(data):
    def write(path):
        with open(path, "wb") as fh:
            fh.write(data)
    return write


def test_write_all_writes_text_and_writer_outputs(tmp_path):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.bin")
    write_all({a: "one\n", b: write_bytes(b"\x00two")})
    assert (tmp_path / "a.txt").read_bytes() == b"one\n"
    assert (tmp_path / "b.bin").read_bytes() == b"\x00two"
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.bin"]


def test_write_all_failure_replaces_nothing_and_removes_its_temp_files(tmp_path):
    paths = [str(tmp_path / name) for name in ("a", "b", "c")]
    write_all({p: "old" for p in paths})

    def half_written(path):
        with open(path, "w") as fh:
            fh.write("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_all({paths[0]: "new", paths[1]: half_written, paths[2]: "new"})
    assert sorted(os.listdir(tmp_path)) == ["a", "b", "c"]
    assert all(Path(p).read_text() == "old" for p in paths)


def test_write_all_leaves_temp_paths_it_did_not_make(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old")
    (tmp_path / "report.json.tmp").mkdir()
    with pytest.raises(OSError):
        write_all({str(tmp_path / "first.csv"): "new", str(target): "new"})
    assert sorted(os.listdir(tmp_path)) == ["report.json", "report.json.tmp"]
    assert target.read_text() == "old"

    stale = tmp_path / "log.csv.tmp"
    stale.write_text("stale")

    def refuse(path):
        raise OSError("refused")

    with pytest.raises(OSError, match="refused"):
        write_all({str(tmp_path / "log.csv"): refuse})
    assert stale.read_text() == "stale"
