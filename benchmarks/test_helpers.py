"""Unit tests for the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

import json
import os
import sys
import types

import pytest

from tracing import (
    Hook,
    Span,
    Tracer,
    install,
    self_times,
    tail_percentile,
)

HERE = os.path.dirname(os.path.abspath(__file__))


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 4.0, 8.0, 0),
        Span("b.child", 5.0, 6.0, 2),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_tracer_nests_by_call_order():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 5.0))
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner, name="inner.renamed")
    tracer.close(outer)
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 5.0, -1),
        ("inner.renamed", 1.0, 2.0, 0),
    ]


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def _fake_package():
    """A two-module package where one module imports the other's function by name."""
    core = types.ModuleType("fakepkg.core")

    def work(x):
        return x + 1

    class Box:
        def get(self):
            return 42

    core.work, core.Box = work, Box
    user = types.ModuleType("fakepkg.user")
    user.work = work
    pkg = types.ModuleType("fakepkg")
    pkg.core, pkg.user = core, user
    return {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}


def test_install_patches_every_binding_and_uninstall_restores(monkeypatch):
    modules = _fake_package()
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    core, user = modules["fakepkg.core"], modules["fakepkg.user"]
    original = core.work
    tracer = Tracer()
    hooks = [Hook("core.work", "fakepkg.core", "work"), Hook("core.box", "fakepkg.core", "Box.get")]
    uninstall, absent = install(tracer, hooks, "fakepkg")
    assert absent == []
    assert user.work(1) == 2 and core.work(2) == 3 and core.Box().get() == 42
    assert [s.name for s in tracer.spans] == ["core.work", "core.work", "core.box"]
    uninstall()
    assert core.work is original and user.work is original
    assert "get" in vars(core.Box) and core.Box.get.__name__ == "get"
    core.work(0)
    assert len(tracer.spans) == 3


def test_missing_hooks_are_reported_not_raised(monkeypatch):
    for name, module in _fake_package().items():
        monkeypatch.setitem(sys.modules, name, module)
    hooks = [
        Hook("gone.function", "fakepkg.core", "renamed_away"),
        Hook("gone.method", "fakepkg.core", "Box.renamed_away"),
        Hook("gone.class", "fakepkg.core", "NoSuchClass.get"),
        Hook("gone.module", "fakepkg.no_such_module", "work"),
        Hook("core.work", "fakepkg.core", "work"),
    ]
    uninstall, absent = install(Tracer(), hooks, "fakepkg")
    uninstall()
    assert absent == ["gone.function", "gone.method", "gone.class", "gone.module"]


def test_wrapper_closes_span_when_the_call_raises(monkeypatch):
    modules = _fake_package()

    def boom():
        raise KeyError("x")

    modules["fakepkg.core"].boom = boom
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    tracer = Tracer()
    uninstall, _ = install(tracer, [Hook("core.boom", "fakepkg.core", "boom")], "fakepkg")
    with pytest.raises(KeyError):
        modules["fakepkg.core"].boom()
    uninstall()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer.open("next") == 1 and tracer.spans[1].parent == -1


def test_benchmark_json_names_match_the_runner():
    import run
    import workloads

    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_all_finite_walks_nested_json():
    import workloads

    assert workloads.all_finite({"a": [1.0, [2.5, {"b": 3}]], "t": 4, "s": "x"})
    assert not workloads.all_finite({"a": [1.0, [2.5, {"b": float("nan")}]]})
    assert not workloads.all_finite([float("inf")])
