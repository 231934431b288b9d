"""Span tracing applied from outside the package, plus the statistics the report uses.

The benchmark wraps the package's public functions and methods at run time
(``install``) instead of instrumenting the program. Each wrapper records one
span -- name, start, end and the enclosing span -- and only reads the clock:
it never draws from an RNG or touches its arguments, so a traced run must
produce byte-identical outputs to an untraced one.

A hook that names something the package no longer has is reported as absent
rather than failing the run, so the benchmark keeps working across refactors.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

# Percentiles the report may use for a tail, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
# A percentile is only reported when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root


class Tracer:
    """In-memory span recorder for one thread; spans nest by call order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self._clock(), math.nan, parent))
        self._open.append(index)
        return index

    def close(self, index: int, name: str | None = None) -> None:
        span = self.spans[index]
        span.end = self._clock()
        if name is not None:
            span.name = name
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its child spans' durations.

    ``Tracer`` nests spans by call order on one thread, so a span's children
    are disjoint and lie inside it.
    """
    selfs = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            selfs[span.parent] -= span.end - span.start
    return selfs


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``TAIL_SAMPLES`` of ``n`` samples
    beyond it, or None when even the median has fewer."""
    best = None
    for q in PERCENTILE_LADDER:
        if n * (1.0 - q / 100.0) >= TAIL_SAMPLES - 1e-9:
            best = q
    return best


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` (a function, or ``Class.method``) in spans named ``span``.

    ``rename(args, kwargs, result)`` may return a more specific span name once
    the call has returned, e.g. to separate batch-1 forwards from batch forwards.
    """

    span: str
    module: str
    attr: str
    rename: Callable | None = None


def _wrap(tracer: Tracer, original: Callable, hook: Hook) -> Callable:
    open_span, close_span, name, rename = tracer.open, tracer.close, hook.span, hook.rename

    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = open_span(name)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            close_span(index)
            raise
        close_span(index, rename(args, kwargs, result) if rename is not None else None)
        return result

    return traced


def install(tracer: Tracer, hooks: list[Hook], package: str) -> tuple[Callable[[], None], list[str]]:
    """Patch every hook; return an undo function and the spans whose target is absent.

    A function is patched wherever the package binds it -- the defining module
    and every module that imported the name -- because a caller looks the name
    up in its own module. A method is patched on its class.
    """
    undo: list[tuple[object, str, object]] = []
    absent: list[str] = []
    for hook in hooks:
        try:
            module = importlib.import_module(hook.module)
        except ImportError:
            absent.append(hook.span)
            continue
        owner_name, _, method = hook.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(method) if isinstance(owner, type) else None
            if not callable(original):
                absent.append(hook.span)
                continue
            undo.append((owner, method, original))
            setattr(owner, method, _wrap(tracer, original, hook))
            continue
        original = getattr(module, hook.attr, None)
        if not callable(original):
            absent.append(hook.span)
            continue
        traced = _wrap(tracer, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, binding, original))
                    setattr(mod, binding, traced)

    def uninstall() -> None:
        for owner, binding, original in reversed(undo):
            setattr(owner, binding, original)

    return uninstall, absent
