"""Shared pieces of the workloads: the import of mvcond, operations, spans.

An operation is one call sequence into mvcond that the timed phase runs
and times as a unit. Every call the benchmark makes into an mvcond module
sits inside a span named "<module>.<function>", so a layer's cost is
measured from outside, at the benchmark's own call sites.

Each wl_<name>.py defines Workload(seed, workdir, tr): constructing it is
one set-up (import mvcond, then build, write and validate the inputs),
after which it has .ops, the operation list, and .import_s, and its
layer_metrics(tr, rounds) turns a traced run's spans into metrics.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"


def import_mvcond() -> tuple[SimpleNamespace, float]:
    """Import mvcond afresh from the checkout's sources; (modules, seconds).

    Earlier imports are dropped first, so every set-up repeat pays the
    whole import, compiling from source when no bytecode cache exists.
    """
    package = SRC / "mvcond"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no mvcond sources at {package}")
    for name in [n for n in sys.modules if n == "mvcond" or n.startswith("mvcond.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    start = time.perf_counter()
    cli = importlib.import_module("mvcond.cli")
    seconds = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != package.resolve():
        raise ImportError(f"mvcond was imported from {cli.__file__}, not {package}")
    mods = {
        name: sys.modules[f"mvcond.{name}"]
        for name in ("truthvalues", "syntax", "parser", "semantics", "search", "proof")
    }
    return SimpleNamespace(cli=cli, **mods), seconds


class Op:
    """One timed operation.

    run(tr) makes the calls into mvcond and returns their result;
    check(result) returns a list of problems against the reference
    semantics (run once, before timing); digest(result) is a cheap summary
    that every timed repeat must reproduce exactly. known_fault marks an
    input that fails today because of a named fault in mvcond.
    """

    def __init__(self, kind, run, check, digest, known_fault=False):
        self.kind = kind
        self.run = run
        self.check = check
        self.digest = digest
        self.known_fault = known_fault


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add(self, **counts):
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    def span(self, name):
        return NULL_SPAN


class Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "counts", "failed")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.counts = {}

    def __enter__(self):
        stack = self.tracer.stack
        self.parent = stack[-1] if stack else -1
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = time.perf_counter_ns()
        self.failed = exc_type is not None
        self.tracer.stack.pop()
        return False

    def add(self, **counts):
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    """Spans kept in memory: name, start, end, parent index, counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def span(self, name):
        return Span(self, name)

    def by_name(self) -> dict:
        """name -> {"calls", "failed", "ns", "self_ns", "counts"}.

        ns lists the durations of the calls that returned; self_ns sums
        every call's duration less the time its child spans cover.
        """
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end - span.start
        out: dict = {}
        for k, span in enumerate(self.spans):
            entry = out.setdefault(
                span.name, {"calls": 0, "failed": 0, "ns": [], "self_ns": 0, "counts": {}}
            )
            duration = span.end - span.start
            entry["calls"] += 1
            if span.failed:
                entry["failed"] += 1
            else:
                entry["ns"].append(duration)
            entry["self_ns"] += duration - child_ns[k]
            for key, value in span.counts.items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
        return out

    def dump(self) -> list:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "failed": s.failed, **({"counts": s.counts} if s.counts else {})}
            for s in self.spans
        ]


def layer_of(span_name: str) -> str:
    """The mvcond module a span measures, or "bench" for operation spans."""
    head = span_name.split(".", 1)[0]
    return "bench" if head == "op" else head


def slope(xs, ys) -> float:
    """Least-squares slope of ys against xs."""
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
