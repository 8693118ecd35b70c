"""Benchmark for mvcond: one closed-loop workload per run, in one process.

    python3 perfbench/run.py --workload search|formulas|models \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; mvcond is imported from its src/. The
run sets the workload up SETUP_REPEATS times (each time importing mvcond
afresh and building, writing and validating every input from the seed),
runs the operation list once and checks every result against the
reference semantics in oracle.py, then repeats the whole operation list,
one operation in flight at a time, until S seconds have passed. Each
operation is timed against a reference loop run just before it, so that
operation times read in milliseconds of the reference host whatever speed
the shared host runs at (see reference_ms). The last line of stdout is one
JSON object: correct, attempted, failed, metrics.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
run interleaves traced and untraced rounds of the named workload, runs
one traced round of each other workload, and reports the per-layer
metrics and the tracing overhead; the spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

# The same import cost in every run: mvcond is compiled from source, and
# no bytecode cache is written, or read (main points pycache_prefix at a
# directory that does not exist).
sys.dont_write_bytecode = True

import oracle  # noqa: E402
from common import NullTracer, Tracer, layer_of  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "formulas", "models")
SETUP_REPEATS = 5
MIN_ROUNDS = 3
# The median time of reference_loop on the reference host (Python 3.11.7,
# 2 vCPU); operation times are reported in milliseconds of that host.
REFERENCE_MS = 0.45


def reference_loop():
    """A fixed piece of pure Python like mvcond's own work: hashing tuples
    and strings, dict updates and Fraction arithmetic. It does not touch
    mvcond, so a change to the program cannot change its cost."""
    table = {}
    total = Fraction(0)
    for i in range(240):
        key = (i % 7, (i * 5) % 11, "w%d" % (i % 3))
        table[key] = table.get(key, 0) + 1
        if i % 10 == 0:
            total = min(total + Fraction(i % 4, 3), Fraction(5))
    return len(table), total


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "bytecode_cache": {
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
            "writes": not sys.dont_write_bytecode,
            "pycache_prefix": sys.pycache_prefix,
            "cached_files_ignored": len(list((ROOT / "src").rglob("*.pyc"))),
        },
    }


def set_up(name: str, seed: int, workdir: Path, repeats: int, tr):
    """Build the workload repeats times; (last instance, set-up s, import s).

    Set-up times are plain wall time: a set-up lasts longer than the
    host keeps one speed, so the reference loop timed around it does not
    meet the speed it ran at.
    """
    cls = importlib.import_module(f"wl_{name}").Workload
    setup_s, import_s = [], []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        workload = cls(seed, workdir, tr)
        setup_s.append(time.perf_counter() - start)
        import_s.append(workload.import_s)
    return workload, setup_s, import_s


def check_round(workload) -> tuple[list, list]:
    """Run each operation once, untimed; (digests, problems)."""
    digests, problems = [], []
    tr = NullTracer()
    for op in workload.ops:
        try:
            result = op.run(tr)
        except RecursionError as exc:
            digests.append(type(exc).__name__)
            if not op.known_fault:
                problems.append(f"{op.kind}: RecursionError")
            continue
        except Exception as exc:  # a failing operation is reported, not fatal
            digests.append(type(exc).__name__)
            problems.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            continue
        digests.append(op.digest(result))
        problems.extend(op.check(result))
    return digests, problems


def timed_round(workload, tr, digests) -> dict:
    """One pass over the operation list: each operation's time and outcome,
    and the time of the reference loop run just before it."""
    gc.collect()
    latencies, references, ok, problems = [], [], [], []
    for op, expected in zip(workload.ops, digests):
        start = time.perf_counter_ns()
        reference_loop()
        references.append(time.perf_counter_ns() - start)
        start = time.perf_counter_ns()
        try:
            with tr.span(f"op.{op.kind}"):
                result = op.run(tr)
        except Exception as exc:  # counted as failed; checked against the check round
            latencies.append(time.perf_counter_ns() - start)
            ok.append(False)
            digest = type(exc).__name__
        else:
            latencies.append(time.perf_counter_ns() - start)
            ok.append(True)
            digest = op.digest(result)
        if digest != expected:
            problems.append(f"{op.kind}: result changed between repeats")
    return {"ns": sum(latencies), "latencies": latencies, "references": references, "ok": ok,
            "failed": ok.count(False), "attempted": len(ok), "problems": problems}


def measure(workload, digests, seconds, tr=None) -> tuple[list, list]:
    """Whole rounds until seconds pass; with a tracer, alternate traced rounds.

    Returns (untraced rounds, traced rounds).
    """
    plain, traced = [], []
    null = NullTracer()
    start = time.perf_counter()
    while True:
        if tr is not None and len(traced) <= len(plain):
            traced.append(timed_round(workload, tr, digests))
        else:
            plain.append(timed_round(workload, null, digests))
        enough = min(len(plain), len(traced) if tr is not None else len(plain)) >= MIN_ROUNDS
        if enough and time.perf_counter() - start >= seconds:
            return plain, traced


def fastest(rounds, k) -> float:
    """Operation k's fastest repeat in ms."""
    return min(r["latencies"][k] for r in rounds) / 1e6


def reference_ms(rounds, k) -> float:
    """Operation k's time in milliseconds of the reference host.

    The host runs the same code at speeds up to 1.7 times apart and
    switches between them within a second, so every repeat is divided by
    the reference loop timed just before it, which meets the same host
    speed; the median of those ratios, times REFERENCE_MS, follows the
    program and not the host.
    """
    ratios = [r["latencies"][k] / r["references"][k] for r in rounds]
    return statistics.median(ratios) * REFERENCE_MS


def scaled_round(r) -> float:
    """A round's operations, each in units of the reference loop before it."""
    return sum(t / c for t, c in zip(r["latencies"], r["references"]))


def end_to_end(setup_s, rounds) -> dict:
    """The end-to-end metrics: wall_s and the latency percentiles in time of
    the reference host, setup_s as the median of the set-ups' wall times.

    An operation fails on every repeat or on none (the digest check holds
    the outcome fixed), so the first round says which ones succeed.
    """
    n = len(rounds[0]["latencies"])
    times = [reference_ms(rounds, k) for k in range(n)]
    succeeded = [t for t, ok in zip(times, rounds[0]["ok"]) if ok]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (sum(times) / 1e3, "s"),
        "op_ms_p50": (statistics.median(succeeded), "ms"),
        "op_ms_p90": (statistics.quantiles(succeeded, n=10)[8], "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_op_times(workload, rounds) -> list:
    """(kind, succeeded, median ms, fastest ms, reference-host ms) of each operation."""
    return [
        (op.kind, rounds[0]["ok"][k],
         statistics.median(r["latencies"][k] for r in rounds) / 1e6, fastest(rounds, k),
         reference_ms(rounds, k))
        for k, op in enumerate(workload.ops)
    ]


def layer_summary(tr) -> dict:
    """Per mvcond module: self time, calls and summed counts, over every span."""
    out: dict = {}
    for name, entry in tr.by_name().items():
        layer = out.setdefault(layer_of(name), {"self_ms": 0.0, "calls": 0, "counts": {}})
        layer["self_ms"] += entry["self_ns"] / 1e6
        layer["calls"] += entry["calls"]
        for key, value in entry["counts"].items():
            layer["counts"][key] = layer["counts"].get(key, 0) + value
    return out


def traced_run(name, seed, seconds, workdir, meta):
    """Per-layer metrics: the named workload for seconds, one round of each other.

    attempted and failed count the named workload's rounds only, so their
    ratio is the same in every run.
    """
    metrics, trace_doc, problems = {}, {"meta": meta, "workloads": {}}, []
    attempted = failed = 0
    for other in (name,) + tuple(w for w in WORKLOADS if w != name):
        tr = Tracer()
        workload, _, import_s = set_up(other, seed, workdir, 1 if other != name else SETUP_REPEATS, tr)
        digests, found = check_round(workload)
        problems += found
        if other == name:
            plain, traced = measure(workload, digests, seconds, tr)
            overhead = (statistics.median(map(scaled_round, traced))
                        / statistics.median(map(scaled_round, plain)))
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
            metrics["cli.import_ms"] = (statistics.median(import_s) * 1e3, "ms")
        else:
            plain, traced = [], [timed_round(workload, tr, digests)]
        for r in plain + traced:
            problems += r["problems"]
            if other == name:
                attempted += r["attempted"]
                failed += r["failed"]
        metrics.update(workload.layer_metrics(tr, len(traced)))
        trace_doc["workloads"][other] = {
            "traced_rounds": len(traced),
            "untraced_rounds": len(plain),
            "round_ms_traced": [r["ns"] / 1e6 for r in traced],
            "round_ms_untraced": [r["ns"] / 1e6 for r in plain],
            "layers": layer_summary(tr),
            "spans": tr.dump(),
        }
    trace_doc["overhead_ratio"] = metrics["trace.overhead_ratio"][0]
    return metrics, attempted, failed, problems, trace_doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = HERE / "results"
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    sys.pycache_prefix = str(workdir / "no-pycache")  # never created: nothing cached is read
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **machine()}
    problems = [f"oracle: {p}" for p in oracle.selftest()]
    try:
        if args.trace:
            metrics, attempted, failed, found, trace_doc = traced_run(
                args.workload, args.seed, args.seconds, workdir, meta)
            problems += found
            extra = {}
        else:
            workload, setup_s, import_s = set_up(
                args.workload, args.seed, workdir, SETUP_REPEATS, NullTracer())
            digests, found = check_round(workload)
            problems += found
            rounds, _ = measure(workload, digests, args.seconds)
            for r in rounds:
                problems += r["problems"]
            metrics = end_to_end(setup_s, rounds)
            attempted = sum(r["attempted"] for r in rounds)
            failed = sum(r["failed"] for r in rounds)
            extra = {"setup_s_all": setup_s, "import_s_all": import_s,
                     "round_s": [r["ns"] / 1e9 for r in rounds],
                     "reference_ms_median": statistics.median(
                         t for r in rounds for t in r["references"]) / 1e6,
                     "op_ms": per_op_times(workload, rounds)}
    except ImportError as exc:
        print(f"cannot import mvcond from the checkout: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # gone unless another run still uses it
            workdir.parent.rmdir()

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "result": result, "problems": problems, **extra}, indent=1))
    if args.trace:
        (results / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(trace_doc))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
