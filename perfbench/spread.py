"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 7,7,7,7,7,7,7,7,7,7

Runs perfbench/run.py once per workload of BENCHMARK.json and per seed
(a seed listed twice runs twice), one run at a time, for run_seconds, and
prints a markdown table per workload: the median, first and third
quartiles (statistics.quantiles, n=4) of each metric, and the quartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json. Also prints the share of failed operations per run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out += range(int(low), int(high or low) + 1)
    return out


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in workloads:
        results = []
        for seed in seeds_of(args.seeds):
            result = run_once(workload, seed, seconds)
            results.append(result)
            print(f"# {workload} seed {seed}: {json.dumps(result)}", file=sys.stderr, flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n### {workload} ({len(results)} runs of {seconds} s; "
              f"correct in all: {all(r['correct'] for r in results)}; "
              f"failed share: {', '.join(f'{s:.4f}' for s in shares)})\n")
        print("| metric | median | Q1 | Q3 | (Q3-Q1)/median | bound |")
        print("|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            unit = results[0]["metrics"][name]["unit"]
            print(f"| {name} ({unit}) | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {bound} |")


if __name__ == "__main__":
    main()
