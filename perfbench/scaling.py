"""Scaling curves over formula size, world count and m, with fitted exponents.

    python3 perfbench/scaling.py

Times single mvcond calls in-process (the median of REPEATS calls per
point) and prints one markdown table per curve, with the slope of log
time against log size. A slope near 1 is linear, near 2 quadratic. The
inputs are fixed (seed 0); this is a sizing aid for the README, not part
of the benchmark's metrics.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time

sys.dont_write_bytecode = True

import gen  # noqa: E402
from common import import_mvcond, slope  # noqa: E402

REPEATS = 3


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def table(title, xname, rows, repeats=REPEATS):
    """rows: (x, fn, note); prints x, ms and note, then the fitted exponent."""
    points = []
    print(f"\n#### {title}\n\n| {xname} | ms | |\n|---|---|---|")
    for x, fn, note in rows:
        ms = timed(fn, repeats) * 1e3
        points.append((math.log(x), math.log(ms)))
        print(f"| {x} | {ms:.3f} | {note} |")
    print(f"\nfitted exponent: {slope(*zip(*points)):.2f}")


def main() -> None:
    mv, _ = import_mvcond()
    parse, print_formula = mv.parser.parse, mv.parser.print_formula
    rng = random.Random(0)
    pool = ("p", "q", "r", "s")

    texts = {n: gen.render(gen.random_formula(rng, n, pool, gen.ALL_BINARY, unary=n // 5))
             for n in (100, 200, 400, 800)}
    table("parse, balanced random formula", "connectives",
          [(n, lambda t=t: parse(t), "") for n, t in texts.items()])
    trees = {n: parse(t) for n, t in texts.items()}
    table("print_formula, balanced random formula", "connectives",
          [(n, lambda phi=phi: print_formula(phi), "") for n, phi in trees.items()])
    table("normalize at m = 5, balanced random formula", "connectives",
          [(n, lambda phi=phi: mv.syntax.normalize(phi, 5), "") for n, phi in trees.items()])

    model = mv.search.random_model(0, 5, 8, pool)
    chains = {n: parse(" & ".join(rng.choice(pool) for _ in range(n))) for n in (50, 100, 200, 400)}
    table("Evaluator.value of a left-nested & chain, 8 worlds, m = 5", "N",
          [(n, lambda phi=phi: mv.semantics.Evaluator(model).value("w0", phi), "")
           for n, phi in chains.items()])

    nested = parse("((p => q) => (r => s)) -> (p & q => s)")
    rows = []
    for n in (8, 16, 32, 64, 128):
        big = mv.search.random_model(n, 3, n, pool, 4)
        ev = mv.semantics.Evaluator
        rows.append((n, lambda big=big: [ev(big).value(w, nested) for w in big.worlds], ""))
    table("every-world evaluation of a nested => formula, m = 3", "worlds", rows)

    closure = mv.syntax.subformula_closure(nested)
    rows = []
    for n in (8, 16, 32, 64, 128):
        big = mv.search.random_model(n, 3, n, pool, 4)
        rows.append((n, lambda big=big: mv.search.filtrate(big, closure), ""))
    table("filtrate by the closure of that formula, m = 3", "worlds", rows)

    taut = parse("(p -> q) -> ((q -> r) -> (p -> r))")
    table("is_L_tautology of a 3-variable tautology (m^3 assignments)", "m",
          [(m, lambda m=m: mv.search.is_L_tautology(taut, m), f"{m ** 3} assignments")
           for m in (2, 3, 5, 9)])

    table("normalize I{1/2}(p -> q)", "m",
          [(m, lambda m=m: mv.syntax.normalize(parse("I{1/2}(p -> q)"), m), "")
           for m in (3, 5, 9, 17)])

    a1 = parse("(p & ~p => (p | p & p)) -> ((p & ~p => p) & (p & ~p => p & p))")
    rows = []
    for m in (2, 3, 4):
        bounds = mv.search.SearchBounds(max_worlds=2)
        candidates = mv.search.countermodel_search(a1, m, bounds).candidates
        rows.append((m, lambda m=m, b=bounds: mv.search.countermodel_search(a1, m, b),
                     f"{candidates} candidates"))
    table("countermodel_search of an A1 instance over one variable, up to 2 worlds", "m",
          rows, repeats=1)


if __name__ == "__main__":
    main()
