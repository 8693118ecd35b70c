"""Formulas 10,000 deep under the default recursion limit: every walk over a
formula keeps its own stack, so each of these parses, prints, normalizes,
evaluates and gets a truth table. The results are compared without
recursion: structurally equal formulas share a NodeTable slot."""

import sys
import time

import pytest

from mvcond.parser import parse, print_formula
from mvcond.search import falsifying_assignment, is_L_tautology, random_model
from mvcond.semantics import Evaluator
from mvcond.syntax import Imp, NodeTable, Var, normalize
from mvcond.truthvalues import TruthValue

DEPTH = 10_000
NAMES = ("p", "q", "r")
LEAVES = [NAMES[i % 3] for i in range(DEPTH)]


def _imp_chain(top, values):
    out = values[-1]
    for value in reversed(values[:-1]):
        out = min(top, top - value + out)
    return out


# (text, how it prints, its value from the leaves' values and the top value)
DEEP = {
    "parentheses": ("(" * DEPTH + "p" + ")" * DEPTH, "p", lambda top, v: v[0]),
    "negations": ("~" * DEPTH + "p", "~" * DEPTH + "p", lambda top, v: v[0]),
    "implications": (" -> ".join(LEAVES), " -> ".join(LEAVES), _imp_chain),
    "conjunctions": (" & ".join(LEAVES), " & ".join(LEAVES), lambda top, v: min(v)),
}


@pytest.mark.parametrize("name", DEEP)
def test_deep_formula_under_the_default_recursion_limit(name):
    assert sys.getrecursionlimit() <= 1000
    text, printed, value = DEEP[name]
    model = random_model(5, 3, 3, NAMES)
    start = time.perf_counter()
    phi = parse(text)
    out = print_formula(phi)
    normal = normalize(phi, 3)
    values = [Evaluator(model).value(w, phi).numerator for w in model.worlds]
    tautology = is_L_tautology(Imp(phi, Var("p")), 3) if name == "conjunctions" else None
    assert time.perf_counter() - start < 2

    assert out == printed
    table = NodeTable()
    assert table.add(parse(out)) == table.add(phi)
    for w, got in zip(model.worlds, values):
        assert got == value(2, [model.valuation[leaf][w].numerator for leaf in LEAVES])
    assert Evaluator(model).numerators(normal) == tuple(values)
    if name == "conjunctions":
        assert tautology
        assert falsifying_assignment(phi, 3) == {v: TruthValue(0, 3) for v in NAMES}
