"""Formulas 10,000 deep under the default recursion limit: every walk over a
formula keeps its own stack, so each of these parses, prints, normalizes,
evaluates, gets a truth table and is proof checked. The results are
compared without recursion: structurally equal formulas share a NodeTable
slot. A static check keeps any new self-calling function out of src/."""

import ast
import json
import sys
import time
from pathlib import Path

import pytest

from mvcond import cli
from mvcond.parser import parse, print_formula
from mvcond.proof import MP, Derivation, Line, Premise, check_derivation, match_axiom
from mvcond.search import (
    SigmaNotClosedError,
    falsifying_assignment,
    filtrate,
    is_L_tautology,
    random_model,
)
from mvcond.semantics import Evaluator
from mvcond.syntax import And, Cond, Imp, NodeTable, Var, normalize
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


def test_proofcheck_of_a_deep_tautology_line(tmp_path, capsys):
    assert sys.getrecursionlimit() <= 1000
    text = " -> ".join(LEAVES[:-1] + [LEAVES[-2]])  # ends in r -> r
    path = tmp_path / "deep.json"
    line = {"formula": text, "rule": "LTaut", "args": {}}
    path.write_text(json.dumps({"m": 3, "premises": [], "lines": [line]}))
    start = time.perf_counter()
    code = cli.main(["proofcheck", "--file", str(path), "--goal", text])
    assert time.perf_counter() - start < 2
    assert (code, capsys.readouterr().out) == (0, '{"status":"accepted","lines":1}\n')


def test_deep_modus_ponens_derivation_is_accepted():
    """p and p -> p -> ... -> p give every tail of the chain by MP."""
    assert sys.getrecursionlimit() <= 1000
    chain = parse(" -> ".join(["p"] * DEPTH))
    lines = [Line(Var("p"), Premise(1)), Line(chain, Premise(2))]
    while isinstance(lines[-1].formula, Imp):
        lines.append(Line(lines[-1].formula.right, MP(1, len(lines))))
    assert len(lines) == DEPTH + 1
    start = time.perf_counter()
    verdict = check_derivation(Derivation(3, (Var("p"), chain), tuple(lines)), Var("p"))
    assert time.perf_counter() - start < 2
    assert verdict.ok, verdict.message


def test_axiom_instance_with_deep_metavariables_matches():
    assert sys.getrecursionlimit() <= 1000
    texts = {"a": " -> ".join(LEAVES), "b": " & ".join(LEAVES), "c": "~" * DEPTH + "q"}
    start = time.perf_counter()
    a1, a2, a3, b1, b2, c1, c2 = (parse(texts[v]) for v in "aaabbcc")
    assert match_axiom(Imp(Cond(a1, And(b1, c1)), And(Cond(a2, b2), Cond(a3, c2)))) == "A1"
    assert match_axiom(Imp(Cond(a1, And(b1, c1)), And(Cond(a2, c2), Cond(a3, b2)))) is None
    assert time.perf_counter() - start < 2


def test_unclosed_sigma_with_a_deep_member_is_named_in_the_error():
    assert sys.getrecursionlimit() <= 1000
    text = "~" * DEPTH + "p"
    with pytest.raises(SigmaNotClosedError) as caught:
        filtrate(random_model(5, 3, 3, NAMES), [parse(text)])
    assert str(caught.value) == (
        f"sigma is not closed under subformulas: missing a direct subformula of {text}"
    )


# The only functions in src/ that call themselves, and why their depth is bounded.
RECURSIVE = {
    "cli._ast": "json.dumps, which prints its tree, has its own depth limit; both exit 3",
    "syntax.mk_J": "it recurses on the index, at most m deep",
    "search.countermodel_search.visit": (
        "one call per relation round, at most 4 deep: antecedents nest at most 2"
        " conditionals deep, and one of depth d has its final value, already a"
        " key, after round d + 1"
    ),
}


def _self_calls(tree, module):
    """module.qualname of every function whose body calls its own name
    (or self.<name>, for a method), nested functions included."""
    found = set()
    stack = [(tree, module)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                        callee = func.attr if func.value.id == "self" else None
                    else:
                        callee = getattr(func, "id", None)
                    if callee == child.name:
                        found.add(name)
            stack.append((child, name))
    return found


def test_no_function_in_src_calls_itself_beyond_the_allowlist():
    src = Path(__file__).parent.parent / "src" / "mvcond"
    found = set()
    for path in sorted(src.glob("*.py")):
        found |= _self_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == set(RECURSIVE)
