"""Formulas 10,000 deep under the default recursion limit: every walk over a
formula keeps its own stack, so each of these parses, prints, normalizes,
evaluates, gets a truth table and is proof checked, and conditionals
nested 3,000 deep are searched. The results are compared without
recursion: structurally equal formulas share a NodeTable slot, and ==,
hash and rule_eq walk each shared node once, so they also finish on the
DAGs that normalize builds. A static check keeps every self-calling
function out of src/."""

import ast
import json
import os
import subprocess
import sys
import time
from functools import reduce
from pathlib import Path

import pytest

from mvcond import cli
from mvcond.parser import parse, print_formula
from mvcond.proof import MP, Derivation, Line, Premise, check_derivation, match_axiom, rule_eq
from mvcond.search import (
    SearchBounds,
    SigmaNotClosedError,
    abstract_conditionals,
    countermodel_search,
    falsifying_assignment,
    filtrate,
    is_L_tautology,
    random_model,
)
from mvcond.semantics import Evaluator
from mvcond.syntax import _CORE, And, Cond, Imp, NodeTable, Var, imp_chain, normalize
from mvcond.truthvalues import TruthValue

from reference import identity_shape, reference_fold

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
    evaluator = Evaluator(model)
    values = [evaluator.value(w, phi).numerator for w in model.worlds]
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


def test_fold_of_deep_and_chains_matches_the_reference_fold():
    """&-chains 10,000 deep, nested to the left and to the right, go into a
    node table and through normalize as through the fold _fold replaced; a
    non-formula at the bottom of such a chain is still a TypeError."""
    assert sys.getrecursionlimit() <= 1000
    leaves = [Var(v) for v in LEAVES]

    def expand(node, *kids):
        return _CORE[type(node)](node, 3, *kids)

    for phi in (reduce(And, leaves), reduce(lambda out, leaf: And(leaf, out), leaves)):
        start = time.perf_counter()
        table = NodeTable()
        slot = table.add(phi)
        normal = normalize(phi, 3)
        assert time.perf_counter() - start < 2
        expected = NodeTable()
        assert slot == reference_fold(phi, expected._slot, expected._slots)
        assert slot == len(NAMES) + DEPTH - 2  # one slot per variable and per &
        assert list(map(id, table.nodes)) == list(map(id, expected.nodes))
        assert table.kids == expected.kids
        assert identity_shape(normal) == identity_shape(reference_fold(phi, expand, {}))
    bad = reduce(And, leaves, "x")
    for fold in (NodeTable().add, lambda phi: normalize(phi, 3)):
        with pytest.raises(TypeError, match="^not a formula node: 'x'$"):
            fold(bad)


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


def test_rule_eq_on_two_separately_parsed_deep_chains():
    """The chains share no node, so the lockstep walk meets every pair; a
    chain ending in T equals one spelled with _t -> _t."""
    assert sys.getrecursionlimit() <= 1000
    text = " -> ".join(LEAVES)
    x, y, z = parse(text), parse(text), parse(" -> ".join(LEAVES[:-1] + ["T"]))
    spelled = imp_chain([Var(v) for v in reversed(LEAVES[:-1])], Imp(Var("_t"), Var("_t")))
    start = time.perf_counter()
    assert rule_eq(x, y)
    assert not rule_eq(x, z)
    assert rule_eq(z, spelled) and rule_eq(spelled, z)
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("nesting", ["left", "right"])
def test_equality_hash_and_abstraction_of_deep_chains(nesting):
    """&-chains 10,000 deep built apart, the last pair differing only at the
    deepest leaf, and two conditionals on them abstracted to one atom."""
    assert sys.getrecursionlimit() <= 1000

    def chain(first):
        leaves = [Var(v) for v in [first] + LEAVES[1:]]
        if nesting == "left":
            return reduce(And, leaves)
        return reduce(lambda out, leaf: And(leaf, out), leaves)

    x, y, z = chain("p"), chain("p"), chain("q")
    start = time.perf_counter()
    assert x == y and hash(x) == hash(y)
    assert x != z and z != x
    rewritten, mapping = abstract_conditionals(Imp(Cond(x, Var("q")), Cond(y, Var("q"))))
    assert mapping == {Cond(y, Var("q")): Var("_c0")}
    assert time.perf_counter() - start < 2
    assert rewritten == Imp(Var("_c0"), Var("_c0"))


# normalize keeps mk_I's sharing, so these normal forms at m=9 have 355 and
# 237 distinct subformulas, but trees far too big to walk node by node.
SHARED_NORMAL_FORMS = """\
import time
from mvcond.parser import parse
from mvcond.search import abstract_conditionals
from mvcond.syntax import Cond, Var, normalize, subformula_closure
x, y, z, two = (normalize(parse(text), 9) for text in (
    "I{1/2}(I{1/2}(I{1/2}(p)))", "I{1/2}(I{1/2}(I{1/2}(p)))", "I{1/2}(I{1/2}(I{1/4}(p)))",
    "I{1/2}(I{1/2}(p))",
))
assert (len(subformula_closure(x)), len(subformula_closure(two))) == (355, 237)
start = time.perf_counter()
assert x == y and hash(x) == hash(y) and x != z
assert abstract_conditionals(Cond(two, Var("q"))) == (Var("_c0"), {Cond(two, Var("q")): Var("_c0")})
print(time.perf_counter() - start < 2)
"""


def test_equality_hash_and_abstraction_of_shared_normal_forms():
    """In a subprocess, so that a walk over the trees is stopped at 60 s."""
    src = str(Path(__file__).parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", SHARED_NORMAL_FORMS],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.stdout == "True\n", done.stderr


def test_axiom_instance_with_deep_metavariables_matches():
    assert sys.getrecursionlimit() <= 1000
    texts = {"a": " -> ".join(LEAVES), "b": " & ".join(LEAVES), "c": "~" * DEPTH + "q"}
    a1, a2, a3, b1, b2, c1, c2 = (parse(texts[v]) for v in "aaabbcc")
    start = time.perf_counter()  # parsing is timed in the test above
    assert match_axiom(Imp(Cond(a1, And(b1, c1)), And(Cond(a2, b2), Cond(a3, c2)))) == "A1"
    assert match_axiom(Imp(Cond(a1, And(b1, c1)), And(Cond(a2, c2), Cond(a3, b2)))) is None
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("nesting", ["right", "left"])
def test_deep_conditional_nesting_is_searched(nesting):
    """p => (p => ... q) and (... (p => q) ... => q), 3,000 conditionals
    deep: the first candidate refutes each, at the first world."""
    assert sys.getrecursionlimit() <= 1000
    phi = Var("q") if nesting == "right" else Var("p")
    for _ in range(3000):
        phi = Cond(Var("p"), phi) if nesting == "right" else Cond(phi, Var("q"))
    start = time.perf_counter()
    outcome = countermodel_search(phi, 3, SearchBounds(2, None, 50))
    assert time.perf_counter() - start < 2
    assert (outcome.candidates, outcome.exhausted, outcome.found[1]) == (1, False, "w0")


def test_unclosed_sigma_with_a_deep_member_is_named_in_the_error():
    assert sys.getrecursionlimit() <= 1000
    text = "~" * DEPTH + "p"
    with pytest.raises(SigmaNotClosedError) as caught:
        filtrate(random_model(5, 3, 3, NAMES), [parse(text)])
    assert str(caught.value) == (
        f"sigma is not closed under subformulas: missing a direct subformula of {text}"
    )


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


def test_no_function_in_src_calls_itself():
    src = Path(__file__).parent.parent / "src" / "mvcond"
    found = set()
    for path in sorted(src.glob("*.py")):
        found |= _self_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == set()
