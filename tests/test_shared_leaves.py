"""parse shares one leaf object per distinct atom, and normalize one _t.

Every consumer walks formulas by identity (syntax._fold) or by structure,
so a tree with shared leaves must give the same results as the same tree
with a fresh leaf per occurrence, which is what the differential tests
below compare."""

import copy
import json
import pickle
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction
from random import Random

import pytest

from mvcond.cli import _ast
from mvcond.parser import parse, print_formula
from mvcond.search import SearchBounds, countermodel_search, falsifying_assignment, random_model
from mvcond.semantics import Evaluator
from mvcond.syntax import (
    _KIDS,
    RESERVED_VAR,
    Bot,
    Formula,
    I,
    J,
    Not,
    NodeTable,
    Top,
    Var,
    _fold,
    children,
    normalize,
    subformula_closure,
)

from formula_gen import BINARY_NODES, random_formula

P, Q = Var("p"), Var("q")
ON_BOTH_CHAINS = (Fraction(0), Fraction(1, 2), Fraction(1))  # on the 3- and 5-chain


def unshared(phi: Formula) -> Formula:
    """phi rebuilt with a fresh object for every occurrence of every node."""
    args = [getattr(phi, name) for name in phi.__match_args__]
    return type(phi)(*(unshared(a) if isinstance(a, Formula) else a for a in args))


def occurrences(phi: Formula) -> list[Formula]:
    """Every node of phi once per occurrence, not once per object."""
    out, stack = [], [phi]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(children(node))
    return out


def _texts(seed: int, count: int, depth: int) -> list[str]:
    rng = Random(seed)
    return [print_formula(random_formula(rng, depth, indices=ON_BOTH_CHAINS)) for _ in range(count)]


def _table(phi: Formula) -> tuple[list[str], list[tuple[int, ...]]]:
    table = NodeTable()
    table.add(phi)
    return [print_formula(node) for node in table.nodes], table.kids


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shared_leaves_agree_with_a_fresh_leaf_per_occurrence(seed):
    model = random_model(seed=seed, m=3, n_worlds=3, var_names=("p", "q", "r", "s"))
    shared_eval, fresh_eval = Evaluator(model), Evaluator(model)
    for text in _texts(seed, 40, 5):
        shared = parse(text)
        fresh = unshared(shared)
        assert print_formula(shared) == print_formula(fresh) == text
        assert shared == fresh and hash(shared) == hash(fresh)
        assert _table(shared) == _table(fresh)
        assert subformula_closure(shared) == subformula_closure(fresh)
        for m in (3, 5):
            assert print_formula(normalize(shared, m)) == print_formula(normalize(fresh, m))
        for world in model.worlds:
            assert shared_eval.value(world, shared) == fresh_eval.value(world, fresh)
        assert json.dumps(_fold(shared, _ast, {})) == json.dumps(_fold(fresh, _ast, {}))


@pytest.mark.parametrize("seed", [4, 5])
def test_shared_leaves_agree_in_truth_tables_and_search(seed):
    bounds = SearchBounds(max_worlds=2, max_candidates=300)
    for text in _texts(seed, 25, 3):
        shared = parse(text)
        fresh = unshared(shared)
        assert falsifying_assignment(shared, 3, abstract=True) == falsifying_assignment(
            fresh, 3, abstract=True
        )
        assert countermodel_search(shared, 3, bounds) == countermodel_search(fresh, 3, bounds)


def test_parse_holds_one_leaf_per_distinct_atom():
    names = ("p", "q1", "r_x")
    n = 30
    text = " & ".join(names[i % len(names)] for i in range(n)) + " -> T | F | ~T & J{1}(F)"
    nodes = occurrences(parse(text))
    variables = [node for node in nodes if type(node) is Var]
    assert len(variables) == n and len({id(node) for node in variables}) == len(names)
    for kind, count in ((Top, 2), (Bot, 2)):
        leaves = [node for node in nodes if type(node) is kind]
        assert len(leaves) == count and len({id(node) for node in leaves}) == 1
    # no inner node is shared, and no leaf outlives its parse
    assert len({id(node) for node in nodes if children(node)}) == len(nodes) - n - 4
    assert parse("p") is not parse("p")


def test_normalize_spells_constants_with_one_reserved_leaf():
    nodes = occurrences(normalize(parse("T & F | (T (-) F)"), 3))
    reserved = [node for node in nodes if type(node) is Var]
    assert {node.name for node in reserved} == {RESERVED_VAR}
    assert len(reserved) > 2 and len({id(node) for node in reserved}) == 1


ONE_OF_EACH = [
    Var("p"), Top(), Bot(), Not(P), J(1, P), I(Fraction(1, 2), Not(Q)),
    *(kind(P, Q) for kind in BINARY_NODES),
]


def test_one_of_each_covers_every_node_class():
    assert {type(node) for node in ONE_OF_EACH} == set(_KIDS)


@pytest.mark.parametrize("node", ONE_OF_EACH, ids=lambda node: type(node).__name__)
def test_nodes_have_no_dict_and_refuse_every_attribute(node):
    assert not hasattr(node, "__dict__")
    for name in [field.name for field in fields(node)] + ["extra", "__dict__"]:
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, Q)
    assert node == unshared(node)


@pytest.mark.parametrize("node", ONE_OF_EACH, ids=lambda node: type(node).__name__)
def test_nodes_round_trip_through_pickle_and_copy(node):
    for twin in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
        assert type(twin) is type(node) and twin == node
        assert print_formula(twin) == print_formula(node)
    assert pickle.dumps(node) == pickle.dumps(unshared(node))


def test_pickle_and_deepcopy_keep_leaves_shared():
    phi = parse("p & q -> (p | T) => q (*) T")
    for twin in (pickle.loads(pickle.dumps(phi)), copy.deepcopy(phi)):
        assert twin == phi
        leaves = [node for node in occurrences(twin) if not children(node)]
        assert len({id(node) for node in leaves}) == 3
    assert pickle.dumps(phi) == pickle.dumps(parse(print_formula(phi)))
