"""The compiled evaluator and the incremental search against the reference
implementations in reference.py."""

from dataclasses import replace
from random import Random

import pytest

from mvcond.parser import parse
from mvcond.search import SearchBounds, countermodel_search, random_model
from mvcond.semantics import (
    Evaluator,
    KripkeModel,
    MissingRelationError,
    UndeclaredVariableError,
    model_to_json,
)
from mvcond.syntax import And, Cond, Imp, Not, Or, Var
from mvcond.truthvalues import TruthValue

from formula_gen import chain_formula
from reference import ReferenceEvaluator, reference_search

NAMES = ("p", "q", "r")


def _policies(m):
    """Every kind of default policy: error, bottom, a middle value, top."""
    return (None, TruthValue(0, m), TruthValue(m // 2, m), TruthValue(m - 1, m))


def _outcome(evaluator, phi, worlds):
    """Values at every world, or the error class the evaluation raises."""
    try:
        return [evaluator.value(w, phi) for w in worlds]
    except MissingRelationError:
        return MissingRelationError


@pytest.mark.parametrize("m", [2, 3, 5])
def test_evaluator_matches_reference_on_random_models(m):
    rng = Random(m)
    for seed in range(12):
        base = random_model(100 * m + seed, m, 1 + seed % 4, NAMES, seed % 3)
        for policy in _policies(m):
            model = replace(base, default_policy=policy)
            new, ref = Evaluator(model), ReferenceEvaluator(model)
            for _ in range(8):
                phi = chain_formula(rng, 5, m, names=NAMES, allow_cond=True)
                want = _outcome(ref, phi, model.worlds)
                assert _outcome(new, phi, model.worlds) == want
                if want is MissingRelationError:
                    continue
                assert new.proposition(phi) == ref.proposition(phi)
                assert new.failing_world(phi) == ref.failing_world(phi)
                sigma = [chain_formula(rng, 3, m, names=NAMES) for _ in range(2)]
                assert new.entailment_witness(sigma, phi) == ref.entailment_witness(
                    sigma, phi
                )


def test_a_failed_evaluation_leaves_the_evaluator_usable():
    model = KripkeModel(
        3, ("w",), ("p",), {"p": {"w": TruthValue(1, 3)}}, {}, None
    )
    evaluator = Evaluator(model)
    with pytest.raises(UndeclaredVariableError):
        evaluator.value("w", And(Var("p"), Var("zz")))
    with pytest.raises(MissingRelationError):
        evaluator.value("w", Cond(Var("p"), Var("p")))
    assert evaluator.value("w", Var("p")) == TruthValue(1, 3)


def test_variable_missing_at_another_world_raises_for_every_world():
    model = KripkeModel(
        3,
        ("x", "y"),
        ("p",),
        {"p": {"x": TruthValue(2, 3)}},
        {},
        TruthValue(0, 3),
    )
    with pytest.raises(UndeclaredVariableError):
        Evaluator(model).value("x", Var("p"))


def test_long_left_nested_chain_evaluates_under_the_default_recursion_limit():
    model = random_model(3, 5, 4, NAMES, 0)
    phi = Var("p")
    leaves = [phi]
    for i in range(1, 10_000):
        leaf = Var(NAMES[i % 3])
        leaves.append(leaf)
        phi = And(phi, leaf)
    evaluator = Evaluator(model)
    for w in model.worlds:
        want = min(model.valuation[leaf.name][w].numerator for leaf in leaves)
        assert evaluator.value(w, phi).numerator == want


SEARCH_QUERIES = [
    # (formula, m, bounds, require_fid)
    ("p => p", 3, SearchBounds(max_worlds=1), False),
    ("(p => (q -> r)) -> ((p => q) -> (p => r))", 3, SearchBounds(max_worlds=2), False),
    ("(p => (q & r)) -> ((p => q) & (p => r))", 3, SearchBounds(max_worlds=1), False),
    ("(p => q) => q", 3, SearchBounds(max_worlds=1), False),
    # the antecedent p => q names a second proposition once R[|p|] is fixed
    ("((p => q) => r) -> r", 3, SearchBounds(max_worlds=2), False),
    ("((p => q) => r) -> r", 2, SearchBounds(max_worlds=2), False),
    ("(p => ((q => p) => q)) -> (q => p)", 2, SearchBounds(max_worlds=2), False),
    ("p => p", 3, SearchBounds(max_worlds=2), True),
    ("(p => q) -> (q => p)", 3, SearchBounds(max_worlds=2), True),
    ("((p => q) & (q => r)) -> (p => r)", 2, SearchBounds(max_worlds=2), True),
    ("p => p", 3, SearchBounds(max_worlds=1, relation_values=(0,)), False),
    ("p => p", 3, SearchBounds(max_worlds=1, relation_values=(0, 2)), False),
    ("(p => q) -> (q => p)", 4, SearchBounds(max_worlds=2, relation_values=(1, 3)), False),
    # budgets that bind in the middle of the enumeration
    ("(p => (q & r)) -> ((p => q) & (p => r))", 3, SearchBounds(1, None, 10), False),
    ("(p => q) -> (p -> q)", 3, SearchBounds(max_worlds=2, max_candidates=0), False),
    ("((p => q) => r) -> ((p => q) => r)", 3, SearchBounds(1, None, 100), False),
    ("((p => q) => r) -> ((p => q) => r)", 2, SearchBounds(1, None, 17), False),
    ("((p => q) => r) -> ((p => q) => r)", 3, SearchBounds(max_worlds=1), False),
    ("p => p", 3, SearchBounds(2, None, 300), True),
    ("T -> (p | ~p)", 2, SearchBounds(max_worlds=2), False),
    ("J{1/2}(p) => I{1}(q)", 3, SearchBounds(max_worlds=2), False),
    # a compound antecedent that also occurs outside every conditional
    ("((p & q) => r) -> ((p & q) -> r)", 2, SearchBounds(max_worlds=2), False),
    ("((p & q) => r) -> ~(p & q)", 3, SearchBounds(max_worlds=2), False),
]


def _fields(outcome):
    found = outcome.found
    return (
        outcome.candidates,
        outcome.exhausted,
        None if found is None else found[1],
        None if outcome.value is None else outcome.value.numerator,
        None if found is None else model_to_json(found[0]),
    )


@pytest.mark.parametrize("text,m,bounds,fid", SEARCH_QUERIES)
def test_search_matches_reference_field_by_field(text, m, bounds, fid):
    phi = parse(text)
    new = countermodel_search(phi, m, bounds, require_fid=fid)
    assert _fields(new) == _fields(reference_search(phi, m, bounds, require_fid=fid))
    if new.found is not None:
        model, witness = new.found
        assert ReferenceEvaluator(model).value(witness, phi) == new.value


def _shared_formula(rng):
    """A random formula built from a pool of earlier subformulas, so that
    compound subformulas recur inside and outside antecedents."""
    pool = [Var("p"), Var("q")]
    conditionals = 0
    for _ in range(6):
        ctor = rng.choice((Not, Imp, And, Or, Cond, Cond))
        if ctor is Cond and conditionals == 2:
            ctor = Imp
        conditionals += ctor is Cond
        left, right = rng.choice(pool), rng.choice(pool)
        pool.append(Not(left) if ctor is Not else ctor(left, right))
    return Imp(pool[-2], pool[-1])


@pytest.mark.parametrize("seed", range(8))
def test_search_matches_reference_on_formulas_with_shared_subformulas(seed):
    rng = Random(seed)
    bounds = SearchBounds(max_worlds=2, max_candidates=200)
    for _ in range(4):
        phi = _shared_formula(rng)
        for m in (2, 3):
            new = countermodel_search(phi, m, bounds)
            assert _fields(new) == _fields(reference_search(phi, m, bounds))
