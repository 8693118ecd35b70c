"""The compiled evaluator and truth tables, the search, normalize,
the parser and printer, filtration, its preservation check, random models
and the model document loader against the reference implementations in
reference.py."""

import io
import json
import re
import sys
import tracemalloc
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction
from functools import reduce
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcond import search
from mvcond.cli import _ast, main
from mvcond.parser import ParseError, parse, print_formula
from mvcond.search import (
    _SLAB_BITS,
    _columns,
    _packed,
    SearchBounds,
    SearchError,
    abstract_conditionals,
    check_preservation,
    countermodel_search,
    falsifying_assignment,
    filtrate,
    random_model,
    value_under,
)
from mvcond.semantics import (
    Evaluator,
    KripkeModel,
    MissingRelationError,
    ModelError,
    ModelFormatError,
    Proposition,
    UndeclaredVariableError,
    UnknownWorldError,
    check_fid,
    model_from_json,
    model_of,
    model_to_json,
    save_model,
)
from mvcond.syntax import (
    _CORE,
    RESERVED_VAR,
    And,
    Cond,
    Iff,
    Imp,
    J,
    NodeTable,
    Not,
    Or,
    UnrepresentableIndexError,
    Var,
    _fold,
    free_vars,
    normalize,
    subformula_closure,
)
from mvcond.truthvalues import TruthValue

from formula_gen import chain_formula, one_antecedent_formula, random_formula
from reference import (
    ReferenceEvaluator,
    _cond_depth,
    entrywise_model_from_json,
    enumerated_search,
    identity_shape,
    pairwise_columns,
    reference_abstract_conditionals,
    reference_check_fid,
    reference_check_preservation,
    reference_falsifying_assignment,
    reference_filtrate,
    reference_fold,
    reference_model_from_json,
    reference_normalize,
    reference_parse,
    reference_print,
    reference_random_model,
    reference_search,
    reference_value_under,
)

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


def test_an_interrupted_evaluation_leaves_the_evaluator_usable(monkeypatch):
    """An interrupt in the middle of a walk leaves no node held without its
    values, so asking again, by the same object, evaluates afresh."""
    model = random_model(3, 3, 4, NAMES, 0)
    evaluator = Evaluator(model)
    phi = parse("(p & q) -> ~(q => p)")
    variable = evaluator._variable

    def interrupted(name):
        monkeypatch.setattr(evaluator, "_variable", variable)
        raise KeyboardInterrupt

    monkeypatch.setattr(evaluator, "_variable", interrupted)
    with pytest.raises(KeyboardInterrupt):
        evaluator.numerators(phi)
    assert evaluator.numerators(phi) == Evaluator(model).numerators(phi)
    assert evaluator.proposition(phi.right) == ReferenceEvaluator(model).proposition(phi.right)


def _ask(evaluator, query):
    """query's answer from evaluator, or the class of the ModelError it
    raised; numerators of the reference are its values' numerators."""
    method, *args = query
    try:
        if method == "numerators" and isinstance(evaluator, ReferenceEvaluator):
            phi, worlds = args[0], evaluator.model.worlds
            return tuple(evaluator.value(w, phi).numerator for w in worlds)
        return getattr(evaluator, method)(*args)
    except ModelError as exc:
        return type(exc)


def _queries(rng, model, m, count):
    """Seeded queries of every kind an Evaluator answers. Each formula is a
    new one, one asked before (the same object), an equal but distinct
    copy of one, or a subformula of one; some read a variable the model
    does not declare."""
    asked = []
    for _ in range(count):
        roll = rng.random()
        if not asked or roll < 0.3:
            phi = chain_formula(rng, 4, m, names=NAMES, allow_cond=True)
            if rng.random() < 0.15:
                phi = Or(phi, Var("u"))
        elif roll < 0.55:
            phi = rng.choice(asked)
        elif roll < 0.75:
            phi = parse(print_formula(rng.choice(asked)))
        else:
            phi = rng.choice(subformula_closure(rng.choice(asked)))
        asked.append(phi)
        kind = rng.choice(("value", "value", "numerators", "proposition", "entailment_witness"))
        if kind == "value":
            yield kind, rng.choice(model.worlds), phi
        elif kind == "entailment_witness":
            yield kind, [rng.choice(asked) for _ in range(rng.randrange(3))], phi
        else:
            yield kind, phi


@pytest.mark.parametrize("m", [2, 3, 5])
def test_repeated_queries_on_one_evaluator_match_fresh_ones_and_the_reference(m):
    """One Evaluator asked many times, in any order and after calls that
    raised, answers as a fresh Evaluator and the reference do; each
    every-world pass over a formula asked before is one more case."""
    rng = Random(2900 + m)
    raised = set()
    for n in (1, 3, 16, 64):
        base = random_model(290 * m + n, m, n, NAMES, n % 3)
        for policy in (None, TruthValue(m // 2, m)):
            model = replace(base, default_policy=policy)
            evaluator, ref = Evaluator(model), ReferenceEvaluator(model)
            for query in _queries(rng, model, m, 40 if n < 64 else 12):
                want = _ask(ref, query)
                assert _ask(evaluator, query) == _ask(Evaluator(model), query) == want
                if isinstance(want, type):
                    raised.add(want)
                elif query[0] in ("numerators", "proposition"):  # every world, in any order
                    phi = query[-1]
                    for w in rng.sample(model.worlds, n):
                        assert evaluator.value(w, phi) == ref.value(w, phi)
    assert raised == {MissingRelationError, UndeclaredVariableError}


TEXT_6 = "(p => q) -> (r & p)"  # six distinct subformulas


def test_an_evaluator_asked_about_fresh_copies_keeps_its_id_map_bounded():
    """10,000 fresh parses of one formula on one Evaluator leave its node
    table at the formula's 6 nodes and the id map within 4 entries per node
    and 32; each answer is the reference's, and a copy asked again, or an
    earlier one dropped from the map, still is."""
    model = random_model(5, 3, 4, NAMES, 0)
    evaluator, want = Evaluator(model), ReferenceEvaluator(model).value("w0", parse(TEXT_6))
    copies = [parse(TEXT_6) for _ in range(3)]
    for phi in copies + [parse(TEXT_6) for _ in range(10_000)]:
        assert evaluator.value("w0", phi) == want
        assert len(evaluator._table._slots) <= 4 * 6 + 32 + 6
    assert len(evaluator._table.nodes) == 6
    assert [evaluator.value("w0", phi) for phi in copies] == [want] * 3


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
    # under FID the rows of p => q and r => q differ with their antecedents;
    # values keyed by the shared consequent alone would make it valid
    ("(p => q) -> (r => q)", 3, SearchBounds(max_worlds=2), True),
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


def _search_fields(search, phi, m, bounds, fid):
    try:
        return _fields(search(phi, m, bounds, require_fid=fid))
    except SearchError as exc:
        return SearchError, str(exc)


def _same_search(phi, m, bounds, fid=False):
    """The search's fields (or error), asserted equal to the enumerating
    search's."""
    got = _search_fields(countermodel_search, phi, m, bounds, fid)
    assert got == _search_fields(enumerated_search, phi, m, bounds, fid), print_formula(phi)
    return got


SEARCH_NAMES = ("p", "q", RESERVED_VAR)


def _unnested_formula(rng, m):
    """Up to three conditionals, none inside another, joined by other
    connectives; two antecedents are drawn for them, so some repeat."""
    antecedents = [chain_formula(rng, 1, m, SEARCH_NAMES) for _ in range(2)]
    conds = [
        Cond(rng.choice(antecedents), chain_formula(rng, 2, m, SEARCH_NAMES))
        for _ in range(rng.randint(1, 3))
    ]
    phi = conds.pop()
    while conds:
        phi = rng.choice((Imp, Imp, And, Or, Iff))(conds.pop(), phi)
    return phi


@pytest.mark.parametrize("m", [2, 3, 4])
def test_search_matches_enumeration_on_seeded_formulas(m):
    """Formulas over p, q and the reserved variable with J/I on the chain:
    random trees, which may nest conditionals, and formulas without nested
    conditionals, half of them drawn until one world cannot refute them."""
    rng = Random(800 + m)
    seen = set()
    for i in range(60):
        fid = rng.random() < 0.3
        if i % 3 == 0:
            phi = chain_formula(rng, 4, m, names=SEARCH_NAMES, allow_cond=True)
        else:
            phi = _unnested_formula(rng, m)
            while i % 3 == 1 and enumerated_search(phi, m, SearchBounds(1), fid).found:
                phi = _unnested_formula(rng, m)
        bounds = SearchBounds(
            rng.choice((1, 2, 3) if m == 2 else (1, 2)),
            rng.choice((None, None, (m - 1,), (0, m - 1), tuple(range(1, m)))),
            rng.choice((0, 5, 50, 500, 2000)),
        )
        got = _same_search(phi, m, bounds, fid)
        if got[0] is not SearchError:
            depth = "nested" if _cond_depth(phi) > 1 else "unnested"
            seen.add((depth, "found" if got[2] else "exhausted" if got[1] else "none"))
    assert {("unnested", "found"), ("unnested", "exhausted"), ("unnested", "none")} <= seen
    assert {("nested", "found"), ("nested", "exhausted")} & seen


@pytest.mark.parametrize("m", [2, 3])
def test_search_of_a_normalized_formula_matches_the_formula(m):
    """normalize spells T and F over the reserved variable _t, which is 0
    at every world, so the search does not enumerate it: seeded formulas
    over p and q, which may nest conditionals, give the same outcome,
    model document included, before and after normalize."""
    rng = Random(2300 + m)
    for _ in range(120):
        phi = chain_formula(rng, 3, m, ("p", "q"), allow_cond=True)
        bounds = SearchBounds(
            rng.choice((1, 2)),
            rng.choice((None, None, (m - 1,), (0, m - 1))),
            rng.choice((0, 5, 50, 500, 2000)),
        )
        fid = rng.random() < 0.3
        got = _fields(countermodel_search(normalize(phi, m), m, bounds, require_fid=fid))
        assert got == _fields(countermodel_search(phi, m, bounds, require_fid=fid)), phi


def _valuations(phi, m, n, relation_values):
    """Per n-world valuation, in search order: whether its value tuples at
    the worlds are non-decreasing, making it the least of its orbit under
    permutations of the worlds, and its candidate count when none refutes
    phi, |rows|^(n * its number of distinct antecedent propositions)."""
    closure = subformula_closure(phi)
    names = sorted({psi.name for psi in closure if isinstance(psi, Var)} - {RESERVED_VAR})
    antecedents = {psi.left for psi in closure if isinstance(psi, Cond)}
    rows = len(set(range(m) if relation_values is None else relation_values)) ** n
    worlds = tuple(f"w{x}" for x in range(n))
    for assignment in product(range(m), repeat=n * len(names)):
        columns = [assignment[k * n : (k + 1) * n] for k in range(len(names))]
        evaluator = Evaluator(model_of(m, worlds, names, columns, {}, 0))
        keys = {evaluator.numerators(alpha) for alpha in antecedents}
        at = list(zip(*columns)) or [()] * n
        yield at == sorted(at), rows ** (n * len(keys))


def test_search_matches_enumeration_when_budgets_bind_in_a_skipped_valuation():
    """Three-world searches at m=2 skip every valuation that a permutation
    of the worlds sorts into an earlier one. Budgets at the first, middle
    and last candidate of the first such valuation before the first
    countermodel bind inside it; seeded formulas are drawn until that has
    been checked with and without FID, each with the full chain and with
    restricted relation values."""
    rng = Random(903)
    m, cap, checked = 2, 4000, set()
    while len(checked) < 4:
        fid = rng.random() < 0.5
        values = rng.choice((None, (1,), (0, 1), (0,)))
        phi = _unnested_formula(rng, m)
        before = countermodel_search(phi, m, SearchBounds(2, values), fid)
        if before.found or before.candidates > cap:
            continue
        total = countermodel_search(phi, m, SearchBounds(3, values), fid).candidates
        start = before.candidates
        for least, spent in _valuations(phi, m, 3, values):
            if start + spent > min(total, cap):
                break
            if not least:
                for budget in (start, start + spent // 2, start + spent - 1):
                    got = _same_search(phi, m, SearchBounds(3, values, budget), fid)
                    assert got[:3] == (budget, True, None)
                checked.add((fid, values is None))
                break
            start += spent
        _same_search(phi, m, SearchBounds(3, values, min(total, cap)), fid)


def _nested_formula(rng, m):
    """Two conditionals on one antecedent without conditionals, the first
    inside the second's consequent, joined by another connective to one of
    them or to a conditional-free formula."""
    antecedent = chain_formula(rng, 1, m, SEARCH_NAMES)
    inner = Cond(antecedent, chain_formula(rng, 1, m, SEARCH_NAMES))
    join = rng.choice((Imp, And, Or, Iff))
    outer = Cond(antecedent, join(inner, chain_formula(rng, 1, m, SEARCH_NAMES)))
    other = rng.choice((inner, outer, chain_formula(rng, 2, m, SEARCH_NAMES)))
    return rng.choice((Imp, Imp, And, Or, Iff))(outer, other)


def test_nested_search_matches_enumeration_at_three_worlds():
    """Three-world searches at m=2 evaluate only the least valuation of each
    orbit for nested formulas too. Seeded formulas, some with conditionals
    inside antecedents, with and without FID and relation values, under
    budgets that let the search reach three worlds."""
    rng = Random(904)
    reached = set()
    for i in range(24):
        if i % 2:
            phi = _nested_formula(rng, 2)
        else:
            phi = chain_formula(rng, 4, 2, names=SEARCH_NAMES, allow_cond=True)
            while _cond_depth(phi) < 2:
                phi = chain_formula(rng, 4, 2, names=SEARCH_NAMES, allow_cond=True)
        fid = i % 4 < 2
        values = rng.choice((None, None, (1,), (0, 1), (0,)))
        two_worlds = _same_search(phi, 2, SearchBounds(2, values, 6000), fid)
        got = _same_search(phi, 2, SearchBounds(3, values, two_worlds[0] + 3000), fid)
        if got[0] is not SearchError and two_worlds[2] is None and not two_worlds[1]:
            reached.add((fid, values is None))
    assert reached == {(False, False), (False, True), (True, False), (True, True)}


def test_nested_search_matches_enumeration_when_budgets_bind_in_a_skipped_valuation():
    """As for formulas without nesting: budgets at the first, middle and
    last candidate of the first three-world valuation that a permutation of
    the worlds sorts into an earlier one bind inside it, for seeded nested
    formulas whose antecedents hold no conditional, so that each valuation
    has |rows|^(n * its distinct antecedent propositions) candidates."""
    rng = Random(905)
    m, cap, checked = 2, 4000, set()
    while len(checked) < 4:
        fid = rng.random() < 0.5
        values = rng.choice((None, (1,), (0, 1), (0,)))
        phi = _nested_formula(rng, m)
        before = countermodel_search(phi, m, SearchBounds(2, values), fid)
        if before.found or before.candidates > cap:
            continue
        # the count without a budget, or cap if that is less
        limit = countermodel_search(phi, m, SearchBounds(3, values, cap), fid).candidates
        start = before.candidates
        for least, spent in _valuations(phi, m, 3, values):
            if start + spent > limit:
                break
            if not least:
                for budget in (start, start + spent // 2, start + spent - 1):
                    got = _same_search(phi, m, SearchBounds(3, values, budget), fid)
                    assert got[:3] == (budget, True, None)
                checked.add((fid, values is None))
                break
            start += spent
        _same_search(phi, m, SearchBounds(3, values, limit), fid)


@pytest.mark.parametrize("fid", [False, True])
def test_nested_search_to_three_worlds_counts_every_candidate(fid):
    """No countermodel: 2^2 valuations of 2 candidates, 2^4 of 2^4 and 2^6
    of 2^9, all but the least valuation of each orbit counted unvisited."""
    phi = parse("(p => (p => q)) -> (p => (p => q))")
    assert _same_search(phi, 2, SearchBounds(3), fid)[:3] == (33032, False, None)


def test_nested_rounds_with_two_keys_keep_the_enumeration_order():
    """Whenever p and q differ, the one round assigns |p| and |q| at once, n
    rows each, from one product of the shared rows. Every budget up to the
    first countermodel (candidate 92), and under FID (candidate 4416) the
    edges and every 97th, give the enumerating search's fields."""
    phi = parse("(p => (q => r)) -> (q => (p => r))")
    for budget in range(94):
        _same_search(phi, 2, SearchBounds(2, None, budget))
    assert _same_search(phi, 2, SearchBounds(2))[:3] == (92, False, "w1")
    for budget in sorted({0, 1, 4415, 4416, 4417, *range(0, 4417, 97)}):
        _same_search(phi, 2, SearchBounds(2, None, budget), True)
    assert _same_search(phi, 2, SearchBounds(2), True)[:3] == (4416, False, "w0")


def test_search_matches_enumeration_when_the_first_countermodel_needs_three_worlds():
    """Each disjunct fails at x only if x reaches a world of its own kind
    of (p, q): 00, 01 and 10, so no model of two worlds refutes it."""
    phi = parse("(T => p | q) | (T => p | ~q) | (T => ~p | q)")
    for fid in (False, True):
        assert _same_search(phi, 2, SearchBounds(2), fid)[:3] == (264, False, None)
        got = _same_search(phi, 2, SearchBounds(3), fid)
        assert got[:3] == (5385, False, "w0")
        for budget in (264, 5384, 5385):
            _same_search(phi, 2, SearchBounds(3, None, budget), fid)


@pytest.mark.parametrize(
    "text,m,fid,witness",
    [
        ("(I{0}(T) => q) -> (p => q)", 2, True, "w1"),
        ("(J{1}(F) => I{1/2}(q) & q (+) q) -> (p (*) q => I{1/2}(q) & q (+) q)", 3, False, "w1"),
        ("(q -> q => J{1/2}(q) (-) (q & q)) -> (~q => J{1/2}(q) (-) (q & q))", 3, True, "w1"),
        # refuted at both worlds, each with its first rows: the witness is w0
        ("(q (*) T => I{1}(p) | ~q) | (T (+) q => q (*) T)", 2, True, "w0"),
    ],
)
def test_search_matches_enumeration_on_late_two_world_countermodels(text, m, fid, witness):
    """First countermodels hundreds of candidates in, with two worlds."""
    phi = parse(text)
    got = _same_search(phi, m, SearchBounds(2), fid)
    assert got[2] == witness and got[0] > 200
    for budget in (got[0] - 1, got[0]):
        _same_search(phi, m, SearchBounds(2, None, budget), fid)


@pytest.mark.parametrize(
    "text,m,fid",
    [
        # 264 candidates, none a countermodel
        ("(p => (q & q)) -> ((p => q) & (p => q))", 2, False),
        ("p => p", 2, True),
        # the first countermodel is candidate 274, at w1 of a 2-world model
        ("(J{1}(q) => ~(q (+) q)) -> (I{0}(q) => ~(q (+) q))", 2, True),
    ],
)
def test_search_matches_enumeration_under_every_budget(text, m, fid):
    """Budgets from 0 to one past the count without a budget bind inside a
    valuation, at every valuation boundary, and at the exact total, which
    does not exhaust the search."""
    phi = parse(text)
    total = countermodel_search(phi, m, SearchBounds(max_worlds=2), require_fid=fid).candidates
    for budget in range(total + 2):
        got = _same_search(phi, m, SearchBounds(2, None, budget), fid)
        assert got[:2] == (min(budget, total), budget < total)


@pytest.mark.parametrize(
    "text",
    [
        "(p => q) -> ((p & p) => q)",
        "((p & p) => q) -> (p => (q | r))",
        # p and q share one relation in a valuation that gives them equal values
        "(p => r) -> (q => r)",
        "((p => q) & (q => p)) -> (p <-> q)",
    ],
)
@pytest.mark.parametrize("fid", [False, True])
def test_search_matches_enumeration_on_repeated_antecedent_propositions(text, fid):
    phi = parse(text)
    for m, bounds in [(2, SearchBounds(2)), (3, SearchBounds(2, None, 3000)),
                      (2, SearchBounds(3, None, 3000))]:
        _same_search(phi, m, bounds, fid)


@pytest.mark.parametrize(
    "text,m,values,candidates,witness",
    [
        # 3 * 2 + 9 * 2^4: p => p holds wherever a row lies within |p|
        ("p => p", 3, (1, 2), 150, None),
        ("(p => q) -> (p -> q)", 3, (2,), 90, None),
        ("(p => q) -> (q => p)", 4, (1, 3), 26, "w0"),
        ("((p => q) & (q => r)) -> (p => r)", 2, (1,), 72, None),
    ],
)
def test_search_matches_enumeration_when_fid_admits_no_row(
    text, m, values, candidates, witness
):
    """Without 0 among the relation values, a key with a 0 entry has no row
    within it under FID, so its valuation has no countermodel."""
    got = _same_search(parse(text), m, SearchBounds(2, values, 5000), True)
    assert got[:3] == (candidates, False, witness)


def _screen_results(monkeypatch):
    """(n, the valuation the screen names as the first with a refuting
    candidate, or None) for each packed screen of an n-world count from now
    on, in order."""
    results = []
    make = search._screen

    def recording(*args):
        screen = make(*args)

        def recorded(n):
            got = screen(n)
            results.append((n, got[1]))
            return got

        return recorded

    monkeypatch.setattr("mvcond.search._screen", recording)
    return results


def _screen_widths(monkeypatch):
    """(rows, whole) for the packed table that each screened world count
    builds from now on, in order: whole when it has more rows than the
    world count has valuations, so that it packs a world's row entries
    too (one table for the world count, unslabbed)."""
    widths, make, packed = [], search._screen, search._packed

    def recording(code, depth, root, inputs, m, *args):
        screen = make(code, depth, root, inputs, m, *args)

        def recorded(n):
            got = screen(n)  # one table per world count, the last recorded
            widths[-1] = (widths[-1], widths[-1] > m ** (len(inputs) * n))
            return got

        return recorded

    def table(m, rows):
        widths.append(rows)
        return packed(m, rows)

    monkeypatch.setattr("mvcond.search._screen", recording)
    monkeypatch.setattr("mvcond.search._packed", table)
    return widths


def _refuting(results):
    """(n, whether some candidate refutes) for each screen recorded."""
    return [(n, first is not None) for n, first in results]


def _world_total(phi, m, n, values):
    """The most candidates of n worlds: m^(k*n) valuations of the k variables
    other than _t, each with |values|^(n^2) matrices per antecedent; exact
    with at most one antecedent, since valuations that give two antecedents
    equal values have one relation for both."""
    closure = subformula_closure(phi)
    k = len({psi.name for psi in closure if isinstance(psi, Var)} - {RESERVED_VAR})
    antecedents = len({psi.left for psi in closure if isinstance(psi, Cond)})
    return m ** (k * n) * len(set(values or range(m))) ** (n * n * antecedents)


def _screened_bounds(phi, m, values):
    """Up to 3 worlds (4 at m=2), fewer where the enumerating search could
    otherwise walk more than 6,000 candidates; and the most candidates
    through them (_world_total)."""
    worlds, total = 1, _world_total(phi, m, 1, values)
    while worlds < (4 if m == 2 else 3) and total + _world_total(phi, m, worlds + 1, values) <= 6000:
        worlds += 1
        total += _world_total(phi, m, worlds, values)
    return SearchBounds(worlds, values), total


@pytest.mark.parametrize("m", [2, 3, 4])
def test_screened_search_matches_enumeration_on_seeded_formulas(m, monkeypatch):
    """Unnested formulas with one antecedent over p, q and _t, half of them
    drawn until one world cannot refute them, with and without FID, with
    relation values that leave out 0 and budgets at and one short of the
    total: every field is the enumerating search's. The screen settles
    world counts past the first and finds refutations."""
    results = _screen_results(monkeypatch)
    rng = Random(3000 + m)
    for i in range(40):
        fid = rng.random() < 0.4
        values = rng.choice((None, None, (m - 1,), tuple(range(1, m)), (0, m - 1)))
        phi = one_antecedent_formula(rng, m, SEARCH_NAMES)
        while i % 2 and enumerated_search(phi, m, SearchBounds(1, values), fid).found:
            phi = one_antecedent_formula(rng, m, SEARCH_NAMES)
        bounds, total = _screened_bounds(phi, m, values)
        for budget in (None, total, total - 1)[: 1 + i % 3]:
            _same_search(phi, m, replace(bounds, max_candidates=budget), fid)
    assert {refutes for _, refutes in _refuting(results)} == {False, True}
    assert any(n > 1 and not refutes for n, refutes in _refuting(results))


@pytest.mark.parametrize(
    "text",
    [
        "p -> p",  # no conditional
        "(p -> q) | (q -> p) | (p (*) ~q)",
        "T => F",  # no variable
        "(T => T) (+) F",
        "(F => p) -> (T => p) | ~p",
        "(J{1}(p) => I{0}(q)) | J{0}(q)",  # J/I on every chain
        "(J{1/2}(p) => I{1/2}(q)) <-> (J{1/2}(p) => q)",  # on the chain at m=3
    ],
)
@pytest.mark.parametrize("fid", [False, True])
def test_screened_search_matches_enumeration_on_edge_formulas(text, fid):
    """Formulas without a conditional or without a variable, with T and F,
    and with J/I indices on the chain, and their normal forms, which spell
    T and F over _t: every field is the enumerating search's, for the full
    chain and for relation values without 0."""
    phi = parse(text)
    for m in (3,) if "1/2" in text else (2, 3, 4):
        for values in (None, tuple(range(1, m))):
            bounds, _ = _screened_bounds(phi, m, values)
            got = _same_search(phi, m, bounds, fid)
            assert _same_search(normalize(phi, m), m, bounds, fid) == got


@pytest.mark.parametrize(
    "fid,values", [(False, None), (True, None), (True, (1,)), (False, (0,))]
)
def test_screened_search_matches_enumeration_at_budgets_around_each_total(
    fid, values, monkeypatch
):
    """A1 at m=2 has no countermodel. A budget one short of a world count's
    total keeps the screen out and binds in the enumeration; at the total
    and one past it the screen settles that world count."""
    results = _screen_results(monkeypatch)
    phi = parse("(p => (p & ~p)) -> ((p => p) & (p => ~p))")
    start = 0
    for n in (1, 2, 3):
        total = start + _world_total(phi, 2, n, values)
        for budget in (total - 1, total, total + 1):
            results.clear()
            got = _same_search(phi, 2, SearchBounds(n, values, budget), fid)
            assert got[:3] == (min(budget, total), budget < total, None)
            assert ((n, False) in _refuting(results)) == (budget >= total)
        start = total


def test_two_key_world_counts_count_each_valuation_by_its_keys():
    """p and q share one relation wherever they take equal values, so a
    valuation with one key has 3^(n^2) candidates, not 3^(2 * n^2): at m=3
    the two-key tautology counts 27 * 9 - 9 * 6 = 189 candidates at one
    world and 4,258,089 at two (not 4,782,969), and the three-world count
    is pinned from the enumeration. Each is the sum over valuations that
    _valuations takes from the Evaluator."""
    phi = parse("((p => r) & (q => r)) -> ((p => r) & (q => r))")
    expected = 0
    for n, candidates in [(1, 189), (2, 4258278)]:
        expected += sum(spent for _, spent in _valuations(phi, 3, n, None))
        assert countermodel_search(phi, 3, SearchBounds(n)).candidates == expected == candidates
    assert countermodel_search(phi, 3, SearchBounds(3)).candidates == 7343186555691


# antecedents that take equal values on some valuations only: p and q where
# they are equal, p and p & q where p <= q; so a valuation has 1 to 3 keys
KEYED = [("p", "q"), ("p", "p & q"), ("p", "q", "p & q"), ("T", "q"), ("~q", "p & q", "T")]


def _keyed_formula(rng, m, antecedents):
    """A conditional on each antecedent, and sometimes one more on one of
    them, none inside another, with conditional-free consequents over p, q
    and _t; joined by other connectives, and sometimes to a conditional-free
    formula, every J/I index on the m-valued chain."""
    alphas = [parse(text) for text in antecedents]
    alphas += rng.sample(alphas, rng.randint(0, 1))
    rng.shuffle(alphas)
    conds = [Cond(alpha, chain_formula(rng, 2, m, SEARCH_NAMES)) for alpha in alphas]
    phi = conds.pop()
    while conds:
        phi = rng.choice((Imp, Imp, And, Or, Iff))(conds.pop(), phi)
    if rng.random() < 0.4:
        phi = rng.choice((Imp, Or, And))(phi, chain_formula(rng, 2, m, SEARCH_NAMES))
    return phi


@pytest.mark.parametrize("m", [2, 3])
def test_screened_search_with_several_keys_matches_enumeration(m, monkeypatch):
    """Formulas with two and three antecedents, some of which coincide on
    some valuations only, half of them drawn until one world cannot refute
    them, with and without FID and with relation values that leave out 0:
    every field is the enumerating search's, model document included, so
    the screen named the first refuting valuation. Some first
    countermodels need two worlds, and at m=2 a witness other than w0."""
    results = _screen_results(monkeypatch)
    rng = Random(3200 + m)
    seen = set()
    for i in range(40):
        fid = rng.random() < 0.4
        values = rng.choice((None, (m - 1,), (0, m - 1), tuple(range(1, m))))
        antecedents = KEYED[i % len(KEYED)]
        phi = _keyed_formula(rng, m, antecedents)
        while i % 2 and enumerated_search(phi, m, SearchBounds(1, values), fid).found:
            phi = _keyed_formula(rng, m, antecedents)
        got = _same_search(phi, m, _screened_bounds(phi, m, values)[0], fid)
        if got[2] is not None:
            seen.add((results[-1][0] > 1, got[2] != "w0", fid))
    assert {refutes for _, refutes in _refuting(results)} == {False, True}
    assert any(past_one for past_one, _, _ in seen)
    assert m == 3 or {(True, True, False), (True, True, True)} <= seen


@pytest.mark.parametrize(
    "text,m",
    [
        ("((p => r) & (q => r)) -> ((p => r) & (q => r))", 2),
        ("((p => q) | ((p & q) => ~q)) -> ((p => q) | ((p & q) => ~q))", 3),
        ("((p => q) & (q => q) & ((p & q) => J{1}(q))) <-> ((p => q) & (q => q) & ((p & q) => J{1}(q)))", 2),
    ],
)
@pytest.mark.parametrize("fid,values", [(False, None), (True, None), (True, (1,)), (False, (1,))])
def test_several_key_searches_match_enumeration_at_budgets_around_each_total(
    text, m, fid, values, monkeypatch
):
    """Formulas that hold, with two and three antecedents: world by world,
    as far as the enumerating search stays under 20,000 candidates, the
    count without a budget is the sum of each valuation's count, and
    budgets at that total and one short of it give the enumerating
    search's fields, exhausted only short of it."""
    results = _screen_results(monkeypatch)
    phi = parse(text)
    total, n = 0, 1
    while True:
        step = sum(spent for _, spent in _valuations(phi, m, n, values))
        if total + step > 20000:
            break
        total += step
        assert _same_search(phi, m, SearchBounds(n, values), fid)[:3] == (total, False, None)
        for budget in (total - 1, total):
            got = _same_search(phi, m, SearchBounds(n, values, budget), fid)
            assert got[:3] == (budget, budget < total, None)
        n += 1
    assert n > 2 or values is None
    # one relation value makes one tuple of rows, fewer than the valuations
    assert all(first is None for _, first in results) and (results or values is None)


# At m=2, refuted at x only where p(x) is 1 and x sees a world where p is 0;
# the relations of p and of p & q can always make their conditionals 0 there.
PAST_W0_TWO_KEYS = "(T => p) | (p => ~p) | ~p"
PAST_W0_THREE_KEYS = "(T => p) | (p => ~p) | ((p & q) => ~p) | ~p"


@pytest.mark.parametrize("fid", [False, True])
def test_screened_search_with_several_keys_matches_enumeration_over_many_slabs(
    fid, monkeypatch
):
    """With the bit cap at 2^7 each slab is a few fields wide, so a world
    count spans many slabs, its total is counted slab by slab, the first
    refuting valuation may lie in an earlier slab than the field that shows
    it, and the candidates before it are counted over whole slabs and part
    of its own. Seeded formulas as above, and the two below."""
    monkeypatch.setattr("mvcond.search._SLAB_BITS", 1 << 7)
    widths, results = _slab_widths(monkeypatch), _screen_results(monkeypatch)
    rng = Random(3300 + fid)
    for i in range(16):
        m = (2, 3)[i % 2]
        antecedents = KEYED[i % len(KEYED)]
        values = rng.choice(((m - 1,), None, (0, m - 1)))
        phi = _keyed_formula(rng, m, antecedents)
        while i % 4 < 2 and enumerated_search(phi, m, SearchBounds(1, values), fid).found:
            phi = _keyed_formula(rng, m, antecedents)
        _same_search(phi, m, _screened_bounds(phi, m, values)[0], fid)
    assert widths and max(widths) <= 3
    assert any(n > 1 and first is None for n, first in results)
    results.clear()
    for text in (PAST_W0_TWO_KEYS, PAST_W0_THREE_KEYS):
        assert _same_search(parse(text), 2, SearchBounds(2), fid)[2] == "w1"
    assert _refuting(results) == [(1, False), (2, True)] * 2


def _refutes_at_w0(phi, m, names, assignment):
    """Whether any rows of the relations at w0 refute phi (no nesting) at
    w0 of the valuation, one row per distinct antecedent proposition."""
    closure = subformula_closure(phi)
    n = len(assignment) // len(names)
    worlds = tuple(f"w{x}" for x in range(n))
    columns = [assignment[k * n : (k + 1) * n] for k in range(len(names))]
    evaluator = Evaluator(model_of(m, worlds, names, columns, {}, 0))
    keys = sorted({evaluator.numerators(psi.left) for psi in closure if isinstance(psi, Cond)})
    for rows in product(product(range(m), repeat=n), repeat=len(keys)):
        model = model_of(m, worlds, names, columns, {k: [r] * n for k, r in zip(keys, rows)}, 0)
        if Evaluator(model).numerators(phi)[0] != m - 1:
            return True
    return False


@pytest.mark.parametrize(
    "text,fid,first",
    [
        (PAST_W0_TWO_KEYS, False, (0, 1)),
        (PAST_W0_TWO_KEYS, True, (0, 1)),
        (PAST_W0_THREE_KEYS, False, (0, 1, 0, 0)),
        (PAST_W0_THREE_KEYS, True, (0, 1, 0, 1)),
    ],
)
def test_screen_names_a_least_valuation_refuted_past_w0_with_several_keys(
    text, fid, first, monkeypatch
):
    """The first valuation with a refuting candidate refutes the formula at
    w1 and at no candidate's w0, so the screen finds it through the
    valuation that swaps the worlds and names the least of the two, the
    valuation of the enumerating search's first countermodel."""
    phi = parse(text)
    names = sorted(free_vars(phi))
    results = _screen_results(monkeypatch)
    got = _same_search(phi, 2, SearchBounds(2), fid)
    assert got[2] == "w1" and results == [(1, None), (2, first)]
    swapped = sum((first[k : k + 2][::-1] for k in range(0, len(first), 2)), ())
    assert not _refutes_at_w0(phi, 2, names, first) and _refutes_at_w0(phi, 2, names, swapped)


# At m=2, refuted at x only where p(x) is 1 and x sees a world where p is 0.
PAST_W0 = "(T => p) | ~p"
# At m=3, refuted at x only where p(x) is 0 and x sees a world where p is 1
# fully and one where p is 2 to degree 1/2, but none fully: p is 0, 1, 2 at
# w0, w1, w2 and the row's numerators at w1 and w2 are 2 and 1.
PAST_SORTED_TAIL = "~(J{0}(T => ~J{1/2}(p)) & J{1/2}(T => ~J{1}(p))) | I{1/2}(p)"
# The same where p(x) is 1: x sees itself fully, so p is 1, 2 at w0, w1 and
# the row's numerators are 2, 1.
PAST_SORTED_ROW = "~(J{0}(T => ~J{1/2}(p)) & J{1/2}(T => ~J{1}(p))) | ~J{1/2}(p)"


@pytest.mark.parametrize("fid", [False, True])
def test_screened_search_matches_enumeration_over_many_slabs(fid, monkeypatch):
    """With the bit cap at 2^7, every slab is a row or a chain of rows wide,
    so a world count spans up to m^(2n-1) slabs. (A world count whose
    valuations fit one table with a world's row entries is screened as
    that one table, unslabbed.) Seeded formulas as above and the three
    above: the first countermodel, or none, is the enumerating search's."""
    monkeypatch.setattr("mvcond.search._SLAB_BITS", 1 << 7)
    widths, results = _screen_widths(monkeypatch), _screen_results(monkeypatch)
    rng = Random(3100 + fid)
    for i in range(16):
        m = (2, 3)[i % 2]
        phi = one_antecedent_formula(rng, m, SEARCH_NAMES)
        while i % 4 < 2 and enumerated_search(phi, m, SearchBounds(1), fid).found:
            phi = one_antecedent_formula(rng, m, SEARCH_NAMES)
        _same_search(phi, m, _screened_bounds(phi, m, None)[0], fid)
    slabbed = [rows for rows, whole in widths if not whole]
    assert slabbed and max(slabbed) <= 3
    # a whole table under this cap is a one-world count at m=2 with its
    # row entries: 2 valuations times 2 entries
    assert all(rows <= 4 for rows, whole in widths if whole)
    assert any(n > 1 and not refutes for n, refutes in _refuting(results))
    results.clear()  # refutations that need more than one world, as below
    for text, m, n in [(PAST_W0, 2, 2), (PAST_SORTED_ROW, 3, 2), (PAST_SORTED_TAIL, 3, 3)]:
        _same_search(parse(text), m, SearchBounds(n), fid)
    assert _refuting(results) == [(1, False), (2, True)] * 2 + [(1, False), (2, False), (3, True)]


def _refutes_at_w0_of_a_least_valuation(phi, m, n, sorted_from):
    """Whether a row whose entries are non-decreasing from w<sorted_from> on
    refutes phi (one antecedent, no nesting) at w0 of an n-world valuation
    whose per-world value tuples are non-decreasing."""
    closure = subformula_closure(phi)
    names = sorted({psi.name for psi in closure if isinstance(psi, Var)} - {RESERVED_VAR})
    (alpha,) = {psi.left for psi in closure if isinstance(psi, Cond)}
    worlds = tuple(f"w{x}" for x in range(n))
    for assignment in product(range(m), repeat=n * len(names)):
        columns = [assignment[k * n : (k + 1) * n] for k in range(len(names))]
        if list(zip(*columns)) != sorted(zip(*columns)):
            continue
        key = Evaluator(model_of(m, worlds, names, columns, {}, 0)).numerators(alpha)
        for row in product(range(m), repeat=n):
            if row[sorted_from:] == tuple(sorted(row[sorted_from:])):
                model = model_of(m, worlds, names, columns, {key: [row] * n}, 0)
                if Evaluator(model).numerators(phi)[0] != m - 1:
                    return True
    return False


@pytest.mark.parametrize(
    "text,m,n,witness,sorted_from",
    [(PAST_W0, 2, 2, "w1", 2), (PAST_SORTED_TAIL, 3, 3, "w0", 1), (PAST_SORTED_ROW, 3, 2, "w0", 0)],
)
def test_screen_finds_refutations_past_its_world_and_row_order(
    text, m, n, witness, sorted_from, monkeypatch
):
    """The screen evaluates the nodes above the conditionals at w0 only and
    for rows whose entries from w1 on are non-decreasing. A valuation whose
    per-world values are non-decreasing refutes the first formula at no
    world but w0, the second at w0 only with a row that decreases after w0,
    and the third only with a row that decreases from w0 to w1, so the
    screen must reach the first two through other valuations, and keep
    every row's entry at w0 free for the third. At n worlds it finds each
    refutation, and the first countermodel is the enumerating search's."""
    phi = parse(text)
    assert not _refutes_at_w0_of_a_least_valuation(phi, m, n, sorted_from)
    assert sorted_from == n or _refutes_at_w0_of_a_least_valuation(phi, m, n, sorted_from + 1)
    results = _screen_results(monkeypatch)
    got = _same_search(phi, m, SearchBounds(n))
    assert got[2] == witness
    assert _refuting(results) == [*((k, False) for k in range(1, n)), (n, True)]


def test_screen_stays_out_of_nested_formulas_and_over_budget_totals(monkeypatch):
    """Every formula without nesting is screened, one with two antecedents
    too, but only at a world count whose largest total fits the budget."""
    results = _screen_results(monkeypatch)
    for text in ("p => (p => q)", "((p => q) => p) -> p"):
        _same_search(parse(text), 2, SearchBounds(2, None, 300))
    assert results == []
    # two antecedents: one world refutes this first where p is 0 and q is 1,
    # after 2 candidates; with every entry 0 nothing refutes it
    assert _same_search(parse("(p => q) -> (q => p)"), 2, SearchBounds(2, None, 300))[0] == 3
    assert results == [(1, (0, 1))]
    results.clear()
    _same_search(parse("(p => q) -> (q => p)"), 2, SearchBounds(2, (0,), 300))
    assert results == [(1, None), (2, None)]
    results.clear()
    # 3 * 3 candidates at one world, 3^2 * 3^4 at two: the budget of 100 binds there
    got = _same_search(parse("p => p"), 3, SearchBounds(2, None, 100), True)
    assert got[:2] == (100, True) and results == [(1, None)]


def test_screened_search_rejects_an_off_chain_index_as_the_enumeration_does(monkeypatch):
    """J{1/3} is not on the 3-element chain: the screen compiles it first,
    and raises what the enumeration raises, with or without a budget."""
    results = _screen_results(monkeypatch)
    phi = parse("(p => J{1/3}(q)) & (p => p)")
    for budget in (None, 0):
        bounds = SearchBounds(2, None, budget)
        with pytest.raises(UnrepresentableIndexError) as raised:
            countermodel_search(phi, 3, bounds)
        with pytest.raises(UnrepresentableIndexError) as expected:
            enumerated_search(phi, 3, bounds)
        assert str(raised.value) == str(expected.value) == "index 1/3 is not on the 3-element chain"
    assert results == []


# antecedents 0 to 6 conditionals deep, so seven relation rounds
SEVEN_DEEP = "(((((((p => q) => q) => q) => q) => q) => q) => q)"


def _most_rounds(search, *args, **kwargs):
    """search's outcome fields and the most relation rounds that visit held
    open at once, read from its local rounds at every line it runs."""
    most = 0

    def in_visit(frame, event, arg):
        nonlocal most
        most = max(most, len(frame.f_locals.get("rounds", ())))
        return in_visit

    def on_call(frame, event, arg):
        return in_visit if frame.f_code.co_name == "visit" else None

    sys.settrace(on_call)
    try:
        fields = _fields(search(*args, **kwargs))
    finally:
        sys.settrace(None)
    return fields, most


@pytest.mark.parametrize(
    "text,m,bounds,fid,deepest",
    [
        ("((p => q) => r) => (s -> s)", 2, SearchBounds(2, None, 20000), False, 4),
        ("((p => q) => r) => (s -> s)", 3, SearchBounds(2, None, 5000), True, 4),
        ("(((p => q) => p) => q) | p", 2, SearchBounds(2), True, 4),
        ("(((p => q) => p) => q) | p", 2, SearchBounds(2), False, 2),  # the first candidate
        ("(((p => q) => p) => q) | p", 3, SearchBounds(2, None, 20000), True, 3),
        (f"{SEVEN_DEEP} -> {SEVEN_DEEP}", 3, SearchBounds(2, None, 3000), False, 8),
    ],
)
def test_search_matches_enumeration_with_a_relation_round_at_every_level(
    text, m, bounds, fid, deepest
):
    """Antecedents 0, 1 and 2 conditionals deep: each gets its final value,
    and so its relation, one round after the one below it. deepest is the
    number of levels the enumeration reaches, its rounds and then a
    candidate, so at most deepest - 1 rounds are open at once."""
    phi = parse(text)
    got, most = _most_rounds(countermodel_search, phi, m, bounds, require_fid=fid)
    assert got == _fields(enumerated_search(phi, m, bounds, require_fid=fid))
    assert most == deepest - 1


def test_reference_search_follows_seven_relation_rounds():
    """The seventh round first opens after 302 candidates."""
    phi = parse(f"{SEVEN_DEEP} -> {SEVEN_DEEP}")
    bounds = SearchBounds(2, None, 400)
    assert _fields(countermodel_search(phi, 3, bounds)) == _fields(
        reference_search(phi, 3, bounds)
    ) == (400, True, None, None, None)


def _result(fn, *args, **kwargs):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, TypeError, KeyError) as exc:
        return type(exc), str(exc)


# _c0 is the name abstraction gives the first conditional, _t the reserved
# variable; indices off every chain below 9 values as well as on them
TABLE_NAMES = ("p", "q", "_c0", RESERVED_VAR)
TABLE_INDICES = tuple(sorted({Fraction(a, b) for b in (1, 2, 3, 4, 5) for a in range(b + 1)}))


@pytest.mark.parametrize("seed", range(6))
def test_truth_tables_match_reference(seed):
    rng = Random(seed)
    for _ in range(150):
        phi = random_formula(rng, rng.randrange(1, 5), TABLE_NAMES, True, TABLE_INDICES)
        m = rng.choice((2, 3, 4, 5, 9))
        for abstract in (False, True):
            assert _result(falsifying_assignment, phi, m, abstract) == _result(
                reference_falsifying_assignment, phi, m, abstract
            )
        new, ref = _result(abstract_conditionals, phi), reference_abstract_conditionals(phi)
        assert new == ref and list(new[1].items()) == list(ref[1].items())


def test_truth_tables_match_reference_while_the_packed_cache_evicts():
    """Fifteen (m, rows) pairs, twice over, through the 8 entries _packed
    keeps, so that tables are compiled from evicted and rebuilt operations;
    the last formula abstracts the conditional met first to _c0, although
    its subformula p => q has the lower slot."""
    texts = ("p | ~p", "(p -> q) -> (q -> p)", "(p -> q) -> ((q -> r) -> (p -> r))")
    pinned = And(Cond(Cond(Var("p"), Var("q")), Var("r")), Cond(Var("p"), Var("q")))
    assert abstract_conditionals(pinned) == (
        And(Var("_c0"), Var("_c1")),
        {pinned.left: Var("_c0"), pinned.right: Var("_c1")},
    )
    formulas = (*map(parse, texts), pinned)
    for phi in formulas:
        new, ref = abstract_conditionals(phi), reference_abstract_conditionals(phi)
        assert new == ref and list(new[1].items()) == list(ref[1].items())
    _packed.cache_clear()
    for m in (2, 3, 4, 5, 9) * 2:
        for phi in formulas:
            want = reference_falsifying_assignment(phi, m, True)
            assert falsifying_assignment(phi, m, True) == want
    info = _packed.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (8, 8, 30)


def test_truth_tables_skip_what_lies_inside_an_abstracted_conditional():
    off_chain = J(Fraction(1, 2), Var("p"))  # not on the 4-element chain
    inside = Imp(Cond(off_chain, Var("q")), Cond(Var("_c0"), off_chain))
    assert falsifying_assignment(inside, 4, abstract=True) == {
        "_c0": TruthValue(1, 4),
        "_c1": TruthValue(0, 4),
    }
    outside = Imp(Cond(Var("p"), Var("q")), off_chain)
    with pytest.raises(UnrepresentableIndexError):
        falsifying_assignment(outside, 4, abstract=True)
    with pytest.raises(UnrepresentableIndexError):
        reference_falsifying_assignment(outside, 4, abstract=True)
    # J{1/5}(p) occurs first inside the conditional, so the table meets
    # J{1/7}(p) first, as the reference does
    fifth, seventh = J(Fraction(1, 5), Var("p")), J(Fraction(1, 7), Var("p"))
    shared = Imp(Imp(Cond(fifth, Var("q")), seventh), fifth)
    assert _result(falsifying_assignment, shared, 3, True) == _result(
        reference_falsifying_assignment, shared, 3, True
    )


def _slab_widths(monkeypatch):
    """The rows per slab of each truth table compiled from now on, in order."""
    widths = []

    def recording(m, rows):
        widths.append(rows)
        return _packed(m, rows)

    monkeypatch.setattr("mvcond.search._packed", recording)
    return widths


def _field_bits(m):
    """The packed field width: the sum of two chain values, and a flag bit."""
    return (2 * (m - 1)).bit_length() + 1


@pytest.mark.parametrize("seed", range(4))
def test_truth_tables_match_reference_at_every_slab_width(seed, monkeypatch):
    """With the bit cap at m^i times the field width times the table's slot
    count, slabs are m^i rows wide, for each i from 1 until the whole table
    is one slab. Half the formulas are implications between two random
    ones, so that more witnesses lie past the first slab and more tables
    hold. The reserved _t is a constant, not an input, so r is drawn too,
    for tables of four inputs."""
    widths = _slab_widths(monkeypatch)
    rng = Random(seed)
    reached, later, holds = set(), 0, 0
    names = (*TABLE_NAMES, "r")
    for _ in range(60):
        phi = random_formula(rng, rng.randrange(1, 5), names, True, TABLE_INDICES)
        if rng.random() < 0.5:
            phi = Imp(phi, random_formula(rng, 3, names, True, TABLE_INDICES))
        m = rng.choice((2, 3, 4, 5, 9))
        bits = _field_bits(m) * len(subformula_closure(phi))
        for abstract in (False, True):
            expected = _result(reference_falsifying_assignment, phi, m, abstract)
            monkeypatch.setattr("mvcond.search._SLAB_BITS", _SLAB_BITS)
            widths.clear()
            assert _result(falsifying_assignment, phi, m, abstract) == expected
            assert all(n * bits <= max(m * bits, _SLAB_BITS) for n in widths)
            holds += expected is None
            for i in range(1, 9):
                monkeypatch.setattr("mvcond.search._SLAB_BITS", m**i * bits)
                widths.clear()
                assert _result(falsifying_assignment, phi, m, abstract) == expected
                if not widths or widths[-1] < m**i:  # no table, or one slab already
                    break
                reached.add(i)
                if isinstance(expected, dict):
                    values = reversed(expected.values())
                    later += sum(e.numerator * m**x for x, e in enumerate(values)) >= m**i
    assert reached >= {1, 2, 3, 4} and later and holds


def _falsified_only_at(names, numerators, m):
    """~(J{e}(v) & ...): non-designated only where each v has numerator e."""
    return Not(reduce(And, [J(Fraction(e, m - 1), Var(v)) for v, e in zip(names, numerators)]))


@pytest.mark.parametrize("m", (2, 3, 5))
@pytest.mark.parametrize("j", (1, 2, 3))
def test_truth_table_witnesses_at_slab_boundaries(m, j, monkeypatch):
    """Slabs of m^j rows over three variables: the one falsifying row is the
    first, the last of the first slab, the first of the second slab and the
    last of the table in turn."""
    names, top = ("a", "b", "c"), m - 1
    rows = [(0, 0, 0), (0,) * (3 - j) + (top,) * j]
    if j < 3:
        rows.append((0,) * (2 - j) + (1,) + (0,) * j)
    rows.append((top,) * 3)
    widths = _slab_widths(monkeypatch)
    for row in rows:
        phi = _falsified_only_at(names, row, m)
        bits = _field_bits(m) * len(subformula_closure(phi))
        monkeypatch.setattr("mvcond.search._SLAB_BITS", m**j * bits)
        widths.clear()
        hit = falsifying_assignment(phi, m)
        assert widths == [m**j]
        assert hit == {v: TruthValue(e, m) for v, e in zip(names, row)}
        assert hit == reference_falsifying_assignment(phi, m)


def test_truth_table_slabs_are_at_least_a_chain_wide(monkeypatch):
    """A cap below m times the field width times the slot count still gives
    slabs of m rows, as many as there are chain values; a table without
    variables has one row."""
    widths = _slab_widths(monkeypatch)
    monkeypatch.setattr("mvcond.search._SLAB_BITS", 0)
    hit = falsifying_assignment(parse("p -> q"), 5)
    assert hit == {"p": TruthValue(1, 5), "q": TruthValue(0, 5)}
    assert falsifying_assignment(parse("T -> F"), 5) == {}
    assert widths == [5, 1]


def test_value_under_compiles_a_one_row_program(monkeypatch):
    """value_under runs one row however many variables there are: T & p & q
    & r & s at m=3 under every assignment, each compiled one row wide."""
    widths = _slab_widths(monkeypatch)
    phi = parse("T & p & q & r & s")
    for values in product(range(3), repeat=4):
        env = {v: TruthValue(e, 3) for v, e in zip("pqrs", values)}
        widths.clear()
        assert value_under(phi, env, 3) == TruthValue(min(values), 3)
        assert widths == [1]


# w = (2*(m-1)).bit_length() + 1 grows exactly where m - 1 crosses a power
# of two: each such m, the one before it, and a long chain
FIELD_MS = (2, 3, 4, 5, 8, 9, 16, 17, 33, 65, 129, 1000)


@pytest.mark.parametrize("m", FIELD_MS)
def test_truth_tables_match_reference_where_the_field_width_changes(m):
    """Truth tables with and without abstraction, and value_under, against
    the reference on random formulas with J/I (indices on the chain and
    one off it), T/F, a conditional now and then and the reserved variable
    _t. A third are x -> x and a third (x -> y) | (y -> x), which hold
    wherever they evaluate, so that whole tables run. Above m=65 a formula
    keeps to one input, so that the reference's table stays small."""
    rng, top = Random(m), m - 1
    on_chain = {Fraction(k, top) for k in (0, 1, top // 2, top - 1, top)}
    indices = tuple(sorted(on_chain | {Fraction(1, m)}))
    names, outcomes = ("p", RESERVED_VAR), set()
    checked = 0
    while checked < 20:
        x, y = (random_formula(rng, rng.randrange(1, 4), names, True, indices) for _ in "xy")
        phi = rng.choice((x, Imp(x, x), Or(Imp(x, y), Imp(y, x))))
        abstracted, _ = reference_abstract_conditionals(phi)
        if len(free_vars(abstracted)) > (2 if m <= 65 else 1):
            continue
        for abstract in (False, True):
            expected = _result(reference_falsifying_assignment, phi, m, abstract)
            assert _result(falsifying_assignment, phi, m, abstract) == expected
            outcomes.add(type(expected).__name__)
        env = {v: TruthValue(rng.choice((0, 1, top // 2, top - 1, top)), m) for v in names}
        ref = _result(reference_value_under, phi, env, m)
        if isinstance(ref, TruthValue) or abstracted == phi:
            assert _result(value_under, phi, env, m) == ref
        checked += 1
    assert outcomes == {"NoneType", "dict", "tuple"}  # holds, fails, raises


@pytest.mark.parametrize("m", (*FIELD_MS, 100_000))
def test_slab_columns_match_the_pairwise_build(m, monkeypatch):
    """search._columns, built cold, against the pairwise build it replaced
    at every slab width up to the whole table: over as many names (at most
    five) as keep m^k rows within 8,192, the cap at m^j times the field
    width times the slot count for each j from 1 to k, as the slab tests
    set it, with the one falsifying row the last or a mixed one; and a
    table without variables."""
    calls = []

    def recording(m, j):
        _columns.cache_clear()
        calls.append((m, j, _columns(m, j)))
        return calls[-1][2]

    monkeypatch.setattr("mvcond.search._columns", recording)
    widths = _slab_widths(monkeypatch)
    top, k = m - 1, 1
    while k < 5 and m ** (k + 1) <= 8192:
        k += 1
    names = "abcde"[:k]
    for j in range(1, k + 1):
        for row in ((top,) * k, tuple((top, 1, 0)[i % 3] for i in range(k))):
            phi = _falsified_only_at(names, row, m)
            bits = _field_bits(m) * len(subformula_closure(phi))
            monkeypatch.setattr("mvcond.search._SLAB_BITS", m**j * bits)
            calls.clear()
            widths.clear()
            hit = falsifying_assignment(phi, m)
            assert hit == {v: TruthValue(e, m) for v, e in zip(names, row)}
            assert widths == [m**j] and [c[:2] for c in calls] == [(m, j)]
            assert calls[0][2] == pairwise_columns(m, j)
    calls.clear()
    assert falsifying_assignment(parse("T -> F"), m) == {}
    assert calls == [(m, 0, (1,))] and pairwise_columns(m, 0) == (1,)


def test_slab_column_cache_holds_what_its_comment_states():
    """The columns and packed operations kept after the 48,828,125-row table
    over 11 variables at m=5 and p -> p at m=100,000 stay within the bound
    by _columns: 16 entries, 16 MiB in all while m * w <= 2^22 (_packed's
    8 entries may take 12 MiB more); these two take less than 8 MiB."""
    phi = parse(
        "(a & b & c & d & e & f & g & h & i & j & k) -> (k | j | i | h | g | f | e | d | c | b | a)"
    )
    assert _columns.cache_info().maxsize == 16
    assert 100_000 * _field_bits(100_000) <= _SLAB_BITS
    _columns.cache_clear()
    _packed.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert falsifying_assignment(phi, 5) is None
        assert falsifying_assignment(parse("p -> p"), 100_000) is None
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _columns.cache_info().currsize == _packed.cache_info().currsize == 2
    assert held <= 8 << 20


def test_slab_column_cache_holds_its_bound_once_screened_searches_fill_it():
    """The screen of one-antecedent searches caps its slabs by _SLAB_BITS
    as the tables do, so the entries it leaves in _columns and _packed keep
    within the bound above: after exhaustive four-world searches at m = 2,
    3 and 4, which fill both caches, they hold less than 8 MiB."""
    phi = parse("(p => (q & r)) -> ((p => q) & (p => r))")
    _columns.cache_clear()
    _packed.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert countermodel_search(phi, 3, SearchBounds(4)).candidates == 22877179934580
        assert countermodel_search(phi, 2, SearchBounds(4)).found is None
        assert countermodel_search(parse("p => p"), 4, SearchBounds(4), True).found is None
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _columns.cache_info().currsize == _packed.cache_info().currsize == 8
    assert held <= 8 << 20


@pytest.mark.parametrize("seed", range(4))
def test_value_under_matches_reference(seed):
    """Equal values; and equal errors when only one kind of error can arise
    (every variable has a value and no conditional occurs)."""
    rng = Random(seed)
    for _ in range(150):
        m = rng.choice((2, 3, 5))
        allow_cond = rng.random() < 0.3
        phi = random_formula(rng, rng.randrange(1, 5), TABLE_NAMES, allow_cond, TABLE_INDICES)
        env = {v: TruthValue(rng.randrange(m), m) for v in TABLE_NAMES if rng.random() < 0.9}
        new = _result(value_under, phi, env, m)
        ref = _result(reference_value_under, phi, env, m)
        if isinstance(ref, TruthValue) or (len(env) == len(TABLE_NAMES) and not allow_cond):
            assert new == ref
        else:
            assert issubclass(new[0], ValueError)


@pytest.mark.parametrize("m", [3, 5])
def test_normalize_matches_reference_on_random_formulas(m):
    rng = Random(m)  # the reference re-expands shared subtrees: keep m and depth small
    for _ in range(60):
        phi = chain_formula(rng, 4, m, allow_cond=True)
        assert normalize(phi, m) == reference_normalize(phi, m)


@pytest.mark.parametrize("m", [3, 5])
def test_fold_matches_the_reference_fold(m):
    """One NodeTable, normalize and the parse command's AST document, built
    through _fold and through the fold it replaced, on seeded formulas with
    J and I on the m-element chain. Every third formula reuses the one
    before by identity, and the tables take every formula in turn, so the
    fold meets nodes it has already built."""
    def expand(node, *kids):
        return _CORE[type(node)](node, m, *kids)

    rng = Random(100 + m)
    table, expected = NodeTable(), NodeTable()
    phi = Var("p")
    for k in range(150):
        prev, phi = phi, chain_formula(rng, rng.randrange(1, 7), m, allow_cond=True)
        if k % 3 == 2:
            phi = Iff(Imp(phi, prev), And(prev, phi))
        assert table.add(phi) == reference_fold(phi, expected._slot, expected._slots)
        assert list(map(id, table.nodes)) == list(map(id, expected.nodes))
        assert table.kids == expected.kids
        shape = identity_shape(normalize(phi, m))
        assert shape == identity_shape(reference_fold(phi, expand, {}))
        assert _fold(phi, _ast, {}) == reference_fold(phi, _ast, {})


def test_printer_and_parser_match_reference_on_random_formulas():
    rng = Random(17)
    for _ in range(400):
        phi = random_formula(rng, 5)
        text = print_formula(phi)
        assert text == reference_print(phi)
        assert parse(text) == reference_parse(text) == phi


# every token, pieces of tokens, and characters that are no token at all
TOKEN_TEXTS = (
    "p", "q", "r1", "T", "F", "J", "I", "{", "}", "/", "0", "1", "3", "(", ")", "~",
    "->", "=>", "<->", "|", "&", "(+)", "(*)", "(-)", "A", "-", "<", "+", "=", "_x", "é",
)


def _parse_result(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return exc.message, exc.span


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(TOKEN_TEXTS), st.sampled_from(("", " ", "\t"))), max_size=16))
def test_parser_matches_reference_on_random_token_strings(pieces):
    text = "".join(token + space for token, space in pieces)
    assert _parse_result(parse, text) == _parse_result(reference_parse, text)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(st.floats(0, 1), st.sampled_from(TOKEN_TEXTS + ("",)), st.booleans()),
        min_size=1,
        max_size=3,
    ),
)
def test_parser_matches_reference_on_damaged_formulas(seed, edits):
    """A printed random formula with characters replaced by, or tokens
    inserted before them; an empty replacement deletes the character."""
    text = print_formula(random_formula(Random(seed), 4))
    for where, token, replace in edits:
        k = int(where * len(text))
        text = text[:k] + token + text[k + replace :]
    assert _parse_result(parse, text) == _parse_result(reference_parse, text)


def test_parser_matches_reference_with_any_one_character_deleted():
    rng = Random(23)
    for _ in range(60):
        text = print_formula(random_formula(rng, 4))
        for k in range(len(text)):
            damaged = text[:k] + text[k + 1 :]
            assert _parse_result(parse, damaged) == _parse_result(reference_parse, damaged)


def _dump(model):
    return json.dumps(model_to_json(model), indent=2)


# (names, n_extra_relations): a repeated name, and more extra relations than
# a few small worlds have partitions, so some partition is drawn twice
MODEL_SHAPES = [(("p", "q", "r"), 0), (("p", "q"), 3), (("q", "p", "q"), 1), (("p",), 6)]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_random_model_matches_reference(m):
    repeated = 0
    for n in range(1, 7):
        for seed, (names, extra) in enumerate(MODEL_SHAPES):
            args = (1000 * m + 10 * n + seed, m, n, names, extra)
            new, ref = random_model(*args), reference_random_model(*args)
            assert new == ref
            assert _dump(new) == _dump(ref)
            repeated += len(ref.relations) < len(set(names)) + extra
    assert repeated


def _fid_fields(violations):
    return [(v.prop, v.source, v.target, v.degree, v.target_cell) for v in violations]


@pytest.mark.parametrize("m", [2, 3, 5, 9])
def test_check_fid_matches_reference_on_random_models(m):
    for n in (1, 2, 3, 4, 7, 16, 33, 64):
        for seed, (names, extra) in enumerate(MODEL_SHAPES):
            model = random_model(10_000 * m + 100 * n + seed, m, n, names, extra)
            got, want = check_fid(model), reference_check_fid(model)
            assert _fid_fields(got) == _fid_fields(want)


def _fid_model(m, worlds, relations):
    """A model with no variables whose relations are given as (cells,
    rows of numerators); nothing checks that the cells partition the
    worlds or that the rows are n x n."""
    return KripkeModel(
        m=m,
        worlds=tuple(worlds),
        vars=(),
        valuation={},
        relations={
            Proposition(tuple(map(tuple, cells))): tuple(
                tuple(TruthValue(e, m) for e in row) for row in rows
            )
            for cells, rows in relations
        },
        default_policy=None,
    )


MALFORMED_FID_MODELS = {
    "world in two cells": _fid_model(
        3, "xy", [([["x"], ["x", "y"], []], [[1, 2], [2, 1]])]
    ),
    "world in no cell": _fid_model(
        3, "xyz", [([["x"], [], ["z"]], [[2, 0, 1], [1, 2, 0], [0, 1, 2]])]
    ),
    "unknown world in a cell": _fid_model(
        3,
        "xy",
        [
            ([["x", "ghost"], ["y"], []], [[1, 1], [2, 0]]),
            ([["x"], ["ghost", "y"], []], [[2, 2], [1, 1]]),
            ([["ghost"], ["x"], ["y"]], [[2, 2], [2, 2]]),
        ],
    ),
    "rows longer than the worlds": _fid_model(
        2, "xy", [([["x"], ["y"]], [[1, 1, 1], [1, 0, 1], [1, 1, 1]])]
    ),
}


@pytest.mark.parametrize("name", MALFORMED_FID_MODELS)
def test_check_fid_matches_reference_on_malformed_models(name):
    model = MALFORMED_FID_MODELS[name]
    got, want = check_fid(model), reference_check_fid(model)
    assert want
    assert _fid_fields(got) == _fid_fields(want)


@pytest.mark.parametrize(
    "rows", [[[1, 1], [1]], [[1], [1, 1]], [[1, 1]], [], [[0, 0, 0]]]
)
def test_check_fid_raises_on_a_matrix_smaller_than_the_worlds(rows):
    model = _fid_model(2, "xy", [([["x"], ["y"]], rows)])
    with pytest.raises(IndexError):
        reference_check_fid(model)
    with pytest.raises(IndexError):
        check_fid(model)


def _documents():
    """Seeded model documents, m 2-9 and 1-16 worlds, each with the default
    relation given as "error" and as a numerator."""
    for m in range(2, 10):
        for n in range(1, 17):
            doc = model_to_json(random_model(100 * m + n, m, n, NAMES, n % 3))
            yield {**doc, "default_relation": "error"}
            yield {**doc, "default_relation": n % m}


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def _damaged(doc, rng):
    """Copies of doc, each with one valuation or matrix entry or row
    deleted or set to a value that is not a numerator on the chain."""
    worlds = doc["worlds"]
    v, w, x, y = rng.choice(NAMES), rng.choice(worlds), rng.choice(worlds), rng.choice(worlds)
    k = rng.randrange(len(doc["relations"]))
    column, rows = doc["valuation"][v], doc["relations"][k]["matrix"]

    def with_column(per_world):
        return {**doc, "valuation": {**doc["valuation"], v: per_world}}

    def with_rows(matrix):
        relations = list(doc["relations"])
        relations[k] = {**relations[k], "matrix": matrix}
        return {**doc, "relations": relations}

    yield {**doc, "valuation": _without(doc["valuation"], v)}
    yield with_column(_without(column, w))
    yield with_rows(_without(rows, x))
    yield with_rows({**rows, x: _without(rows[x], y)})
    for bad in (True, 1.0, "2", -1, doc["m"]):
        yield with_column({**column, w: bad})
        yield with_rows({**rows, x: {**rows[x], y: bad}})
        yield {**doc, "default_relation": bad}


def test_model_from_json_matches_the_entrywise_loader():
    rng = Random(9)
    messages = set()
    for doc in _documents():
        model = model_from_json(doc)
        assert model == entrywise_model_from_json(doc)
        assert model_to_json(model) == doc
        for bad in _damaged(doc, rng):
            new = _result(model_from_json, bad)
            assert new == _result(entrywise_model_from_json, bad)
            if isinstance(new, tuple):
                assert new[0] is ModelFormatError
                messages.add(re.sub(r"'\w+'|-?\d+", "_", new[1]))
    assert messages == {
        f"bad model document: {where}: {problem}"
        for where in ("valuation of _ at _", "relation _ entry _ -> _", "default_relation")
        for problem in ("numerator must be an integer", "numerator _ not in [_, _]")
    } | {
        "bad model document: relation _: matrix row for _ missing",
        "bad model document: relation _: matrix entry _ -> _ missing",
    }


_ONE = IntEnum("_ONE", {"ONE": 1}).ONE  # an int subclass other than bool


def _with_key_after(row, after, key, raw):
    """row with key set to raw, placed right after the key after."""
    items = list(row.items())
    at = [k for k, _ in items].index(after) + 1
    return dict(items[:at] + [(key, raw)] + items[at:])


def _corrupted(doc, rng):
    """Copies of doc with one valuation or matrix entry, at the first, a
    middle or the last column, set to a value that is not a plain
    numerator on the chain, deleted, or joined by a key that names no
    world; and copies with that row, or that valuation, not an object."""
    worlds = doc["worlds"]
    v, x = rng.choice(sorted(doc["valuation"])), rng.choice(worlds)
    k = rng.randrange(len(doc["relations"]))
    column, rows = doc["valuation"][v], doc["relations"][k]["matrix"]

    def with_column(per_world):
        return {**doc, "valuation": {**doc["valuation"], v: per_world}}

    def with_row(row):
        relations = list(doc["relations"])
        relations[k] = {**relations[k], "matrix": {**rows, x: row}}
        return {**doc, "relations": relations}

    for y in dict.fromkeys((worlds[0], worlds[len(worlds) // 2], worlds[-1])):
        for bad in (True, 1.0, "1", None, -1, doc["m"], _ONE):
            yield with_column({**column, y: bad})
            yield with_row({**rows[x], y: bad})
        yield with_column(_without(column, y))
        yield with_row(_without(rows[x], y))
        yield with_column(_with_key_after(column, y, "nowhere", 0))
        yield with_row(_with_key_after(rows[x], y, "nowhere", 0))
    yield with_column(list(column.values()))
    yield with_row(list(rows[x].values()))


def test_model_from_json_matches_the_per_entry_loader_on_corrupted_rows():
    rng = Random(14)
    outcomes = set()
    for m in (2, 3, 5, 9):
        for n in (1, 2, 5, 16):
            doc = model_to_json(random_model(10 * m + n, m, n, NAMES, n % 3))
            for bad in _corrupted(doc, rng):
                new = _result(model_from_json, bad)
                assert new == _result(reference_model_from_json, bad)
                outcomes.add(new[0] if isinstance(new, tuple) else KripkeModel)
    assert outcomes == {ModelFormatError, KripkeModel}


def _indent2(doc):
    out = io.StringIO()
    json.dump(doc, out, indent=2)
    return out.getvalue() + "\n"


def _model_cases():
    """Seeded models with m in {2, 3, 5, 10**5}, 1-64 worlds, 0-4 extra
    relations, and the default relation a numerator in every other one,
    "error" in the rest. The m = 10**5 ones have few relations, as json's
    indent encoder takes about 0.2 s on each 10**5-cell proposition."""
    rng = Random(7)
    for seed in range(24):
        m = (2, 3, 5)[seed % 3]
        n = 64 if seed % 8 == 0 else rng.randint(1, 64)
        yield random_model(seed, m, n, NAMES[: 1 + seed % 3], seed % 5)
    yield random_model(1, 10**5, 3, ("p",), 2)
    yield random_model(2, 10**5, 9, ("p",), 0)


def test_save_model_writes_the_bytes_of_json_dump(tmp_path):
    path = tmp_path / "model.json"
    for k, model in enumerate(_model_cases()):
        model = replace(model, default_policy=model.default_policy if k % 2 else None)
        save_model(model, str(path))
        assert path.read_bytes() == _indent2(model_to_json(model)).encode("utf-8")


def test_save_model_writes_quoted_and_non_ascii_names_as_json_does(tmp_path):
    worlds = ('w"0', "w\\1", "w\n2", "w\u00e93", "\u4e16\u754c")
    names = ('p"', "q\\", "r\n", "\u00df")
    columns = [tuple((i + j) % 3 for j in range(len(worlds))) for i in range(len(names))]
    rows = [[(x * y) % 3 for y in range(len(worlds))] for x in range(len(worlds))]
    path = tmp_path / "model.json"
    for relations, default in (({columns[0]: rows, (2, 2, 0, 1, 0): rows}, 1), ({}, None)):
        model = model_of(3, worlds, names, columns, relations, default)
        save_model(model, str(path), {"class_map": {w: worlds[0] for w in worlds}})
        doc = {**model_to_json(model), "class_map": {w: worlds[0] for w in worlds}}
        assert path.read_bytes() == _indent2(doc).encode("utf-8")
        assert model_from_json(json.loads(path.read_text(encoding="utf-8"))) == model


def test_save_model_writes_nested_extra_keys_as_json_does(tmp_path):
    path, model = tmp_path / "model.json", random_model(4, 3, 2, ("p",), 1)
    extra = {
        "notes": [[], {}, [1, [2.5, []]], {"a": {"b": [None, True]}}, ((1,), ())],
        7: {"": [[[]]]},
        None: "x",
    }
    save_model(model, str(path), extra)
    assert path.read_bytes() == _indent2({**model_to_json(model), **extra}).encode("utf-8")
    loop: list = []
    loop.append([loop])
    with pytest.raises(ValueError, match="Circular reference detected"):
        save_model(model, str(path), {"loop": loop})


def test_filtrate_quotient_file_is_what_json_dump_writes(tmp_path, capsys):
    source, sigma, out = tmp_path / "model.json", tmp_path / "sigma.txt", tmp_path / "q.json"
    save_model(random_model(5, 3, 12, NAMES, 2), str(source))
    sigma.write_text("p => q\n")
    code = main(["filtrate", "--model", str(source), "--sigma", str(sigma), "--out", str(out)])
    assert code == 0, capsys.readouterr().out
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert len(doc["worlds"]) < len(doc["class_map"]) == 12  # some worlds were merged
    assert list(doc)[-1] == "class_map"
    assert out.read_bytes() == _indent2(doc).encode("utf-8")


# sigma texts: repeated antecedent propositions (p, p & p, p | p, and q and
# ~~q share theirs), antecedents that no model stores a relation for, and
# nested conditionals
SIGMAS = [
    "p => q",
    "(p => q) & ((p & p) => r) & ((p | p) => q)",
    "(q => p) -> (~~q => p)",
    "((p -> q) => r) | (p => (q => r))",
    "((p => q) => r) & ((q => p) => (p => q))",
]


def _filtration_cases(m):
    """Seeded models with m 2-5, 1-6 worlds and every default policy,
    each with the subformula closures of SIGMAS, two random formulas and
    one spelled over the reserved variable."""
    rng = Random(m)
    for n in range(1, 7):
        base = random_model(50 * m + n, m, n, NAMES, n % 3)
        formulas = [parse(text) for text in SIGMAS]
        formulas += [chain_formula(rng, 3, m, names=NAMES, allow_cond=True) for _ in range(2)]
        formulas.append(normalize(parse("(p => T) & (F => q)"), m))
        for policy in _policies(m):
            model = replace(base, default_policy=policy)
            for phi in formulas:
                yield model, subformula_closure(phi)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_filtrate_and_preservation_match_reference(m):
    merged = 0
    for model, sigma in _filtration_cases(m):
        new, ref = _result(filtrate, model, sigma), _result(reference_filtrate, model, sigma)
        if isinstance(ref[0], type):
            assert new == ref
            continue
        (quotient, class_map), (ref_quotient, ref_class_map) = new, ref
        assert quotient == ref_quotient
        assert _dump(quotient) == _dump(ref_quotient)
        assert class_map == ref_class_map
        assert check_preservation(model, quotient, class_map, sigma) == []
        assert reference_check_preservation(model, quotient, class_map, sigma) == []
        merged += len(quotient.worlds) < len(model.worlds)
    assert merged


def _tampered(quotient, class_map, rng):
    """The quotient and class map, each changed in one way that can break
    preservation."""
    m, worlds = quotient.m, quotient.worlds
    v = rng.choice(sorted(quotient.valuation))
    w = rng.choice(worlds)
    valuation = {u: dict(per) for u, per in quotient.valuation.items()}
    valuation[v][w] = TruthValue((valuation[v][w].numerator + 1) % m, m)
    yield replace(quotient, valuation=valuation), class_map
    for prop, matrix in quotient.relations.items():
        rows = [list(row) for row in matrix]
        rows[0][-1] = TruthValue(m - 1 - rows[0][-1].numerator, m)
        relations = dict(quotient.relations)
        relations[prop] = tuple(map(tuple, rows))
        yield replace(quotient, relations=relations), class_map
    if quotient.relations:
        yield replace(quotient, relations={}), class_map  # missing relations
    for x in sorted(class_map):
        yield quotient, {**class_map, x: rng.choice(worlds)}
        yield quotient, {**class_map, x: "elsewhere"}  # UnknownWorldError
        yield quotient, {y: c for y, c in class_map.items() if y != x}  # KeyError


@pytest.mark.parametrize("m", [2, 3, 5])
def test_preservation_on_tampered_quotients_matches_reference(m):
    rng = Random(m)
    seen = set()
    for model, sigma in _filtration_cases(m):
        try:
            quotient, class_map = reference_filtrate(model, sigma)
        except ModelError:
            continue
        if not quotient.valuation:
            continue
        for bad, bad_map in _tampered(quotient, class_map, rng):
            args = (model, bad, bad_map, sigma)
            want = _result(reference_check_preservation, *args)
            assert _result(check_preservation, *args) == want
            seen.add(want[0] if isinstance(want, tuple) else bool(want))
    assert {True, False, UnknownWorldError, KeyError, MissingRelationError} <= seen
