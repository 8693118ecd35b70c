"""The compiled evaluator and truth tables, the search, normalize,
the parser and printer, filtration, its preservation check, random models
and the model document loader against the reference implementations in
reference.py."""

import json
import re
import sys
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcond.parser import ParseError, parse, print_formula
from mvcond.search import (
    _SLAB_CELLS,
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
    UndeclaredVariableError,
    UnknownWorldError,
    model_from_json,
    model_of,
    model_to_json,
    operations,
)
from mvcond.syntax import (
    RESERVED_VAR,
    And,
    Cond,
    Iff,
    Imp,
    J,
    Not,
    Or,
    UnrepresentableIndexError,
    Var,
    normalize,
    subformula_closure,
)
from mvcond.truthvalues import TruthValue

from formula_gen import chain_formula, random_formula
from reference import (
    ReferenceEvaluator,
    _cond_depth,
    entrywise_model_from_json,
    enumerated_search,
    reference_abstract_conditionals,
    reference_check_preservation,
    reference_falsifying_assignment,
    reference_filtrate,
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


def _valuations(phi, m, n, relation_values):
    """Per n-world valuation, in search order: whether its value tuples at
    the worlds are non-decreasing, making it the least of its orbit under
    permutations of the worlds, and its candidate count when none refutes
    phi, |rows|^(n * its number of distinct antecedent propositions)."""
    closure = subformula_closure(phi)
    names = sorted({psi.name for psi in closure if isinstance(psi, Var)})
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


def _deepest_visit(search, *args, **kwargs):
    """search's outcome fields and the deepest nesting of visit calls."""
    depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal depth, deepest
        if frame.f_code.co_name == "visit":
            if event == "call":
                depth += 1
                deepest = max(deepest, depth)
            elif event == "return":
                depth -= 1

    sys.setprofile(profile)
    try:
        fields = _fields(search(*args, **kwargs))
    finally:
        sys.setprofile(None)
    return fields, deepest


@pytest.mark.parametrize(
    "text,m,bounds,fid,deepest",
    [
        ("((p => q) => r) => (s -> s)", 2, SearchBounds(2, None, 20000), False, 4),
        ("((p => q) => r) => (s -> s)", 3, SearchBounds(2, None, 5000), True, 4),
        ("(((p => q) => p) => q) | p", 2, SearchBounds(2), True, 4),
        ("(((p => q) => p) => q) | p", 2, SearchBounds(2), False, 2),  # the first candidate
        ("(((p => q) => p) => q) | p", 3, SearchBounds(2, None, 20000), True, 3),
    ],
)
def test_search_matches_enumeration_with_a_relation_round_at_every_level(
    text, m, bounds, fid, deepest
):
    """Antecedents 0, 1 and 2 conditionals deep: each gets its final value,
    and so its relation, one round after the one below it."""
    phi = parse(text)
    got, reached = _deepest_visit(countermodel_search, phi, m, bounds, require_fid=fid)
    assert got == _fields(enumerated_search(phi, m, bounds, require_fid=fid))
    assert reached == deepest


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

    def recording(m, n, relation, default):
        widths.append(n)
        return operations(m, n, relation, default)

    monkeypatch.setattr("mvcond.search.operations", recording)
    return widths


@pytest.mark.parametrize("seed", range(4))
def test_truth_tables_match_reference_at_every_slab_width(seed, monkeypatch):
    """With the cell cap at m^i times the table's slot count, slabs are m^i
    rows wide, for each i from 1 until the whole table is one slab. Half
    the formulas are implications between two random ones, so that more
    witnesses lie past the first slab and more tables hold."""
    widths = _slab_widths(monkeypatch)
    rng = Random(seed)
    reached, later, holds = set(), 0, 0
    for _ in range(60):
        phi = random_formula(rng, rng.randrange(1, 5), TABLE_NAMES, True, TABLE_INDICES)
        if rng.random() < 0.5:
            phi = Imp(phi, random_formula(rng, 3, TABLE_NAMES, True, TABLE_INDICES))
        m = rng.choice((2, 3, 4, 5, 9))
        slots = len(subformula_closure(phi))
        for abstract in (False, True):
            expected = _result(reference_falsifying_assignment, phi, m, abstract)
            monkeypatch.setattr("mvcond.search._SLAB_CELLS", _SLAB_CELLS)
            widths.clear()
            assert _result(falsifying_assignment, phi, m, abstract) == expected
            assert all(n * slots <= max(m * slots, _SLAB_CELLS) for n in widths)
            holds += expected is None
            for i in range(1, 9):
                monkeypatch.setattr("mvcond.search._SLAB_CELLS", m**i * slots)
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
        monkeypatch.setattr("mvcond.search._SLAB_CELLS", m**j * len(subformula_closure(phi)))
        widths.clear()
        hit = falsifying_assignment(phi, m)
        assert widths == [m**j]
        assert hit == {v: TruthValue(e, m) for v, e in zip(names, row)}
        assert hit == reference_falsifying_assignment(phi, m)


def test_truth_table_slabs_are_at_least_a_chain_wide(monkeypatch):
    """A cap below m times the slot count still gives slabs of m rows, as
    many as there are chain values; a table without variables has one row."""
    widths = _slab_widths(monkeypatch)
    monkeypatch.setattr("mvcond.search._SLAB_CELLS", 0)
    hit = falsifying_assignment(parse("p -> q"), 5)
    assert hit == {"p": TruthValue(1, 5), "q": TruthValue(0, 5)}
    assert falsifying_assignment(parse("T -> F"), 5) == {}
    assert widths == [5, 1]


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
    each with the subformula closures of SIGMAS and two random formulas."""
    rng = Random(m)
    for n in range(1, 7):
        base = random_model(50 * m + n, m, n, NAMES, n % 3)
        formulas = [parse(text) for text in SIGMAS]
        formulas += [chain_formula(rng, 3, m, names=NAMES, allow_cond=True) for _ in range(2)]
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
