"""Formula trees, derived-connective expansion, graded-test constructions."""

import time
from fractions import Fraction
from random import Random

import pytest

from mvcond.search import value_under
from mvcond.semantics import Evaluator, KripkeModel
from mvcond.syntax import (
    And,
    Bot,
    Cond,
    I,
    Iff,
    Imp,
    J,
    Not,
    OMinus,
    OPlus,
    OTimes,
    Or,
    RESERVED_VAR,
    Top,
    UnrepresentableIndexError,
    Var,
    children,
    free_vars,
    imp_chain,
    index_numerator,
    mk_I,
    mk_J,
    normalize,
    strong_product,
    strong_sum,
    subformula_closure,
)
from mvcond.truthvalues import TruthValue, chain

from formula_gen import chain_formula
from reference import reference_normalize

P, Q, R = Var("p"), Var("q"), Var("r")


def values_of(phi, m):
    """Truth table of phi over its variables as a list of chain values."""
    names = sorted(free_vars(phi))
    assert len(names) == 1
    return [value_under(phi, {names[0]: v}, m) for v in chain(m)]


def test_normalize_or_and_otimes():
    assert normalize(Or(P, Q), 3) == Imp(Imp(P, Q), Q)
    assert normalize(And(P, Q), 3) == Not(Imp(Imp(Not(P), Not(Q)), Not(Q)))
    assert normalize(OTimes(P, Q), 3) == Not(Imp(P, Not(Q)))


def test_normalize_remaining_connectives():
    assert normalize(OPlus(P, Q), 3) == Imp(Not(P), Q)
    assert normalize(OMinus(P, Q), 3) == Not(Imp(P, Not(Not(Q))))
    assert normalize(Top(), 3) == Imp(Var(RESERVED_VAR), Var(RESERVED_VAR))
    assert normalize(Bot(), 3) == Not(Imp(Var(RESERVED_VAR), Var(RESERVED_VAR)))
    got = normalize(Iff(P, Q), 3)
    want = normalize(And(Imp(P, Q), Imp(Q, P)), 3)
    assert got == want


def test_normalize_keeps_core_nodes_and_conditionals():
    phi = Cond(P, Imp(Q, Not(R)))
    assert normalize(phi, 3) == phi


def test_normalize_is_idempotent_on_random_formulas():
    rng = Random(20240)
    for m in (3, 5):
        for _ in range(60):
            phi = chain_formula(rng, 5, m, allow_cond=True)
            once = normalize(phi, m)
            assert normalize(once, m) == once


def test_mk_j_structural_examples():
    assert mk_J(1, P, 3) == Not(Imp(P, Not(P)))
    assert mk_J(0, P, 3) == mk_J(1, Not(P), 3)
    # closing case at a = 1/2, m = 3: the index-1 test of ~prod(phi, n) <-> phi
    iff_core = lambda x, y: Not(
        Imp(Imp(Not(Imp(x, y)), Not(Imp(y, x))), Not(Imp(y, x)))
    )
    assert mk_J(Fraction(1, 2), P, 3) == mk_J(1, iff_core(Not(P), P), 3)


def test_mk_j_recursion_case_with_strict_index_increase():
    # m=6, a=3/5: n=2 and n != a/(1-a), so the index moves up to 4/5
    product_two = Not(Imp(P, Not(P)))
    want = mk_J(Fraction(4, 5), Not(product_two), 6)
    assert mk_J(Fraction(3, 5), P, 6) == want


def test_mk_j_is_the_exact_value_indicator():
    """J at index a maps value a to 1 and every other value to 0."""
    for m in range(2, 8):
        for k in range(m):
            table = values_of(mk_J(Fraction(k, m - 1), P, m), m)
            want = [
                TruthValue.top(m) if i == k else TruthValue.bottom(m)
                for i in range(m)
            ]
            assert table == want


def test_mk_i_is_the_threshold_indicator():
    for m in range(2, 8):
        for k in range(m):
            table = values_of(mk_I(Fraction(k, m - 1), P, m), m)
            want = [
                TruthValue.top(m) if i >= k else TruthValue.bottom(m)
                for i in range(m)
            ]
            assert table == want


def test_mk_i_structure_at_m3():
    j_half = mk_J(Fraction(1, 2), P, 3)
    j_one = mk_J(1, P, 3)
    j_zero = mk_J(0, P, 3)
    assert mk_I(1, P, 3) == j_one
    assert mk_I(Fraction(1, 2), P, 3) == Or(j_half, j_one)
    assert mk_I(0, P, 3) == Or(Or(j_zero, j_half), j_one)


def test_classical_degeneration_of_mk_j():
    assert mk_J(1, P, 2) == P
    assert mk_J(0, P, 2) == Not(P)


def test_graded_node_vs_expansion_agreement():
    """The first-class J/I nodes and their expansions have the same tables."""
    for m in range(2, 8):
        for k in range(m):
            a = Fraction(k, m - 1)
            for v in chain(m):
                env = {"p": v}
                assert value_under(J(a, P), env, m) == value_under(
                    mk_J(a, P, m), env, m
                )
                assert value_under(I(a, P), env, m) == value_under(
                    mk_I(a, P, m), env, m
                )


def test_unrepresentable_index_is_an_error():
    with pytest.raises(UnrepresentableIndexError):
        mk_J(Fraction(1, 3), P, 3)
    with pytest.raises(UnrepresentableIndexError):
        normalize(J(Fraction(1, 3), P), 3)
    with pytest.raises(UnrepresentableIndexError):
        index_numerator(Fraction(1, 2), 4)
    assert index_numerator(Fraction(2, 3), 4) == 2
    assert index_numerator(Fraction(1, 2), 5) == 2


def test_graded_node_rejects_indices_outside_unit_interval():
    with pytest.raises(ValueError):
        J(Fraction(3, 2), P)
    with pytest.raises(ValueError):
        I(Fraction(-1, 2), P)
    assert J(1, P).index == Fraction(1)


def test_imp_chain():
    assert imp_chain([], Q) == Q
    assert imp_chain([P], Q) == Imp(P, Q)
    assert imp_chain([P, R], Q) == Imp(R, Imp(P, Q))


def test_strong_product_and_sum():
    assert strong_product([P]) == P
    assert strong_product([P, Q]) == OTimes(P, Q)
    assert strong_product([P, P, P]) == OTimes(OTimes(P, P), P)
    assert strong_sum([P, Q, R]) == OPlus(OPlus(P, Q), R)
    with pytest.raises(ValueError):
        strong_product([])
    with pytest.raises(ValueError):
        strong_sum([])


def test_subformula_closure_order_and_dedup():
    assert subformula_closure(P) == [P]
    assert subformula_closure(Cond(P, Q)) == [P, Q, Cond(P, Q)]
    phi = Imp(P, Imp(P, Q))
    assert subformula_closure(phi) == [P, Q, Imp(P, Q), phi]


def test_subformula_closure_keeps_derived_nodes_unexpanded():
    phi = And(J(Fraction(1, 2), P), Q)
    assert subformula_closure(phi) == [P, J(Fraction(1, 2), P), Q, phi]


def test_children_and_free_vars():
    assert children(Top()) == ()
    assert children(Not(P)) == (P,)
    assert children(J(1, P)) == (P,)
    assert children(Imp(P, Q)) == (P, Q)
    assert free_vars(Imp(P, Cond(Q, Bot()))) == frozenset({"p", "q"})
    assert free_vars(Top()) == frozenset()


def test_structural_equality_is_exact():
    assert Imp(P, Q) == Imp(Var("p"), Var("q"))
    assert Imp(P, Q) != Imp(Q, P)
    assert J(Fraction(1, 2), P) != J(Fraction(1), P)
    assert J(Fraction(1, 2), P) != I(Fraction(1, 2), P)


def _nested(op, depth, m):
    phi = P
    for _ in range(depth):
        phi = op(Fraction(1, 4), phi)
    return phi


@pytest.mark.parametrize("op", [J, I])
def test_normalize_expands_shared_subtrees_once(op):
    phi = _nested(op, 3, 5)
    start = time.perf_counter()
    out = normalize(phi, 5)
    assert time.perf_counter() - start < 1.0
    # the result is a DAG; the compiled evaluator walks it once per node
    model = KripkeModel(
        5,
        tuple(f"w{k}" for k in range(5)),
        ("p",),
        {"p": {f"w{k}": TruthValue(k, 5) for k in range(5)}},
        {},
        TruthValue(0, 5),
    )
    evaluator = Evaluator(model)
    assert [evaluator.value(w, out) for w in model.worlds] == [
        evaluator.value(w, phi) for w in model.worlds
    ]
    two = _nested(op, 2, 5)
    assert normalize(two, 5) == reference_normalize(two, 5)
