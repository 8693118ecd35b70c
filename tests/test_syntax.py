"""Formula trees, derived-connective expansion, graded-test constructions."""

import operator
import pickle
import time
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction
from random import Random
from unittest import mock

import pytest

from mvcond.search import value_under
from mvcond.semantics import Evaluator, KripkeModel
from mvcond.syntax import (
    _KIDS,
    And,
    Bot,
    Cond,
    Formula,
    I,
    Iff,
    Imp,
    J,
    NodeTable,
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

from formula_gen import chain_formula, random_formula
from reference import generated, reference_normalize

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


def test_node_table_adds_an_added_formula_without_a_walk():
    """The same object again, or any of its subformulas, answers its slot
    from the id map and leaves nodes and kids as they were; an equal but
    distinct copy walks and shares the slots."""
    table = NodeTable()
    phi = Imp(P, Cond(J(Fraction(1, 2), Q), Not(P)))
    slot = table.add(phi)
    nodes, kids = list(table.nodes), list(table.kids)
    with mock.patch("mvcond.syntax._fold", side_effect=AssertionError("walked")):
        assert table.add(phi) == slot
        assert [table.add(node) for node in nodes] == list(range(len(nodes)))
    copy = Imp(Var("p"), Cond(J(Fraction(1, 2), Var("q")), Not(Var("p"))))
    assert copy is not phi and table.add(copy) == slot
    assert table.add(copy.right.left) == table.add(phi.right.left)
    assert table.kids == kids
    assert len(table.nodes) == len(nodes) and all(map(operator.is_, table.nodes, nodes))


def test_children_and_free_vars():
    assert children(Top()) == ()
    assert children(Not(P)) == (P,)
    assert children(J(1, P)) == (P,)
    assert children(Imp(P, Q)) == (P, Q)
    assert free_vars(Imp(P, Cond(Q, Bot()))) == frozenset({"p", "q"})
    assert free_vars(Top()) == frozenset()


def test_every_walk_reads_each_node_type_the_same_way():
    """children and the one walk agree on every connective, key J/I by index
    and reject anything that is not a formula node."""
    binary = (Imp, Cond, And, Or, OPlus, OTimes, OMinus, Iff)
    assert all(children(kind(P, Q)) == (P, Q) for kind in binary)
    assert children(I(0, Q)) == (Q,) and children(Var("p")) == children(Bot()) == ()
    assert children("p") == ()
    phi = And(J(0, P), And(J(1, P), I(1, P)))
    assert subformula_closure(phi) == [P, J(0, P), J(1, P), I(1, P), And(J(1, P), I(1, P)), phi]
    for bad in (Not("p"), And(P, None), "p"):
        with pytest.raises(TypeError, match="not a formula node: "):
            subformula_closure(bad)
        with pytest.raises(TypeError, match="not a formula node: "):
            normalize(bad, 3)


def test_structural_equality_is_exact():
    assert Imp(P, Q) == Imp(Var("p"), Var("q"))
    assert Imp(P, Q) != Imp(Q, P)
    assert J(Fraction(1, 2), P) != J(Fraction(1), P)
    assert J(Fraction(1, 2), P) != I(Fraction(1, 2), P)


BINARY = [Imp, Cond, And, Or, OPlus, OTimes, OMinus, Iff]


def test_node_classes_keep_their_own_identity():
    for op in BINARY:
        assert repr(op(P, Q)) == f"{op.__name__}(left=Var(name='p'), right=Var(name='q'))"
        for other in BINARY:
            assert (op(P, Q) == other(P, Q)) == (op is other)
    assert repr(J(1, P)) == "J(index=Fraction(1, 1), child=Var(name='p'))"
    assert repr(I(Fraction(1, 2), Not(P))) == (
        "I(index=Fraction(1, 2), child=Not(child=Var(name='p')))"
    )
    assert Imp(P, Q) != And(P, Q)
    assert J(1, P) == J(Fraction(1), P) and hash(J(1, P)) == hash(J(Fraction(1), P))
    assert J(1, P) != I(1, P)
    phi = Cond(And(P, J(Fraction(1, 3), Q)), Iff(Top(), OMinus(R, Bot())))
    same = Cond(And(Var("p"), J(Fraction(2, 6), Var("q"))), Iff(Top(), OMinus(R, Bot())))
    assert phi == same and hash(phi) == hash(same)
    assert pickle.loads(pickle.dumps(phi)) == phi
    with pytest.raises(ValueError, match=r"graded operator index 3/2 outside \[0, 1\]"):
        I(Fraction(3, 2), P)


@pytest.mark.parametrize(
    "node, name",
    [(Imp(P, Q), "left"), (Cond(P, Q), "right"), (Iff(P, Q), "extra"), (J(1, P), "index"),
     (I(0, P), "child"), (I(0, P), "extra"), (Not(P), "child"), (Var("p"), "extra")],
)
def test_node_attributes_cannot_be_set(node, name):
    with pytest.raises(FrozenInstanceError):
        setattr(node, name, Q)


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


def _rebuilt(phi, rng, change=-1):
    """phi built again from new nodes, a whole J/I index now and then as an
    int, and shared subtrees unshared; the node met change-th in pre-order,
    if any, is put back as a different one: another name, index or
    connective, its children swapped, or T for it."""
    count = -1

    def build(node):
        nonlocal count
        count += 1
        here = count == change
        kids = [build(kid) for kid in children(node)]
        kind = type(node)
        if here and rng.random() < 0.2:
            return Top() if kind is not Top else Bot()
        if kind is Var:
            return Var(node.name + "'" if here else node.name)
        if kind in (Top, Bot):
            return (Bot if kind is Top else Top)() if here else kind()
        if kind in (J, I):
            index = node.index
            if here and rng.random() < 0.5:
                kind = I if kind is J else J
            elif here:
                index = 1 - index if index != Fraction(1, 2) else Fraction(1, 3)
            whole = index.denominator == 1 and rng.random() < 0.5
            return kind(int(index) if whole else index, *kids)
        if here and len(kids) == 2 and rng.random() < 0.5:
            kids.reverse()
        elif here and len(kids) == 2:
            kind = rng.choice([other for other in BINARY if other is not kind])
        elif here:  # Not becomes J{1}
            kind, kids = J, [1, *kids]
        return kind(*kids)

    return build(phi)


def _agree(x, y, hashable=True):
    """== and != against the dataclasses' generated ones, both ways, and
    hash wherever x == y."""
    same = generated(x) == generated(y)
    assert (x == y, y == x, x != y) == (same, same, not same)
    if same and hashable:
        assert hash(x) == hash(y)
    return same


@pytest.mark.parametrize("seed", range(4))
def test_equality_matches_the_generated_one_on_random_pairs(seed):
    """Equal copies built apart, one-node changes, int and Fraction indices,
    shared subtrees (normalize's J/I expansions) against shared and
    unshared copies, and independent pairs."""
    rng = Random(seed)
    verdicts = []
    for _ in range(60):
        x = random_formula(rng, rng.randrange(1, 5), names=("p", "q"), allow_cond=True)
        size = sum(1 for _ in _preorder(x))
        m = rng.randrange(2, 5)
        shared = normalize(chain_formula(rng, 3, m, ("p", "q")), m)
        pairs = [
            (x, x),
            (x, _rebuilt(x, rng)),
            (x, _rebuilt(x, rng, rng.randrange(size))),
            (x, random_formula(rng, rng.randrange(1, 5), names=("p", "q"))),
            (shared, normalize(_rebuilt(shared, rng), m)),
            (shared, _rebuilt(shared, rng)),
            (shared, _rebuilt(shared, rng, rng.randrange(50))),
        ]
        verdicts += [_agree(a, b) for a, b in pairs]
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def _preorder(phi):
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def test_equality_of_nodes_with_children_that_are_not_formulas():
    """Such a child compares with its own ==, as the generated == had it;
    hash is a TypeError on it, and == on a non-formula is NotImplemented."""
    pairs = [
        (Not("x"), Not("x")), (Not("x"), Not("y")), (Not(1), Not(1.0)), (Not(P), Not("p")),
        (And(P, None), And(P, None)), (And(P, None), And(P, Q)), (Var(1), Var(1.0)),
        (J(1, "x"), J(Fraction(1), "x")), (Imp(Not([1]), P), Imp(Not([1]), P)),
    ]
    assert [_agree(x, y, False) for x, y in pairs] == [1, 0, 1, 0, 1, 0, 1, 1, 1]
    for bad in (Not("x"), And(P, None), J(0, "x")):
        with pytest.raises(TypeError, match="^not a formula node: "):
            hash(bad)
    assert P.__eq__("p") is NotImplemented and P != "p" and P != None  # noqa: E711
    assert P == mock.ANY and Imp(P, Q) == Imp(P, mock.ANY)


def test_node_classes_generate_no_equality_or_hash():
    """Every node class inherits Formula's == and hash, and stores nothing
    beyond its fields: no node has a __dict__, and each class's slots, over
    its MRO, are exactly its fields."""
    for kind in _KIDS:
        assert "__eq__" not in vars(kind) and "__hash__" not in vars(kind)
        assert kind.__eq__ is Formula.__eq__ and kind.__hash__ is Formula.__hash__
        assert all("__slots__" in vars(cls) for cls in kind.__mro__ if cls is not object)
        slots = [slot for cls in kind.__mro__ for slot in vars(cls).get("__slots__", ())]
        assert sorted(slots) == sorted(field.name for field in fields(kind))
    phi = Imp(J(1, P), Q)
    assert phi == Imp(J(1, P), Q) and hash(phi) == hash(Imp(J(1, P), Q))
    assert (phi.left, phi.right, P.name) == (J(1, P), Q, "p")
    for node in (phi, phi.left, P, Top()):
        assert not hasattr(node, "__dict__")
    assert pickle.dumps(phi) == pickle.dumps(Imp(J(1, P), Q))
