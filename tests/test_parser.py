"""Concrete syntax: grammar, precedence, errors with spans, round trips."""

from fractions import Fraction
from random import Random

import pytest

from mvcond.parser import ParseError, SourceSpan, parse, print_formula
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
    Top,
    Var,
)

from formula_gen import random_formula

P, Q, R = Var("p"), Var("q"), Var("r")


def test_implication_is_right_associative():
    assert parse("p -> q -> r") == Imp(P, Imp(Q, R))


def test_conditional_axiom_shape():
    got = parse("(p => (q & r)) -> ((p => q) & (p => r))")
    want = Imp(
        Cond(P, And(Q, R)),
        And(Cond(P, Q), Cond(P, R)),
    )
    assert got == want


def test_graded_atoms():
    assert parse("J{1/2}(p)") == J(Fraction(1, 2), P)
    assert parse("I{3/4}(p | q)") == I(Fraction(3, 4), Or(P, Q))
    assert parse("J{1}(p)") == J(Fraction(1), P)
    assert parse("J{0}(p)") == J(Fraction(0), P)


def test_constants_and_negation():
    assert parse("T") == Top()
    assert parse("~F") == Not(Bot())
    assert parse("~~p") == Not(Not(P))


def test_precedence_ladder():
    # (-) binds tighter than (*) than (+) than & than |
    assert parse("p | q & r") == Or(P, And(Q, R))
    assert parse("p & q (+) r") == And(P, OPlus(Q, R))
    assert parse("p (+) q (*) r") == OPlus(P, OTimes(Q, R))
    assert parse("p (*) q (-) r") == OTimes(P, OMinus(Q, R))
    assert parse("~p (-) q") == OMinus(Not(P), Q)
    assert parse("p | q -> r") == Imp(Or(P, Q), R)
    assert parse("p -> q <-> r -> q") == Iff(Imp(P, Q), Imp(R, Q))


def test_left_associative_families():
    assert parse("p | q | r") == Or(Or(P, Q), R)
    assert parse("p & q & r") == And(And(P, Q), R)
    assert parse("p (-) q (-) r") == OMinus(OMinus(P, Q), R)


def test_non_associative_operators_demand_parens():
    with pytest.raises(ParseError, match="non-associative"):
        parse("p => q => r")
    with pytest.raises(ParseError, match="non-associative"):
        parse("p <-> q <-> r")
    assert parse("p => (q => r)") == Cond(P, Cond(Q, R))
    assert parse("(p <-> q) <-> r") == Iff(Iff(P, Q), R)


def test_source_span_rejects_a_reversed_or_negative_range():
    assert SourceSpan(1, 3) == SourceSpan(1, 3)
    with pytest.raises(ValueError, match=r"^bad span 3\.\.1$"):
        SourceSpan(3, 1)
    with pytest.raises(ValueError, match=r"^bad span -1\.\.2$"):
        SourceSpan(-1, 2)


def test_identifier_lexicon():
    assert parse("ab_1Z") == Var("ab_1Z")
    with pytest.raises(ParseError):
        parse("_t")
    with pytest.raises(ParseError):
        parse("_c0")
    with pytest.raises(ParseError):
        parse("P")


def test_error_spans_are_within_input():
    cases = [
        "p ->",
        "(p -> q",
        "p q",
        "J{1/0}(p)",
        "J{3/2}(p)",
        "p => q => r",
        "p @ q",
        "",
        "J{}(p)",
        "J{1/2} p",
    ]
    for text in cases:
        with pytest.raises(ParseError) as info:
            parse(text)
        span = info.value.span
        assert 0 <= span.start <= span.end <= max(len(text), 1)


def test_malformed_graded_index_messages():
    with pytest.raises(ParseError, match="zero denominator"):
        parse("J{1/0}(p)")
    with pytest.raises(ParseError, match="exceeds 1"):
        parse("I{3/2}(p)")


@pytest.mark.parametrize(
    "text", ["J{" + "1" * 5000 + "}(p)", "I{1/" + "2" * 5000 + "}(p)"]
)
def test_an_index_with_too_many_digits_is_a_parse_error_over_its_digits(text):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.message == "malformed index: too many digits"
    assert (info.value.span.start, info.value.span.end) == (2, text.index("}"))


def test_unbalanced_parens_message():
    with pytest.raises(ParseError, match="unbalanced"):
        parse("((p -> q) | r")


def test_print_examples():
    assert print_formula(Imp(P, Q)) == "p -> q"
    assert print_formula(Cond(P, Top())) == "p => T"
    assert print_formula(J(Fraction(1, 2), Not(P))) == "J{1/2}(~p)"
    assert print_formula(I(Fraction(0), P)) == "I{0}(p)"


def test_print_inserts_parens_only_where_needed():
    assert print_formula(Imp(P, Imp(Q, R))) == "p -> q -> r"
    assert print_formula(Imp(Imp(P, Q), R)) == "(p -> q) -> r"
    assert print_formula(Or(Or(P, Q), R)) == "p | q | r"
    assert print_formula(Or(P, Or(Q, R))) == "p | (q | r)"
    assert print_formula(Cond(P, Cond(Q, R))) == "p => (q => r)"
    assert print_formula(Not(And(P, Q))) == "~(p & q)"
    assert print_formula(And(Not(P), Q)) == "~p & q"


def test_round_trip_on_documented_shapes():
    texts = [
        "p -> q -> r",
        "(p => (q & r)) -> ((p => q) & (p => r))",
        "J{1/2}(~p) | I{2/3}(q (+) r)",
        "~(p (-) q) <-> (F => T)",
    ]
    for text in texts:
        phi = parse(text)
        assert parse(print_formula(phi)) == phi


def test_round_trip_random_formulas():
    rng = Random(77)
    for _ in range(300):
        phi = random_formula(rng, rng.randrange(0, 9))
        assert parse(print_formula(phi)) == phi


def test_whitespace_and_comments_are_not_special_inline():
    assert parse("  p   ->\tq ") == Imp(P, Q)
