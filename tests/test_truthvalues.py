"""Chain arithmetic: documented values, algebra laws, error paths."""

from fractions import Fraction
from itertools import product

import pytest

from mvcond.truthvalues import (
    ScaleMismatchError,
    TruthValue,
    chain,
    tv_imp,
    tv_join,
    tv_meet,
    tv_neg,
    tv_odot,
    tv_ominus,
    tv_oplus,
)

SCALES = range(2, 8)


def test_negation_table():
    assert tv_neg(TruthValue(0, 3)) == TruthValue(2, 3)
    assert tv_neg(TruthValue(1, 3)) == TruthValue(1, 3)
    assert tv_neg(TruthValue(3, 5)) == TruthValue(1, 5)


def test_implication_table():
    assert tv_imp(TruthValue(2, 3), TruthValue(1, 3)) == TruthValue(1, 3)
    assert tv_imp(TruthValue(0, 3), TruthValue(0, 3)) == TruthValue(2, 3)
    assert tv_imp(TruthValue(1, 5), TruthValue(3, 5)) == TruthValue(4, 5)


def test_meet_join_are_min_max():
    for m in SCALES:
        for a, b in product(chain(m), repeat=2):
            assert tv_meet(a, b).numerator == min(a.numerator, b.numerator)
            assert tv_join(a, b).numerator == max(a.numerator, b.numerator)


def test_mv_algebra_laws_exhaustive():
    """Commutativity, associativity, involution, and absorbing top."""
    for m in SCALES:
        values = chain(m)
        top = TruthValue.top(m)
        for a in values:
            assert tv_neg(tv_neg(a)) == a
            assert tv_oplus(a, tv_neg(TruthValue.bottom(m))) == top
        for a, b in product(values, repeat=2):
            assert tv_oplus(a, b) == tv_oplus(b, a)
        for a, b, c in product(values, repeat=3):
            assert tv_oplus(tv_oplus(a, b), c) == tv_oplus(a, tv_oplus(b, c))


def test_implication_is_oplus_of_negation():
    for m in SCALES:
        for a, b in product(chain(m), repeat=2):
            assert tv_imp(a, b) == tv_oplus(tv_neg(a), b)


def test_residuation():
    """a (*) b <= c exactly when a <= b -> c."""
    for m in SCALES:
        for a, b, c in product(chain(m), repeat=3):
            assert (tv_odot(a, b) <= c) == (a <= tv_imp(b, c))


def test_ominus_is_truncated_difference():
    for m in SCALES:
        for a, b in product(chain(m), repeat=2):
            want = max(0, a.numerator - b.numerator)
            assert tv_ominus(a, b).numerator == want
            assert tv_ominus(a, b) == tv_odot(a, tv_neg(b))


def test_scale_mismatch_is_an_error():
    a, b = TruthValue(1, 3), TruthValue(1, 4)
    with pytest.raises(ScaleMismatchError):
        tv_imp(a, b)
    with pytest.raises(ScaleMismatchError):
        tv_meet(a, b)
    with pytest.raises(ScaleMismatchError):
        a < b


COMPARISONS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@pytest.mark.parametrize("op", COMPARISONS)
def test_every_comparison_checks_its_operands(op):
    compare = COMPARISONS[op]
    a, b = TruthValue(1, 3), TruthValue(2, 3)
    assert compare(a, b) == {"<": True, "<=": True, ">": False, ">=": False}[op]
    assert compare(a, a) == (op in ("<=", ">="))
    with pytest.raises(ScaleMismatchError, match="scales differ: 3 vs 4"):
        compare(a, TruthValue(1, 4))
    with pytest.raises(TypeError, match="cannot compare TruthValue with int"):
        compare(a, 1)
    with pytest.raises(TypeError, match="cannot compare TruthValue with int"):
        compare(1, a)


def test_constructor_validation():
    with pytest.raises(ValueError):
        TruthValue(3, 3)
    with pytest.raises(ValueError):
        TruthValue(-1, 3)
    with pytest.raises(ValueError):
        TruthValue(0, 1)
    with pytest.raises(TypeError):
        TruthValue(Fraction(1, 2), 3)


def test_chain_is_ascending_and_complete():
    for m in SCALES:
        values = chain(m)
        assert len(values) == m
        assert values[0] == TruthValue.bottom(m)
        assert values[-1] == TruthValue.top(m)
        assert all(x < y for x, y in zip(values, values[1:]))


def test_fraction_round_trip():
    for m in SCALES:
        for a in chain(m):
            assert TruthValue.from_fraction(a.as_fraction(), m) == a
    assert TruthValue.from_fraction(1, 4) == TruthValue(3, 4)
    with pytest.raises(ValueError):
        TruthValue.from_fraction(Fraction(1, 3), 3)


def test_rendering():
    half = TruthValue(2, 5)
    assert half.text() == "2/4"
    assert half.text(reduced=True) == "1/2"
    assert str(TruthValue(0, 3)) == "0/2"
    assert TruthValue(4, 5).text(reduced=True) == "1"


def test_designated_only_at_top():
    for m in SCALES:
        for a in chain(m):
            assert a.is_designated == (a.numerator == m - 1)
