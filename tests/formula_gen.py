"""Shared random formula generator for round-trip and property tests."""

from fractions import Fraction
from random import Random

from mvcond.syntax import (
    And,
    Bot,
    Cond,
    Formula,
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

BINARY_NODES = (Imp, Cond, And, Or, OPlus, OTimes, OMinus, Iff)
DEFAULT_NAMES = ("p", "q", "r", "s")


def _default_indices(max_denominator: int) -> tuple[Fraction, ...]:
    pool = {Fraction(0), Fraction(1)}
    for den in range(1, max_denominator + 1):
        for num in range(den + 1):
            pool.add(Fraction(num, den))
    return tuple(sorted(pool))


def random_formula(
    rng: Random,
    depth: int,
    names: tuple[str, ...] = DEFAULT_NAMES,
    allow_cond: bool = True,
    indices: tuple[Fraction, ...] | None = None,
) -> Formula:
    """A random tree of at most the given depth.

    Leaves are mostly variables; internal nodes cover every connective,
    including graded J/I whose indices are drawn from the given pool
    (small-denominator rationals by default).
    """
    if indices is None:
        indices = _default_indices(6)
    if depth == 0 or rng.random() < 0.15:
        roll = rng.random()
        if roll < 0.8:
            return Var(rng.choice(names))
        if roll < 0.9:
            return Top()
        return Bot()
    roll = rng.random()
    if roll < 0.12:
        return Not(random_formula(rng, depth - 1, names, allow_cond, indices))
    if roll < 0.22:
        node = J if rng.random() < 0.5 else I
        child = random_formula(rng, depth - 1, names, allow_cond, indices)
        return node(rng.choice(indices), child)
    choices = BINARY_NODES if allow_cond else tuple(
        ctor for ctor in BINARY_NODES if ctor is not Cond
    )
    ctor = rng.choice(choices)
    left = random_formula(rng, depth - 1, names, allow_cond, indices)
    right = random_formula(rng, depth - 1, names, allow_cond, indices)
    return ctor(left, right)


def chain_formula(rng: Random, depth: int, m: int,
                  names: tuple[str, ...] = DEFAULT_NAMES,
                  allow_cond: bool = False) -> Formula:
    """Like random_formula but every J/I index lies on the m-valued chain."""
    on_chain = tuple(Fraction(k, m - 1) for k in range(m))
    return random_formula(rng, depth, names, allow_cond, on_chain)


def one_antecedent_formula(rng: Random, m: int,
                           names: tuple[str, ...] = DEFAULT_NAMES) -> Formula:
    """One to three conditionals on one antecedent, none inside another,
    joined by other connectives and sometimes to a conditional-free formula,
    with every J/I index on the m-valued chain."""
    antecedent = chain_formula(rng, 1, m, names)
    conds = [Cond(antecedent, chain_formula(rng, 2, m, names)) for _ in range(rng.randint(1, 3))]
    phi = conds.pop()
    while conds:
        phi = rng.choice((Imp, Imp, And, Or, Iff))(conds.pop(), phi)
    if rng.random() < 0.4:
        phi = rng.choice((Imp, Or, And))(phi, chain_formula(rng, 2, m, names))
    return phi
