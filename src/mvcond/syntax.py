"""Formula trees for the conditional language.

The core connectives are ~, ->, and the conditional =>; everything else
(&, |, (+), (*), (-), <->, T, F, and the graded operators J/I) is
definable from the core and can be expanded away by normalize(). The
graded operator J{a} is the exact-value test "the argument has value a";
I{a} is the threshold test "the argument has value at least a". mk_J
builds a core formula for the exact test on a given chain and mk_I an Or
of such tests, so the operators add no expressive power, only convenience.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import attrgetter
from typing import Callable, Sequence, TypeVar

__all__ = [
    "Formula",
    "Var",
    "Top",
    "Bot",
    "Not",
    "Imp",
    "Cond",
    "And",
    "Or",
    "OPlus",
    "OTimes",
    "OMinus",
    "Iff",
    "J",
    "I",
    "RESERVED_VAR",
    "UnrepresentableIndexError",
    "children",
    "free_vars",
    "subformula_closure",
    "NodeTable",
    "imp_chain",
    "strong_product",
    "strong_sum",
    "mk_J",
    "mk_I",
    "normalize",
    "index_numerator",
]

# Target of Top/Bot expansion. Starts with an underscore, which the
# tokenizer rejects, so user input can never collide with it.
RESERVED_VAR = "_t"

T = TypeVar("T")


class UnrepresentableIndexError(ValueError):
    """A J/I index does not lie on the chain for the requested scale."""


class Formula:
    """Base class for formula nodes; all concrete nodes are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


# Subclasses are decorated too: a frozen dataclass's __setattr__ refuses
# attributes that are not fields only on instances of its own class.
@dataclass(frozen=True)
class _Binary(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(_Binary):
    pass


@dataclass(frozen=True)
class Cond(_Binary):
    """The conditional; left is the antecedent, right the consequent."""


@dataclass(frozen=True)
class And(_Binary):
    pass


@dataclass(frozen=True)
class Or(_Binary):
    pass


@dataclass(frozen=True)
class OPlus(_Binary):
    pass


@dataclass(frozen=True)
class OTimes(_Binary):
    pass


@dataclass(frozen=True)
class OMinus(_Binary):
    pass


@dataclass(frozen=True)
class Iff(_Binary):
    pass


@dataclass(frozen=True)
class _Graded(Formula):
    index: Fraction
    child: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", Fraction(self.index))
        if not 0 <= self.index <= 1:
            raise ValueError(f"graded operator index {self.index} outside [0, 1]")


@dataclass(frozen=True)
class J(_Graded):
    """Exact-value test: value 1 where the child has value index, else 0."""


@dataclass(frozen=True)
class I(_Graded):
    """Threshold test: value 1 where the child has value >= index, else 0."""


# Per node type, its children as a tuple, or None for a leaf. _fold and
# children() both read it; a type not in it is not a formula node.
_KIDS: dict[type, Callable[[Formula], tuple[Formula, ...]] | None] = {
    **dict.fromkeys((Var, Top, Bot)),
    **dict.fromkeys((Not, J, I), lambda node: (node.child,)),
    **dict.fromkeys((Imp, Cond, And, Or, OPlus, OTimes, OMinus, Iff), attrgetter("left", "right")),
}

# Per node type that has one, the name or index that NodeTable keys it by.
_PARAM = {Var: attrgetter("name"), J: attrgetter("index"), I: attrgetter("index")}


def children(phi: Formula) -> tuple[Formula, ...]:
    """phi's direct subformulas, left to right; () for a leaf or a non-formula."""
    get = _KIDS.get(type(phi))
    return get(phi) if get else ()


def free_vars(phi: Formula) -> frozenset[str]:
    return frozenset(node.name for node in subformula_closure(phi) if isinstance(node, Var))


def _fold(phi: Formula, build: Callable[..., T], memo: dict[int, tuple[Formula, T]]) -> T:
    """build(node, *kid_results) for each node of phi not yet in memo, children
    first, and phi's result.

    memo maps id(node) to (node, result); it holds each node so that its id
    is never reused, so a node shared by identity is built once. The walk
    keeps its own stack, so any depth works, and reads each node's children
    from _KIDS by its type: a leaf is built when first met, any other node
    once its children are.
    """
    stack: list = [phi]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (node, its children), all of them built
            node, kids = node
            memo[id(node)] = (node, build(node, *[memo[id(kid)][1] for kid in kids]))
            continue
        if id(node) in memo:
            continue
        try:
            get = _KIDS[type(node)]
        except KeyError:
            raise TypeError(f"not a formula node: {node!r}") from None
        if get is None:
            memo[id(node)] = (node, build(node))
            continue
        kids = get(node)
        stack.append((node, kids))
        stack.extend(reversed(kids))
    return memo[id(phi)][1]


class NodeTable:
    """The distinct subformulas of one or more formulas, children first.

    nodes[slot] is a subformula and kids[slot] its children's slots.
    Nodes are found by identity; structurally equal subformulas share one
    slot through their children's slots, so no formula is hashed. add is
    iterative, so any depth works.
    """

    def __init__(self) -> None:
        self.nodes: list[Formula] = []
        self.kids: list[tuple[int, ...]] = []
        self._slots: dict[int, tuple[Formula, int]] = {}  # id -> (node held, slot)
        self._shapes: dict[tuple, int] = {}  # (type, name or index, kid slots) -> slot

    def add(self, phi: Formula) -> int:
        """Add phi's subformulas not yet in the table; return phi's slot."""
        return _fold(phi, self._slot, self._slots)

    def _slot(self, node: Formula, *kid_slots: int) -> int:
        param = _PARAM.get(type(node))
        key = (type(node), param and param(node), kid_slots)
        slot = self._shapes.setdefault(key, len(self.nodes))
        if slot == len(self.nodes):
            self.nodes.append(node)
            self.kids.append(kid_slots)
        return slot

    def alias(self, constant: type, slot: int) -> None:
        """Give every Top (or every Bot) node added from now on the slot."""
        self._shapes[(constant, None, ())] = slot


def subformula_closure(phi: Formula) -> list[Formula]:
    """All subformulas of phi, deduplicated, in post-order of first occurrence."""
    table = NodeTable()
    table.add(phi)
    return table.nodes


def imp_chain(antecedents: Sequence[Formula], psi: Formula) -> Formula:
    """Nested implication with the last antecedent outermost.

    imp_chain([a1, a2], b) is a2 -> (a1 -> b); an empty antecedent list
    gives back psi itself.
    """
    out = psi
    for phi in antecedents:
        out = Imp(phi, out)
    return out


def strong_product(phis: Sequence[Formula]) -> Formula:
    """Left-associated (*) over one or more operands."""
    if not phis:
        raise ValueError("strong product needs at least one operand")
    out = phis[0]
    for phi in phis[1:]:
        out = OTimes(out, phi)
    return out


def strong_sum(phis: Sequence[Formula]) -> Formula:
    """Left-associated (+) over one or more operands."""
    if not phis:
        raise ValueError("strong sum needs at least one operand")
    out = phis[0]
    for phi in phis[1:]:
        out = OPlus(out, phi)
    return out


def index_numerator(index: Fraction | int, scale: int) -> int:
    """Numerator of index on the scale-element chain; rejects off-chain values."""
    as_num = Fraction(index) * (scale - 1)
    if not 0 <= Fraction(index) <= 1 or as_num.denominator != 1:
        raise UnrepresentableIndexError(
            f"index {index} is not on the {scale}-element chain"
        )
    return int(as_num)


# Core-level builders used by the J construction. These expand the
# derived connective immediately instead of emitting an And/Or/... node.


def _odot_core(x: Formula, y: Formula) -> Formula:
    return Not(Imp(x, Not(y)))


def _or_core(x: Formula, y: Formula) -> Formula:
    return Imp(Imp(x, y), y)


def _and_core(x: Formula, y: Formula) -> Formula:
    return Not(_or_core(Not(x), Not(y)))


def _iff_core(x: Formula, y: Formula) -> Formula:
    return _and_core(Imp(x, y), Imp(y, x))


def _product_core(phi: Formula, n: int) -> Formula:
    out = phi
    for _ in range(n - 1):
        out = _odot_core(out, phi)
    return out


def mk_J(a: Fraction | int, phi: Formula, m: int) -> Formula:
    """Core formula with value 1 where phi has value a, and 0 elsewhere.

    The construction recurses on the index: a = 1 is the (m-1)-fold strong
    product; a < 1/2 reduces to the complementary index on ~phi; for
    1/2 <= a < 1 let n be the largest k with k*(1-a) < 1 and either
    (when n = a/(1-a) exactly) close out via the index-1 test of
    ~(phi (*) ... (*) phi) <-> phi, or recurse at the strictly larger
    index n*(1-a). Each step raises the numerator, so it terminates.
    """
    a = Fraction(a)
    k = index_numerator(a, m)
    if k == m - 1:
        return _product_core(phi, m - 1)
    if 2 * k < m - 1:
        return mk_J(1 - a, Not(phi), m)
    n = (m - 2) // ((m - 1) - k)
    if n == a / (1 - a):
        return mk_J(Fraction(1), _iff_core(Not(_product_core(phi, n)), phi), m)
    return mk_J(n * (1 - a), Not(_product_core(phi, n)), m)


def _value_tests(a: Fraction | int, phi: Formula, m: int) -> list[Formula]:
    """The exact-value tests for every chain value >= a, ascending."""
    k = index_numerator(a, m)
    return [mk_J(Fraction(i, m - 1), phi, m) for i in range(k, m)]


def mk_I(a: Fraction | int, phi: Formula, m: int) -> Formula:
    """Disjunction of the exact-value tests for every chain value >= a.

    Left-associated, ascending; the threshold a itself is included, so
    the result has value 1 exactly where phi has value at least a.
    """
    return reduce(Or, _value_tests(a, phi, m))


# normalize's table: per node type, the core formula for a node (phi) on
# the m-element chain, given its children already normalized.
_CORE: dict[type, Callable[..., Formula]] = {
    Var: lambda phi, m: phi,
    Top: lambda phi, m: Imp(Var(RESERVED_VAR), Var(RESERVED_VAR)),
    Bot: lambda phi, m: Not(Imp(Var(RESERVED_VAR), Var(RESERVED_VAR))),
    Not: lambda phi, m, x: Not(x),
    Imp: lambda phi, m, x, y: Imp(x, y),
    Cond: lambda phi, m, x, y: Cond(x, y),
    Or: lambda phi, m, x, y: _or_core(x, y),
    And: lambda phi, m, x, y: _and_core(x, y),
    OPlus: lambda phi, m, x, y: Imp(Not(x), y),
    OTimes: lambda phi, m, x, y: _odot_core(x, y),
    OMinus: lambda phi, m, x, y: _odot_core(x, Not(y)),
    Iff: lambda phi, m, x, y: _iff_core(x, y),
    J: lambda phi, m, x: mk_J(phi.index, x, m),
    I: lambda phi, m, x: reduce(_or_core, _value_tests(phi.index, x, m)),
}


def normalize(phi: Formula, m: int) -> Formula:
    """Expand every derived connective; the result uses only Var, Not, Imp, Cond.

    Top becomes p -> p and Bot its negation, over the reserved variable.
    J/I expand through mk_J/mk_I for the given chain, so the result (and
    hence normalize's idempotence) depends on m. Each node is expanded
    once per call, so subtrees shared by mk_J, mk_I, Iff and OMinus stay
    shared in the result instead of being expanded again.
    """
    return _fold(phi, lambda node, *kids: _CORE[type(node)](node, m, *kids), {})
