"""Decision procedures at desk scale.

is_L_tautology decides truth-table validity on the m-valued chain by
exhaustive valuation, optionally abstracting conditional subformulas to
fresh shared atoms first. A slab of rows, every combination of the last
few variables, keeps row r's value at bit w*r of one int per subformula
(w = (2*(m-1)).bit_length() + 1, rows * w * subformulas within 2^22
bits), so each connective is a few whole-int operations on all rows.
countermodel_search enumerates finite models in a canonical order (world
count ascending; valuations in ascending lexicographic numerator order
over the sorted variables other than the reserved _t, which is 0 at every
world; relation matrices row-major with entries descending from 1), so a
given query always returns the same countermodel. A "none" outcome
certifies only that no model within the given bounds refutes the formula.
Without a conditional nested inside another, a formula's value at world
x reads only row x of each relation, and the search runs on packed ints
(see _packed): a world count is screened, every valuation at once, for
the least valuation with a refuting candidate (_screen), whose first
countermodel is read off the same table when it holds x's rows too, else
off one more table of that valuation alone (_finisher); the counts follow
in closed form. With nesting, to any depth, the nodes above a
conditional run once per candidate, drawn lazily from products of the
same rows (_visitor). A world count walked valuation by valuation
searches only the least of each orbit under permutations of the worlds;
any other adds that one's count. Either way the identity frame condition
holds when every row lies within its key, entry by entry.

filtrate quotients a model by agreement on a subformula-closed set,
taking the pointwise supremum of the evaluator's integer relation rows
across classes, and check_preservation verifies value agreement formula
by formula.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, product
from operator import and_, gt, le, or_
from typing import Callable, Mapping, Sequence

from .parser import print_formula
from .semantics import (
    Evaluator,
    KripkeModel,
    UnknownWorldError,
    Values,
    instruction,
    model_of,
    operations,
)
from .syntax import (
    And, Bot, Cond, Formula, I, Iff, Imp, J, NodeTable, Not, OMinus, OPlus, OTimes, Or,
    RESERVED_VAR, Top, Var,
)
from .truthvalues import ScaleMismatchError, TruthValue

__all__ = [
    "MAX_M",
    "SearchError",
    "ConditionalPresentError",
    "SigmaNotClosedError",
    "SearchBounds",
    "SearchOutcome",
    "Discrepancy",
    "value_under",
    "abstract_conditionals",
    "falsifying_assignment",
    "is_L_tautology",
    "countermodel_search",
    "filtrate",
    "check_preservation",
    "random_model",
]


class SearchError(ValueError):
    """A search request outside what the enumeration supports."""


class ConditionalPresentError(ValueError):
    """Truth-table evaluation reached a conditional; abstraction was off."""


class SigmaNotClosedError(ValueError):
    """The formula set handed to filtrate is not closed under subformulas."""


def _truth_table_slots(phi: Formula, abstract: bool, advice: str):
    """phi's node table and root slot, its inputs, and its other slots.

    The inputs map each name to the slots it sets: the variables other
    than the reserved _t, a constant 0 like T and F, and, with abstract,
    each maximal conditional, named _c0, _c1, ... in order of first
    occurrence (structurally equal conditionals share a slot and so a
    name). The other slots are those reachable from the root without
    crossing an abstracted conditional, children first.
    """
    table = NodeTable()
    root = table.add(phi)
    nodes, kids = table.nodes, table.kids
    inputs: dict[str, list[int]] = {}
    conditionals = 0
    order: list[int] = []
    stack = [root]  # ~slot: slot's children are ordered
    seen: set[int] = set()
    while stack:
        slot = stack.pop()
        if slot < 0:
            order.append(~slot)
            continue
        if slot in seen:
            continue
        seen.add(slot)
        node = nodes[slot]
        if isinstance(node, Cond):
            if not abstract:
                raise ConditionalPresentError(f"formula contains a conditional; {advice}")
            name = f"_c{conditionals}"
            conditionals += 1
        elif isinstance(node, Var) and node.name != RESERVED_VAR:
            name = node.name
        else:
            stack.append(~slot)
            stack.extend(kids[slot][::-1])
            continue
        inputs.setdefault(name, []).append(slot)
    return table, root, inputs, order


# Bits in one slab over all slots (a chain's worth per slot if more): about
# 0.5 MiB live, while wide rows keep the per-step overhead small. Uncapped,
# 10,000 slots over 12 variables at m=2 would take about 15 MB.
_SLAB_BITS = 1 << 22


# The largest chain size that truth tables and the search compute over. A
# packed table holds at least m rows of _field_width(m) bits, about 2.9 MB
# an int at 2^20; a far larger m, such as 2^70, overflows Python's ints.
MAX_M = 1 << 20


def _check_m(m: int) -> None:
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if m > MAX_M:
        raise ValueError(f"m must be at most {MAX_M}, got {m}")


def _field_width(m: int) -> int:
    """Bits per row: room for the sum of two chain values, and a flag bit."""
    return (2 * (m - 1)).bit_length() + 1


def _side_by_side(parts: list[int], bits: int) -> int:
    """The sum of parts[x] << bits*x, each part below 2^bits, joined in
    pairs so that the work grows as n log n in the parts, not n^2."""
    while len(parts) > 1:
        parts = [low | high << bits for low, high in zip(parts[::2], parts[1::2] + [0])]
        bits *= 2
    return parts[0]


# Kept for the next table at the same m and slab width; a search screens
# each world count at a width of its own, and a run that cycles through
# more widths than the cache holds rebuilds every one. An entry is j + 1
# ints of m^j * w bits; past j = 1, m^j * w times the slot count (a search
# screen's live ints; either at least j) fits in _SLAB_BITS, so an entry is
# at most 2 * max(_SLAB_BITS, m * w) bits, and the 16 entries at most 16 MiB
# while m * w <= 2^22 (m up to about 220,000).
@lru_cache(maxsize=16)
def _columns(m: int, j: int) -> tuple[int, ...]:
    """The last j names' packed columns over m^j rows, the first name's
    first, then 1 in every field. Over m rows the last name's column is the
    sum of x * B^x, ((m-1) * B^m - (B^m - 1)/(B - 1) + 1)/(B - 1), and the
    ones (B^m - 1)/(B - 1), B = 2^w: one division by the small B - 1 each."""
    if not j:
        return (1,)
    w = _field_width(m)
    whole, small = 1 << w * m, (1 << w) - 1
    one = (whole - 1) // small
    columns = [((m - 1) * whole - one + 1) // small, one]
    for k in range(1, j):  # m blocks of m^k rows, a new name constant in each
        stair = [x * columns[-1] for x in range(m)]
        columns = [_side_by_side(p, w * m**k) for p in [stair, *([c] * m for c in columns)]]
    return tuple(columns)


# Kept like _columns. A whole-table screen asks for j = n * k (k keys) only if n
# times its ints per world, more than k * size, fit in _SLAB_BITS at m^j * w bits
# each; so an entry of j * size such ints does, and the 8 take at most 4 MiB.
@lru_cache(maxsize=8)
def _digit_masks(m: int, j: int, size: int) -> tuple[tuple[int, ...], ...]:
    """Over m^j rows as in _columns, per name i (the first the most
    significant digit of the row) and value d < size, top in the fields
    where that name is d: runs of m^(j-1-i) rows, one run in every m."""
    w = _field_width(m)
    masks = []
    for i in range(j):
        run = w * m ** (j - 1 - i)
        tops = (m - 1) * (((1 << run) - 1) // ((1 << w) - 1))
        every = ((1 << w * m**j) - 1) // ((1 << run * m) - 1)
        masks.append(tuple([(tops << run * d) * every for d in range(size)]))
    return tuple(masks)


# Kept like _columns, each entry shared and only read: three ints of at most
# max(_SLAB_BITS, m * w) bits (see _chain_program), so 8 take 12 MiB while m * w <= 2^22.
@lru_cache(maxsize=8)
def _packed(m: int, rows: int) -> dict:
    """semantics.operations for truth tables on packed ints: row r's value
    in the field of w = _field_width(m) bits at bit w*r, of which the top
    one is a flag bit that only the arithmetic below sets."""
    w = _field_width(m)
    one = ((1 << w * rows) - 1) // ((1 << w) - 1)  # 1 in every field
    flag, top = one << (w - 1), (m - 1) * one

    def ge(a: int, b: int) -> int:  # the flag of each field where a >= b
        return ((a | flag) - b) & flag

    def fill(f: int) -> int:  # each flagged field all ones
        return (f << 1) - (f >> (w - 1))

    def monus(a: int, b: int) -> int:  # max(0, a - b) in each field
        t = (a | flag) - b
        f = t & flag
        return (t ^ f) & fill(f)

    return {
        Not: lambda a, _: top - a,
        Imp: lambda a, b: top - monus(a, b),
        And: lambda a, b: a - monus(a, b),
        Or: lambda a, b: b + monus(a, b),
        OPlus: lambda a, b: top - monus(top, a + b),
        OTimes: lambda a, b: monus(a + b, top),
        OMinus: monus,
        Iff: lambda a, b: top - monus(a, b) - monus(b, a),
        J: lambda k: lambda a, _, k=k * one: top & fill(ge(a, k) & ge(k, a)),
        I: lambda k: lambda a, _, k=k * one: top & fill(ge(a, k)),
        Top: top,
        Bot: 0,
        Var: 0,  # the reserved _t; other variables are inputs
    }


def _chain_program(
    phi: Formula, m: int, abstract: bool, advice: str, slabs: bool
) -> tuple[list[str], Callable[[Mapping[str, int]], int], int]:
    """phi compiled for truth tables on the m-element chain: the input names,
    a function from every input's packed values to phi's (see _packed), and
    j for m^j rows at once: 0 without slabs, else the most, up to the input
    count, whose bits over all slots fit in _SLAB_BITS, and at least 1 when
    there is an input."""
    _check_m(m)
    table, root, inputs, order = _truth_table_slots(phi, abstract, advice)
    j = 1 if slabs and inputs else 0
    bits = _field_width(m) * len(table.nodes)
    while slabs and j < len(inputs) and m ** (j + 1) * bits <= _SLAB_BITS:
        j += 1
    ops = _packed(m, m**j)
    values: list = [None] * len(table.nodes)
    steps = []
    for slot in order:
        node, kids = table.nodes[slot], table.kids[slot]
        if kids:
            steps.append((instruction(node, ops, m), kids[0], kids[-1], slot))
        else:
            values[slot] = ops[type(node)]

    def run(given: Mapping[str, int]) -> int:
        for name, slots in inputs.items():
            for slot in slots:
                values[slot] = given[name]
        for fn, left, right, slot in steps:
            values[slot] = fn(values[left], values[right])
        return values[root]

    return list(inputs), run, j


def value_under(phi: Formula, env: Mapping[str, TruthValue], m: int) -> TruthValue:
    """Truth-table value of a conditional-free formula under an assignment."""
    names, run, _ = _chain_program(phi, m, False, "abstract it first", False)
    given = {}
    for name in names:
        value = env.get(name)
        if value is None:
            raise ValueError(f"assignment has no value for {name!r}")
        if value.scale != m:
            raise ScaleMismatchError(f"{name!r} has a value of scale {value.scale}, not {m}")
        given[name] = value.numerator
    return TruthValue(run(given), m)


def abstract_conditionals(phi: Formula) -> tuple[Formula, dict[Formula, Var]]:
    """Replace each maximal conditional subformula with a fresh shared atom.

    Structurally equal conditionals share one atom; fresh names _c0,
    _c1, ... cannot collide with parseable variables. Returns the
    rewritten formula and the conditional-to-atom mapping.
    """
    table, root, inputs, order = _truth_table_slots(phi, True, "")
    nodes, kids = table.nodes, table.kids
    mapping: dict[Formula, Var] = {}
    built: dict[int, Formula] = {}
    for name, slots in inputs.items():
        for slot in slots:
            if isinstance(nodes[slot], Cond):
                built[slot] = mapping[nodes[slot]] = Var(name)
            else:
                built[slot] = nodes[slot]
    for slot in order:
        node, args = nodes[slot], [built[kid] for kid in kids[slot]]
        if isinstance(node, (J, I)):
            args.insert(0, node.index)
        built[slot] = type(node)(*args) if args else node
    return built[root], mapping


def falsifying_assignment(
    phi: Formula, m: int, abstract: bool = False
) -> dict[str, TruthValue] | None:
    """First assignment (ascending lexicographic order over sorted
    variables) giving a non-designated value, or None.

    The table runs in slabs of m^j packed rows (see _chain_program): the
    last j variables take every combination of chain values at once, in
    the same order from the lowest field up, and the others are constant
    across a slab, whose first failing row is its lowest field below top.
    """
    names, run, j = _chain_program(phi, m, abstract, "enable abstraction", True)
    names.sort()
    w = _field_width(m)
    *columns, one = _columns(m, j)
    for prefix in product(range(m), repeat=len(names) - j):
        missed = run(dict(zip(names, [x * one for x in prefix] + columns))) ^ (m - 1) * one
        if missed:
            row = ((missed & -missed).bit_length() - 1) // w
            digits = [row // m ** (j - 1 - i) % m for i in range(j)]
            return {name: TruthValue(e, m) for name, e in zip(names, [*prefix, *digits])}
    return None


def is_L_tautology(phi: Formula, m: int, abstract_conditionals: bool = False) -> bool:
    """True when phi evaluates designated under every chain assignment."""
    return falsifying_assignment(phi, m, abstract=abstract_conditionals) is None


@dataclass(frozen=True)
class SearchBounds:
    """Limits for countermodel enumeration.

    relation_values restricts matrix entries to the given numerators
    (None means the full chain); max_candidates is a step budget counted
    in fully built candidate models.
    """

    max_worlds: int = 2
    relation_values: tuple[int, ...] | None = None
    max_candidates: int | None = None

    def __post_init__(self) -> None:
        if self.max_worlds < 1:
            raise ValueError("max_worlds must be at least 1")
        if self.relation_values is not None and not self.relation_values:
            raise ValueError("relation_values must be non-empty when given")
        if self.max_candidates is not None and self.max_candidates < 0:
            raise ValueError("max_candidates must be non-negative")


@dataclass
class SearchOutcome:
    """found is (model, witness world) or None; exhausted means the step
    budget ran out with candidates still unexplored."""

    found: tuple[KripkeModel, str] | None
    value: TruthValue | None
    exhausted: bool
    candidates: int


def _differ(pairs, one: int, w: int, top: int) -> int:
    """Top in the fields where the packed ints of some pair differ."""
    flag, f = one << w - 1, 0
    for a, b in pairs:  # the flag bit where they differ, and below it what the borrow left
        f |= ((a ^ b) | flag) - one
    f &= flag
    return top & (f << 1) - (f >> w - 1)


def _key_classes(keys: list[int], at: list, one: int, w: int, top: int) -> tuple[list, list]:
    """For a screen's antecedent slots and its values per world: per key b,
    for each key a before it, top in the fields where a and b differ at
    some world; and spread, spread[d] top in the fields whose antecedents
    take d + 1 distinct values."""
    apart, spread = [()], [top]
    for b in keys[1:]:
        apart.append([_differ([(vals[a], vals[b]) for vals in at], one, w, top) for a in keys[: len(apart)]])
        new = reduce(and_, apart[-1])
        spread = [x & ~new | y & new for x, y in zip(spread + [0], [0] + spread)]
    return apart, spread


def _candidates(spread: list[int], fields: int, m: int, per: int) -> int:
    """The candidates of the fields under the mask, spread as from
    _key_classes, with per^d for d distinct antecedents (per = 1 without
    an antecedent)."""
    return sum((x & fields).bit_count() // (m - 1).bit_count() * per**d for d, x in enumerate(spread, 1))


def _key_order(key: Values) -> list[tuple[int, int]]:
    """The enumeration's order of keys: by the worlds at each value, lowest
    value first, a world tuple before its extensions ((-value, world) pairs)."""
    return [(-v, y) for v, y in sorted(zip(key, range(len(key))))]


def _unnested(code, depth) -> tuple[dict, list]:
    """Each antecedent slot's conditionals, as (slot, consequent slot), and
    the other nodes with children, as (node, first child, last child, slot)."""
    spans: dict[int, list] = {}
    inner = []
    for s, (node, kids) in enumerate(code):
        if isinstance(node, Cond):
            spans.setdefault(kids[0], []).append((s, kids[1]))
        elif kids:
            inner.append((node, kids[0], kids[-1], s))
    return spans, inner


def _refuting(ops, m: int, at: list, groups: list, rows: list, above: list, root: int,
              values: list, fid: bool) -> tuple[list[int], int]:
    """One packed table over the rows of a world x: the formula's value at
    each x in turn, and top in the fields where the rows fit (under fid,
    within the antecedent). at holds each world's values below the
    conditionals, groups one (antecedent slot, its conditionals) per
    relation, and rows[k][y] the digit of the entry at y of x's row in
    relation k: digit i for values[i] (ascending), past them none."""
    top, meet, imp = ops[Top], ops[And], ops[Imp]
    ok = top
    if len(values) < m:
        ok = reduce(and_, [~ops[I](len(values))(d, 0) for d in chain.from_iterable(rows)], top)
        rows = [[sum(v * (ops[J](i)(d, 0) // (m - 1)) for i, v in enumerate(values)) for d in row] for row in rows]
    if fid:
        w = _field_width(m)
        flag = top // (m - 1) << w - 1
        for (a, _), row in zip(groups, rows):
            f = flag
            for e, vals in zip(row, at):
                f &= (vals[a] | flag) - e
            ok &= (f << 1) - (f >> w - 1)
    got = [(s, reduce(meet, map(imp, row, [vals[psi] for vals in at])))  # the same at every x
           for (_, conds), row in zip(groups, rows) for s, psi in conds]
    roots = []
    for vals in at:
        for s, value in got:
            vals[s] = value
        for fn, a, b, s in above:
            vals[s] = fn(vals[a], vals[b])
        roots.append(vals[root])
    return roots, ok


def _first_countermodel(found: dict, keys: list, values: list[int], fid: bool) -> tuple[int, tuple, dict]:
    """From found, each refuted world x -> (x's first refuting rows, n
    digits per key in keys' order, digit i for values[i]; x's value), what
    _finisher gives for the valuation: the earliest of the candidates whose
    other rows are each their key's first (under fid the most within it)."""
    size, n = len(values), len(keys[0]) if keys else 0
    firsts = [[bisect_right(values, v) - 1 for v in key] if fid else [size - 1] * n for key in keys]
    ranked = []  # (index of x's candidate, x, its rows key by key, x's value)
    for x, (own, value) in found.items():
        rows = [[own[k * n : k * n + n] if y == x else first for y in range(n)] for k, first in enumerate(firsts)]
        index = 0
        for d in chain.from_iterable(chain.from_iterable(rows)):
            index = index * size + size - 1 - d
        ranked.append((index, x, rows, value))
    index, x, rows, value = min(ranked)
    rel = {key: [tuple([values[d] for d in row]) for row in matrix] for key, matrix in zip(keys, rows)}
    return index + 1, (x, value), rel


def _screen(code, depth, root, inputs, m: int, values, fid: bool):
    """The packed screen of a formula with no conditional inside another
    (code and depth as in countermodel_search, inputs the slots of its
    valuated variables, values the relation entries): a function from a
    world count n to the candidates of the valuations before the least
    n-world valuation with a refuting candidate, that valuation (its
    numerators in enumeration order) and, from a whole table, what
    _finisher gives for it, else None; or to the candidates of them all,
    None and None.

    Fields hold valuations in enumeration order. A refutation at world x
    reads only x's row of each of the k antecedents' relations, and an
    entry counts only where it fits: under fid within its key, and where
    two antecedents take equal values at every world (one relation) equal
    to the other's.

    If every valuation with every choice of those rows fits in one table,
    the rows' entries are its lowest digits and the table is _refuting's,
    run with x = each world in turn: the lowest refuted field is the
    answer. Its block of fields holds every refuting choice of x's rows:
    with keys in the enumeration's order (_key_order), each entry in turn
    is the highest digit left refuted (_digit_masks), giving x's first
    refuting rows for _first_countermodel.

    Otherwise slabs pack the valuations of the last j (variable, world)
    pairs, and the rows are set key by key and entry by entry, depth
    first, a row's prefix shared by the rows extending it, keeping only
    the fields below the lowest refuted so far. Slab by slab x is 0
    and worlds 1 on are sorted by their tuples of k entries, which
    renaming the worlds makes enough: the first slab with a refuted field
    holds the least permutation of that valuation or comes after it. At
    one world that field is the answer, and at two x = 0 had no sort to
    drop; otherwise the slabs up to it are searched again at every x,
    unsorted, and the lowest field refuted in the first slab with one is
    the answer. A valuation with d distinct keys has |values|^(n^2 * d)
    candidates (one when there is no conditional); the fields of each d
    are counted on packed key masks (_candidates).
    """
    w, values = _field_width(m), sorted(values)
    spans, inner = _unnested(code, depth)
    keys = sorted(spans)
    groups = [(a, spans[a]) for a in keys]
    live = len(code) + sum(map(len, spans.values())) * len(values)  # ints held at once per world, about

    def screen(n: int) -> tuple[int, tuple | None, tuple | None]:
        coords = [(s, x) for s in inputs for x in range(n)]
        block = m ** (n * len(keys))  # world x's rows per valuation, their entries as digits
        whole = m ** len(coords) * block * w * n * live <= _SLAB_BITS
        j = len(coords) + n * len(keys) if whole else 0
        while not whole and j < len(coords) and m ** (j + 1) * w * n * live <= _SLAB_BITS:
            j += 1
        ops = _packed(m, m**j)
        *columns, one = _columns(m, j)
        top, meet, imp = (m - 1) * one, ops[And], ops[Imp]
        at = [[None if kids else ops[type(node)] for node, kids in code] for _ in range(n)]
        base, above = [], []
        for node, a, b, s in inner:
            (above if depth[s] else base).append((instruction(node, ops, m), a, b, s))
        per = len(values) ** (n * n) if keys else 1  # candidates per valuation and key
        if whole:  # one field per valuation and rows of x, x = each world in turn
            for (s, x), column in zip(coords, columns):
                at[x][s] = column
            for vals in at:
                for fn, a, b, s in base:
                    vals[s] = fn(vals[a], vals[b])
            apart, spread = _key_classes(keys, at, one, w, top)
            rows = [columns[i : i + n] for i in range(len(coords), len(columns), n)]
            roots, ok = _refuting(ops, m, at, groups, rows, above, root, values, fid)
            for row, differs in zip(rows, apart):  # equal where the keys are equal
                for mask, other in zip(differs, rows):
                    ok &= mask | ~_differ(zip(row, other), one, w, top)
            misses = [x ^ top for x in roots]
            miss = reduce(or_, misses) & ok
            if not miss:
                return _candidates(spread, -1, m, per) // block, None, None
            field = ((miss & -miss).bit_length() - 1) // w // block
            first = tuple([field // m**i % m for i in reversed(range(len(coords)))])
            shift, low = w * field * block, (1 << w) - 1
            ok = ok >> shift & (1 << w * block) - 1
            # key -> one of its antecedent slots (ok holds the others' rows equal)
            slot_of = {tuple([vals[a] >> shift & low for vals in at]): k for k, a in enumerate(keys)}
            order = sorted(slot_of, key=_key_order)
            masks = _digit_masks(m, n * len(keys), len(values))
            entries = [masks[slot_of[key] * n + y] for key in order for y in range(n)]
            found = {}
            for x, miss in enumerate(misses):
                if hits := miss >> shift & ok:
                    own = []
                    for digit in entries:
                        own.append(max(d for d, mask in enumerate(digit) if hits & mask))
                        hits &= digit[own[-1]]
                    found[x] = own, roots[x] >> shift + ((hits & -hits).bit_length() - 1) // w * w & low
            count = _candidates(spread, (1 << w * field * block) - 1, m, per) // block
            return count, first, _first_countermodel(found, order, values, fid)
        conds = [[s for s, _ in spans[a]] for a in keys]
        thens = [[psi for _, psi in spans[a]] for a in keys]
        last = conds[-1] if keys else ()  # the conditionals set at the leaves
        entries = [v * one for v in values]
        at_least = fid and [ops[I](v) for v in values]  # top where the key is at least v
        slabs = list(product(range(m), repeat=len(coords) - j))
        # each slab's candidates, as far as screened; the runs, as (world x,
        # worlds 1 on sorted); a slab's fields to search
        counts, runs, seeds, slab, loaded, redo = [], [(0, n > 2)], {}, 0, -1, n > 1
        while slab < len(slabs):
            if slab != loaded:  # the slab's inputs, the nodes below the conditionals at every world
                loaded, prefix = slab, slabs[slab]
                for (s, x), column in zip(coords, [c * one for c in prefix] + columns):
                    at[x][s] = column
                for vals in at:
                    for fn, a, b, s in base:
                        vals[s] = fn(vals[a], vals[b])
                # per world y, key and entry: the key's conditionals' entry ->
                # consequent(y), and under fid top where the entry lies within the key
                picks = [[list(zip(*[[top if not e else psi if e == top else imp(e, psi) for e in entries]
                                     for psi in [vals[s] for s in then]])) for then in thens] for vals in at]
                fits = fid and [[[f(vals[a], 0) for f in at_least] for a in keys] for vals in at]
                apart, spread = _key_classes(keys, at, one, w, top)
                if slab == len(counts):
                    counts.append(_candidates(spread, -1, m, per))
            below = seeds.get(slab, -1)  # the fields below the lowest refuted
            for x, cut in runs:  # world x's rows depth first
                vals = at[x]
                if not keys:
                    miss = (vals[root] ^ top) & below
                    below = (1 << ((miss & -miss).bit_length() - 1) // w * w) - 1 if miss else below
                    continue
                # (key k, world y, k's entries before y, at y = 0 the conditionals
                # of the key before k, else k's: their min over the entries so
                # far; top where all fit, the rows of the keys before k)
                stack = [(0, 0, (), (), top, ())]
                while stack:
                    k, y, row, mins, ok, rows = stack.pop()
                    ok &= below
                    if not ok:
                        continue
                    if not y:  # the key before k is set, and so are its conditionals
                        for s, value in zip(conds[k - 1] if k else (), mins):
                            vals[s] = value
                    low = row[-1] if cut and y > 1 and all(r[y - 1] == r[y] for r in rows) else 0
                    pick, fit, differs = picks[y][k], fits and fits[y][k], apart[k]
                    for v in range(low, len(entries)):
                        within = ok & fit[v] if fid else ok
                        if k:
                            for r, mask in zip(rows, differs):
                                if r[y] != v:
                                    within &= mask
                        if not within:
                            continue
                        got = pick[v] if not y else [
                            b if a is top else a if b is top else meet(a, b) for a, b in zip(mins, pick[v])
                        ]
                        if y + 1 < n:
                            stack.append((k, y + 1, (*row, v), got, within, rows))
                        elif k + 1 < len(keys):
                            stack.append((k + 1, 0, (), got, within, (*rows, (*row, v))))
                        else:  # every row set: the nodes above, at x
                            for s, value in zip(last, got):
                                vals[s] = value
                            for fn, a, b, s in above:
                                vals[s] = fn(vals[a], vals[b])
                            miss = (vals[root] ^ top) & within & below
                            if miss:
                                below = (1 << ((miss & -miss).bit_length() - 1) // w * w) - 1
            if below < 0:
                slab += 1
            elif redo:  # from the first slab again, at every world, unsorted
                runs, redo = [(x, False) for x in range(n == 2, n)], False
                seeds, slab = ({slab: below} if n == 2 else {}), 0
            else:
                field = below.bit_length() // w
                first = prefix + tuple(field // m**i % m for i in reversed(range(j)))
                return sum(counts[:slab]) + _candidates(spread, below, m, per), first, None
        return sum(counts), None, None

    return screen


def _finisher(code, depth, root, inputs, m: int, values, fid: bool):
    """One valuation of a formula with no conditional inside another
    (arguments as for _screen), where the screen slabs its world count or
    the budget keeps the screen out: a function from a world count n to one
    from a valuation (and an unused budget) to what its enumeration gives:
    the candidates to the first countermodel, or all of them; the refuting
    world and its value, or None; and each key's n rows.

    Candidates run key by key (_key_order), each key's rows world by world,
    entries descending. At world x the first refuting candidate has every
    row but x's at its key's first, and _first_countermodel takes the
    earliest of these n. x's rows are the lowest digits of a _refuting
    table set up once per world count, n per key in that order (keys
    sharing antecedents leave the highest unread), digit i for the i-th
    value ascending: x's first refuting rows are its highest refuted
    field. Past _SLAB_BITS, leading digits go in slabs.
    """
    values = sorted(values)
    spans, inner = _unnested(code, depth)
    w, size, low = _field_width(m), len(values), (1 << _field_width(m)) - 1

    def at_worlds(n: int):
        places = n * len(spans)
        j = places
        while j and m**j * w * (n * len(code) + places) > _SLAB_BITS:
            j -= 1
        ops = _packed(m, m**j)
        *columns, one = _columns(m, j)
        top = (m - 1) * one
        leaves = [None if kids else ops[type(node)] for node, kids in code]
        base, above = [], []
        for node, a, b, s in inner:
            (above if depth[s] else base).append((instruction(node, ops, m), a, b, s))
        starts = [(s, k * n) for k, s in enumerate(inputs)]

        def finish(valuation: tuple[int, ...], _limit=None):
            at = []
            for y in range(n):
                vals = leaves.copy()
                for s, k in starts:
                    vals[s] = valuation[k + y] * one
                for fn, a, b, s in base:
                    vals[s] = fn(vals[a], vals[b])
                at.append(vals)
            by_key: dict[Values, tuple[int, list]] = {}
            for a, conds in spans.items():
                by_key.setdefault(tuple([vals[a] & low for vals in at]), (a, []))[1].extend(conds)
            keys = sorted(by_key, key=_key_order) if len(by_key) > 1 else list(by_key)
            groups = [by_key[key] for key in keys]
            used = n * len(keys)  # (key, world y) entries of x's rows, in enumeration order
            lead = max(used - j, 0)  # the leading ones, constant in each slab
            found: dict[int, tuple] = {}  # world -> (its digits, value)
            for prefix in product(range(size - 1, -1, -1), repeat=lead):
                digits = [d * one for d in prefix] + columns[j - used + lead :]
                rows = [digits[i : i + n] for i in range(0, used, n)]
                roots, ok = _refuting(ops, m, at, groups, rows, above, root, values, fid)
                for x, value in enumerate(roots):
                    miss = (value ^ top) & ok
                    if miss and x not in found:
                        field = (miss.bit_length() - 1) // w
                        own = [field // m**i % m for i in reversed(range(used - lead))]
                        found[x] = (*prefix, *own), value >> w * field & low
                if len(found) == n:
                    break
            if not found:
                return size ** (n * used), None, None
            return _first_countermodel(found, keys, values, fid)

        return finish

    return at_worlds


def _visitor(code, depth, root, inputs, m: int, values, fid: bool):
    """One valuation of a nested formula, as _finisher (values descending),
    candidate by candidate until one refutes or the count exceeds the budget
    (None for none). Nodes below every conditional (base) run once per
    valuation, inside an antecedent (inner) per rows assigned, others per candidate."""
    top = m - 1
    antecedents = sorted({kids[0] for node, kids in code if isinstance(node, Cond)})
    in_antecedent = set(antecedents)
    for s in reversed(range(len(code))):  # children have lower slots
        if s in in_antecedent:
            in_antecedent.update(code[s][1])

    def at_worlds(n: int):
        rel: dict[tuple[int, ...], Sequence[tuple[int, ...]]] = {}
        ops = operations(m, n, rel.get, 0)
        vals: list = [None] * len(code)
        base, inner, outer = [], [], []
        for s, (node, kids) in enumerate(code):
            if not kids:
                vals[s] = ops[type(node)]
                continue
            step = (instruction(node, ops, m), kids[0], kids[-1], s)
            (base if not depth[s] else inner if s in in_antecedent else outer).append(step)
        rows = list(product(values, repeat=n))  # every row of a relation

        def visit(valuation: tuple[int, ...], limit: int | None):
            """A round assigns n rows to each key fresh when it opened, the
            innermost round fastest; after r rounds each antecedent r or fewer
            conditionals deep is final, so at most depth[root] are open."""
            for k, s in enumerate(inputs):
                vals[s] = valuation[k * n : k * n + n]
            for fn, i, j, s in base:
                vals[s] = fn(vals[i], vals[j])
            rounds: list = []  # (keys with their slices of a combo, lazy product) per open round
            spent = 0
            while True:
                for fn, i, j, s in inner:
                    vals[s] = fn(vals[i], vals[j])
                fresh = {vals[a] for a in antecedents}.difference(rel)
                if fresh:
                    keys = sorted(fresh, key=_key_order)
                    parts = [(key, slice(k * n, k * n + n)) for k, key in enumerate(keys)]
                    rounds.append((parts, product(rows, repeat=n * len(keys))))
                else:
                    spent += 1
                    if not fid or all(
                        all(map(le, row, key)) for key, matrix in rel.items() for row in matrix
                    ):
                        for fn, i, j, s in outer:
                            vals[s] = fn(vals[i], vals[j])
                        for x, v in enumerate(vals[root]):
                            if v != top:
                                return spent, (x, v), rel
                    if limit is not None and spent > limit:
                        return spent, None, rel
                while rounds:  # the innermost open round's next combo, or it closes
                    parts, combos = rounds[-1]
                    combo = next(combos, None)
                    if combo is not None:
                        for key, part in parts:
                            rel[key] = combo[part]
                        break
                    rounds.pop()
                    for key, _ in parts:
                        del rel[key]
                else:
                    return spent, None, rel

        return visit

    return at_worlds


def countermodel_search(
    phi: Formula,
    m: int,
    bounds: SearchBounds | None = None,
    require_fid: bool = False,
) -> SearchOutcome:
    """Enumerate models up to the bounds, returning the first refutation.

    Relations are assigned exactly for the antecedent propositions the
    formula mentions; everything else falls to the constant-0 default.
    With require_fid, candidates violating the identity frame condition
    are skipped (they still count against the budget). Relations are
    integer matrices keyed by their antecedent's values; a KripkeModel is
    built only for the countermodel returned.

    A formula without a conditional inside another is screened (_screen)
    before each world count n whose largest total, m^(k*n) valuations of
    |values|^(n^2) matrices per antecedent, fits the budget: it names the
    least valuation with a refuting candidate, or none, and counts the
    candidates before it, or of them all (|values|^(n^2 * d) for a
    valuation with d distinct antecedent propositions). Without a
    refutation n is skipped; otherwise the screen's whole table gives the
    first countermodel, or _finisher searches the named valuation alone.
    Other world counts, and nested formulas, walk the valuations,
    searching (with _finisher or _visitor) only the least of each orbit
    under permutations of the worlds: renaming the worlds maps a
    valuation's candidates one to one onto its least permutation's, keys
    renamed, keeping the frame test and whether a candidate refutes.
    """
    _check_m(m)
    if bounds is None:
        bounds = SearchBounds()
    table = NodeTable()
    root = table.add(phi)
    code = list(zip(table.nodes, table.kids))
    depth: list[int] = []  # conditionals at or below each node, on the deepest path
    var_slot: dict[str, int] = {}
    antecedents = set()
    for s, (node, kids) in enumerate(code):
        depth.append(max(depth[kids[0]], depth[kids[-1]]) if kids else 0)
        if isinstance(node, Cond):
            antecedents.add(kids[0])
            depth[s] += 1
        elif isinstance(node, Var):
            var_slot[node.name] = s
    if bounds.relation_values is None:
        values_desc = list(range(m - 1, -1, -1))
    else:
        values_desc = sorted(set(bounds.relation_values), reverse=True)
        for numerator in values_desc:
            if not 0 <= numerator <= m - 1:
                raise ValueError(
                    f"relation value numerator {numerator} not in [0, {m - 1}]"
                )
    names = tuple(sorted(var_slot.keys() - {RESERVED_VAR}))  # _t keeps the constant 0
    args = (code, depth, root, [var_slot[v] for v in names], m, values_desc, require_fid)
    budget = bounds.max_candidates
    count = 0
    screen = depth[root] <= 1 and _screen(*args)
    searcher = None
    for n in range(1, bounds.max_worlds + 1):
        most = m ** (len(names) * n) * len(values_desc) ** (n * n * len(antecedents))
        if screen and (budget is None or count + most <= budget):
            before, first, finished = screen(n)
            count += before  # what the valuations before first add, none refuting
            if first is None:
                continue
            valuations = [first]
        else:
            valuations, finished = product(range(m), repeat=n * len(names)), None
        if not finished:
            searcher = searcher or (_visitor if depth[root] > 1 else _finisher)(*args)
            search = searcher(n)
        orbit_spent: dict[tuple, int] = {}  # an orbit's least valuation -> each one's candidates
        for assignment in valuations:
            orbit = [assignment[x::n] for x in range(n)]  # each world's values
            if any(map(gt, orbit, orbit[1:])):
                # a permutation of the worlds sorts it into an earlier
                # valuation, which had no countermodel and as many candidates
                spent, hit = orbit_spent[tuple(sorted(orbit))], None
            else:
                spent, hit, rel = finished or search(assignment, None if budget is None else budget - count)
                if hit is None:
                    orbit_spent[tuple(orbit)] = spent
            if budget is not None and count + spent > budget:
                return SearchOutcome(None, None, True, budget)
            count += spent
            if hit is not None:
                x, v = hit
                worlds = tuple([f"w{i}" for i in range(n)])
                columns = [assignment[vi * n : (vi + 1) * n] for vi in range(len(names))]
                model = model_of(m, worlds, names, columns, rel, 0)
                return SearchOutcome((model, worlds[x]), TruthValue(v, m), False, count)
    return SearchOutcome(None, None, False, count)


@dataclass(frozen=True)
class Discrepancy:
    """A formula whose value differs between a model and its quotient."""

    formula: Formula
    world: str
    value_original: TruthValue
    value_quotient: TruthValue


def filtrate(
    model: KripkeModel, sigma: Sequence[Formula]
) -> tuple[KripkeModel, dict[str, str]]:
    """Quotient the model by agreement on a subformula-closed set.

    Worlds agreeing on every member of sigma collapse to one class
    (id "c<k>" where k is the index of the class's first world in the
    model's order); quotient relation entries are the supremum across
    class members; the quotient keeps the model's default policy.
    Returns the quotient and the world-to-class map.
    """
    table = NodeTable()
    member_at: dict[int, Formula] = {}  # slot -> first member of sigma with it
    for phi in sigma:
        member_at.setdefault(table.add(phi), phi)
    if not member_at:
        raise SigmaNotClosedError("sigma must be non-empty")
    for slot, phi in member_at.items():
        if any(kid not in member_at for kid in table.kids[slot]):
            raise SigmaNotClosedError(
                "sigma is not closed under subformulas: "
                f"missing a direct subformula of {print_formula(phi)}"
            )
    ordered = list(member_at.values())

    ev = Evaluator(model)
    columns = [ev.numerators(phi) for phi in ordered]
    first: dict[Values, int] = {}  # signature -> its first world
    members: dict[int, list[int]] = {}  # a class's first world -> its worlds
    for x, sig in enumerate(zip(*columns)):
        members.setdefault(first.setdefault(sig, x), []).append(x)
    reps = list(members)
    column_of = {  # _t keeps the constant 0, so the quotient does not value it
        phi.name: col for phi, col in zip(ordered, columns)
        if isinstance(phi, Var) and phi.name != RESERVED_VAR
    }
    names = sorted(column_of)
    relations: dict[Values, list[list[int]]] = {}
    for alpha in (phi.left for phi in ordered if isinstance(phi, Cond)):
        values = ev.numerators(alpha)
        key = tuple(values[r] for r in reps)
        rows = ev.relation(values)
        if rows is not None and key not in relations:
            relations[key] = [
                [max(rows[x][y] for x in xs for y in ys) for ys in members.values()]
                for xs in members.values()
            ]
    policy = model.default_policy
    quotient = model_of(
        model.m,
        tuple(f"c{r}" for r in reps),
        names,
        [[column_of[v][r] for r in reps] for v in names],
        relations,
        None if policy is None else policy.numerator,
    )
    return quotient, {w: f"c{first[sig]}" for w, sig in zip(model.worlds, zip(*columns))}


def check_preservation(
    model: KripkeModel,
    quotient: KripkeModel,
    class_map: Mapping[str, str],
    sigma: Sequence[Formula],
) -> list[Discrepancy]:
    """Every sigma formula must take the same value at a world and its class."""
    ev_model, ev_quotient = Evaluator(model), Evaluator(quotient)
    index = quotient.world_index()
    out: list[Discrepancy] = []
    for phi in sigma:
        original, mapped = ev_model.numerators(phi), None
        for x, w in enumerate(model.worlds):
            y = index.get(class_map[w])
            if y is None:
                raise UnknownWorldError(f"unknown world {class_map[w]!r}")
            mapped = mapped or ev_quotient.numerators(phi)  # after the world checks
            if original[x] != mapped[y]:
                was, now = TruthValue(original[x], model.m), TruthValue(mapped[y], quotient.m)
                out.append(Discrepancy(phi, w, was, now))
    return out


def random_model(
    seed: int,
    m: int,
    n_worlds: int,
    var_names: Sequence[str],
    n_extra_relations: int = 0,
) -> KripkeModel:
    """Seeded random model; equal arguments give an identical model.

    Relations are stored for each variable's proposition plus
    n_extra_relations random partitions (a repeated partition replaces
    the earlier matrix); the default policy is the constant 0.
    """
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if n_extra_relations < 0:
        raise ValueError(f"n_extra_relations must be non-negative, got {n_extra_relations}")
    rng = random.Random(seed)
    worlds = tuple(f"w{i}" for i in range(n_worlds))
    names = tuple(var_names)
    columns = [tuple(rng.randrange(m) for _ in worlds) for _ in names]

    def matrix() -> list[list[int]]:
        return [[rng.randrange(m) for _ in worlds] for _ in worlds]

    column_of = dict(zip(names, columns))  # a repeated name keeps its last column
    relations = {column_of[v]: matrix() for v in names}
    for _ in range(n_extra_relations):
        key = tuple(rng.randrange(m) for _ in worlds)
        relations[key] = matrix()
    return model_of(m, worlds, names, columns, relations, 0)
