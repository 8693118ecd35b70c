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
The search runs the evaluator's compiled program on integers, its
conditional-free subformulas once per valuation. Without a conditional
nested inside another, a formula's value at world x reads only row x of
each relation, so each tuple of rows is evaluated once per valuation and
the first countermodel, and the count of candidates before it, follow in
closed form. With nesting, to any depth, the nodes above a conditional
run once per candidate, drawn lazily from products of the same rows, one
round of relations per level of nesting. Either way the identity frame
condition holds when every row lies within its key, entry by entry.

The search also shares work across valuations. In the row-separated
search a conditional's values over all rows depend only on its
consequent's values (and, under the identity frame condition, on its
key, which picks the rows), so they are computed once per world count,
as are the rows within each key. For every formula, nested or not,
permuting the worlds of a valuation permutes its candidates without
changing whether one refutes the formula, so only a valuation whose
per-world value tuples are non-decreasing, the least of its orbit, is
searched. Any other comes after its least permutation, which found no
countermodel (the search would have stopped there), and adds that one's
count. A world count of a formula without nesting is first screened on
packed ints (see _packed), every valuation at once: a refutation at a
world x reads only x's row of each antecedent's relation, whose entries
are digits of the table too when it is small, or are set depth first
with x = 0 and the other worlds sorted by their row entries, which
renaming the worlds makes enough. The screen names the least valuation
with a refuting candidate, or none; the candidates before it, or of the
whole world count, follow in closed form, and only that one valuation is
searched.

filtrate quotients a model by agreement on a subformula-closed set,
taking the pointwise supremum of the evaluator's integer relation rows
across classes, and check_preservation verifies value agreement formula
by formula.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from itertools import chain, product
from operator import and_, gt, le
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


def _screen(code, depth, root, inputs, m: int, values, fid: bool):
    """The packed screen of a formula with no conditional inside another
    (code and depth as in countermodel_search, inputs the slots of its
    valuated variables, values the relation entries): a function from a
    world count n to the least n-world valuation with a refuting
    candidate, as its numerators in enumeration order, and the candidates
    of the valuations before it; or to None and the candidates of them all.

    Fields hold valuations in enumeration order, and the conditional-free
    nodes run at every world. A refutation at world x reads only x's row
    in the relation of each of the k antecedents, each conditional at x
    being the min over y of its key's entry -> consequent(y). An entry
    counts only in the fields where it fits: under fid within its key, and
    where two antecedents take equal values at every world (one key, so
    one relation) equal to the other's.

    If every valuation with every choice of those rows fits in one table,
    the rows' entries are its lowest digits (entry i standing for the i-th
    of values, and past them for none), and the nodes above run with x =
    each world in turn: the lowest refuted field is the answer. Otherwise
    slabs pack the valuations of the last j (variable, world) pairs, and
    the rows are set key by key and entry by entry, depth first, a row's
    prefix shared by the rows extending it, keeping only the fields below
    the lowest refuted so far. Slab by slab x is 0 and worlds 1 on are
    sorted by their tuples of k entries, which renaming the worlds makes
    enough: the first slab with a refuted field holds the least
    permutation of that valuation or comes after it. At one world that
    field is the answer, and at two x = 0 had no sort to drop; otherwise
    the slabs up to it are searched again at every x, unsorted, and the
    lowest field refuted in the first slab with one is the answer. A
    valuation with d distinct keys has |values|^(n^2 * d) candidates (one
    when there is no conditional); the fields of each d are counted on
    packed key masks (_candidates).
    """
    w, values = _field_width(m), sorted(values)
    spans: dict[int, list[int]] = {}  # antecedent slot -> its conditionals' slots
    inner = []  # the other nodes with children
    for s, (node, kids) in enumerate(code):
        if isinstance(node, Cond):
            spans.setdefault(kids[0], []).append(s)
        elif kids:
            inner.append((node, kids[0], kids[-1], s))
    keys = sorted(spans)
    thens = [[code[s][1][1] for s in spans[a]] for a in keys]
    last = spans[keys[-1]] if keys else ()  # the conditionals set at the leaves
    live = len(code) + sum(map(len, thens)) * len(values)  # ints held at once per world, about

    def screen(n: int) -> tuple[int, tuple | None]:
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
            rows, ok = columns[len(coords) :], top  # per key and world y: x's entry; top where they fit
            if len(values) < m:  # digit i stands for values[i], and one past them for none
                ok = reduce(and_, [~ops[I](len(values))(d, 0) for d in rows], top)
                rows = [sum(v * (ops[J](i)(d, 0) // (m - 1)) for i, v in enumerate(values)) for d in rows]
            rows = [rows[i : i + n] for i in range(0, len(rows), n)]
            flag = one << w - 1
            for a, row, differs in zip(keys, rows, apart):  # within the key under fid, and
                if fid:  # equal to the row of a key before it wherever the keys are equal
                    f = reduce(and_, [(vals[a] | flag) - e for e, vals in zip(row, at)]) & flag
                    ok &= (f << 1) - (f >> w - 1)
                for mask, other in zip(differs, rows):
                    ok &= mask | ~_differ(zip(row, other), one, w, top)
            miss = 0
            for vals in at:
                for a, row, then in zip(keys, rows, thens):
                    for s, psi in zip(spans[a], then):
                        vals[s] = reduce(meet, [imp(e, ys[psi]) for e, ys in zip(row, at)])
                for fn, a, b, s in above:
                    vals[s] = fn(vals[a], vals[b])
                miss |= vals[root] ^ top
            miss &= ok
            if not miss:
                return _candidates(spread, -1, m, per) // block, None
            field = ((miss & -miss).bit_length() - 1) // w // block
            first = tuple(field // m**i % m for i in reversed(range(len(coords))))
            return _candidates(spread, (1 << w * field * block) - 1, m, per) // block, first
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
                        for s, value in zip(spans[keys[k - 1]] if k else (), mins):
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
                return sum(counts[:slab]) + _candidates(spread, below, m, per), first
        return sum(counts), None

    return screen


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

    Without a conditional inside another, a formula's value at x reads
    only row x of each relation, so each valuation evaluates every row
    once per conditional and every tuple of rows once (one row per
    antecedent proposition), and derives the first refuting candidate
    and the count before it in closed form. A conditional's values over
    the rows are kept per world count, keyed by its consequent's values
    (and its antecedent's under require_fid), as are each key's rows
    under require_fid. Nested conditionals, to any depth, are enumerated
    candidate by candidate, each round's matrices n rows of a lazy product.

    Either way only the least valuation of each orbit under permutations
    of the worlds is evaluated. Renaming the worlds maps a valuation's
    candidates one to one onto its least permutation's, keys renamed,
    keeping which keys each round assigns, the frame test and whether a
    candidate refutes; so any other valuation adds that one's count and,
    like it, has no countermodel.

    A formula without nesting is screened (_screen) before each world
    count n whose largest total, m^(k*n) valuations of |values|^(n^2)
    matrices per antecedent, fits the budget. The screen names the least
    valuation with a refuting candidate, or none, and counts the
    candidates of every valuation before it, or of all of them: a
    valuation with d distinct antecedent propositions has
    |values|^(n^2 * d). Without a refutation that count is added and n is
    skipped; otherwise the named valuation alone is searched as above, so
    every field of the outcome is the enumeration's. The valuation loop
    then serves nested formulas and world counts over the budget.
    """
    _check_m(m)
    if bounds is None:
        bounds = SearchBounds()
    table = NodeTable()
    root = table.add(phi)
    code = list(zip(table.nodes, table.kids))
    depth: list[int] = []
    for node, kids in code:
        depth.append(max((depth[k] for k in kids), default=0) + isinstance(node, Cond))
    if bounds.relation_values is None:
        values_desc = list(range(m - 1, -1, -1))
    else:
        values_desc = sorted(set(bounds.relation_values), reverse=True)
        for numerator in values_desc:
            if not 0 <= numerator <= m - 1:
                raise ValueError(
                    f"relation value numerator {numerator} not in [0, {m - 1}]"
                )
    var_slot = {node.name: s for s, (node, _) in enumerate(code) if isinstance(node, Var)}
    names = tuple(sorted(var_slot.keys() - {RESERVED_VAR}))  # _t keeps the constant 0
    antecedents = sorted({kids[0] for node, kids in code if isinstance(node, Cond)})
    top = m - 1
    budget = bounds.max_candidates
    count = 0
    screen = depth[root] <= 1 and _screen(
        code, depth, root, [var_slot[v] for v in names], m, values_desc, require_fid
    )
    in_antecedent = None
    for n in range(1, bounds.max_worlds + 1):
        most = m ** (len(names) * n) * len(values_desc) ** (n * n * len(antecedents))
        if screen and (budget is None or count + most <= budget):
            before, first = screen(n)
            count += before  # what the valuations before first add, none refuting
            if first is None:
                continue
            valuations = [first]
        else:
            valuations = product(range(m), repeat=n * len(names))
        if in_antecedent is None:  # the first world count enumerated
            # a node with depth[s] > 0 has a conditional at or below it, so its value
            # depends on the relations; one inside an antecedent (inner) can change
            # which propositions need relations. Depth-0 (base) nodes are evaluated
            # once per valuation, inner ones whenever visit assigns rows, and the
            # others (outer) per candidate in visit and on rows in by_rows.
            in_antecedent = set(antecedents)
            for s in reversed(range(len(code))):  # children have lower slots
                if s in in_antecedent:
                    in_antecedent.update(code[s][1])
        rel: dict[tuple[int, ...], Sequence[tuple[int, ...]]] = {}
        ops = operations(m, n, rel.get, 0)
        values: list = [None] * len(code)
        base, inner, outer = [], [], []
        for s, (node, kids) in enumerate(code):
            if not kids:
                values[s] = ops[type(node)]
                continue
            step = (instruction(node, ops, m), kids[0], kids[-1], s)
            (base if not depth[s] else inner if s in in_antecedent else outer).append(step)
        var_at = [(var_slot[v], vi * n) for vi, v in enumerate(names)]

        @cache  # per world count; keys sort by it
        def cells(key: tuple[int, ...]):
            return tuple(tuple(y for y in range(n) if key[y] == c) for c in range(m))

        # every row of a relation; without a conditional no key reads them
        rows = list(product(values_desc, repeat=n)) if antecedents else []
        # an orbit's least valuation, as its worlds' value tuples -> the
        # candidates of each of its valuations, none a countermodel
        orbit_spent: dict[tuple, int] = {}
        row_index = {row: j for j, row in enumerate(rows)}
        conds = [step for step in outer if isinstance(code[step[3]][0], Cond)]
        above = [step for step in outer if not isinstance(code[step[3]][0], Cond)]
        tiled = {k for _, i, j, _ in above for k in (i, j) if not depth[k]}
        points: list = [None] * len(code)  # values at (world, row of the last key)
        # a conditional's values over its key's rows, by its consequent's
        # values (and its key under require_fid, which picks the rows)
        cond_values: dict = {}

        @cache
        def within(key: tuple[int, ...]) -> list[tuple[int, ...]]:
            return [r for r in rows if all(map(le, r, key))]

        def visit(limit: int | None):
            """The candidates counted and the first refuting world and its
            value, or None, over every completion of the relations in rel,
            stopping once one refutes or the count exceeds limit (None for no
            budget). A round assigns n rows to each key fresh when it opened,
            the innermost round fastest. After r rounds each antecedent r or
            fewer conditionals deep is final, so at most depth[root] are open."""
            rounds: list = []  # (keys with their slices of a combo, lazy product) per open round
            spent = 0
            while True:
                for fn, i, j, s in inner:
                    values[s] = fn(values[i], values[j])
                fresh = {values[a] for a in antecedents}.difference(rel)
                if fresh:
                    keys = sorted(fresh, key=cells)
                    parts = [(key, slice(k * n, k * n + n)) for k, key in enumerate(keys)]
                    rounds.append((parts, product(rows, repeat=n * len(keys))))
                else:
                    spent += 1
                    if not require_fid or all(
                        all(map(le, row, key)) for key, matrix in rel.items() for row in matrix
                    ):
                        for fn, i, j, s in outer:
                            values[s] = fn(values[i], values[j])
                        for x, v in enumerate(values[root]):
                            if v != top:
                                return spent, (x, v)
                    if limit is not None and spent > limit:
                        return spent, None
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
                    return spent, None

        def by_rows():
            """What visit(None) returns, for a formula without nested conditionals.

            rel holds each key's rows in enumeration order (those within
            the key under require_fid). For each world x, the first
            refuting candidate with x's rows fixed sets every other row to
            its key's first; the earliest of these n is the first refuting
            candidate, and its rank in the enumeration is the count
            before it. The last key's rows vary across one points vector,
            the other keys' stay constant across it.
            """
            keys = list({values[a] for a in antecedents})
            if len(keys) > 1:
                keys.sort(key=cells)
            rel.clear()
            for key in keys:
                rel[key] = within(key) if require_fid else rows
            for fn, i, j, s in conds:  # one value per row of the key
                given = (values[i], values[j]) if require_fid else values[j]
                row_values = cond_values.get(given)
                if row_values is None:
                    row_values = cond_values[given] = fn(values[i], values[j])
                values[s] = row_values
            found: dict[int, tuple[tuple, int]] = {}  # world -> (its rows, value)
            if not keys:
                found = {x: ((), v) for x, v in enumerate(values[root]) if v != top}
            elif all(rel.values()):
                *fixed_keys, last = keys
                size = len(rel[last])
                for s in tiled:  # point x * size + j is world x with the last key's row j
                    points[s] = tuple(chain.from_iterable((v,) * size for v in values[s]))
                fixed = []
                for _, a, _, s in conds:
                    if values[a] == last:
                        points[s] = values[s] * n
                    else:
                        fixed.append((s, keys.index(values[a])))
                all_top = (top,) * size
                for at in product(*[range(len(rel[key])) for key in fixed_keys]):
                    for s, k in fixed:
                        points[s] = (values[s][at[k]],) * (size * n)
                    for fn, i, j, s in above:
                        points[s] = fn(points[i], points[j])
                    for x in range(n):
                        at_x = points[root][x * size : (x + 1) * size]
                        if x in found or at_x == all_top:
                            continue
                        j, v = next((j, v) for j, v in enumerate(at_x) if v != top)
                        found[x] = (tuple(rel[key][w] for key, w in zip(keys, at + (j,))), v)
                    if len(found) == n:
                        break
            if not found:
                return len(rows) ** (n * len(keys)), None
            firsts = [rel[key][0] for key in keys]

            def rank(x: int) -> int:
                """x's candidate's index, its row indices read as digits
                in enumeration order (key by key, world by world)."""
                t, index = found[x][0], 0
                for k, first in enumerate(firsts):
                    for y in range(n):
                        index = index * len(rows) + row_index[t[k] if y == x else first]
                return index

            x = min(sorted(found), key=rank)
            t, v = found[x]
            for k, key in enumerate(keys):
                rel[key] = tuple(t[k] if y == x else firsts[k] for y in range(n))
            return rank(x) + 1, (x, v)

        for assignment in valuations:
            orbit = [assignment[x::n] for x in range(n)]  # each world's values
            if any(map(gt, orbit, orbit[1:])):
                # a permutation of the worlds sorts it into an earlier
                # valuation, which had no countermodel and as many candidates
                spent, hit = orbit_spent[tuple(sorted(orbit))], None
            else:
                for s, start in var_at:
                    values[s] = assignment[start : start + n]
                for fn, i, j, s in base:
                    values[s] = fn(values[i], values[j])
                if depth[root] > 1:
                    spent, hit = visit(None if budget is None else budget - count)
                else:
                    spent, hit = by_rows()
                if hit is None:
                    orbit_spent[tuple(orbit)] = spent
            if budget is not None and count + spent > budget:
                return SearchOutcome(None, None, True, budget)
            count += spent
            if hit is not None:
                x, v = hit
                worlds = tuple(f"w{i}" for i in range(n))
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
