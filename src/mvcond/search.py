"""Decision procedures at desk scale.

is_L_tautology decides truth-table validity on the m-valued chain by
exhaustive valuation, optionally abstracting conditional subformulas to
fresh shared atoms first; the table runs the evaluator's compiled
program in slabs of at most 2^16 values (a chain's width per subformula
if that is more), every combination of the last few variables at once.
countermodel_search enumerates finite models in a canonical order (world
count ascending; valuations in ascending lexicographic numerator order
over sorted variables; relation matrices row-major with entries
descending from 1), so a given query always returns the same
countermodel. A "none" outcome certifies only that no model within the
given bounds refutes the formula. The search runs the
evaluator's compiled program on integers, its conditional-free
subformulas once per valuation. Without a conditional nested inside
another, a formula's value at world x reads only row x of each
relation, so each tuple of rows is evaluated once per valuation and the
first countermodel, and the count of candidates before it, follow in
closed form. With nesting, the nodes above a conditional run once per
relation candidate; each candidate matrix is a tuple of the same rows.
Either way the identity frame condition holds when every row lies within
its key, entry by entry.

The row-separated search also shares work across valuations. A
conditional's values over all rows depend only on its consequent's values
(and, under the identity frame condition, on its key, which picks the
rows), so they are computed once per world count, as are the rows within
each key. Permuting the worlds of
a valuation permutes its candidates without changing whether one refutes
the formula, so only a valuation whose per-world value tuples are
non-decreasing, the least of its orbit, is searched. Any other comes after
its least permutation, which found no countermodel (the search would have
stopped there), and adds the closed-form count of that one.

filtrate quotients a model by agreement on a subformula-closed set,
taking the pointwise supremum of the evaluator's integer relation rows
across classes, and check_preservation verifies value agreement formula
by formula.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import chain, product
from operator import gt, le
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
from .syntax import I, J, Cond, Formula, NodeTable, RESERVED_VAR, Var
from .truthvalues import ScaleMismatchError, TruthValue

__all__ = [
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

    The inputs map each name to the slots it sets: the variables and,
    with abstract, each maximal conditional, named _c0, _c1, ... in order
    of first occurrence (structurally equal conditionals share a slot and
    so a name). The other slots are those reachable from the root
    without crossing an abstracted conditional, children first.
    """
    table = NodeTable()
    root = table.add(phi)
    nodes, kids = table.nodes, table.kids
    inputs: dict[str, list[int]] = {}
    conditionals = 0
    order: list[int] = []
    stack: list[tuple[int, bool]] = [(root, False)]
    seen: set[int] = set()
    while stack:
        slot, built = stack.pop()
        if built:
            order.append(slot)
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
        elif isinstance(node, Var):
            name = node.name
        else:
            stack.append((slot, True))
            stack.extend((kid, False) for kid in reversed(kids[slot]))
            continue
        inputs.setdefault(name, []).append(slot)
    return table, root, inputs, order


# Values in one slab over all slots (one chain's worth per slot if more):
# 8-byte pointers to shared small ints, so about 0.5 MiB live, while wide
# rows keep the per-step overhead small. Uncapped, 10,000 slots over 12
# variables at m=2 would hold 4,096 rows each, about 41 million values.
_SLAB_CELLS = 1 << 16


def _chain_program(
    phi: Formula, m: int, abstract: bool, advice: str, slabs: bool
) -> tuple[list[str], Callable[[Mapping[str, Values]], Values], int]:
    """phi compiled for truth tables on the m-element chain: the input names,
    a function from every input's values to phi's, and j for m^j rows at
    once: 0 without slabs, else the most, up to the input count, whose
    cells fit in _SLAB_CELLS, and at least 1 when there is an input."""
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    table, root, inputs, order = _truth_table_slots(phi, abstract, advice)
    j = 1 if slabs and inputs else 0
    while j < len(inputs) and m ** (j + 1) * len(table.nodes) <= _SLAB_CELLS:
        j += 1
    ops = operations(m, m**j, dict().get, None)  # no conditional is compiled
    values: list = [None] * len(table.nodes)
    steps = []
    for slot in order:
        node, kids = table.nodes[slot], table.kids[slot]
        if kids:
            steps.append((instruction(node, ops, m), kids[0], kids[-1], slot))
        else:
            values[slot] = ops[type(node)]

    def run(given: Mapping[str, Values]) -> Values:
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
        given[name] = (value.numerator,)
    return TruthValue(run(given)[0], m)


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

    The table runs in slabs of m^j rows (see _chain_program): the last j
    variables take every combination of chain values at once, in the same
    order, and the others are constant across a slab.
    """
    names, run, j = _chain_program(phi, m, abstract, "enable abstraction", True)
    names.sort()
    width = m**j
    # the i-th of the last j names: each value repeated m^(j-1-i) times,
    # and that pattern cycled m^i times
    columns = [
        tuple(chain.from_iterable((x,) * m ** (j - 1 - i) for x in range(m))) * m**i
        for i in range(j)
    ]
    top = m - 1
    for prefix in product(range(m), repeat=len(names) - j):
        result = run(dict(zip(names, [(x,) * width for x in prefix] + columns)))
        if min(result) != top:
            row = next(r for r, value in enumerate(result) if value != top)
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
    under require_fid. Only the least valuation of
    each orbit under permutations of the worlds is evaluated; the others
    cannot hold the first countermodel and add their closed-form count,
    |rows|^(worlds * keys), with the budget checked as for any valuation.
    Nested conditionals are enumerated candidate by candidate, each
    matrix a tuple of shared rows.
    """
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if bounds is None:
        bounds = SearchBounds()
    table = NodeTable()
    root = table.add(phi)
    code = list(zip(table.nodes, table.kids))
    depth: list[int] = []
    for node, kids in code:
        depth.append(max((depth[k] for k in kids), default=0) + isinstance(node, Cond))
    if depth[root] > 3:
        raise SearchError("conditional nesting deeper than 3 is not supported")
    nested = depth[root] > 1
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
    names = tuple(sorted(var_slot))
    # a node with depth[s] > 0 has a conditional at or below it, so its
    # value depends on the relations; one inside an antecedent (inner) can
    # change which propositions need relations. Depth-0 (base) nodes are
    # evaluated once per valuation. With nested conditionals, visit
    # evaluates inner ones on every call and the others (outer) once a
    # candidate's relations (tuples of rows) are complete; without, there
    # are no inner nodes and by_rows evaluates the outer ones on rows.
    in_antecedent = [False] * len(code)
    for s in reversed(range(len(code))):
        node, kids = code[s]
        if isinstance(node, Cond):
            in_antecedent[kids[0]] = True
        if in_antecedent[s]:
            for k in kids:
                in_antecedent[k] = True
    antecedents = sorted({kids[0] for node, kids in code if isinstance(node, Cond)})
    top = m - 1
    budget = bounds.max_candidates
    count = 0
    for n in range(1, bounds.max_worlds + 1):
        rel: dict[tuple[int, ...], Sequence[tuple[int, ...]]] = {}
        ops = operations(m, n, rel.get, 0)
        values: list = [None] * len(code)
        base, inner, outer = [], [], []
        for s, (node, kids) in enumerate(code):
            if not kids:
                values[s] = ops[type(node)]
                continue
            step = (instruction(node, ops, m), kids[0], kids[-1], s)
            (base if not depth[s] else inner if in_antecedent[s] else outer).append(step)
        var_at = [
            (var_slot[v], vi * n) for vi, v in enumerate(names) if v != RESERVED_VAR
        ]

        @cache  # per world count; keys sort by it
        def cells(key: tuple[int, ...]):
            return tuple(tuple(y for y in range(n) if key[y] == c) for c in range(m))

        rows = list(product(values_desc, repeat=n))
        if nested:  # |rows|^n matrices, each a tuple of the shared rows
            matrices = list(product(rows, repeat=n))
        else:
            row_index = {row: j for j, row in enumerate(rows)}
            conds = [step for step in outer if isinstance(code[step[3]][0], Cond)]
            above = [step for step in outer if not isinstance(code[step[3]][0], Cond)]
            tiled = {k for _, i, j, _ in above for k in (i, j) if not depth[k]}
            points: list = [None] * len(code)  # values at (world, row of the last key)
            # a conditional's values over its key's rows, by its consequent's
            # values (and its key under require_fid, which picks the rows)
            cond_values: dict = {}
            # an orbit's least valuation, as its worlds' value tuples -> the
            # candidates of each of its valuations without a countermodel
            orbit_spent: dict[tuple, int] = {}

            @cache
            def within(key: tuple[int, ...]) -> list[tuple[int, ...]]:
                return [r for r in rows if all(map(le, r, key))]

        def visit():
            """The first refuting world and its value, or True for an
            exhausted budget, over every completion of the relations in rel.
            At most 4 deep: after r calls each antecedent of depth < r has
            its final value, already a key, and none is deeper than 2."""
            nonlocal count
            for fn, i, j, s in inner:
                values[s] = fn(values[i], values[j])
            fresh = {values[a] for a in antecedents}.difference(rel)
            if not fresh:
                if budget is not None and count >= budget:
                    return True
                count += 1
                if require_fid and not all(
                    all(map(le, row, key)) for key, matrix in rel.items() for row in matrix
                ):
                    return None
                for fn, i, j, s in outer:
                    values[s] = fn(values[i], values[j])
                for x, v in enumerate(values[root]):
                    if v != top:
                        return x, v
                return None
            keys = sorted(fresh, key=cells)
            for combo in product(matrices, repeat=len(keys)):
                rel.update(zip(keys, combo))
                hit = visit()
                if hit is not None:
                    return hit
            for key in keys:
                del rel[key]
            return None

        def by_rows(orbit: tuple):
            """What visit returns, for a formula without nested conditionals.

            rel holds each key's rows in enumeration order (those within
            the key under require_fid). For each world x, the first
            refuting candidate with x's rows fixed sets every other row to
            its key's first; the earliest of these n is the first refuting
            candidate, and its rank in the enumeration is the count
            before it. The last key's rows vary across one points vector,
            the other keys' stay constant across it. orbit, the valuation's
            value tuple at each world, is least in its orbit under
            permutations of the worlds; its candidate count without a
            countermodel is recorded for the others.
            """
            nonlocal count
            keys = list({values[a] for a in antecedents})
            if len(keys) > 1:
                keys.sort(key=cells)
            spent = orbit_spent[orbit] = len(rows) ** (n * len(keys))
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
            if found:
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
                spent = rank(x) + 1
            if budget is not None and count + spent > budget:
                count = budget
                return True
            count += spent
            if not found:
                return None
            t, v = found[x]
            for k, key in enumerate(keys):
                rel[key] = tuple(t[k] if y == x else firsts[k] for y in range(n))
            return x, v

        for assignment in product(range(m), repeat=n * len(names)):
            if not nested:
                orbit = [assignment[x::n] for x in range(n)]  # each world's values
                if any(map(gt, orbit, orbit[1:])):
                    # a permutation of the worlds sorts it into an earlier
                    # valuation, which had no countermodel
                    spent = orbit_spent[tuple(sorted(orbit))]
                    if budget is not None and count + spent > budget:
                        return SearchOutcome(None, None, True, budget)
                    count += spent
                    continue
            for s, start in var_at:
                values[s] = assignment[start : start + n]
            for fn, i, j, s in base:
                values[s] = fn(values[i], values[j])
            hit = visit() if nested else by_rows(tuple(orbit))
            if hit is True:
                return SearchOutcome(None, None, True, count)
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
    column_of = {phi.name: col for phi, col in zip(ordered, columns) if isinstance(phi, Var)}
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
