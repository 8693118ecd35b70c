"""Reference implementations kept as test oracles.

These are the straightforward recursive versions of the evaluator, the
countermodel search, normalize, the truth tables, the parser, the
printer, the proof checker's axiom matchers and line checker,
filtration, its preservation check, random models, the identity frame
condition check and the model document loader as the library once
shipped them. They evaluate one (world, formula) pair or one assignment
at a time, build a KripkeModel for every candidate, rewrite trees
without sharing, parse by recursive descent, compare formulas with the
recursive == that the dataclasses generated and build models from
TruthValue entries world by world, so they are slow and fail on deep
input, but are easy to check by eye. The differential tests compare the
library's compiled evaluator and truth tables, search, table-driven
normalize, iterative parser and printer, schema-driven proof checker,
the model builders that work on numerators and the loader that shares
one TruthValue per numerator with them.

reference_model_from_json is the loader as it was before matrix rows
were read in one pass: every entry goes through its own check, so it is
the oracle for the messages the row-wise loader gives on a bad entry.

reference_check_fid is the frame condition check as it was before rows
were tested in one pass: it reads every entry through matrix[x][y] and
builds each record with FidViolation's generated __init__, so a short or
missing row raises IndexError at its first missing entry.

generated is the node classes' == and hash as the dataclasses generated
them: it rebuilds a formula from dataclasses with the same names and
fields that generate __eq__ and __hash__, which recurse on the tree, so
it is the oracle for Formula's == and hash, and reference_rule_eq
compares through it.

table_rule_eq is the proof checker's formula comparison as it was before
the lockstep walk: hash-consing into one node table, iterative, so it is
the oracle for deep and DAG-shaped pairs that reference_rule_eq cannot
reach.

reference_fold is syntax._fold as it was before it read its children by
arity: every inner node is built through a *args call with a list of its
children's results, so it is the oracle for the node tables, normalize
results and AST documents the fold builds, and table_rule_eq folds through
it. identity_shape lists a formula's nodes as that fold meets them, so it
compares two DAGs, sharing included, at any depth.

pairwise_columns is the truth tables' slab columns as they were built
before the closed form: every column joined from shifted copies in pairs,
over m-long lists at the first level too, so it is the oracle for
search._columns.

_cited_lines, _rule_name and _premise_dependence are the line checker's
citation, rule name and premise dependence as they were before the
checker read its rules from one table: isinstance chains over the
justification types, so reference_check_line does not share them with
the code it checks.

reference_justification_from_json is the derivation reader's rule
decoder as it was before its rules were read through tables: one branch
per rule name, so it is the oracle for the justification or error text
each rule's arguments give.

reference_index_numerator, reference_graded_index and reference_mk_J are
syntax.index_numerator, the J/I index check and mk_J as they were before
graded indices were read as integer numerators: every step in Fraction
arithmetic, so they are the oracle for the numerators, stored indices,
error texts and trees of the integer versions. reference_mk_I is mk_I
over reference_mk_J. The core builders they call are the library's, which
do no index arithmetic.

enumerated_search is the search as it was before rows were separated:
it runs the compiled program on every candidate, so it is fast enough
for the 3-world and m=4 cases that reference_search cannot reach.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, fields, make_dataclass
from fractions import Fraction
from itertools import product
from operator import le
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from mvcond.parser import ParseError, SourceSpan, print_formula
from mvcond.proof import (
    MP,
    RCEA,
    RCEC,
    Ax,
    Derivation,
    DerivationFormatError,
    Justification,
    LineError,
    LTaut,
    Premise,
    Ra,
    RaGen,
    Verdict,
    _parse_formula,
    _parse_fraction,
    _parse_int_list,
)
from mvcond.search import (
    ConditionalPresentError,
    Discrepancy,
    SearchBounds,
    SearchError,
    SearchOutcome,
    SigmaNotClosedError,
    falsifying_assignment,
)
from mvcond.semantics import (
    Evaluator,
    FidViolation,
    KripkeModel,
    Matrix,
    MissingRelationError,
    ModelFormatError,
    Proposition,
    UndeclaredVariableError,
    UnknownWorldError,
    _SharedValues,
    instruction,
    model_of,
    operations,
    proposition_from,
)
from mvcond.syntax import (
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
    _KIDS,
    _PARAM,
    _iff_core,
    _product_core,
    children,
    free_vars,
    imp_chain,
    index_numerator,
    mk_I,
    mk_J,
    subformula_closure,
)
from mvcond.truthvalues import (
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


class ReferenceEvaluator:
    """Evaluates formulas in one model, caching per (world, formula).

    The caches are keyed by id(phi), so that a lookup does not hash the
    whole subformula, and hold phi so that its id is not reused."""

    def __init__(self, model: KripkeModel):
        self.model = model
        self._index = model.world_index()
        self._values: dict[tuple[str, int], tuple[Formula, TruthValue]] = {}
        self._props: dict[int, tuple[Formula, Proposition]] = {}

    def value(self, world: str, phi: Formula) -> TruthValue:
        if world not in self._index:
            raise UnknownWorldError(f"unknown world {world!r}")
        key = (world, id(phi))
        cached = self._values.get(key)
        if cached is not None:
            return cached[1]
        result = self._compute(world, phi)
        self._values[key] = (phi, result)
        return result

    def _relation_entry(self, prop: Proposition, xi: int, yi: int) -> TruthValue:
        matrix = self.model.relations.get(prop)
        if matrix is not None:
            return matrix[xi][yi]
        if self.model.default_policy is None:
            raise MissingRelationError("no relation stored for antecedent proposition")
        return self.model.default_policy

    def _compute(self, world: str, phi: Formula) -> TruthValue:
        m = self.model.m
        if isinstance(phi, Var):
            if phi.name == RESERVED_VAR:
                return TruthValue.bottom(m)
            per_world = self.model.valuation.get(phi.name)
            if per_world is None or world not in per_world:
                raise UndeclaredVariableError(
                    f"variable {phi.name!r} has no value at world {world!r}"
                )
            return per_world[world]
        if isinstance(phi, Top):
            return TruthValue.top(m)
        if isinstance(phi, Bot):
            return TruthValue.bottom(m)
        if isinstance(phi, Not):
            return tv_neg(self.value(world, phi.child))
        if isinstance(phi, Imp):
            return tv_imp(self.value(world, phi.left), self.value(world, phi.right))
        if isinstance(phi, And):
            return tv_meet(self.value(world, phi.left), self.value(world, phi.right))
        if isinstance(phi, Or):
            return tv_join(self.value(world, phi.left), self.value(world, phi.right))
        if isinstance(phi, OPlus):
            return tv_oplus(self.value(world, phi.left), self.value(world, phi.right))
        if isinstance(phi, OTimes):
            return tv_odot(self.value(world, phi.left), self.value(world, phi.right))
        if isinstance(phi, OMinus):
            return tv_ominus(self.value(world, phi.left), self.value(world, phi.right))
        if isinstance(phi, Iff):
            left = self.value(world, phi.left)
            right = self.value(world, phi.right)
            return tv_meet(tv_imp(left, right), tv_imp(right, left))
        if isinstance(phi, J):
            k = index_numerator(phi.index, m)
            hit = self.value(world, phi.child).numerator == k
            return TruthValue.top(m) if hit else TruthValue.bottom(m)
        if isinstance(phi, I):
            k = index_numerator(phi.index, m)
            hit = self.value(world, phi.child).numerator >= k
            return TruthValue.top(m) if hit else TruthValue.bottom(m)
        if isinstance(phi, Cond):
            prop = self.proposition(phi.left)
            xi = self._index[world]
            result = TruthValue.top(m)
            for yi, y in enumerate(self.model.worlds):
                entry = self._relation_entry(prop, xi, yi)
                result = tv_meet(result, tv_imp(entry, self.value(y, phi.right)))
            return result
        raise TypeError(f"not a formula node: {phi!r}")

    def proposition(self, phi: Formula) -> Proposition:
        cached = self._props.get(id(phi))
        if cached is not None:
            return cached[1]
        cells: list[list[str]] = [[] for _ in range(self.model.m)]
        for w in self.model.worlds:
            cells[self.value(w, phi).numerator].append(w)
        prop = Proposition(tuple(tuple(cell) for cell in cells))
        self._props[id(phi)] = (phi, prop)
        return prop

    def failing_world(self, phi: Formula) -> tuple[str, TruthValue] | None:
        for w in self.model.worlds:
            v = self.value(w, phi)
            if not v.is_designated:
                return w, v
        return None

    def entailment_witness(
        self, sigma: Iterable[Formula], phi: Formula
    ) -> tuple[str, TruthValue] | None:
        sigma = list(sigma)
        for w in self.model.worlds:
            if all(self.value(w, psi).is_designated for psi in sigma):
                v = self.value(w, phi)
                if not v.is_designated:
                    return w, v
        return None


def _cond_depth(phi: Formula) -> int:
    deepest = max((_cond_depth(child) for child in children(phi)), default=0)
    return deepest + (1 if isinstance(phi, Cond) else 0)


def _cond_subformulas(phi: Formula) -> list[Cond]:
    seen: set[Formula] = set()
    out: list[Cond] = []

    def visit(node: Formula) -> None:
        if isinstance(node, Cond) and node not in seen:
            seen.add(node)
            out.append(node)
        for child in children(node):
            visit(child)

    visit(phi)
    return out


def _prop_key(prop: Proposition, index: Mapping[str, int]):
    return tuple(tuple(index[w] for w in cell) for cell in prop.cells)


def _relation_candidates(
    model: KripkeModel,
    conds: Sequence[Cond],
    values_desc: Sequence[TruthValue],
    rounds_left: int,
):
    """Models with relations assigned for every antecedent proposition,
    with a new enumeration round for each proposition that appears once
    an inner relation is fixed. Each round adds a proposition, and n
    worlds have m^n of them, so the m^n + 1 rounds callers give never
    run out."""
    ev = ReferenceEvaluator(model)
    fresh: list[Proposition] = []
    seen: set[Proposition] = set(model.relations)
    for cond in conds:
        prop = ev.proposition(cond.left)
        if prop not in seen:
            seen.add(prop)
            fresh.append(prop)
    if not fresh:
        yield model
        return
    if rounds_left == 0:
        raise SearchError("relation assignment did not stabilize")
    index = model.world_index()
    fresh.sort(key=lambda prop: _prop_key(prop, index))
    n = len(model.worlds)
    cells = n * n
    for combo in product(values_desc, repeat=cells * len(fresh)):
        relations = dict(model.relations)
        for k, prop in enumerate(fresh):
            chunk = combo[k * cells : (k + 1) * cells]
            relations[prop] = tuple(
                tuple(chunk[i * n + j] for j in range(n)) for i in range(n)
            )
        candidate = KripkeModel(
            m=model.m,
            worlds=model.worlds,
            vars=model.vars,
            valuation=model.valuation,
            relations=relations,
            default_policy=model.default_policy,
        )
        yield from _relation_candidates(candidate, conds, values_desc, rounds_left - 1)


def reference_search(
    phi: Formula,
    m: int,
    bounds: SearchBounds | None = None,
    require_fid: bool = False,
) -> SearchOutcome:
    """The first refutation in the canonical enumeration order."""
    if bounds is None:
        bounds = SearchBounds()
    conds = _cond_subformulas(phi)
    names = tuple(sorted(free_vars(phi) - {RESERVED_VAR}))  # _t is 0 everywhere
    if bounds.relation_values is None:
        values_desc = [TruthValue(i, m) for i in range(m - 1, -1, -1)]
    else:
        numerators = sorted(set(bounds.relation_values), reverse=True)
        for numerator in numerators:
            if not 0 <= numerator <= m - 1:
                raise ValueError(
                    f"relation value numerator {numerator} not in [0, {m - 1}]"
                )
        values_desc = [TruthValue(i, m) for i in numerators]
    count = 0
    for n in range(1, bounds.max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(n))
        for assignment in product(range(m), repeat=n * len(names)):
            valuation = {
                v: {
                    w: TruthValue(assignment[vi * n + wi], m)
                    for wi, w in enumerate(worlds)
                }
                for vi, v in enumerate(names)
            }
            base = KripkeModel(
                m=m,
                worlds=worlds,
                vars=names,
                valuation=valuation,
                relations={},
                default_policy=TruthValue.bottom(m),
            )
            rounds = m**n + 1
            for candidate in _relation_candidates(base, conds, values_desc, rounds):
                if (
                    bounds.max_candidates is not None
                    and count >= bounds.max_candidates
                ):
                    return SearchOutcome(None, None, True, count)
                count += 1
                if require_fid and reference_check_fid(candidate):
                    continue
                hit = ReferenceEvaluator(candidate).failing_world(phi)
                if hit is not None:
                    return SearchOutcome((candidate, hit[0]), hit[1], False, count)
    return SearchOutcome(None, None, False, count)


def enumerated_search(
    phi: Formula,
    m: int,
    bounds: SearchBounds | None = None,
    require_fid: bool = False,
) -> SearchOutcome:
    """countermodel_search as it was before rows were separated: every
    candidate is enumerated and evaluated on the compiled program, the
    conditional-free nodes once per valuation and the nodes above a
    conditional once per candidate. It is fast enough for 3-world cases
    at m=2, unlike reference_search."""
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
    names = tuple(sorted(var_slot.keys() - {RESERVED_VAR}))  # _t is 0 everywhere
    # a node with depth[s] > 0 has a conditional at or below it, so its
    # value depends on the relations; one inside an antecedent (inner) can
    # change which propositions need relations. Depth-0 (base) nodes are
    # evaluated once per valuation; visit evaluates inner ones on every
    # call and the others (outer) once a candidate's relations are complete.
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
        rel: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
        ops = operations(m, n, rel.get, 0)
        values: list = [None] * len(code)
        base, inner, outer = [], [], []
        for s, (node, kids) in enumerate(code):
            if not kids:
                values[s] = ops[type(node)]
                continue
            step = (instruction(node, ops, m), kids[0], kids[-1], s)
            (base if not depth[s] else inner if in_antecedent[s] else outer).append(step)
        var_at = [(var_slot[v], vi * n) for vi, v in enumerate(names)]
        # |values|^(n^2) of them, so only built when some relation is needed
        matrices = [
            tuple(entries[x * n : (x + 1) * n] for x in range(n))
            for entries in product(values_desc, repeat=n * n)
        ] if antecedents else []
        column_max = {id(rows): tuple(map(max, zip(*rows))) for rows in matrices}

        def cells(key: tuple[int, ...]):
            return tuple(tuple(y for y in range(n) if key[y] == c) for c in range(m))

        def visit(rounds_left: int):
            """The first refuting world (an index) or True for an exhausted
            budget, over every completion of the relations fixed in rel."""
            nonlocal count
            for fn, i, j, s in inner:
                values[s] = fn(values[i], values[j])
            fresh = {values[a] for a in antecedents}.difference(rel)
            if not fresh:
                if budget is not None and count >= budget:
                    return True
                count += 1
                if require_fid and not all(
                    all(map(le, column_max[id(rows)], key)) for key, rows in rel.items()
                ):
                    return None
                for fn, i, j, s in outer:
                    values[s] = fn(values[i], values[j])
                for x, v in enumerate(values[root]):
                    if v != top:
                        return x
                return None
            if rounds_left == 0:
                raise SearchError("relation assignment did not stabilize")
            keys = sorted(fresh, key=cells)
            for combo in product(matrices, repeat=len(keys)):
                rel.update(zip(keys, combo))
                hit = visit(rounds_left - 1)
                if hit is not None:
                    return hit
            for key in keys:
                del rel[key]
            return None

        for assignment in product(range(m), repeat=n * len(names)):
            for s, start in var_at:
                values[s] = assignment[start : start + n]
            for fn, i, j, s in base:
                values[s] = fn(values[i], values[j])
            hit = visit(m**n + 1)  # each round adds one of the m^n keys
            if hit is True:
                return SearchOutcome(None, None, True, count)
            if hit is not None:
                worlds = tuple(f"w{i}" for i in range(n))
                columns = [assignment[vi * n : (vi + 1) * n] for vi in range(len(names))]
                model = model_of(m, worlds, names, columns, rel, 0)
                value = TruthValue(values[root][hit], m)
                return SearchOutcome((model, worlds[hit]), value, False, count)
    return SearchOutcome(None, None, False, count)


def reference_normalize(phi: Formula, m: int) -> Formula:
    """Expand every derived connective, rebuilding each subtree afresh."""
    if isinstance(phi, Var):
        return phi
    if isinstance(phi, Top):
        return Imp(Var(RESERVED_VAR), Var(RESERVED_VAR))
    if isinstance(phi, Bot):
        return Not(Imp(Var(RESERVED_VAR), Var(RESERVED_VAR)))
    if isinstance(phi, Not):
        return Not(reference_normalize(phi.child, m))
    if isinstance(phi, Imp):
        return Imp(reference_normalize(phi.left, m), reference_normalize(phi.right, m))
    if isinstance(phi, Cond):
        return Cond(reference_normalize(phi.left, m), reference_normalize(phi.right, m))
    if isinstance(phi, Or):
        left = reference_normalize(phi.left, m)
        right = reference_normalize(phi.right, m)
        return Imp(Imp(left, right), right)
    if isinstance(phi, And):
        return reference_normalize(Not(Or(Not(phi.left), Not(phi.right))), m)
    if isinstance(phi, OPlus):
        return Imp(Not(reference_normalize(phi.left, m)), reference_normalize(phi.right, m))
    if isinstance(phi, OTimes):
        return Not(
            Imp(reference_normalize(phi.left, m), Not(reference_normalize(phi.right, m)))
        )
    if isinstance(phi, OMinus):
        return reference_normalize(OTimes(phi.left, Not(phi.right)), m)
    if isinstance(phi, Iff):
        return reference_normalize(
            And(Imp(phi.left, phi.right), Imp(phi.right, phi.left)), m
        )
    if isinstance(phi, J):
        return reference_normalize(mk_J(phi.index, phi.child, m), m)
    if isinstance(phi, I):
        return reference_normalize(mk_I(phi.index, phi.child, m), m)
    raise TypeError(f"not a formula node: {phi!r}")


def reference_index_numerator(index: Fraction | int, scale: int) -> int:
    """Numerator of index on the scale-element chain; rejects off-chain values."""
    as_num = Fraction(index) * (scale - 1)
    if not 0 <= Fraction(index) <= 1 or as_num.denominator != 1:
        raise UnrepresentableIndexError(
            f"index {index} is not on the {scale}-element chain"
        )
    return int(as_num)


def reference_graded_index(index: object) -> Fraction:
    """The index a J or I node stores for index, or the ValueError it raises."""
    index = Fraction(index)
    if not 0 <= index <= 1:
        raise ValueError(f"graded operator index {index} outside [0, 1]")
    return index


def reference_mk_J(a: Fraction | int, phi: Formula, m: int) -> Formula:
    """Core formula with value 1 where phi has value a, and 0 elsewhere."""
    a = Fraction(a)
    while (k := reference_index_numerator(a, m)) < m - 1:
        n = (m - 2) // ((m - 1) - k)
        if 2 * k < m - 1:
            a, phi = 1 - a, Not(phi)
        elif n == a / (1 - a):
            a, phi = Fraction(1), _iff_core(Not(_product_core(phi, n)), phi)
        else:
            a, phi = n * (1 - a), Not(_product_core(phi, n))
    return _product_core(phi, m - 1)


def reference_mk_I(a: Fraction | int, phi: Formula, m: int) -> Formula:
    """Disjunction of the exact-value tests for every chain value >= a."""
    k = reference_index_numerator(a, m)
    tests = [reference_mk_J(Fraction(i, m - 1), phi, m) for i in range(k, m)]
    out = tests[0]
    for test in tests[1:]:
        out = Or(out, test)
    return out


_RESERVED = Var(RESERVED_VAR)


def _expand_constants(phi: Formula) -> Formula:
    if isinstance(phi, Top):
        return Imp(_RESERVED, _RESERVED)
    if isinstance(phi, Bot):
        return Not(Imp(_RESERVED, _RESERVED))
    if isinstance(phi, Var):
        return phi
    if isinstance(phi, Not):
        return Not(_expand_constants(phi.child))
    if isinstance(phi, J):
        return J(phi.index, _expand_constants(phi.child))
    if isinstance(phi, I):
        return I(phi.index, _expand_constants(phi.child))
    return type(phi)(_expand_constants(phi.left), _expand_constants(phi.right))


# Per node type, a dataclass of the same name and fields that generates
# __eq__ and __hash__, as the node classes once did.
_GENERATED = {
    kind: make_dataclass(kind.__name__, [(f.name, f.type) for f in fields(kind)], frozen=True)
    for kind in _KIDS
}


def generated(phi: object, memo: dict[int, object] | None = None) -> object:
    """phi rebuilt from _GENERATED's classes, shared subtrees kept shared;
    anything that is not a formula node is kept as it is."""
    memo = {} if memo is None else memo
    kind = _GENERATED.get(type(phi))
    if kind is None:
        return phi
    if id(phi) not in memo:
        memo[id(phi)] = kind(*(generated(getattr(phi, f.name), memo) for f in fields(phi)))
    return memo[id(phi)]


def reference_rule_eq(x: Formula, y: Formula) -> bool:
    """Structural equality after expanding T and F over the reserved variable."""
    return generated(_expand_constants(x)) == generated(_expand_constants(y))


T = TypeVar("T")


def reference_fold(
    phi: Formula, build: Callable[..., T], memo: dict[int, tuple[Formula, T]]
) -> T:
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


def identity_shape(phi: Formula) -> list[tuple]:
    """phi's distinct nodes by identity, in the order reference_fold builds
    them, each as its type, its name or index, and its children's positions
    in this list. Two formulas have equal shapes exactly when they are equal
    trees whose subtrees are shared alike."""
    shape: list[tuple] = []

    def build(node: Formula, *kids: int) -> int:
        param = _PARAM.get(type(node))
        shape.append((type(node), param and param(node), kids))
        return len(shape) - 1

    reference_fold(phi, build, {})
    return shape


def table_rule_eq(x: Formula, y: Formula) -> bool:
    """rule_eq as the proof checker had it before the lockstep walk: both
    formulas hash-consed into one table of shapes, in which T and F take
    the slots of _t -> _t and ~(_t -> _t). It keeps its own stack, so it
    works at any depth and on DAG-shaped input."""
    shapes: dict[tuple, int] = {}

    def slot(node: Formula, *kid_slots: int) -> int:
        param = _PARAM.get(type(node))
        key = (type(node), param and param(node), kid_slots)
        return shapes.setdefault(key, len(shapes))  # above every slot so far

    memo: dict = {}
    truth = Imp(_RESERVED, _RESERVED)
    shapes[(Top, None, ())] = reference_fold(truth, slot, memo)
    shapes[(Bot, None, ())] = reference_fold(Not(truth), slot, memo)
    return reference_fold(x, slot, memo) == reference_fold(y, slot, memo)


def _match_a1(phi: Formula) -> bool:
    # (a => (b & c)) -> ((a => b) & (a => c))
    if not isinstance(phi, Imp):
        return False
    left, right = phi.left, phi.right
    if not (isinstance(left, Cond) and isinstance(left.right, And)):
        return False
    if not (
        isinstance(right, And)
        and isinstance(right.left, Cond)
        and isinstance(right.right, Cond)
    ):
        return False
    a, b, c = left.left, left.right.left, left.right.right
    return (
        right.left.left == a
        and right.left.right == b
        and right.right.left == a
        and right.right.right == c
    )


def _match_a2(phi: Formula) -> bool:
    # ((a => b) & (a => c)) -> (a => (b & c))
    if not isinstance(phi, Imp):
        return False
    left, right = phi.left, phi.right
    if not (
        isinstance(left, And)
        and isinstance(left.left, Cond)
        and isinstance(left.right, Cond)
    ):
        return False
    if not (isinstance(right, Cond) and isinstance(right.right, And)):
        return False
    a, b, c = left.left.left, left.left.right, left.right.right
    return (
        left.right.left == a
        and right.left == a
        and right.right.left == b
        and right.right.right == c
    )


def _match_a3(phi: Formula) -> bool:
    # a => T, with T the constant node
    return isinstance(phi, Cond) and isinstance(phi.right, Top)


def _match_lid(phi: Formula) -> bool:
    # a => a
    return isinstance(phi, Cond) and phi.left == phi.right


_MATCHERS = {"A1": _match_a1, "A2": _match_a2, "A3": _match_a3, "LID": _match_lid}


def reference_match_axiom(phi: Formula, allow_lid: bool = False) -> str | None:
    """Name of the first axiom schema phi instantiates, if any."""
    for name, matcher in _MATCHERS.items():
        if (allow_lid or name != "LID") and matcher(phi):
            return name
    return None


def _odot_fraction(a: Fraction, b: Fraction, m: int) -> Fraction:
    left = TruthValue.from_fraction(a, m)
    right = TruthValue.from_fraction(b, m)
    return tv_odot(left, right).as_fraction()


def _chain_fractions_desc(m: int) -> list[Fraction]:
    return [Fraction(m - 1 - t, m - 1) for t in range(m)]


def _graded_premise(
    m: int,
    a: Fraction,
    b: Fraction,
    thresholds: Sequence[Fraction],
    parts: Sequence[Formula],
    target: Formula,
) -> Formula:
    antecedents = [
        I(_odot_fraction(threshold, b, m), part)
        for threshold, part in zip(thresholds, parts)
    ]
    return imp_chain(antecedents, I(_odot_fraction(a, b, m), target))


def _graded_conclusion(
    a: Fraction,
    phi: Formula,
    thresholds: Sequence[Fraction],
    parts: Sequence[Formula],
    target: Formula,
) -> Formula:
    antecedents = [
        I(threshold, Cond(phi, part))
        for threshold, part in zip(thresholds, parts)
    ]
    return imp_chain(antecedents, I(a, Cond(phi, target)))


def _check_thresholds_on_chain(
    values: Sequence[Fraction], m: int
) -> str | None:
    for value in values:
        try:
            TruthValue.from_fraction(value, m)
        except ValueError:
            return f"threshold {value} is not on the {m}-element chain"
    return None


def _cited_lines(rule: Justification) -> tuple[int, ...]:
    if isinstance(rule, MP):
        return (rule.i, rule.j)
    if isinstance(rule, (RCEA, RCEC)):
        return (rule.i,)
    if isinstance(rule, (Ra, RaGen)):
        return rule.premise_lines
    return ()


def _rule_name(rule: Justification) -> str:
    if isinstance(rule, Ax):
        return rule.name
    return type(rule).__name__ if isinstance(rule, Justification) else "unknown"


def _premise_dependence(derivation: Derivation) -> list[bool]:
    """dependent[k] is True when line k+1 transitively cites a premise.

    Citations out of range count as independent here; check_line
    rejects them with a proper error before dependence matters.
    """
    dependent: list[bool] = []
    for k, line in enumerate(derivation.lines):
        if isinstance(line.rule, Premise):
            dependent.append(True)
            continue
        cited = _cited_lines(line.rule)
        dependent.append(
            any(1 <= c <= k and dependent[c - 1] for c in cited)
        )
    return dependent


def reference_check_line(
    derivation: Derivation, index: int, rules_on_premises: bool = False
) -> LineError | None:
    """Check the 1-based line index; None means the line is in order."""
    if not 1 <= index <= len(derivation.lines):
        raise IndexError(f"no line {index}")
    line = derivation.lines[index - 1]
    rule = line.rule
    name = _rule_name(rule)
    m = derivation.m

    def err(message: str) -> LineError:
        return LineError(index, name, message)

    for cited in _cited_lines(rule):
        if not 1 <= cited < index:
            return err(
                f"cites line {cited}, which does not precede line {index}"
            )

    if not rules_on_premises and isinstance(rule, (RCEA, RCEC, Ra, RaGen)):
        dependent = _premise_dependence(derivation)
        for cited in _cited_lines(rule):
            if dependent[cited - 1]:
                return err(
                    f"applies only to premise-independent lines, but line "
                    f"{cited} depends on a premise"
                )

    if isinstance(rule, Premise):
        if not 1 <= rule.index <= len(derivation.premises):
            return err(f"no premise {rule.index}")
        expected = derivation.premises[rule.index - 1]
        if not reference_rule_eq(line.formula, expected):
            return err(
                f"expected {print_formula(expected)}, "
                f"found {print_formula(line.formula)}"
            )
        return None

    if isinstance(rule, LTaut):
        try:
            witness = falsifying_assignment(line.formula, m, abstract=True)
        except UnrepresentableIndexError as exc:
            return err(str(exc))
        if witness is not None:
            shown = ", ".join(
                f"{v}={witness[v].text()}" for v in sorted(witness)
            )
            return err(f"not a chain tautology; falsified by {shown}")
        return None

    if isinstance(rule, Ax):
        matcher = _MATCHERS.get(rule.name)
        if matcher is None:
            return err(f"unknown axiom {rule.name!r}")
        if not matcher(line.formula):
            return err(
                f"{print_formula(line.formula)} does not instantiate {rule.name}"
            )
        return None

    if isinstance(rule, MP):
        minor = derivation.lines[rule.i - 1].formula
        major = derivation.lines[rule.j - 1].formula
        expected = Imp(minor, line.formula)
        if not reference_rule_eq(major, expected):
            return err(
                f"line {rule.j} is {print_formula(major)}, "
                f"expected {print_formula(expected)}"
            )
        return None

    if isinstance(rule, (RCEA, RCEC)):
        cited = derivation.lines[rule.i - 1].formula
        if not isinstance(cited, Iff):
            return err(
                f"line {rule.i} is {print_formula(cited)}, "
                "expected an equivalence"
            )
        if not isinstance(line.formula, Iff) or not (
            isinstance(line.formula.left, Cond)
            and isinstance(line.formula.right, Cond)
        ):
            return err(
                f"{print_formula(line.formula)} is not an equivalence "
                "of conditionals"
            )
        first, second = line.formula.left, line.formula.right
        if isinstance(rule, RCEA):
            pattern_ok = (
                reference_rule_eq(first.left, cited.left)
                and reference_rule_eq(second.left, cited.right)
                and reference_rule_eq(first.right, second.right)
            )
        else:
            pattern_ok = (
                reference_rule_eq(first.right, cited.left)
                and reference_rule_eq(second.right, cited.right)
                and reference_rule_eq(first.left, second.left)
            )
        if not pattern_ok:
            return err(
                f"{print_formula(line.formula)} does not follow from "
                f"{print_formula(cited)} by {name}"
            )
        return None

    if isinstance(rule, (Ra, RaGen)):
        if isinstance(rule, Ra):
            thresholds = [Fraction(m - i, m - 1) for i in range(1, m + 1)]
            parts, target, indices = rule.gammas, rule.gamma, [rule.a]
            if len(parts) != m:
                return err(f"needs exactly {m} indexed formulas, got {len(parts)}")
        else:
            thresholds, parts, target = rule.a_list, rule.chis, rule.chi
            indices = [rule.a, *rule.a_list]
            if len(thresholds) != len(parts):
                return err(f"{len(thresholds)} thresholds for {len(parts)} formulas")
        if len(rule.premise_lines) != m:
            return err(
                f"needs exactly {m} premise lines, got {len(rule.premise_lines)}"
            )
        problem = _check_thresholds_on_chain(indices, m)
        if problem:
            return err(problem)
        for t, b in enumerate(_chain_fractions_desc(m)):
            cited = derivation.lines[rule.premise_lines[t] - 1].formula
            expected = _graded_premise(m, rule.a, b, thresholds, parts, target)
            if not reference_rule_eq(cited, expected):
                return err(
                    f"premise for b={b} (line {rule.premise_lines[t]}) is "
                    f"{print_formula(cited)}, expected {print_formula(expected)}"
                )
        expected = _graded_conclusion(rule.a, rule.phi, thresholds, parts, target)
        if not reference_rule_eq(line.formula, expected):
            return err(
                f"conclusion is {print_formula(line.formula)}, "
                f"expected {print_formula(expected)}"
            )
        return None

    return err(f"unknown rule {rule!r}")


def reference_check_derivation(
    derivation: Derivation, goal: Formula, rules_on_premises: bool = False
) -> Verdict:
    """Accept when every line checks and the last line equals the goal."""
    if not derivation.lines:
        return Verdict(False, None, "derivation has no lines")
    for index in range(1, len(derivation.lines) + 1):
        problem = reference_check_line(derivation, index, rules_on_premises)
        if problem is not None:
            return Verdict(False, problem.line, str(problem))
    last = derivation.lines[-1].formula
    if last != goal:
        return Verdict(
            False,
            len(derivation.lines),
            f"final line is {print_formula(last)}, which is not the goal "
            f"{print_formula(goal)}",
        )
    return Verdict(True)


def reference_justification_from_json(
    rule_name: object, args: dict, where: str
) -> Justification:
    if rule_name == "Premise":
        index = args.get("index")
        if not isinstance(index, int) or isinstance(index, bool):
            raise DerivationFormatError(f"{where}: Premise needs integer 'index'")
        return Premise(index)
    if rule_name == "LTaut":
        return LTaut()
    if rule_name in ("A1", "A2", "A3", "LID"):
        return Ax(rule_name)
    if rule_name == "MP":
        i, j = args.get("i"), args.get("j")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j)):
            raise DerivationFormatError(f"{where}: MP needs integer 'i' and 'j'")
        return MP(i, j)
    if rule_name in ("RCEA", "RCEC"):
        i = args.get("i")
        if not isinstance(i, int) or isinstance(i, bool):
            raise DerivationFormatError(f"{where}: {rule_name} needs integer 'i'")
        return (RCEA if rule_name == "RCEA" else RCEC)(i)
    if rule_name == "Ra":
        gammas_raw = args.get("gammas")
        if not isinstance(gammas_raw, list):
            raise DerivationFormatError(f"{where}: Ra needs a list 'gammas'")
        return Ra(
            a=_parse_fraction(args.get("a"), where),
            phi=_parse_formula(args.get("phi"), where),
            gammas=tuple(
                _parse_formula(g, f"{where} gamma {k+1}")
                for k, g in enumerate(gammas_raw)
            ),
            gamma=_parse_formula(args.get("gamma"), where),
            premise_lines=_parse_int_list(args.get("premise_lines"), where),
        )
    if rule_name == "RaGen":
        chis_raw = args.get("chis")
        a_list_raw = args.get("a_list")
        if not isinstance(chis_raw, list) or not isinstance(a_list_raw, list):
            raise DerivationFormatError(
                f"{where}: RaGen needs lists 'chis' and 'a_list'"
            )
        return RaGen(
            a=_parse_fraction(args.get("a"), where),
            a_list=tuple(
                _parse_fraction(x, f"{where} a_list {k+1}")
                for k, x in enumerate(a_list_raw)
            ),
            phi=_parse_formula(args.get("phi"), where),
            chis=tuple(
                _parse_formula(c, f"{where} chi {k+1}")
                for k, c in enumerate(chis_raw)
            ),
            chi=_parse_formula(args.get("chi"), where),
            premise_lines=_parse_int_list(args.get("premise_lines"), where),
        )
    raise DerivationFormatError(f"{where}: unknown rule {rule_name!r}")


def reference_value_under(phi: Formula, env: Mapping[str, TruthValue], m: int) -> TruthValue:
    """Truth-table value of a conditional-free formula under an assignment."""
    if isinstance(phi, Var):
        value = TruthValue.bottom(m) if phi.name == RESERVED_VAR else env.get(phi.name)
        if value is None:
            raise ValueError(f"assignment has no value for {phi.name!r}")
        return value
    if isinstance(phi, Top):
        return TruthValue.top(m)
    if isinstance(phi, Bot):
        return TruthValue.bottom(m)
    if isinstance(phi, Not):
        return tv_neg(reference_value_under(phi.child, env, m))
    if isinstance(phi, Cond):
        raise ConditionalPresentError(
            "formula contains a conditional; abstract it first"
        )
    if isinstance(phi, J):
        hit = reference_value_under(phi.child, env, m).numerator == index_numerator(phi.index, m)
        return TruthValue.top(m) if hit else TruthValue.bottom(m)
    if isinstance(phi, I):
        hit = reference_value_under(phi.child, env, m).numerator >= index_numerator(phi.index, m)
        return TruthValue.top(m) if hit else TruthValue.bottom(m)
    left = reference_value_under(phi.left, env, m)  # type: ignore[attr-defined]
    right = reference_value_under(phi.right, env, m)  # type: ignore[attr-defined]
    if isinstance(phi, Imp):
        return tv_imp(left, right)
    if isinstance(phi, And):
        return tv_meet(left, right)
    if isinstance(phi, Or):
        return tv_join(left, right)
    if isinstance(phi, OPlus):
        return tv_oplus(left, right)
    if isinstance(phi, OTimes):
        return tv_odot(left, right)
    if isinstance(phi, OMinus):
        return tv_ominus(left, right)
    if isinstance(phi, Iff):
        return tv_meet(tv_imp(left, right), tv_imp(right, left))
    raise TypeError(f"not a formula node: {phi!r}")


def reference_abstract_conditionals(phi: Formula) -> tuple[Formula, dict[Formula, Var]]:
    """Replace each maximal conditional subformula with a fresh shared atom.

    Structurally equal conditionals share one atom; fresh names _c0,
    _c1, ... cannot collide with parseable variables. Returns the
    rewritten formula and the conditional-to-atom mapping.
    """
    mapping: dict[Formula, Var] = {}

    def walk(node: Formula) -> Formula:
        if isinstance(node, Cond):
            var = mapping.get(node)
            if var is None:
                var = Var(f"_c{len(mapping)}")
                mapping[node] = var
            return var
        if isinstance(node, (Var, Top, Bot)):
            return node
        if isinstance(node, Not):
            return Not(walk(node.child))
        if isinstance(node, J):
            return J(node.index, walk(node.child))
        if isinstance(node, I):
            return I(node.index, walk(node.child))
        return type(node)(walk(node.left), walk(node.right))  # type: ignore[attr-defined]

    return walk(phi), mapping


def reference_falsifying_assignment(
    phi: Formula, m: int, abstract: bool = False
) -> dict[str, TruthValue] | None:
    """First assignment (ascending lexicographic order over sorted
    variables) giving a non-designated value, or None."""
    if abstract:
        phi, _ = reference_abstract_conditionals(phi)
    elif any(isinstance(node, Cond) for node in subformula_closure(phi)):
        raise ConditionalPresentError(
            "formula contains a conditional; enable abstraction"
        )
    names = sorted(free_vars(phi) - {RESERVED_VAR})  # _t is 0 like F
    values = chain(m)
    for combo in product(values, repeat=len(names)):
        env = dict(zip(names, combo))
        if not reference_value_under(phi, env, m).is_designated:
            return env
    return None


def pairwise_columns(m: int, j: int) -> tuple[int, ...]:
    """The last j names' packed columns over m^j rows (row r in the w-bit
    field at bit w*r), the first name's first, then 1 in every field, each
    name's column joined from m shifted copies of the block before it."""
    w = (2 * (m - 1)).bit_length() + 1

    def side_by_side(parts: list[int], bits: int) -> int:
        while len(parts) > 1:
            parts = [low | high << bits for low, high in zip(parts[::2], parts[1::2] + [0])]
            bits *= 2
        return parts[0]

    columns = [1]
    for k in range(j):
        stair = [x * columns[-1] for x in range(m)]
        columns = [side_by_side(p, w * m**k) for p in [stair, *([c] * m for c in columns)]]
    return tuple(columns)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    span: SourceSpan


_IDENT = re.compile(r"[a-z][a-zA-Z0-9_]*")
_NUMBER = re.compile(r"[0-9]+")

# Fixed-text tokens, longest first so e.g. "(+)" wins over "(".
_SYMBOLS = [
    ("(+)", "OPLUS"),
    ("(*)", "OTIMES"),
    ("(-)", "OMINUS"),
    ("<->", "IFF"),
    ("->", "IMP"),
    ("=>", "COND"),
    ("~", "NOT"),
    ("|", "OR"),
    ("&", "AND"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    ("/", "SLASH"),
]

_KEYWORDS = {"T": "TOP", "F": "BOT", "J": "JOP", "I": "IOP"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        match = _IDENT.match(text, pos)
        if match:
            tokens.append(
                _Token("IDENT", match.group(), SourceSpan(pos, match.end()))
            )
            pos = match.end()
            continue
        match = _NUMBER.match(text, pos)
        if match:
            tokens.append(
                _Token("NUMBER", match.group(), SourceSpan(pos, match.end()))
            )
            pos = match.end()
            continue
        if ch in _KEYWORDS:
            tokens.append(_Token(_KEYWORDS[ch], ch, SourceSpan(pos, pos + 1)))
            pos += 1
            continue
        for sym, kind in _SYMBOLS:
            if text.startswith(sym, pos):
                tokens.append(_Token(kind, sym, SourceSpan(pos, pos + len(sym))))
                pos += len(sym)
                break
        else:
            raise ParseError(
                f"unexpected character {ch!r}", SourceSpan(pos, pos + 1)
            )
    tokens.append(_Token("EOF", "", SourceSpan(size, size)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(f"expected {what}", token.span)
        return self.advance()

    def formula(self) -> Formula:
        node = self.cond()
        token = self.peek()
        if token.kind != "EOF":
            raise ParseError(f"unexpected token {token.text!r}", token.span)
        return node

    def cond(self) -> Formula:
        left = self.iff()
        if self.peek().kind != "COND":
            return left
        self.advance()
        right = self.iff()
        trailing = self.peek()
        if trailing.kind == "COND":
            raise ParseError(
                "'=>' is non-associative; add parentheses", trailing.span
            )
        return Cond(left, right)

    def iff(self) -> Formula:
        left = self.imp()
        if self.peek().kind != "IFF":
            return left
        self.advance()
        right = self.imp()
        trailing = self.peek()
        if trailing.kind == "IFF":
            raise ParseError(
                "'<->' is non-associative; add parentheses", trailing.span
            )
        return Iff(left, right)

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek().kind != "IMP":
            return left
        self.advance()
        return Imp(left, self.imp())

    def _left_chain(self, next_level, kind: str, node_type) -> Formula:
        node = next_level()
        while self.peek().kind == kind:
            self.advance()
            node = node_type(node, next_level())
        return node

    def disj(self) -> Formula:
        return self._left_chain(self.conj, "OR", Or)

    def conj(self) -> Formula:
        return self._left_chain(self.oplus, "AND", And)

    def oplus(self) -> Formula:
        return self._left_chain(self.otimes, "OPLUS", OPlus)

    def otimes(self) -> Formula:
        return self._left_chain(self.ominus, "OTIMES", OTimes)

    def ominus(self) -> Formula:
        return self._left_chain(self.unary, "OMINUS", OMinus)

    def unary(self) -> Formula:
        if self.peek().kind == "NOT":
            self.advance()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        token = self.peek()
        if token.kind == "IDENT":
            self.advance()
            return Var(token.text)
        if token.kind == "TOP":
            self.advance()
            return Top()
        if token.kind == "BOT":
            self.advance()
            return Bot()
        if token.kind in ("JOP", "IOP"):
            self.advance()
            index = self.graded_index()
            self.expect("LPAREN", "'(' after graded operator index")
            child = self.cond()
            self.expect("RPAREN", "')'")
            return (J if token.kind == "JOP" else I)(index, child)
        if token.kind == "LPAREN":
            open_paren = self.advance()
            child = self.cond()
            closer = self.peek()
            if closer.kind != "RPAREN":
                if closer.kind == "EOF":
                    raise ParseError("unbalanced parentheses", open_paren.span)
                raise ParseError(f"unexpected token {closer.text!r}", closer.span)
            self.advance()
            return child
        raise ParseError(f"unexpected token {token.text!r}", token.span)

    def graded_index(self) -> Fraction:
        self.expect("LBRACE", "'{'")
        num_token = self.expect("NUMBER", "index numerator")
        numerator = int(num_token.text)
        denominator = 1
        last = num_token
        if self.peek().kind == "SLASH":
            self.advance()
            den_token = self.expect("NUMBER", "index denominator")
            denominator = int(den_token.text)
            last = den_token
        self.expect("RBRACE", "'}'")
        span = SourceSpan(num_token.span.start, last.span.end)
        if denominator == 0:
            raise ParseError("malformed index: zero denominator", span)
        index = Fraction(numerator, denominator)
        if index > 1:
            raise ParseError(f"malformed index: {index} exceeds 1", span)
        return index


def reference_parse(text: str) -> Formula:
    """Parse a single formula; raises ParseError with a source span."""
    return _Parser(text).formula()


_PREC: dict[type, int] = {
    Cond: 1,
    Iff: 2,
    Imp: 3,
    Or: 4,
    And: 5,
    OPlus: 6,
    OTimes: 7,
    OMinus: 8,
}

_OP_TEXT: dict[type, str] = {
    Cond: "=>",
    Iff: "<->",
    Imp: "->",
    Or: "|",
    And: "&",
    OPlus: "(+)",
    OTimes: "(*)",
    OMinus: "(-)",
}

_NOT_PREC = 9


def _render(phi: Formula, min_prec: int) -> str:
    if isinstance(phi, Var):
        return phi.name
    if isinstance(phi, Top):
        return "T"
    if isinstance(phi, Bot):
        return "F"
    if isinstance(phi, Not):
        body = "~" + _render(phi.child, _NOT_PREC)
        return f"({body})" if _NOT_PREC < min_prec else body
    if isinstance(phi, J):
        return f"J{{{phi.index}}}({_render(phi.child, 0)})"
    if isinstance(phi, I):
        return f"I{{{phi.index}}}({_render(phi.child, 0)})"
    prec = _PREC[type(phi)]
    if isinstance(phi, (Cond, Iff)):
        left_min, right_min = prec + 1, prec + 1
    elif isinstance(phi, Imp):
        left_min, right_min = prec + 1, prec
    else:
        left_min, right_min = prec, prec + 1
    text = (
        f"{_render(phi.left, left_min)} "  # type: ignore[attr-defined]
        f"{_OP_TEXT[type(phi)]} "
        f"{_render(phi.right, right_min)}"  # type: ignore[attr-defined]
    )
    return f"({text})" if prec < min_prec else text


def reference_print(phi: Formula) -> str:
    """Render with minimal parentheses."""
    return _render(phi, 0)


def reference_filtrate(
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
                f"missing a direct subformula of {phi!r}"
            )
    ordered = list(member_at.values())

    ev = Evaluator(model)
    columns = [ev.numerators(phi) for phi in ordered]
    class_of: dict[tuple[int, ...], str] = {}
    members: dict[str, list[str]] = {}
    class_ids: list[str] = []
    class_map: dict[str, str] = {}
    for i, w in enumerate(model.worlds):
        sig = tuple(column[i] for column in columns)
        cid = class_of.get(sig)
        if cid is None:
            cid = f"c{i}"
            class_of[sig] = cid
            class_ids.append(cid)
            members[cid] = []
        members[cid].append(w)
        class_map[w] = cid
    reps = {cid: members[cid][0] for cid in class_ids}

    names = sorted({phi.name for phi in ordered if isinstance(phi, Var)} - {RESERVED_VAR})
    valuation = {
        v: {cid: ev.value(reps[cid], Var(v)) for cid in class_ids} for v in names
    }

    index = model.world_index()
    relations: dict[Proposition, Matrix] = {}
    handled: set[Proposition] = set()
    antecedents = [phi.left for phi in ordered if isinstance(phi, Cond)]
    for alpha in antecedents:
        prop = ev.proposition(alpha)
        if prop in handled:
            continue
        handled.add(prop)
        matrix = model.relations.get(prop)
        if matrix is None:
            continue  # default policy covers it in the quotient too
        values = ev.numerators(alpha)
        quotient_prop = proposition_from(
            [values[index[reps[cid]]] for cid in class_ids], class_ids, model.m
        )
        relations[quotient_prop] = tuple(
            tuple(
                max(matrix[index[x]][index[y]] for x in members[xc] for y in members[yc])
                for yc in class_ids
            )
            for xc in class_ids
        )

    quotient = KripkeModel(
        m=model.m,
        worlds=tuple(class_ids),
        vars=tuple(names),
        valuation=valuation,
        relations=relations,
        default_policy=model.default_policy,
    )
    return quotient, class_map


def reference_check_preservation(
    model: KripkeModel,
    quotient: KripkeModel,
    class_map: Mapping[str, str],
    sigma: Sequence[Formula],
) -> list[Discrepancy]:
    """Every sigma formula must take the same value at a world and its class."""
    ev_model = Evaluator(model)
    ev_quotient = Evaluator(quotient)
    out: list[Discrepancy] = []
    for phi in sigma:
        for w in model.worlds:
            original = ev_model.value(w, phi)
            mapped = ev_quotient.value(class_map[w], phi)
            if original.numerator != mapped.numerator:
                out.append(Discrepancy(phi, w, original, mapped))
    return out


def reference_random_model(
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
    rng = random.Random(seed)
    worlds = tuple(f"w{i}" for i in range(n_worlds))
    names = tuple(var_names)
    valuation = {
        v: {w: TruthValue(rng.randrange(m), m) for w in worlds} for v in names
    }

    def matrix() -> Matrix:
        return tuple(
            tuple(TruthValue(rng.randrange(m), m) for _ in worlds) for _ in worlds
        )

    relations: dict[Proposition, Matrix] = {}
    for v in names:
        values = [valuation[v][w].numerator for w in worlds]
        relations[proposition_from(values, worlds, m)] = matrix()
    for _ in range(n_extra_relations):
        prop = proposition_from([rng.randrange(m) for _ in worlds], worlds, m)
        relations[prop] = matrix()
    return KripkeModel(
        m=m,
        worlds=worlds,
        vars=names,
        valuation=valuation,
        relations=relations,
        default_policy=TruthValue.bottom(m),
    )


def reference_check_fid(model: KripkeModel) -> list[FidViolation]:
    """Violations of the identity frame condition, relations ordered by
    their cells' world indexes (an unknown world after every known one),
    then source and target in world order; a world in two cells counts
    in the first."""
    index = model.world_index()
    unknown = len(index)
    violations: list[FidViolation] = []
    for prop, matrix in sorted(
        model.relations.items(),
        key=lambda kv: tuple(
            tuple(index.get(w, unknown) for w in cell) for cell in kv[0].cells
        ),
    ):
        cell_of: dict[str, int] = {}
        for j, cell in enumerate(prop.cells, start=1):
            for w in cell:
                cell_of.setdefault(w, j)
        for xi, x in enumerate(model.worlds):
            for yi, y in enumerate(model.worlds):
                degree = matrix[xi][yi]
                if degree.numerator == 0:
                    continue
                j = cell_of.get(y)
                if j is None or j < degree.numerator + 1:
                    violations.append(FidViolation(prop, x, y, degree, j))
    return violations


def _bad_document(message: str) -> ModelFormatError:
    return ModelFormatError(f"bad model document: {message}")


def entrywise_model_from_json(data: object) -> KripkeModel:
    """model_from_json as it was before values were shared: every entry
    is checked, and built as its own TruthValue, one at a time."""
    if not isinstance(data, dict):
        raise _bad_document("top level must be an object")
    try:
        m = data["m"]
        worlds = data["worlds"]
        vars_ = data["vars"]
        valuation = data["valuation"]
        relations = data["relations"]
    except KeyError as missing:
        raise _bad_document(f"missing key {missing.args[0]!r}") from None
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise _bad_document("'m' must be an integer >= 2")
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise _bad_document("'worlds' must be a list of strings")
    if not isinstance(vars_, list) or not all(isinstance(v, str) for v in vars_):
        raise _bad_document("'vars' must be a list of strings")
    if not isinstance(valuation, dict):
        raise _bad_document("'valuation' must be an object")
    if not isinstance(relations, list):
        raise _bad_document("'relations' must be a list")

    def to_tv(raw: object, where: str) -> TruthValue:
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise _bad_document(f"{where}: numerator must be an integer")
        try:
            return TruthValue(raw, m)
        except ValueError as exc:
            raise _bad_document(f"{where}: {exc}") from None

    val: dict[str, dict[str, TruthValue]] = {}
    for v, per_world in valuation.items():
        if not isinstance(per_world, dict):
            raise _bad_document(f"valuation of {v!r} must be an object")
        val[v] = {
            w: to_tv(raw, f"valuation of {v!r} at {w!r}")
            for w, raw in per_world.items()
        }

    rels: dict[Proposition, Matrix] = {}
    for k, entry in enumerate(relations):
        if not isinstance(entry, dict) or "prop" not in entry or "matrix" not in entry:
            raise _bad_document(f"relation {k} must have 'prop' and 'matrix'")
        cells_raw = entry["prop"]
        if not isinstance(cells_raw, list) or not all(
            isinstance(cell, list) and all(isinstance(w, str) for w in cell)
            for cell in cells_raw
        ):
            raise _bad_document(f"relation {k}: 'prop' must be a list of world lists")
        prop = Proposition(tuple(tuple(cell) for cell in cells_raw))
        matrix_raw = entry["matrix"]
        if not isinstance(matrix_raw, dict):
            raise _bad_document(f"relation {k}: 'matrix' must be an object")
        rows = []
        for x in worlds:
            row_raw = matrix_raw.get(x)
            if not isinstance(row_raw, dict):
                raise _bad_document(f"relation {k}: matrix row for {x!r} missing")
            row = []
            for y in worlds:
                if y not in row_raw:
                    raise _bad_document(
                        f"relation {k}: matrix entry {x!r} -> {y!r} missing"
                    )
                row.append(to_tv(row_raw[y], f"relation {k} entry {x!r} -> {y!r}"))
            rows.append(tuple(row))
        rels[prop] = tuple(rows)

    policy_raw = data.get("default_relation", "error")
    if policy_raw == "error":
        policy = None
    else:
        policy = to_tv(policy_raw, "default_relation")

    return KripkeModel(
        m=m,
        worlds=tuple(worlds),
        vars=tuple(vars_),
        valuation=val,
        relations=rels,
        default_policy=policy,
    )


def reference_model_from_json(data: object) -> KripkeModel:
    """model_from_json as it was before rows were read in one pass: every
    entry goes through to_tv on its own, looked up in the shared values."""
    if not isinstance(data, dict):
        raise _bad_document("top level must be an object")
    try:
        m = data["m"]
        worlds = data["worlds"]
        vars_ = data["vars"]
        valuation = data["valuation"]
        relations = data["relations"]
    except KeyError as missing:
        raise _bad_document(f"missing key {missing.args[0]!r}") from None
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise _bad_document("'m' must be an integer >= 2")
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise _bad_document("'worlds' must be a list of strings")
    if not isinstance(vars_, list) or not all(isinstance(v, str) for v in vars_):
        raise _bad_document("'vars' must be a list of strings")
    if not isinstance(valuation, dict):
        raise _bad_document("'valuation' must be an object")
    if not isinstance(relations, list):
        raise _bad_document("'relations' must be a list")

    value = _SharedValues(m)

    def to_tv(raw: object, where: str, *args: object) -> TruthValue:
        """The shared value of raw; where, formatted with args, names the
        entry in an error and is built only then."""
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise _bad_document(f"{where.format(*args)}: numerator must be an integer")
        try:
            return value[raw]
        except ValueError as exc:
            raise _bad_document(f"{where.format(*args)}: {exc}") from None

    val: dict[str, dict[str, TruthValue]] = {}
    for v, per_world in valuation.items():
        if not isinstance(per_world, dict):
            raise _bad_document(f"valuation of {v!r} must be an object")
        val[v] = {
            w: to_tv(raw, "valuation of {!r} at {!r}", v, w)
            for w, raw in per_world.items()
        }

    rels: dict[Proposition, Matrix] = {}
    for k, entry in enumerate(relations):
        if not isinstance(entry, dict) or "prop" not in entry or "matrix" not in entry:
            raise _bad_document(f"relation {k} must have 'prop' and 'matrix'")
        cells_raw = entry["prop"]
        if not isinstance(cells_raw, list) or not all(
            isinstance(cell, list) and all(isinstance(w, str) for w in cell)
            for cell in cells_raw
        ):
            raise _bad_document(f"relation {k}: 'prop' must be a list of world lists")
        prop = Proposition(tuple(tuple(cell) for cell in cells_raw))
        matrix_raw = entry["matrix"]
        if not isinstance(matrix_raw, dict):
            raise _bad_document(f"relation {k}: 'matrix' must be an object")
        rows = []
        for x in worlds:
            row_raw = matrix_raw.get(x)
            if not isinstance(row_raw, dict):
                raise _bad_document(f"relation {k}: matrix row for {x!r} missing")
            row = []
            for y in worlds:
                if y not in row_raw:
                    raise _bad_document(
                        f"relation {k}: matrix entry {x!r} -> {y!r} missing"
                    )
                row.append(to_tv(row_raw[y], "relation {} entry {!r} -> {!r}", k, x, y))
            rows.append(tuple(row))
        rels[prop] = tuple(rows)

    policy_raw = data.get("default_relation", "error")
    if policy_raw == "error":
        policy = None
    else:
        policy = to_tv(policy_raw, "default_relation")

    return KripkeModel(
        m=m,
        worlds=tuple(worlds),
        vars=tuple(vars_),
        valuation=val,
        relations=rels,
        default_policy=policy,
    )
