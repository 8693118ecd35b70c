"""Possible-worlds models over the m-valued chain and their evaluator.

A proposition is the m-tuple of world sets a formula induces: cell i
holds the worlds where the formula has value i/(m-1). Accessibility
relations are keyed by proposition, not by formula, so two formulas with
the same denotation share a relation by construction. The conditional
phi => psi evaluates at x to the meet over all worlds y of
R(x,y) -> value(psi, y), where R is the relation keyed by phi's
proposition; a missing relation either raises (default policy "error")
or falls back to a constant from the chain.

The evaluator compiles a formula once into a syntax.NodeTable and runs
that post-order program at every world at once: a node's value is a tuple
of integer numerators, one per world. A conditional costs O(worlds^2)
integer steps; each distinct antecedent's relation is looked up once, by
the proposition its values form, and kept as integer rows. A query about
a formula object compiled before walks nothing: its slot comes from the
table's id map. TruthValue appears only at the API boundary;
countermodel_search runs on the same program, and the truth tables on
their own over packed integers (search._packed). A model built here,
whether loaded by model_from_json or made from numerators by model_of,
and the answers of one Evaluator, each share one TruthValue per
numerator used, built on first use rather than for the whole chain.

Model documents move a row at a time. model_from_json reads each matrix
row, and each variable's valuation, in one pass when every entry is a
plain int on the chain, and goes entry by entry only to name the first
bad one. save_model writes the text of json.dump(doc, indent=2) with the
C encoder called once per innermost container (a matrix row, a
valuation, a cell), not with json's pure-Python indent encoder.

Models are treated as immutable once built; mutating one invalidates
any Evaluator already holding it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, sub
from typing import Callable, Iterable, Mapping, Sequence

from .parser import name_problem
from .syntax import (
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
    Var,
    index_numerator,
)
from .truthvalues import TruthValue

__all__ = [
    "Proposition",
    "KripkeModel",
    "Matrix",
    "ModelError",
    "UndeclaredVariableError",
    "MissingRelationError",
    "UnknownWorldError",
    "ModelFormatError",
    "FidViolation",
    "Evaluator",
    "eval_formula",
    "proposition_of",
    "valid_in_model",
    "entails_in_model",
    "check_fid",
    "validate_model",
    "model_to_json",
    "model_from_json",
    "load_model",
    "save_model",
]


class ModelError(ValueError):
    """Base class for evaluation-time model errors."""


class UndeclaredVariableError(ModelError):
    pass


class MissingRelationError(ModelError):
    pass


class UnknownWorldError(ModelError):
    pass


class ModelFormatError(ValueError):
    """A model document is structurally malformed or fails validation."""


@dataclass(frozen=True)
class Proposition:
    """m cells of world ids; cell i holds the worlds with value i/(m-1).

    Cells keep ids in the owning model's world order, so structurally
    equal propositions denote the same partition.
    """

    cells: tuple[tuple[str, ...], ...]

    @property
    def scale(self) -> int:
        return len(self.cells)


Matrix = tuple[tuple[TruthValue, ...], ...]


@dataclass
class KripkeModel:
    """A finite model: worlds, an exact valuation, and keyed relations.

    default_policy None means a lookup of an unkeyed proposition raises
    MissingRelationError; a TruthValue means every absent relation is
    that constant.
    """

    m: int
    worlds: tuple[str, ...]
    vars: tuple[str, ...]
    valuation: dict[str, dict[str, TruthValue]]
    relations: dict[Proposition, Matrix]
    default_policy: TruthValue | None = None

    def world_index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.worlds)}


@dataclass(frozen=True, slots=True)
class FidViolation:
    """A relation entry exceeding what the target world's cell permits."""

    prop: Proposition
    source: str
    target: str
    degree: TruthValue
    target_cell: int | None  # 1-based cell of target, None if in no cell


# check_fid fills a record through these slot setters, in field order: the
# frozen __init__ would make one object.__setattr__ call per field.
_FID_SETTERS = tuple(
    FidViolation.__dict__[f.name].__set__ for f in fields(FidViolation)
)


Values = tuple[int, ...]  # one numerator per world, in model order


def operations(
    m: int, n: int, relation: Callable[[Values], object], default: int | None
) -> dict:
    """Per node type, the function from children's values to the node's
    (unary ones ignore the second argument; J and I map to factories
    taking the index numerator), and the values of Top, Bot and the
    reserved variable. relation(values) is the integer matrix stored for
    the antecedent with those values, or None; then every entry is
    default, and a default of None raises MissingRelationError."""
    top = m - 1

    def cond(a: Values, b: Values) -> Values:
        rows = relation(a)
        if rows is None:
            if default is None:
                raise MissingRelationError(
                    "no relation stored for antecedent proposition and "
                    "default policy is 'error'"
                )
            return (top + min(0, min(b) - default),) * n
        # min over y of min(top, top - R[x][y] + b[y])
        return tuple([top + min(0, min(map(sub, b, row))) for row in rows])

    return {
        Not: lambda a, _: tuple([top - x for x in a]),
        Imp: lambda a, b: tuple([top if x <= y else top - x + y for x, y in zip(a, b)]),
        And: lambda a, b: tuple(map(min, a, b)),
        Or: lambda a, b: tuple(map(max, a, b)),
        OPlus: lambda a, b: tuple([min(top, x + y) for x, y in zip(a, b)]),
        OTimes: lambda a, b: tuple([max(0, x + y - top) for x, y in zip(a, b)]),
        OMinus: lambda a, b: tuple([max(0, x - y) for x, y in zip(a, b)]),
        Iff: lambda a, b: tuple([top - abs(x - y) for x, y in zip(a, b)]),
        Cond: cond,
        J: lambda k: lambda a, _: tuple([top if x == k else 0 for x in a]),
        I: lambda k: lambda a, _: tuple([top if x >= k else 0 for x in a]),
        Top: (top,) * n,
        Bot: (0,) * n,
        Var: (0,) * n,  # the reserved variable; others come from a valuation
    }


def instruction(node: Formula, ops: dict, m: int) -> Callable:
    """The function computing an inner node from its children's values."""
    op = ops[type(node)]
    return op(index_numerator(node.index, m)) if isinstance(node, (J, I)) else op


def proposition_from(values: Values, worlds: tuple[str, ...], m: int) -> Proposition:
    cells: list = [()] * m  # a cell no world lies in stays the one empty tuple
    for v in set(values):
        cells[v] = []
    for w, v in zip(worlds, values):
        cells[v].append(w)
    return Proposition(tuple(map(tuple, cells)))


class _SharedValues(dict):
    """Numerator -> TruthValue on the m-element chain, built on first use
    and then shared: every entry of one model equal to k is one object,
    and only the numerators a model uses are built, however large m is."""

    def __init__(self, m: int):
        super().__init__()
        self.m = m

    def __missing__(self, numerator: int) -> TruthValue:
        value = self[numerator] = TruthValue(numerator, self.m)
        return value


def model_of(
    m: int,
    worlds: tuple[str, ...],
    names: Sequence[str],
    columns: Iterable[Sequence[int]],
    relations: Mapping[Values, Sequence[Sequence[int]]],
    default: int | None,
) -> KripkeModel:
    """The model with these numerators: one column per name in world order
    (a repeated name keeps its last column), integer rows keyed by their
    antecedent's values, and the default numerator, None for "error".
    Entries share one TruthValue per numerator; TruthValue is immutable."""
    value = _SharedValues(m)
    valuation = {
        v: {w: value[e] for w, e in zip(worlds, column)}
        for v, column in zip(names, columns)
    }
    keyed = {
        proposition_from(key, worlds, m): tuple(tuple([value[e] for e in row]) for row in rows)
        for key, rows in relations.items()
    }
    policy = None if default is None else value[default]
    return KripkeModel(m, worlds, tuple(names), valuation, keyed, policy)


class Evaluator:
    """Evaluates formulas in one model at every world at once.

    Each subformula is compiled and evaluated once, its numerators kept by
    node identity: a later query about a formula object compiled before
    is a lookup in the node table's id map, with no walk, and every
    TruthValue handed out is the one this Evaluator shares per numerator.
    Nothing outlives the Evaluator; build a fresh one after any change to
    the model. A variable without a value at some world raises
    UndeclaredVariableError whichever world is asked about.
    """

    def __init__(self, model: KripkeModel):
        self.model = model
        self._index = model.world_index()
        policy = model.default_policy
        default = None if policy is None else policy.numerator
        self._ops = operations(model.m, len(model.worlds), self.relation, default)
        self._relations: dict[Values, tuple[Values, ...] | None] = {}
        self._shared = _SharedValues(model.m)
        self._reset()

    def _reset(self) -> None:
        self._table = NodeTable()
        self._held = self._table._slots  # id -> (node, slot), for every node compiled
        self._values: list[Values] = []

    def relation(self, key: Values) -> tuple[Values, ...] | None:
        """The integer rows of the relation stored for the antecedent with
        these values, or None when none is stored; looked up once per key."""
        if key not in self._relations:
            model = self.model
            matrix = model.relations.get(proposition_from(key, model.worlds, model.m))
            self._relations[key] = None if matrix is None else tuple(
                tuple([e.numerator for e in row]) for row in matrix
            )
        return self._relations[key]

    def _variable(self, name: str) -> Values:
        per_world = self.model.valuation.get(name) or {}
        missing = [w for w in self.model.worlds if w not in per_world]
        if missing:
            raise UndeclaredVariableError(
                f"variable {name!r} has no value at world {missing[0]!r}"
            )
        return tuple([per_world[w].numerator for w in self.model.worlds])

    def numerators(self, phi: Formula) -> Values:
        """phi's value numerator at every world, in model order."""
        held = self._held.get(id(phi))
        if held is not None:  # compiled before: its stored values
            return self._values[held[1]]
        table, values = self._table, self._values
        try:
            slot = table.add(phi)
            for node, kids in zip(table.nodes[len(values):], table.kids[len(values):]):
                if kids:
                    fn = instruction(node, self._ops, self.model.m)
                    values.append(fn(values[kids[0]], values[kids[-1]]))
                elif isinstance(node, Var) and node.name != RESERVED_VAR:
                    values.append(self._variable(node.name))
                else:
                    values.append(self._ops[type(node)])
        except BaseException:  # an interrupt too: every node held must have values
            self._reset()  # drop the nodes compiled but not evaluated
            raise
        return values[slot]

    def value(self, world: str, phi: Formula) -> TruthValue:
        xi = self._index.get(world)
        if xi is None:
            raise UnknownWorldError(f"unknown world {world!r}")
        return self._shared[self.numerators(phi)[xi]]

    def proposition(self, phi: Formula) -> Proposition:
        return proposition_from(self.numerators(phi), self.model.worlds, self.model.m)

    def failing_world(self, phi: Formula) -> tuple[str, TruthValue] | None:
        """First world (in model order) where phi is not designated."""
        return self.entailment_witness((), phi)

    def entailment_witness(
        self, sigma: Iterable[Formula], phi: Formula
    ) -> tuple[str, TruthValue] | None:
        """First world where every member of sigma is designated but phi is not."""
        top = self.model.m - 1
        alive = range(len(self.model.worlds))
        for psi in sigma:
            if not alive:
                return None  # phi and the rest of sigma need not be evaluated
            values = self.numerators(psi)
            alive = [x for x in alive if values[x] == top]
        if alive:
            values = self.numerators(phi)
            for x in alive:
                if values[x] != top:
                    return self.model.worlds[x], self._shared[values[x]]
        return None


def eval_formula(model: KripkeModel, world: str, phi: Formula) -> TruthValue:
    return Evaluator(model).value(world, phi)


def proposition_of(model: KripkeModel, phi: Formula) -> Proposition:
    return Evaluator(model).proposition(phi)


def valid_in_model(model: KripkeModel, phi: Formula) -> bool:
    return Evaluator(model).failing_world(phi) is None


def entails_in_model(
    model: KripkeModel, sigma: Iterable[Formula], phi: Formula
) -> bool:
    return Evaluator(model).entailment_witness(sigma, phi) is None


def _prop_sort_key(prop: Proposition, index: Mapping[str, int]):
    """Orders propositions as their cells compared one by one, each as its
    worlds' indexes. An empty cell sorts before any other, so only the
    non-empty ones enter the key, as (minus position, indexes); the cell
    count breaks what ties remain. Empty cells cost a truth test each."""
    unknown = len(index)
    return (
        tuple(
            (-c, tuple([index.get(w, unknown) for w in cell]))
            for c, cell in enumerate(prop.cells)
            if cell
        ),
        len(prop.cells),
    )


def _sorted_relations(model: KripkeModel) -> list[tuple[Proposition, Matrix]]:
    if len(model.relations) < 2:  # nothing to order, so no key to build
        return list(model.relations.items())
    index = model.world_index()
    return sorted(model.relations.items(), key=lambda kv: _prop_sort_key(kv[0], index))


def check_fid(model: KripkeModel) -> list[FidViolation]:
    """Violations of the identity frame condition, in canonical order.

    A relation entry of degree (i-1)/(m-1) from x to y demands that y
    lie in cell j of the keying proposition for some j >= i; degree-0
    entries demand nothing. A world listed in two cells counts in the
    first. Each relation row is tested in one pass against the least
    violating numerator of every target: j for a world in cell j, 1 for
    a world in no cell. Entries past the n-th of a row, and rows past
    the n-th, are ignored; a shorter matrix raises IndexError.
    """
    worlds = model.worlds
    n = len(worlds)
    violations: list[FidViolation] = []
    append = violations.append
    new = object.__new__
    set_prop, set_source, set_target, set_degree, set_cell = _FID_SETTERS
    for prop, matrix in _sorted_relations(model):
        cell_of: dict[str, int] = {}
        for j, cell in enumerate(prop.cells, start=1):
            for w in cell:
                cell_of.setdefault(w, j)
        cells = [cell_of.get(y) for y in worlds]
        floor = [1 if j is None else j for j in cells]
        for x, row in zip(worlds, matrix):
            for y, degree, j, low in zip(worlds, row, cells, floor):
                if degree.numerator >= low:
                    v = new(FidViolation)
                    set_prop(v, prop)
                    set_source(v, x)
                    set_target(v, y)
                    set_degree(v, degree)
                    set_cell(v, j)
                    append(v)
            if len(row) < n:
                raise IndexError(
                    f"matrix row of world {x!r} has {len(row)} entries, expected {n}"
                )
        if len(matrix) < n:
            raise IndexError(f"matrix has {len(matrix)} rows, expected {n}")
    return violations


def validate_model(model: KripkeModel) -> list[str]:
    """Structural diagnostics; an empty list means the model is well formed."""
    out: list[str] = []
    if model.m < 2:
        out.append(f"m must be at least 2, got {model.m}")
        return out
    if not model.worlds:
        out.append("model has no worlds")
    if len(set(model.worlds)) != len(model.worlds):
        out.append("duplicate world ids")
    if len(set(model.vars)) != len(model.vars):
        out.append("duplicate variable names")
    world_set = set(model.worlds)
    for v in model.vars:
        problem = name_problem(v)
        if problem:  # no formula could ask about v by its name
            out.append(problem)
        per_world = model.valuation.get(v)
        if per_world is None:
            out.append(f"variable {v!r} missing from valuation")
            continue
        for w in model.worlds:
            tv = per_world.get(w)
            if tv is None:
                out.append(f"variable {v!r} has no value at world {w!r}")
            elif tv.scale != model.m:
                out.append(
                    f"variable {v!r} at world {w!r} has scale "
                    f"{tv.scale}, expected {model.m}"
                )
        extra = set(per_world) - world_set
        for w in sorted(extra):
            out.append(f"variable {v!r} valued at unknown world {w!r}")
    for v in sorted(set(model.valuation) - set(model.vars)):
        out.append(f"valuation mentions undeclared variable {v!r}")
    n = len(model.worlds)
    for k, (prop, matrix) in enumerate(_sorted_relations(model)):
        label = f"relation {k}"
        if len(prop.cells) != model.m:
            out.append(
                f"{label}: proposition has {len(prop.cells)} cells, expected {model.m}"
            )
            continue
        seen: set[str] = set()
        for cell in prop.cells:
            for w in cell:
                if w not in world_set:
                    out.append(f"{label}: proposition mentions unknown world {w!r}")
                elif w in seen:
                    out.append(f"{label}: world {w!r} appears in two cells")
                seen.add(w)
        for w in model.worlds:
            if w not in seen:
                out.append(f"{label}: proposition cells do not cover world {w!r}")
        if len(matrix) != n or any(len(row) != n for row in matrix):
            out.append(f"{label}: matrix is not {n}x{n}")
            continue
        for row in matrix:
            for entry in row:
                if entry.scale != model.m:
                    out.append(
                        f"{label}: matrix entry has scale {entry.scale}, "
                        f"expected {model.m}"
                    )
                    break
    if model.default_policy is not None and model.default_policy.scale != model.m:
        out.append(
            f"default policy has scale {model.default_policy.scale}, "
            f"expected {model.m}"
        )
    return out


def model_to_json(model: KripkeModel) -> dict:
    """Deterministic document: relations sorted by proposition, worlds in order."""
    return _document(model, lambda prop: [list(cell) for cell in prop.cells])


def _document(model: KripkeModel, cells_of: Callable[[Proposition], object]) -> dict:
    """model_to_json's document, each relation's "prop" as cells_of(prop)."""
    relations = []
    for prop, matrix in _sorted_relations(model):
        relations.append(
            {
                "prop": cells_of(prop),
                "matrix": {
                    x: {y: e.numerator for y, e in zip(model.worlds, row)}
                    for x, row in zip(model.worlds, matrix)
                },
            }
        )
    policy = (
        "error" if model.default_policy is None else model.default_policy.numerator
    )
    return {
        "m": model.m,
        "worlds": list(model.worlds),
        "vars": list(model.vars),
        "valuation": {
            v: {w: model.valuation[v][w].numerator for w in model.worlds}
            for v in model.vars
        },
        "relations": relations,
        "default_relation": policy,
    }


def _format_error(message: str) -> ModelFormatError:
    return ModelFormatError(f"bad model document: {message}")


def _on_chain(value: _SharedValues, raw: Mapping, keys: Iterable) -> tuple | None:
    """raw's values at keys, shared, in one pass when each is there and a
    plain int on the chain; else None, to go entry by entry."""
    try:
        entries = list(map(raw.__getitem__, keys))
        if set(map(type, entries)) <= {int}:
            return tuple(map(value.__getitem__, entries))
    except (KeyError, ValueError):
        pass
    return None


def model_from_json(data: object) -> KripkeModel:
    """Build a model from a document; unknown top-level keys are ignored.

    Raises ModelFormatError for structural problems. Partition and
    totality checks live in validate_model, not here.
    """
    if not isinstance(data, dict):
        raise _format_error("top level must be an object")
    try:
        m = data["m"]
        worlds = data["worlds"]
        vars_ = data["vars"]
        valuation = data["valuation"]
        relations = data["relations"]
    except KeyError as missing:
        raise _format_error(f"missing key {missing.args[0]!r}") from None
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise _format_error("'m' must be an integer >= 2")
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise _format_error("'worlds' must be a list of strings")
    if not isinstance(vars_, list) or not all(isinstance(v, str) for v in vars_):
        raise _format_error("'vars' must be a list of strings")
    if not isinstance(valuation, dict):
        raise _format_error("'valuation' must be an object")
    if not isinstance(relations, list):
        raise _format_error("'relations' must be a list")

    value = _SharedValues(m)

    def to_tv(raw: object, where: str) -> TruthValue:
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise _format_error(f"{where}: numerator must be an integer")
        try:
            return value[raw]
        except ValueError as exc:
            raise _format_error(f"{where}: {exc}") from None

    val: dict[str, dict[str, TruthValue]] = {}
    for v, per_world in valuation.items():
        if not isinstance(per_world, dict):
            raise _format_error(f"valuation of {v!r} must be an object")
        shared = _on_chain(value, per_world, per_world)
        val[v] = dict(zip(per_world, shared)) if shared is not None else {
            w: to_tv(raw, f"valuation of {v!r} at {w!r}")
            for w, raw in per_world.items()
        }

    rels: dict[Proposition, Matrix] = {}
    for k, entry in enumerate(relations):
        if not isinstance(entry, dict) or "prop" not in entry or "matrix" not in entry:
            raise _format_error(f"relation {k} must have 'prop' and 'matrix'")
        cells_raw = entry["prop"]
        if not isinstance(cells_raw, list) or not all(
            isinstance(cell, list) and all(isinstance(w, str) for w in cell)
            for cell in cells_raw
        ):
            raise _format_error(f"relation {k}: 'prop' must be a list of world lists")
        prop = Proposition(tuple(tuple(cell) for cell in cells_raw))
        matrix_raw = entry["matrix"]
        if not isinstance(matrix_raw, dict):
            raise _format_error(f"relation {k}: 'matrix' must be an object")
        rows = []
        for x in worlds:
            row_raw = matrix_raw.get(x)
            if not isinstance(row_raw, dict):
                raise _format_error(f"relation {k}: matrix row for {x!r} missing")
            row = _on_chain(value, row_raw, worlds)
            if row is None:  # entry by entry, so the first bad entry names the error
                row = []
                for y in worlds:
                    if y not in row_raw:
                        raise _format_error(
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


def load_model(path: str) -> KripkeModel:
    """Read, build, and validate; raises ModelFormatError on any defect."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"bad model document: {exc}") from None
    model = model_from_json(data)
    problems = validate_model(model)
    if problems:
        raise ModelFormatError("; ".join(problems))
    return model


_CONTAINERS = (dict, list, tuple)
_SCALARS = {str, int, float, bool, type(None)}


@lru_cache(maxsize=None)
def _encoder(depth: int) -> Callable[[object], str]:
    """The C encoder, its items separated by a new line indented to depth."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": ")).encode


def _key(key: object) -> str:
    """An object's key as json writes it, and the colon after it."""
    if isinstance(key, str):
        return encode_basestring_ascii(key) + ": "
    return _encoder(0)({key: 0})[1:-2]  # an int, float, bool or None key


def _write_indented(doc: object, write: Callable[[str], object]) -> None:
    """Writes the text of json.dumps(doc, indent=2), in chunks. A scalar,
    or a container holding no non-empty container, is one call of the C
    encoder, whose item separator carries the indent (an encoded string
    holds no raw newline), with the brackets' lines spliced in; an empty
    container is its constant text. Other containers are walked item by
    item, on an explicit stack."""
    out: list[str] = []
    # per open container: its items, itself, what precedes its next item, its closing text
    frames = [[iter((("", doc),)), None, "", ""]]
    while frames:
        frame = frames[-1]
        pad = "\n" + "  " * (len(frames) - 1)  # starts a line at the items' depth
        comma = "," + pad
        for key, obj in frame[0]:
            out.append(frame[2] + key)
            frame[2] = comma
            if len(out) > 64:  # a few rows at a time: no copy of the whole text is held
                write("".join(out))
                out.clear()
            if not isinstance(obj, _CONTAINERS):
                out.append(_encoder(0)(obj))
                continue
            kids = obj.values() if isinstance(obj, dict) else obj
            brackets = "[]" if kids is obj else "{}"
            if not obj:
                out.append(brackets)
            elif set(map(type, kids)) <= _SCALARS or not any(
                isinstance(kid, _CONTAINERS) and kid for kid in kids
            ):
                text = _encoder(len(frames))(obj)
                out.append(text[0] + pad + "  " + text[1:-1] + pad + text[-1])
            elif any(obj is outer[1] for outer in frames):
                raise ValueError("Circular reference detected")
            else:
                out.append(brackets[0])
                keys = repeat("") if kids is obj else map(_key, obj)
                frames.append([zip(keys, kids), obj, pad + "  ", pad + brackets[1]])
                break
        else:
            out.append(frames.pop()[3])
    write("".join(out))


def save_model(model: KripkeModel, path: str, extra: dict | None = None) -> None:
    """Write the model document, with optional extra top-level keys, as
    json.dump(doc, handle, indent=2) and a newline would."""
    doc = _document(model, attrgetter("cells"))  # tuples write as arrays: no list per cell
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as handle:
        _write_indented(doc, handle.write)
        handle.write("\n")
