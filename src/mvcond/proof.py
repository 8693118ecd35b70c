"""Hilbert-style derivation checking for the conditional calculus.

A derivation is a numbered list of lines, each carrying a formula and a
justification: a premise reference, a chain tautology (decided by truth
table with conditionals abstracted), an axiom schema, or a rule
application citing earlier lines. The congruence rules RCEA/RCEC and
the graded rules Ra/RaGen are, by default, restricted to lines that do
not depend on premises, since they preserve theoremhood rather than
consequence; pass rules_on_premises=True to lift the restriction.

Formulas are compared, the goal check included, modulo the spelling of
T and F: both trees are walked in lockstep, and where their node types
differ T and F read as p -> p and ~(p -> p) over the reserved variable;
nothing else is normalized. The axioms and RCEA/RCEC are schema texts
matched by first-order matching: a schema variable is a metavariable, a
repeated one must bind equal formulas, and any other node must be
matched by a node of its type. No check recurses on formula structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .parser import ParseError, parse, print_formula
from .search import falsifying_assignment
from .syntax import (
    Bot,
    Cond,
    Formula,
    I,
    Iff,
    Imp,
    Top,
    Var,
    UnrepresentableIndexError,
    _equal,
    children,
    imp_chain,
    index_numerator,
    normalize,
)

__all__ = [
    "Premise",
    "LTaut",
    "Ax",
    "MP",
    "RCEA",
    "RCEC",
    "Ra",
    "RaGen",
    "Line",
    "Derivation",
    "LineError",
    "Verdict",
    "DerivationFormatError",
    "rule_eq",
    "match_axiom",
    "check_line",
    "check_derivation",
    "derivation_from_json",
    "load_derivation",
]


class DerivationFormatError(ValueError):
    """A derivation document is structurally malformed."""


@dataclass(frozen=True)
class Premise:
    index: int  # 1-based into the premise list


@dataclass(frozen=True)
class LTaut:
    pass


@dataclass(frozen=True)
class Ax:
    name: str  # A1, A2, A3, or LID


@dataclass(frozen=True)
class MP:
    i: int  # line holding phi
    j: int  # line holding phi -> psi


@dataclass(frozen=True)
class RCEA:
    i: int  # line holding an equivalence between antecedents


@dataclass(frozen=True)
class RCEC:
    i: int  # line holding an equivalence between consequents


@dataclass(frozen=True)
class Ra:
    """Graded rule at threshold a: exactly m premise lines, one per
    chain value b in descending order."""

    a: Fraction
    phi: Formula
    gammas: tuple[Formula, ...]
    gamma: Formula
    premise_lines: tuple[int, ...]


@dataclass(frozen=True)
class RaGen:
    """Generalized graded rule: thresholds a_list over formulas chis,
    still one premise line per chain value b in descending order."""

    a: Fraction
    a_list: tuple[Fraction, ...]
    phi: Formula
    chis: tuple[Formula, ...]
    chi: Formula
    premise_lines: tuple[int, ...]


# not typing.Union, whose cache would keep the package alive across re-imports
Justification = Premise | LTaut | Ax | MP | RCEA | RCEC | Ra | RaGen


@dataclass(frozen=True)
class Line:
    formula: Formula
    rule: Justification


@dataclass(frozen=True)
class Derivation:
    m: int
    premises: tuple[Formula, ...]
    lines: tuple[Line, ...]


@dataclass(frozen=True)
class LineError:
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line} ({self.rule}): {self.message}"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    line: int | None = None
    message: str | None = None


_SPELLED = {kind: normalize(kind(), 2) for kind in (Top, Bot)}  # T and F as normalize spells them


def rule_eq(x: Formula, y: Formula) -> bool:
    """Structural equality modulo the spelling of T and F, read as _t -> _t and
    ~(_t -> _t) where node types differ, on the walk that == runs."""
    return _equal(x, y, _SPELLED)


# The schemas: a Var is a metavariable, any other node must be matched by
# a node of its type, so A3 wants the constant T itself. (No schema has a
# J or I, whose index _instantiates would not compare.)
_AXIOMS = {
    "A1": parse("(a => (b & c)) -> ((a => b) & (a => c))"),
    "A2": parse("((a => b) & (a => c)) -> (a => (b & c))"),
    "A3": parse("a => T"),
    "LID": parse("a => a"),
}
# a and b are bound beforehand to the sides of the cited equivalence
_CONGRUENCES = {
    "RCEA": parse("(a => c) <-> (b => c)"),
    "RCEC": parse("(c => a) <-> (c => b)"),
}


def _instantiates(schema: Formula, phi: Formula, bound: dict[str, Formula]) -> bool:
    """Whether phi is schema with a formula put for each metavariable.

    bound maps the metavariables bound so far to their formulas and gains
    the rest; a metavariable met again must bind a formula rule_eq to the
    first. Only the schema is walked, with an explicit stack.
    """
    stack = [(schema, phi)]
    while stack:
        pattern, node = stack.pop()
        if isinstance(pattern, Var):
            if pattern.name not in bound:
                bound[pattern.name] = node
            elif not rule_eq(bound[pattern.name], node):
                return False
        elif type(pattern) is not type(node):
            return False
        else:
            stack.extend(zip(children(pattern), children(node)))
    return True


def match_axiom(phi: Formula, allow_lid: bool = False) -> str | None:
    """Name of the first axiom schema phi instantiates, if any."""
    for name, schema in _AXIOMS.items():
        if (allow_lid or name != "LID") and _instantiates(schema, phi, {}):
            return name
    return None


def _graded(
    a: Fraction,
    thresholds: Sequence[Fraction],
    parts: Sequence[Formula],
    target: Formula,
    b: Fraction = Fraction(1),
    phi: Formula | None = None,
) -> Formula:
    """I{a (.) b}(phi => target) under the antecedents I{t (.) b}(phi => part),
    one per threshold and part, the last outermost; without phi, the parts
    and target themselves. On the chain, x (.) b is max(0, x + b - 1)."""

    def test(x: Fraction, psi: Formula) -> Formula:
        return I(max(Fraction(0), x + b - 1), psi if phi is None else Cond(phi, psi))

    return imp_chain([test(t, part) for t, part in zip(thresholds, parts)], test(a, target))


def _check_premise(derivation: Derivation, formula: Formula, rule: Premise) -> str | None:
    if not 1 <= rule.index <= len(derivation.premises):
        return f"no premise {rule.index}"
    expected = derivation.premises[rule.index - 1]
    if not rule_eq(formula, expected):
        return f"expected {print_formula(expected)}, found {print_formula(formula)}"
    return None


def _check_ltaut(derivation: Derivation, formula: Formula, rule: LTaut) -> str | None:
    try:
        witness = falsifying_assignment(formula, derivation.m, abstract=True)
    except UnrepresentableIndexError as exc:
        return str(exc)
    if witness is None:
        return None
    shown = ", ".join(f"{v}={witness[v].text()}" for v in sorted(witness))
    return f"not a chain tautology; falsified by {shown}"


def _check_ax(derivation: Derivation, formula: Formula, rule: Ax) -> str | None:
    schema = _AXIOMS.get(rule.name)
    if schema is None:
        return f"unknown axiom {rule.name!r}"
    if not _instantiates(schema, formula, {}):
        return f"{print_formula(formula)} does not instantiate {rule.name}"
    return None


def _check_mp(derivation: Derivation, formula: Formula, rule: MP) -> str | None:
    major = derivation.lines[rule.j - 1].formula
    expected = Imp(derivation.lines[rule.i - 1].formula, formula)
    if not rule_eq(major, expected):
        return f"line {rule.j} is {print_formula(major)}, expected {print_formula(expected)}"
    return None


def _check_congruence(derivation: Derivation, formula: Formula, rule: RCEA | RCEC) -> str | None:
    cited = derivation.lines[rule.i - 1].formula
    if not isinstance(cited, Iff):
        return f"line {rule.i} is {print_formula(cited)}, expected an equivalence"
    if not (
        isinstance(formula, Iff)
        and isinstance(formula.left, Cond)
        and isinstance(formula.right, Cond)
    ):
        return f"{print_formula(formula)} is not an equivalence of conditionals"
    name = type(rule).__name__
    if not _instantiates(_CONGRUENCES[name], formula, {"a": cited.left, "b": cited.right}):
        return f"{print_formula(formula)} does not follow from {print_formula(cited)} by {name}"
    return None


def _check_ra(derivation: Derivation, formula: Formula, rule: Ra) -> str | None:
    m = derivation.m
    if len(rule.gammas) != m:
        return f"needs exactly {m} indexed formulas, got {len(rule.gammas)}"
    return _check_graded(derivation, formula, rule, rule.gammas, rule.gamma, None)


def _check_ragen(derivation: Derivation, formula: Formula, rule: RaGen) -> str | None:
    if len(rule.a_list) != len(rule.chis):
        return f"{len(rule.a_list)} thresholds for {len(rule.chis)} formulas"
    return _check_graded(derivation, formula, rule, rule.chis, rule.chi, rule.a_list)


def _check_graded(
    derivation: Derivation,
    formula: Formula,
    rule: Ra | RaGen,
    parts: Sequence[Formula],
    target: Formula,
    a_list: Sequence[Fraction] | None,
) -> str | None:
    """The steps Ra and RaGen share; RaGen's thresholds are a_list, Ra's
    (a_list None) the chain values."""
    m = derivation.m
    if len(rule.premise_lines) != m:
        return f"needs exactly {m} premise lines, got {len(rule.premise_lines)}"
    for value in (rule.a, *(a_list or ())):
        try:
            index_numerator(value, m)
        except UnrepresentableIndexError:
            return f"threshold {value} is not on the {m}-element chain"
    chain = [Fraction(m - 1 - t, m - 1) for t in range(m)]  # descending
    thresholds = chain if a_list is None else a_list
    for cited, b in zip(rule.premise_lines, chain):
        premise = derivation.lines[cited - 1].formula
        expected = _graded(rule.a, thresholds, parts, target, b)
        if not rule_eq(premise, expected):
            return (
                f"premise for b={b} (line {cited}) is "
                f"{print_formula(premise)}, expected {print_formula(expected)}"
            )
    expected = _graded(rule.a, thresholds, parts, target, phi=rule.phi)
    if not rule_eq(formula, expected):
        return f"conclusion is {print_formula(formula)}, expected {print_formula(expected)}"
    return None


# justification type: (the lines it cites, whether those lines must not
# depend on premises unless rules_on_premises, and its check, which gives
# the line's error message or None). Types are looked up exactly.
_RULES = {
    Premise: (lambda rule: (), False, _check_premise),
    LTaut: (lambda rule: (), False, _check_ltaut),
    Ax: (lambda rule: (), False, _check_ax),
    MP: (lambda rule: (rule.i, rule.j), False, _check_mp),
    RCEA: (lambda rule: (rule.i,), True, _check_congruence),
    RCEC: (lambda rule: (rule.i,), True, _check_congruence),
    Ra: (lambda rule: rule.premise_lines, True, _check_ra),
    RaGen: (lambda rule: rule.premise_lines, True, _check_ragen),
}


def _premise_dependence(derivation: Derivation) -> list[bool]:
    """dependent[k] is True when line k+1 transitively cites a premise.

    Citations out of range, and lines of an unknown rule, count as
    independent here; check_line rejects them before dependence matters.
    """
    dependent: list[bool] = []
    for k, line in enumerate(derivation.lines):
        entry = _RULES.get(type(line.rule))
        cited = entry[0](line.rule) if entry else ()
        dependent.append(
            type(line.rule) is Premise
            or any(1 <= c <= k and dependent[c - 1] for c in cited)
        )
    return dependent


def check_line(
    derivation: Derivation, index: int, rules_on_premises: bool = False
) -> LineError | None:
    """Check the 1-based line index; None means the line is in order."""
    return _check_line(derivation, index, rules_on_premises, None)


def _check_line(
    derivation: Derivation,
    index: int,
    rules_on_premises: bool,
    dependent: list[bool] | None,
) -> LineError | None:
    """check_line, given _premise_dependence(derivation) or None to
    compute it when the line needs it."""
    if not 1 <= index <= len(derivation.lines):
        raise IndexError(f"no line {index}")
    line = derivation.lines[index - 1]
    rule = line.rule
    entry = _RULES.get(type(rule))
    if entry is None:
        return LineError(index, "unknown", f"unknown rule {rule!r}")
    cites, restricted, check = entry
    name = rule.name if type(rule) is Ax else type(rule).__name__
    cited = cites(rule)
    for c in cited:
        if not 1 <= c < index:
            return LineError(index, name, f"cites line {c}, which does not precede line {index}")
    if restricted and not rules_on_premises:
        if dependent is None:
            dependent = _premise_dependence(derivation)
        for c in cited:
            if dependent[c - 1]:
                return LineError(
                    index,
                    name,
                    f"applies only to premise-independent lines, but line {c} "
                    "depends on a premise",
                )
    message = check(derivation, line.formula, rule)
    return None if message is None else LineError(index, name, message)


def check_derivation(
    derivation: Derivation, goal: Formula, rules_on_premises: bool = False
) -> Verdict:
    """Accept when every line checks and the last line equals the goal
    modulo the spelling of T and F."""
    if not derivation.lines:
        return Verdict(False, None, "derivation has no lines")
    dependent = _premise_dependence(derivation)
    for index in range(1, len(derivation.lines) + 1):
        problem = _check_line(derivation, index, rules_on_premises, dependent)
        if problem is not None:
            return Verdict(False, problem.line, str(problem))
    last = derivation.lines[-1].formula
    if not rule_eq(last, goal):
        return Verdict(
            False,
            len(derivation.lines),
            f"final line is {print_formula(last)}, which is not the goal "
            f"{print_formula(goal)}",
        )
    return Verdict(True)


def _parse_formula(text: object, where: str) -> Formula:
    if not isinstance(text, str):
        raise DerivationFormatError(f"{where}: formula must be a string")
    try:
        return parse(text)
    except ParseError as exc:
        raise DerivationFormatError(f"{where}: {exc}") from None


def _parse_fraction(raw: object, where: str) -> Fraction:
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise DerivationFormatError(f"{where}: threshold must be a string or int")
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise DerivationFormatError(f"{where}: {exc}") from None


def _parse_int_list(raw: object, where: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in raw
    ):
        raise DerivationFormatError(f"{where}: expected a list of integers")
    return tuple(raw)


# rule name: (justification, its arguments in order); the first four rules'
# arguments are integers, the graded rules' are lists of formulas, a_list
# of thresholds
_INT_RULES = {
    "Premise": (Premise, ("index",)),
    "MP": (MP, ("i", "j")),
    "RCEA": (RCEA, ("i",)),
    "RCEC": (RCEC, ("i",)),
}
_LIST_RULES = {"Ra": (Ra, ("gammas",)), "RaGen": (RaGen, ("chis", "a_list"))}


def _justification_from_json(
    rule_name: object, args: dict, where: str
) -> Justification:
    name = rule_name if isinstance(rule_name, str) else None  # a list or dict keys no table

    def needs(what: str, keys: Sequence[str]) -> DerivationFormatError:
        quoted = " and ".join(f"'{key}'" for key in keys)
        return DerivationFormatError(f"{where}: {name} needs {what} {quoted}")

    if name == "LTaut":
        return LTaut()
    if name in _AXIOMS:
        return Ax(name)
    if name in _INT_RULES:
        kind, keys = _INT_RULES[name]
        values = [args.get(key) for key in keys]
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in values):
            raise needs("integer", keys)
        return kind(*values)
    if name in _LIST_RULES:
        kind, keys = _LIST_RULES[name]
        lists = {key: args.get(key) for key in keys}
        if not all(isinstance(x, list) for x in lists.values()):
            raise needs("a list" if len(keys) == 1 else "lists", keys)
        parts, part = keys[0], keys[0][:-1]  # gammas of gamma, chis of chi
        fields = {"a": _parse_fraction(args.get("a"), where)}
        if "a_list" in lists:
            fields["a_list"] = tuple(
                _parse_fraction(x, f"{where} a_list {k+1}")
                for k, x in enumerate(lists["a_list"])
            )
        fields["phi"] = _parse_formula(args.get("phi"), where)
        fields[parts] = tuple(
            _parse_formula(x, f"{where} {part} {k+1}")
            for k, x in enumerate(lists[parts])
        )
        fields[part] = _parse_formula(args.get(part), where)
        fields["premise_lines"] = _parse_int_list(args.get("premise_lines"), where)
        return kind(**fields)
    raise DerivationFormatError(f"{where}: unknown rule {rule_name!r}")


def derivation_from_json(data: object) -> Derivation:
    if not isinstance(data, dict):
        raise DerivationFormatError("top level must be an object")
    m = data.get("m")
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise DerivationFormatError("'m' must be an integer >= 2")
    premises_raw = data.get("premises", [])
    if not isinstance(premises_raw, list):
        raise DerivationFormatError("'premises' must be a list")
    premises = tuple(
        _parse_formula(p, f"premise {k+1}") for k, p in enumerate(premises_raw)
    )
    lines_raw = data.get("lines")
    if not isinstance(lines_raw, list):
        raise DerivationFormatError("'lines' must be a list")
    lines = []
    for k, entry in enumerate(lines_raw):
        where = f"line {k+1}"
        if not isinstance(entry, dict):
            raise DerivationFormatError(f"{where}: must be an object")
        formula = _parse_formula(entry.get("formula"), where)
        args = entry.get("args", {})
        if not isinstance(args, dict):
            raise DerivationFormatError(f"{where}: 'args' must be an object")
        rule = _justification_from_json(entry.get("rule"), args, where)
        lines.append(Line(formula, rule))
    return Derivation(m=m, premises=premises, lines=tuple(lines))


def load_derivation(path: str) -> Derivation:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DerivationFormatError(f"bad derivation document: {exc}") from None
    return derivation_from_json(data)
