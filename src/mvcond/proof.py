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


def _off_chain(values: Sequence[Fraction], m: int) -> str | None:
    for value in values:
        try:
            index_numerator(value, m)
        except UnrepresentableIndexError:
            return f"threshold {value} is not on the {m}-element chain"
    return None


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
        if dependent is None:
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
        if not rule_eq(line.formula, expected):
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
        schema = _AXIOMS.get(rule.name)
        if schema is None:
            return err(f"unknown axiom {rule.name!r}")
        if not _instantiates(schema, line.formula, {}):
            return err(
                f"{print_formula(line.formula)} does not instantiate {rule.name}"
            )
        return None

    if isinstance(rule, MP):
        minor = derivation.lines[rule.i - 1].formula
        major = derivation.lines[rule.j - 1].formula
        expected = Imp(minor, line.formula)
        if not rule_eq(major, expected):
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
        bound = {"a": cited.left, "b": cited.right}
        if not _instantiates(_CONGRUENCES[name], line.formula, bound):
            return err(
                f"{print_formula(line.formula)} does not follow from "
                f"{print_formula(cited)} by {name}"
            )
        return None

    if isinstance(rule, (Ra, RaGen)):
        if isinstance(rule, Ra):
            parts, target, indices = rule.gammas, rule.gamma, [rule.a]
            if len(parts) != m:
                return err(f"needs exactly {m} indexed formulas, got {len(parts)}")
        else:
            parts, target, indices = rule.chis, rule.chi, [rule.a, *rule.a_list]
            if len(rule.a_list) != len(parts):
                return err(f"{len(rule.a_list)} thresholds for {len(parts)} formulas")
        if len(rule.premise_lines) != m:
            return err(
                f"needs exactly {m} premise lines, got {len(rule.premise_lines)}"
            )
        problem = _off_chain(indices, m)
        if problem:
            return err(problem)
        chain = [Fraction(m - 1 - t, m - 1) for t in range(m)]  # descending
        thresholds = chain if isinstance(rule, Ra) else rule.a_list
        for cited, b in zip(rule.premise_lines, chain):
            formula = derivation.lines[cited - 1].formula
            expected = _graded(rule.a, thresholds, parts, target, b)
            if not rule_eq(formula, expected):
                return err(
                    f"premise for b={b} (line {cited}) is "
                    f"{print_formula(formula)}, expected {print_formula(expected)}"
                )
        expected = _graded(rule.a, thresholds, parts, target, phi=rule.phi)
        if not rule_eq(line.formula, expected):
            return err(
                f"conclusion is {print_formula(line.formula)}, "
                f"expected {print_formula(expected)}"
            )
        return None

    return err(f"unknown rule {rule!r}")


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
