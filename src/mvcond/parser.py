"""Concrete syntax for formulas: parsing and printing.

Binary operators from loosest to tightest: =>, <->, ->, |, &, (+), (*),
(-). Implication is right-associative; => and <-> are non-associative
and must be parenthesized when chained; the rest associate left. Unary ~
binds tighter still, and the graded operators J{a}(phi) / I{a}(phi) are
atoms. print_formula emits the minimal parenthesization that reparses to
an equal tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .syntax import (
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

__all__ = ["SourceSpan", "ParseError", "parse", "print_formula"]


@dataclass(frozen=True)
class SourceSpan:
    """Byte offsets [start, end) into the input string."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.end:
            raise ValueError(f"bad span {self.start}..{self.end}")


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} at {span.start}..{span.end}")
        self.message = message
        self.span = span


# Binary connectives, loosest first: (text, precedence, associativity).
_PREC: dict[type, tuple[str, int, str]] = {
    Cond: ("=>", 1, "none"),
    Iff: ("<->", 2, "none"),
    Imp: ("->", 3, "right"),
    Or: ("|", 4, "left"),
    And: ("&", 5, "left"),
    OPlus: ("(+)", 6, "left"),
    OTimes: ("(*)", 7, "left"),
    OMinus: ("(-)", 8, "left"),
}
_NOT_PREC = 9
_INFIX = {text: (prec, assoc, node_type) for node_type, (text, prec, assoc) in _PREC.items()}
# the printer's view: spaced text, precedence, and the least precedence
# each operand may have unparenthesized
_OUTFIX = {
    node_type: (f" {text} ", prec, prec + (assoc != "left"), prec + (assoc != "right"))
    for node_type, (text, prec, assoc) in _PREC.items()
}
_ATOMS = {"T": Top, "F": Bot}
_CONSTANTS = {Top: "T", Bot: "F"}

# One token per match, after any whitespace: an identifier, a number, a
# symbol (longest first, so "(+)" wins over "("), or any other character,
# which is an error. T, F, J and I are one-letter keywords.
_TOKEN = re.compile(
    r"\s*(?:([a-z][a-zA-Z0-9_]*)|([0-9]+)|(\(\+\)|\(\*\)|\(-\)|<->|->|=>|[~|&(){}/TFJI])|(\S))"
)
_KINDS = (None, "IDENT", "NUMBER")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, start) per token, then ("EOF", "", len(text)); a
    symbol's kind is its text."""
    tokens = []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        token = match.group(group)
        if group == 4:
            start = match.start(group)
            raise ParseError(f"unexpected character {token!r}", SourceSpan(start, start + 1))
        tokens.append((_KINDS[group] if group < 3 else token, token, match.start(group)))
    tokens.append(("EOF", "", len(text)))
    return tokens


def _error(message: str, token: tuple[str, str, int]) -> ParseError:
    _, text, start = token
    return ParseError(message, SourceSpan(start, start + len(text)))


def _expect(tokens: list, i: int, kind: str, what: str) -> int:
    if tokens[i][0] != kind:
        raise _error(f"expected {what}", tokens[i])
    return i + 1


def _graded_index(tokens: list, i: int) -> tuple[Fraction, int]:
    """The index written as {n} or {n/d} at tokens[i:], and the position after it."""
    i = _expect(tokens, i, "{", "'{'")
    numerator = last = tokens[i]
    i = _expect(tokens, i, "NUMBER", "index numerator")
    denominator = 1
    if tokens[i][0] == "/":
        last = tokens[i + 1]
        i = _expect(tokens, i + 1, "NUMBER", "index denominator")
        denominator = int(last[1])
    i = _expect(tokens, i, "}", "'}'")
    span = SourceSpan(numerator[2], last[2] + len(last[1]))
    if denominator == 0:
        raise ParseError("malformed index: zero denominator", span)
    index = Fraction(int(numerator[1]), denominator)
    if index > 1:
        raise ParseError(f"malformed index: {index} exceeds 1", span)
    return index, i


def parse(text: str) -> Formula:
    """Parse a single formula; raises ParseError with a source span.

    An operator-precedence loop over _PREC with explicit stacks, so any
    depth works. pending holds, innermost last, each operator not yet
    applied as (precedence, associativity, node type) and each open
    group as (0, "(", its token) or (0, "J" or "I", the index).
    """
    tokens = _tokenize(text)
    operands: list[Formula] = []
    pending: list[tuple] = []
    i = 0
    while True:
        kind, token, _ = tokens[i]
        while kind in ("~", "(", "J", "I"):  # prefixes of the next operand
            if kind == "~":
                pending.append((_NOT_PREC, None, Not))
                i += 1
            elif kind == "(":
                pending.append((0, kind, tokens[i]))
                i += 1
            else:
                index, i = _graded_index(tokens, i + 1)
                i = _expect(tokens, i, "(", "'(' after graded operator index")
                pending.append((0, kind, index))
            kind, token, _ = tokens[i]
        if kind == "IDENT":
            operands.append(Var(token))
        elif kind in _ATOMS:
            operands.append(_ATOMS[kind]())
        else:
            raise _error(f"unexpected token {token!r}", tokens[i])
        i += 1
        while True:  # infix operators and closing parentheses
            kind, token, _ = tokens[i]
            prec, assoc, node_type = _INFIX.get(kind, (0, None, None))
            while pending and (
                pending[-1][0] > prec or (pending[-1][0] == prec and assoc == "left")
            ):
                node_type_done = pending.pop()[2]
                if node_type_done is Not:
                    operands[-1] = Not(operands[-1])
                else:
                    right = operands.pop()
                    operands[-1] = node_type_done(operands[-1], right)
            if node_type is not None:
                if pending and pending[-1][0] == prec and assoc == "none":
                    raise _error(f"{token!r} is non-associative; add parentheses", tokens[i])
                pending.append((prec, assoc, node_type))
                i += 1
                break
            if not pending:
                if kind == "EOF":
                    return operands[0]
                raise _error(f"unexpected token {token!r}", tokens[i])
            _, opener, payload = pending.pop()  # the innermost open group
            if opener == "(":
                if kind == "EOF":
                    raise _error("unbalanced parentheses", payload)
                if kind != ")":
                    raise _error(f"unexpected token {token!r}", tokens[i])
            else:
                if kind != ")":
                    raise _error("expected ')'", tokens[i])
                operands[-1] = (J if opener == "J" else I)(payload, operands[-1])
            i += 1


def print_formula(phi: Formula) -> str:
    """Render with minimal parentheses; parse(print_formula(phi)) == phi.

    Pieces are emitted from an explicit stack, so any depth works; an
    item on it is a piece of text or a (node, least precedence that may
    stand there unparenthesized) pair still to render.
    """
    out: list[str] = []
    stack: list = [(phi, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, least = item
        kind = type(node)
        if kind is Var:
            out.append(node.name)
        elif kind in _OUTFIX:
            text, prec, left, right = _OUTFIX[kind]
            if prec < least:
                stack += (")", (node.right, right), text, (node.left, left), "(")
            else:
                stack += ((node.right, right), text, (node.left, left))
        elif kind is Not:  # no operand position binds tighter than ~
            stack += ((node.child, _NOT_PREC), "~")
        elif kind in _CONSTANTS:
            out.append(_CONSTANTS[kind])
        else:
            stack += (")", (node.child, 0), f"{kind.__name__}{{{node.index}}}(")
    return "".join(out)
