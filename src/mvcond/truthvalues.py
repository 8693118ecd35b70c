"""Exact arithmetic on the m-element truth-value chain {0, 1/(m-1), ..., 1}.

Values are stored as integer numerators over a fixed scale m, never as
floats, so every comparison and every operation below is exact. The chain
ordered by <= with the operations here forms an MV-algebra; the algebra
laws are exercised by the test suite rather than restated as assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

__all__ = [
    "TruthValue",
    "ScaleMismatchError",
    "chain",
    "tv_neg",
    "tv_imp",
    "tv_meet",
    "tv_join",
    "tv_oplus",
    "tv_odot",
    "tv_ominus",
]


class ScaleMismatchError(ValueError):
    """Two values from chains of different length were combined."""


@total_ordering
@dataclass(frozen=True)
class TruthValue:
    """The value numerator/(scale-1) on the scale-element chain.

    Binary operations demand equal scales instead of rescaling; silent
    coercion between chains would corrupt operator indices downstream.
    """

    numerator: int
    scale: int

    def __post_init__(self) -> None:
        if not isinstance(self.numerator, int) or not isinstance(self.scale, int):
            raise TypeError("numerator and scale must be int")
        if self.scale < 2:
            raise ValueError(f"scale must be at least 2, got {self.scale}")
        if not 0 <= self.numerator <= self.scale - 1:
            raise ValueError(
                f"numerator {self.numerator} not in [0, {self.scale - 1}]"
            )

    @classmethod
    def bottom(cls, scale: int) -> "TruthValue":
        return cls(0, scale)

    @classmethod
    def top(cls, scale: int) -> "TruthValue":
        return cls(scale - 1, scale)

    @classmethod
    def from_fraction(cls, value: Fraction | int, scale: int) -> "TruthValue":
        """Exact conversion; rejects values not on the chain."""
        as_num = Fraction(value) * (scale - 1)
        if as_num.denominator != 1:
            raise ValueError(
                f"{value} is not representable on the {scale}-element chain"
            )
        return cls(int(as_num), scale)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.scale - 1)

    @property
    def is_designated(self) -> bool:
        return self.numerator == self.scale - 1

    def text(self, reduced: bool = False) -> str:
        """Render as "k/(m-1)"; reduced form cancels the gcd ("2/4" -> "1/2")."""
        if reduced:
            return str(Fraction(self.numerator, self.scale - 1))
        return f"{self.numerator}/{self.scale - 1}"

    def _cmp_key(self, other: "TruthValue") -> tuple[int, int]:
        if not isinstance(other, TruthValue):
            raise TypeError(f"cannot compare TruthValue with {type(other).__name__}")
        if self.scale != other.scale:
            raise ScaleMismatchError(
                f"scales differ: {self.scale} vs {other.scale}"
            )
        return self.numerator, other.numerator

    def __lt__(self, other: "TruthValue") -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __str__(self) -> str:
        return self.text()


def chain(scale: int) -> tuple[TruthValue, ...]:
    """All values of the scale-element chain in ascending order."""
    return tuple(TruthValue(i, scale) for i in range(scale))


def _same_scale(a: TruthValue, b: TruthValue) -> int:
    if a.scale != b.scale:
        raise ScaleMismatchError(f"scales differ: {a.scale} vs {b.scale}")
    return a.scale


def tv_neg(a: TruthValue) -> TruthValue:
    return TruthValue(a.scale - 1 - a.numerator, a.scale)


def tv_imp(a: TruthValue, b: TruthValue) -> TruthValue:
    m = _same_scale(a, b)
    return TruthValue(min(m - 1, m - 1 - a.numerator + b.numerator), m)


def tv_meet(a: TruthValue, b: TruthValue) -> TruthValue:
    m = _same_scale(a, b)
    return TruthValue(min(a.numerator, b.numerator), m)


def tv_join(a: TruthValue, b: TruthValue) -> TruthValue:
    m = _same_scale(a, b)
    return TruthValue(max(a.numerator, b.numerator), m)


def tv_oplus(a: TruthValue, b: TruthValue) -> TruthValue:
    m = _same_scale(a, b)
    return TruthValue(min(m - 1, a.numerator + b.numerator), m)


def tv_odot(a: TruthValue, b: TruthValue) -> TruthValue:
    m = _same_scale(a, b)
    return TruthValue(max(0, a.numerator + b.numerator - (m - 1)), m)


def tv_ominus(a: TruthValue, b: TruthValue) -> TruthValue:
    m = _same_scale(a, b)
    return TruthValue(max(0, a.numerator - b.numerator), m)
