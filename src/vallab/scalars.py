"""Exact scalar helpers.

All numeric quantities in this package are :class:`fractions.Fraction`
(or plain ``int``); nothing is ever converted to float.  ``INFINITY`` is
the first-class value of an infinite jumping number and prints as the
literal string ``infinity``.
"""

from fractions import Fraction
import math

Rat = Fraction


class InfinityType:
    """Positive infinity as a comparable, printable singleton."""

    __slots__ = ()

    def __repr__(self):
        return "infinity"

    def __str__(self):
        return "infinity"

    def __eq__(self, other):
        return isinstance(other, InfinityType)

    def __hash__(self):
        return hash("vallab-infinity")

    def __gt__(self, other):
        return not isinstance(other, InfinityType)

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, InfinityType)


INFINITY = InfinityType()


def is_finite(x):
    return not isinstance(x, InfinityType)


def as_rat(x) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def ceil_rat(x) -> int:
    return math.ceil(as_rat(x))


def floor_rat(x) -> int:
    return math.floor(as_rat(x))


def format_rat(x) -> str:
    """Serialize exactly: 'p/q', bare 'p' for integers, or 'infinity'."""
    if isinstance(x, InfinityType):
        return "infinity"
    x = as_rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
