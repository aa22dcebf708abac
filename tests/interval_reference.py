"""Interval operations the library does not run, written from their
definitions, for the tests that hold its integer lines to an interval
reference."""

import math
from fractions import Fraction

from practica.numerics import Interval


def ends(operand: Interval | Fraction | int) -> tuple[Fraction, Fraction]:
    if isinstance(operand, Interval):
        return operand.lo, operand.hi
    return Fraction(operand), Fraction(operand)


def quotient(x: Interval | Fraction | int, y: Interval | Fraction | int) -> Interval:
    """x / y by Moore's rule: the min and max of the four endpoint
    quotients, a scalar operand taken as a point; a divisor that holds 0
    is refused."""
    (a, b), (c, d) = ends(x), ends(y)
    if c <= 0 <= d:
        raise ZeroDivisionError(f"interval division by [{c}, {d}] which contains zero")
    quotients = (a / c, a / d, b / c, b / d)
    return Interval(min(quotients), max(quotients))


def round_outward(iv: Interval, digits: int) -> Interval:
    """The narrowest interval on the 10**-digits grid that holds ``iv``:
    its lower end floored and its upper end ceiled."""
    scale = 10 ** digits
    return Interval(Fraction(math.floor(iv.lo * scale), scale), Fraction(math.ceil(iv.hi * scale), scale))


def encloses(outer: Interval, inner: Interval) -> bool:
    """Whether ``inner`` lies inside ``outer``."""
    return outer.lo <= inner.lo and inner.hi <= outer.hi
