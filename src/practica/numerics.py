"""Exact arithmetic kernel: rationals, directed-rounding square roots,
rational intervals, and big-integer nth roots.

Every quantity in this package is either an exact `Fraction` or an
`Interval` with exact rational endpoints that is guaranteed to contain
the true (possibly irrational) value.  Nothing here ever touches a
float: square roots are bounded by integer square roots of scaled
numerators/denominators, with the numerator root rounded down and the
denominator root rounded up for the lower endpoint (and the opposite
for the upper endpoint), so the enclosure is bit-exact on every
platform.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Precision:
    """A decimal-digit budget for directed-rounding operations.

    ``decimal_digits`` is the number of guaranteed decimal digits: an
    operation taking a Precision returns an interval whose width is at
    most ``10**-decimal_digits`` times ``max(1, magnitude)``.
    """

    decimal_digits: int

    def __post_init__(self) -> None:
        if not isinstance(self.decimal_digits, int) or self.decimal_digits < 1:
            raise ValueError("decimal_digits must be a positive integer")


#: Comfortably beyond a 20-decimal enclosure of pi with guard digits to spare.
DEFAULT_PRECISION = Precision(30)


class PrecisionError(ArithmeticError):
    """A requested output width is unattainable at the working precision."""


def _check_int(value: object, what: str) -> None:
    """Reject anything but a true int (bools too), naming the argument."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer")


def _to_rational(value: Fraction | int) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def pow10(exponent: int) -> Fraction:
    """Exact power of ten, usable for negative exponents."""
    if exponent >= 0:
        return Fraction(10 ** exponent)
    return Fraction(1, 10 ** (-exponent))


def floor_to_grid(x: Fraction, digits: int) -> Fraction:
    """Largest multiple of 10**-digits that is <= x."""
    scale = 10 ** digits
    return Fraction(math.floor(x * scale), scale)


def ceil_to_grid(x: Fraction, digits: int) -> Fraction:
    """Smallest multiple of 10**-digits that is >= x."""
    scale = 10 ** digits
    return Fraction(math.ceil(x * scale), scale)


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] with exact rational endpoints.

    Arithmetic is outward-directed: the exact +, -, *, / on Fractions
    introduces no rounding at all, so the result of combining intervals
    always contains every value obtainable by combining members of the
    operands.  Width growth along long derivations is controlled by
    explicitly compressing endpoints to a decimal grid with
    ``round_outward`` (which can only enlarge the enclosure, never
    shrink it).
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo = _to_rational(self.lo)
        hi = _to_rational(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")

    # -- constructors ------------------------------------------------

    @classmethod
    def point(cls, value: Fraction | int) -> "Interval":
        v = _to_rational(value)
        return cls(v, v)

    # -- inspection --------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value: Fraction | int) -> bool:
        v = _to_rational(value)
        return self.lo <= v <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

    # -- arithmetic --------------------------------------------------

    @staticmethod
    def _coerce(other: "Interval | Fraction | int") -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval.point(other)

    def __add__(self, other: "Interval | Fraction | int") -> "Interval":
        o = self._coerce(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval | Fraction | int") -> "Interval":
        o = self._coerce(other)
        return Interval(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other: "Interval | Fraction | int") -> "Interval":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: "Interval | Fraction | int") -> "Interval":
        o = self._coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval | Fraction | int") -> "Interval":
        o = self._coerce(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError(f"interval division by {o} which contains zero")
        quotients = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(min(quotients), max(quotients))

    def __rtruediv__(self, other: "Interval | Fraction | int") -> "Interval":
        return self._coerce(other).__truediv__(self)

    def square(self) -> "Interval":
        """Tight image of x**2 over the interval (tighter than self*self
        when the interval straddles zero)."""
        a, b = self.lo * self.lo, self.hi * self.hi
        if self.lo <= 0 <= self.hi:
            return Interval(_ZERO, max(a, b))
        return Interval(min(a, b), max(a, b))

    def magnitude(self) -> "Interval":
        """Tight image of |x| over the interval."""
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return Interval(-self.hi, -self.lo)
        return Interval(_ZERO, max(-self.lo, self.hi))

    def round_outward(self, digits: int) -> "Interval":
        """Push endpoints outward onto the 10**-digits grid.

        This bounds the size of endpoint denominators along a long
        chain of operations at the cost of at most 2*10**-digits of
        extra width.
        """
        return Interval(floor_to_grid(self.lo, digits), ceil_to_grid(self.hi, digits))


def _isqrt_ceil(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def rat_sqrt_bounds(x: Fraction | int, p: Precision = DEFAULT_PRECISION) -> Interval:
    """Directed-rounding enclosure of sqrt(x) for a nonnegative rational.

    Returns [lo, hi] with lo**2 <= x <= hi**2 and
    hi - lo <= 10**-p.decimal_digits * max(1, hi).  Perfect squares of
    rationals come back as degenerate (zero-width) intervals.
    """
    x = _to_rational(x)
    if x < 0:
        raise ValueError(f"square root of negative value {x}")
    if x == 0:
        return Interval(_ZERO, _ZERO)
    scale = 10 ** (p.decimal_digits + 2)
    num = x.numerator * scale * scale
    den = x.denominator * scale * scale
    lo = Fraction(math.isqrt(num), _isqrt_ceil(den))
    hi = Fraction(_isqrt_ceil(num), math.isqrt(den))
    return Interval(lo, hi)


def interval_sqrt(iv: Interval, p: Precision = DEFAULT_PRECISION) -> Interval:
    """Enclosure of sqrt over a nonnegative interval."""
    if iv.lo < 0:
        raise ValueError(f"square root of interval {iv} with negative values")
    return Interval(rat_sqrt_bounds(iv.lo, p).lo, rat_sqrt_bounds(iv.hi, p).hi)


def int_nth_root_floor(N: int, n: int) -> int:
    """Exact floor of the nth root of a nonnegative integer.

    Returns r with r**n <= N < (r+1)**n, computed by integer Newton
    iteration from an overestimate, then clamped exactly.
    """
    _check_int(N, "radicand")
    _check_int(n, "root degree")
    if n < 2:
        raise ValueError(f"root degree must be at least 2, got {n}")
    if N < 0:
        raise ValueError(f"radicand must be nonnegative, got {N}")
    if N in (0, 1):
        return N
    if n == 2:
        return math.isqrt(N)
    if n >= N.bit_length():
        # 2**n > N >= 2, so the root is exactly 1.
        return 1
    x = 1 << (N.bit_length() // n + 1)  # strictly above the true root
    while True:
        y = ((n - 1) * x + N // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    while x ** n > N:
        x -= 1
    while (x + 1) ** n <= N:
        x += 1
    return x


def int_to_decimal(x: int) -> str:
    """Decimal digits of an integer of any size, as ``str(x)`` spells them.

    ``str`` refuses integers of more than 4300 digits (CPython's
    integer-string conversion limit); the exact conversion through
    ``decimal.Decimal`` has no such limit and changes no interpreter-wide
    setting.
    """
    return str(decimal.Decimal(x))

