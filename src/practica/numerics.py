"""Exact arithmetic kernel: rationals, directed-rounding square roots,
rational intervals, and big-integer nth roots.

Every quantity in this package is either an exact `Fraction` or an
`Interval` with exact rational endpoints that is guaranteed to contain
the true (possibly irrational) value.  An interval product is the min
and max over the four endpoint products, exact because the endpoints
are.  Nothing here ever touches a float: a square root is bounded by
the floor and ceiling of G*sqrt(x) on a decimal grid 1/G, one integer
square root, so the enclosure is bit-exact on every platform and 1/G
wide whatever the root's size.  Long derivations keep their
denominators bounded on a decimal grid: the polygon chain of
`circle_measurement` carries each end as an integer numerator over
10**D, the lower end floored and the upper end ceiled.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

_ZERO = Fraction(0)
_REQUIRED = object()  # marks a field with no default in `_frozen`


def _frozen(cls=None, /, *, derived: tuple[str, ...] = ()):
    """Make ``cls`` a frozen value class over its own annotated names, the
    ``_fields``: arguments bind by position or keyword, class attributes
    are defaults, ``__post_init__`` runs last and sets the ``derived``
    fields, which are no arguments; ``==``, hash and repr read the fields,
    and assignment raises.  Copies and pickles carry the fields alone, so
    ``__slots__`` work; each field is read by ``getattr``, so a class that
    builds some on first read (`heron.HeronIdentityReport`) builds them
    first.  It compiles nothing and imports no ``inspect``, which
    start-up would pay.
    """
    if cls is None:
        return lambda cls: _frozen(cls, derived=derived)
    own = vars(cls)
    names = tuple(own.get("__annotations__", ()))
    params = tuple(name for name in names if name not in derived)
    defaults = {name: own[name] for name in names if name in own and name not in own.get("__slots__", ())}
    post_init, put = own.get("__post_init__"), object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(params):
            rest = [kwargs.pop(name, defaults.get(name, _REQUIRED)) for name in params[len(args):]]
            if kwargs or len(args) > len(params) or any(value is _REQUIRED for value in rest):
                raise TypeError(f"{cls.__name__}() takes the arguments {params}, each once")
            args = (*args, *rest)
        for name, value in zip(params, args):
            put(self, name, value)
        if post_init is not None:
            post_init(self)

    for name in ("__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__", "__getstate__", "__setstate__"):
        setattr(cls, name, vars(_FrozenMethods)[name])
    cls.__init__, cls._fields, cls.__match_args__ = __init__, names, params
    return cls


class _FrozenMethods:  # the methods `_frozen` gives a value class
    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setstate__(self, values: tuple) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__getstate__() == other.__getstate__()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.__getstate__())

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot set or delete {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__


@_frozen
class Precision:
    """A decimal-digit budget for directed-rounding operations.

    ``decimal_digits`` is the number of decimal places an operation
    taking a Precision rounds to at least: a square root from
    `rat_sqrt_bounds` lies on the grid ``10**-(decimal_digits + 2)``, so
    its width is at most ``10**-decimal_digits`` whatever its size.
    """

    decimal_digits: int

    def __post_init__(self) -> None:
        digits = self.decimal_digits
        if not isinstance(digits, int) or isinstance(digits, bool) or digits < 1:
            raise ValueError("decimal_digits must be a positive integer")


#: Comfortably beyond a 20-decimal enclosure of pi with guard digits to spare.
DEFAULT_PRECISION = Precision(30)


class PrecisionError(ArithmeticError):
    """A requested output width is unattainable at the working precision."""


def _check_int(value: object, what: str) -> None:
    """Reject anything but a true int (bools too), naming the argument."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer")


def _decade(n: int, d: int) -> int:
    """The k with 10**k <= n/d < 10**(k + 1), for integers n, d > 0.

    The bit lengths put n/d within a factor of 2 of 2**bits, so k is
    within one of bits * log10(2), and exact comparisons settle it."""

    def at_least(e: int) -> bool:  # n/d >= 10**e
        return n >= d * 10 ** e if e >= 0 else n * 10 ** -e >= d

    k = (n.bit_length() - d.bit_length()) * 3010299957 // 10 ** 10
    while not at_least(k):
        k -= 1
    while at_least(k + 1):
        k += 1
    return k


def _scalar(value: object) -> Fraction | int:
    """An exact rational operand as given (an int stays an int)."""
    if isinstance(value, (Fraction, int)) and value.__class__ is not bool:
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _to_rational(value: Fraction | int) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(_scalar(value))


def _cleared(*values: Fraction | int) -> tuple[int, ...]:
    """Integers N1, ..., Nk, D with values[i] = Ni / D and D > 0."""
    d = math.lcm(*(v.denominator for v in values))
    return (*(v.numerator * (d // v.denominator) for v in values), d)


@_frozen
class Interval:
    """A closed interval [lo, hi] with exact rational endpoints.

    The operations are +, -, * and negation, with an interval or an
    exact rational on either side, and ``square``, ``magnitude`` and
    ``contains``.  The exact +, -, * on Fractions introduce no rounding
    at all, so the result of combining intervals always contains every
    value obtainable by combining members of the operands.  A product is
    the min and max of the four endpoint products (Moore's rule), with a
    scalar operand taken as ``point(v)``.  ``square`` and ``magnitude``
    give the tighter image of one operand.  Operators build their
    results with ``_of``, which skips validation because their endpoints
    are Fractions already in order; the public ``Interval(lo, hi)`` and
    ``point`` still convert ints and reject anything else (bools too)
    or reversed endpoints.
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

    @classmethod
    def _of(cls, lo: Fraction, hi: Fraction) -> "Interval":
        """[lo, hi] from two Fractions with lo <= hi, unchecked."""
        iv = object.__new__(cls)
        fields = iv.__dict__
        fields["lo"] = lo
        fields["hi"] = hi
        return iv

    # -- inspection --------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value: Fraction | int) -> bool:
        v = _scalar(value)
        return self.lo <= v <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "Interval | Fraction | int") -> "Interval":
        if isinstance(other, Interval):
            return Interval._of(self.lo + other.lo, self.hi + other.hi)
        v = _scalar(other)
        return Interval._of(self.lo + v, self.hi + v)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval._of(-self.hi, -self.lo)

    def __sub__(self, other: "Interval | Fraction | int") -> "Interval":
        if isinstance(other, Interval):
            return Interval._of(self.lo - other.hi, self.hi - other.lo)
        v = _scalar(other)
        return Interval._of(self.lo - v, self.hi - v)

    def __rsub__(self, other: "Fraction | int") -> "Interval":
        v = _scalar(other)
        return Interval._of(v - self.hi, v - self.lo)

    def __mul__(self, other: "Interval | Fraction | int") -> "Interval":
        if not isinstance(other, Interval):
            other = Interval.point(other)
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        products = (a * c, a * d, b * c, b * d)
        return Interval._of(min(products), max(products))

    __rmul__ = __mul__

    def square(self) -> "Interval":
        """Tight image of x**2 over the interval (tighter than self*self
        when the interval straddles zero)."""
        a, b = self.lo, self.hi
        if a.numerator >= 0:
            return Interval._of(a * a, b * b)
        if b.numerator <= 0:
            return Interval._of(b * b, a * a)
        return Interval._of(_ZERO, max(a * a, b * b))

    def magnitude(self) -> "Interval":
        """Tight image of |x| over the interval."""
        if self.lo.numerator >= 0:
            return self
        if self.hi.numerator <= 0:
            return Interval._of(-self.hi, -self.lo)
        return Interval._of(_ZERO, max(-self.lo, self.hi))


def _isqrt_ceil(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def rat_sqrt_bounds(x: Fraction | int, p: Precision = DEFAULT_PRECISION) -> Interval:
    """Directed-rounding enclosure of sqrt(x) for a nonnegative rational:
    [floor(G*sqrt(x)), ceil(G*sqrt(x))] / G, G = 10**(p.decimal_digits + 2),
    one isqrt of floor(x*G**2), so 1/G wide whatever the size of sqrt(x),
    but a square of a rational comes back as the point of its exact root.
    Off those squares both ends are non-decreasing in x; a square whose
    root is off the grid is the one exception, its point lying strictly
    inside its neighbours' enclosures.
    """
    x = _to_rational(x)
    if x < 0:
        raise ValueError(f"square root of negative value {x}")
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Interval.point(Fraction(rn, rd))
    G = 10 ** (p.decimal_digits + 2)
    r = math.isqrt(n * G * G // d)
    return Interval._of(Fraction(r, G), Fraction(r + 1, G))


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

