"""Certified polygon bounds on the circle, by repeated side doubling.

Perimeter/diameter ratios of inscribed and circumscribed regular n-gons
are carried as intervals and doubled with the harmonic/geometric-mean
recurrences

    circumscribed(2n) = 2 * insc(n) * circ(n) / (insc(n) + circ(n))
    inscribed(2n)     = sqrt(circumscribed(2n) * inscribed(n))

which for regular polygons are algebraically equivalent to the classical
angle-bisection argument.  Only the two perimeter ratios are stored;
areas (unit radius) are derived where they are read, by an independent
route: the circumscribed n-gon area equals its perimeter ratio, and the
inscribed n-gon area is i_n * sqrt(1 - (i_n/n)**2) via the apothem, so
area-based identities are genuine checks rather than restatements of
the recurrence.  Every endpoint lies on the 10**-D grid of the working
digits D, which keeps denominators bounded while preserving the
enclosure.  A doubling computes each new endpoint straight from the
integer numerators and denominators of the old ones, rounded outward
onto that grid (see `double_polygon`): the same Fractions as evaluating
the recurrences in interval arithmetic and rounding afterwards, without
building the intermediate Fractions.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import dropwhile, islice, pairwise
from typing import ClassVar, TypeVar

from .numerics import (
    DEFAULT_PRECISION,
    Interval,
    Precision,
    PrecisionError,
    _check_int,
    _isqrt_quotient,
    _on_grid,
    interval_sqrt,
    rat_sqrt_bounds,
)

#: Extra decimal digits carried internally beyond the requested precision.
_GUARD_DIGITS = 10

_T = TypeVar("_T")


@dataclass(frozen=True)
class PolygonBounds:
    """Certified perimeter/diameter ratios of the inscribed and
    circumscribed regular n-gons.

    Areas are not stored: the exhaustion and identity checks derive them
    from these fields where they read them.  By construction the true
    circle ratio lies between per_inscribed.lo and per_circumscribed.hi.
    """

    sides: int
    per_inscribed: Interval
    per_circumscribed: Interval

    def __post_init__(self) -> None:
        if self.sides < 3:
            raise ValueError(f"a polygon needs at least 3 sides, got {self.sides}")
        for name in ("per_inscribed", "per_circumscribed"):
            lo = getattr(self, name).lo
            if lo <= 0:
                raise ValueError(f"{name}.lo must be positive, got {lo}")
        if not self.per_inscribed.lo < self.per_circumscribed.hi:
            raise ValueError("inscribed/circumscribed bounds are inconsistent")


@dataclass(frozen=True)
class PiBounds:
    """A certified rational enclosure of the circle ratio."""

    lower: Fraction
    upper: Fraction
    sides: int
    precision: Precision

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError("bounds out of order")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


def _working_digits(p: Precision) -> int:
    return p.decimal_digits + _GUARD_DIGITS


def _inscribed_area(b: PolygonBounds, p: Precision) -> Interval:
    # apothem route: A_in(n) = i_n * sqrt(1 - (i_n / n)**2)
    digits = _working_digits(p)
    cos_sq = 1 - (b.per_inscribed / b.sides).square()
    return (b.per_inscribed * interval_sqrt(cos_sq, Precision(digits))).round_outward(digits)


def polygon_seed(sides: int, p: Precision = DEFAULT_PRECISION) -> PolygonBounds:
    """Exact-seed bounds for the 3-, 4-, or 6-gon (doubling handles the rest)."""
    digits = _working_digits(p)
    wp = Precision(digits)
    if sides == 6:
        per_in = Interval.point(3)
        per_circ = 2 * rat_sqrt_bounds(Fraction(3), wp)
    elif sides == 4:
        per_in = 2 * rat_sqrt_bounds(Fraction(2), wp)
        per_circ = Interval.point(4)
    elif sides == 3:
        sqrt3 = rat_sqrt_bounds(Fraction(3), wp)
        per_in = Fraction(3, 2) * sqrt3
        per_circ = 3 * sqrt3
    else:
        raise ValueError(f"no exact seed for {sides} sides (use 3, 4, or 6)")
    return PolygonBounds(sides, per_in.round_outward(digits), per_circ.round_outward(digits))


def _sqrt_on_grid(x: Fraction, digits: int, up: bool) -> Fraction:
    """rat_sqrt_bounds(x, Precision(digits)).lo (or .hi) rounded outward
    onto the 10**-digits grid."""
    num, den = _isqrt_quotient(x.numerator, x.denominator, digits, up)
    return _on_grid(num, den, digits, up)


def double_polygon(b: PolygonBounds, p: Precision = DEFAULT_PRECISION) -> PolygonBounds:
    """Bounds at 2n sides from bounds at n sides.

    With i = [a1/b1, a2/b2] and c = [a3/b3, a4/b4] the (positive, reduced)
    perimeter bounds at n sides and S = 10**D, D the working digits:

        c2.lo = floor(2*a1*a3*b2*b4*S / (b1*b3*(a2*b4 + a4*b2))) / S
        c2.hi = ceil(2*a2*a4*b1*b3*S / (b2*b4*(a1*b3 + a3*b1))) / S
        i2.lo = floor(S * isqrt(n*s*s) / isqrt_ceil(d*s*s)) / S,  n/d = c2.lo*i.lo
        i2.hi = ceil(S * isqrt_ceil(n*s*s) / isqrt(d*s*s)) / S,   n/d = c2.hi*i.hi

    with s = 10**(D + 2) and n/d reduced.  These are exactly the endpoints
    of ``((2*i*c)/(i + c)).round_outward(D)`` and
    ``interval_sqrt(c2*i, Precision(D)).round_outward(D)``.  On positive
    intervals 2*i*c is [2*i.lo*c.lo, 2*i.hi*c.hi] and i + c is
    [i.lo + c.lo, i.hi + c.hi], so their quotient is the low product over
    the high sum and the high product over the low sum, which the c2
    lines write on integers.  interval_sqrt reads `rat_sqrt_bounds`' lower
    quotient of the reduced c2.lo*i.lo and its upper quotient of
    c2.hi*i.hi, the same `_isqrt_quotient` used here.  The floor or
    ceiling of a rational does not depend on how it is written, so
    rounding the integer quotients onto the grid gives the same
    Fractions.

    Once the bounds have widened past the grid's reach (at 1 digit, after
    about 34 doublings), i2.lo rounds to 0; that raises `PrecisionError`.
    """
    digits = _working_digits(p)
    i, c = b.per_inscribed, b.per_circumscribed
    a1, b1, a2, b2 = i.lo.numerator, i.lo.denominator, i.hi.numerator, i.hi.denominator
    a3, b3, a4, b4 = c.lo.numerator, c.lo.denominator, c.hi.numerator, c.hi.denominator
    c2_lo = _on_grid(2 * a1 * a3 * b2 * b4, b1 * b3 * (a2 * b4 + a4 * b2), digits, up=False)
    c2_hi = _on_grid(2 * a2 * a4 * b1 * b3, b2 * b4 * (a1 * b3 + a3 * b1), digits, up=True)
    i2_lo = _sqrt_on_grid(c2_lo * i.lo, digits, up=False)
    if i2_lo == 0:
        raise PrecisionError(
            f"cannot double {b.sides} sides at {p.decimal_digits} digits: "
            f"the inscribed bound rounds to 0"
        )
    i2 = Interval._of(i2_lo, _sqrt_on_grid(c2_hi * i.hi, digits, up=True))
    return PolygonBounds(2 * b.sides, i2, Interval._of(c2_lo, c2_hi))


def _chain_seed_for(n: int) -> int:
    """n halved while even and above 6: the seed of the only chain that
    can hold n sides (reachable exactly when that is 3, 4 or 6)."""
    while n % 2 == 0 and n > 6:
        n //= 2
    return n


def _chain(seed: int, p: Precision) -> Iterator[PolygonBounds]:
    """Bounds at seed, 2*seed, 4*seed, ... sides, each doubled on demand
    (the one caller of polygon_seed and double_polygon)."""
    b = polygon_seed(seed, p)
    while True:
        yield b
        b = double_polygon(b, p)


def _chain_from(n: int, p: Precision) -> Iterator[PolygonBounds]:
    """The chain from n sides on, for n = 3, 4 or 6 times a power of two."""
    seed = _chain_seed_for(n)
    if n < 3:
        raise ValueError(f"a polygon needs at least 3 sides, got {n}")
    if seed not in (3, 4, 6):
        raise ValueError(f"{n} sides is not reachable by doubling from a 3-, 4-, or 6-gon")
    return dropwhile(lambda b: b.sides < n, _chain(seed, p))


def _with_retry(run: Callable[[Precision], _T], p: Precision) -> _T:
    """run(p); if that raises PrecisionError, run once more at twice the digits."""
    try:
        return run(p)
    except PrecisionError:
        return run(Precision(2 * p.decimal_digits))


def _enclosure(b: PolygonBounds, p: Precision) -> PiBounds:
    return PiBounds(b.per_inscribed.lo, b.per_circumscribed.hi, b.sides, p)


def _pi_to_width(width: Fraction, p: Precision) -> PiBounds:
    # Every endpoint lies on the 10**-(working digits) grid, so each width
    # is a positive multiple of that step.  The loop goes on only while
    # the width strictly falls, so it ends: at the target or at a stall.
    chain = _chain(6, p)
    narrowest: Fraction | None = None
    while True:
        b = next(chain)
        w = b.per_circumscribed.hi - b.per_inscribed.lo
        if w <= width:
            return _enclosure(b, p)
        if narrowest is not None and w >= narrowest:
            raise PrecisionError(
                f"cannot reach width {width} at {p.decimal_digits} digits: "
                f"the bounds stopped narrowing at {b.sides // 2} sides"
            )
        narrowest = w


def pi_bounds(
    target_sides: int | None = None,
    target_width: Fraction | None = None,
    p: Precision = DEFAULT_PRECISION,
) -> PiBounds:
    """Certified rational bounds on the circle ratio.

    Exactly one of ``target_sides`` (which must be 6 * 2**k) and
    ``target_width`` must be given.  A width is sought by doubling from
    the hexagon at ``p`` until the bounds stop narrowing on the rounding
    grid, the only stop short of the width; after such a stall the search
    runs once more at twice the digits, and a second stall raises
    `PrecisionError`.
    """
    if (target_sides is None) == (target_width is None):
        raise ValueError("give exactly one of target_sides and target_width")

    if target_sides is not None:
        _check_int(target_sides, "target_sides")
        if _chain_seed_for(target_sides) != 6:
            raise ValueError(f"target_sides must be 6 * 2**k, got {target_sides}")
        return _enclosure(next(_chain_from(target_sides, p)), p)

    width = Fraction(target_width)
    if width <= 0:
        raise ValueError("target_width must be positive")
    return _with_retry(lambda q: _pi_to_width(width, q), p)


def archimedes_window(p: Precision = DEFAULT_PRECISION) -> PiBounds:
    """The classical fractions 3+10/71 and 3+1/7 as certified bounds.

    The 96-gon chain is computed first and checked to lie strictly
    inside the window, which certifies the window itself.
    """
    computed = pi_bounds(target_sides=96, p=p)
    lower = Fraction(3) + Fraction(10, 71)
    upper = Fraction(3) + Fraction(1, 7)
    if not (lower <= computed.lower and computed.upper <= upper):
        raise PrecisionError("96-gon bounds failed to certify the classical window")
    return PiBounds(lower=lower, upper=upper, sides=96, precision=p)


def circle_area_bounds(radius: Fraction, pi_b: PiBounds) -> Interval:
    """Exact rational scaling of the ratio bounds: area in r**2 * [lower, upper]."""
    r = Fraction(radius)
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    return Interval(r * r * pi_b.lower, r * r * pi_b.upper)


@dataclass(frozen=True)
class RatioVerdict:
    """Whether 11/14 falls inside the quarter-ratio interval.

    Only the interval is stored; the verdict and the signed distance
    from 11/14 to the nearest endpoint are derived from it.
    """

    target: ClassVar[Fraction] = Fraction(11, 14)
    quarter: Interval

    @property
    def signed_distance(self) -> Fraction:
        """Positive when 11/14 lies above the interval, negative below, 0 inside."""
        q, t = self.quarter, self.target
        return max(t - q.hi, Fraction(0)) + min(t - q.lo, Fraction(0))

    @property
    def contained(self) -> bool:
        return self.signed_distance == 0


def prop2_ratio_check(pi_b: PiBounds) -> RatioVerdict:
    """Check the classical area:square-of-diameter ratio 11:14.

    The ratio equals the circle ratio divided by 4, so the verdict is
    about 11/14 against the interval [lower/4, upper/4].
    """
    return RatioVerdict(Interval(pi_b.lower / 4, pi_b.upper / 4))


@dataclass(frozen=True)
class ExhaustionStep:
    """One doubling step of the square chain: the area gaps before and after.

    The side count after the step and the two halving verdicts are
    derived from the stored side count and gaps.
    """

    sides_before: int
    inscribed_gap_before: Interval
    inscribed_gap_after: Interval
    circumscribed_gap_before: Interval
    circumscribed_gap_after: Interval

    @property
    def sides_after(self) -> int:
        return 2 * self.sides_before

    @property
    def inscribed_halved(self) -> bool:
        return self.inscribed_gap_after.hi < self.inscribed_gap_before.lo / 2

    @property
    def circumscribed_halved(self) -> bool:
        return self.circumscribed_gap_after.hi < self.circumscribed_gap_before.lo / 2


def _exhaustion(max_doublings: int, p: Precision) -> list[ExhaustionStep]:
    # The circle area (unit radius) enclosed well below the final gap size.
    final_gap = Fraction(4) / 4 ** max_doublings
    pi_b = pi_bounds(target_width=final_gap / 10 ** 6, p=p)
    circle = Interval(pi_b.lower, pi_b.upper)

    # For unit radius the circumscribed n-gon's area equals its perimeter/diameter ratio.
    gaps = (
        (b.sides, circle - _inscribed_area(b, p), b.per_circumscribed - circle)
        for b in islice(_chain(4, p), max_doublings + 1)
    )
    steps: list[ExhaustionStep] = []
    for (n, in_before, circ_before), (_, in_after, circ_after) in pairwise(gaps):
        step = ExhaustionStep(n, in_before, in_after, circ_before, circ_after)
        if not (step.inscribed_halved and step.circumscribed_halved):
            raise PrecisionError(
                f"halving not certifiable at {n} -> {step.sides_after} sides"
            )
        steps.append(step)
    return steps


def exhaustion_report(
    max_doublings: int, p: Precision = DEFAULT_PRECISION
) -> list[ExhaustionStep]:
    """Certify, step by step, that doubling more than halves both area gaps.

    Starting from the square, each step n -> 2n certifies on interval
    endpoints that circle - A_in(2n) < (circle - A_in(n)) / 2 and that
    A_circ(2n) - circle < (A_circ(n) - circle) / 2, with the circle area
    enclosed by an independent hexagon-chain computation.  If the report
    at ``p`` raises `PrecisionError` (a halving not certified, or the
    circle enclosure stalled after its own retry), it is built once more
    at twice the digits.
    """
    _check_int(max_doublings, "max_doublings")
    if max_doublings < 1:
        raise ValueError("max_doublings must be at least 1")
    return _with_retry(lambda q: _exhaustion(max_doublings, q), p)


def fibonacci_identity_check(n: int, p: Precision = DEFAULT_PRECISION) -> Interval:
    """Enclose (radius * half-perimeter of the n-gon) - (area of the 2n-gon).

    For the unit radius the first factor reduces to the inscribed
    perimeter ratio i_n, while the 2n-gon area comes from the
    independent apothem route, so the returned interval is a genuine
    certificate that the two quantities agree; it must contain zero.
    """
    _check_int(n, "n")
    chain = _chain_from(n, p)
    b = next(chain)
    return b.per_inscribed - _inscribed_area(next(chain), p)
