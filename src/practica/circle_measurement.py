"""Certified polygon bounds on the circle, by repeated side doubling.

Perimeter/diameter ratios of inscribed and circumscribed regular n-gons
are carried as intervals and doubled with the harmonic/geometric-mean
recurrences

    circumscribed(2n) = 2 * insc(n) * circ(n) / (insc(n) + circ(n))
    inscribed(2n)     = sqrt(circumscribed(2n) * inscribed(n))

which for regular polygons are algebraically equivalent to the classical
angle-bisection argument.  Areas (unit radius) come from an independent
route: the circumscribed n-gon area equals its perimeter ratio, and the
inscribed n-gon area is i_n * sqrt(1 - (i_n/n)**2) via the apothem, so
area-based identities are genuine checks rather than restatements of
the recurrence.  Endpoints are compressed outward onto a decimal grid
after every step, which keeps denominators bounded while preserving
the enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numerics import (
    DEFAULT_PRECISION,
    Interval,
    Precision,
    PrecisionError,
    interval_sqrt,
    rat_sqrt_bounds,
)

#: Extra decimal digits carried internally beyond the requested precision.
_GUARD_DIGITS = 10

#: Longest supported doubling chain (6 * 2**70 sides is far beyond any
#: width this package will be asked for).
_MAX_DOUBLINGS = 70


@dataclass(frozen=True)
class PolygonBounds:
    """Certified data for inscribed/circumscribed regular n-gons.

    Perimeter fields are perimeter/diameter ratios; area fields are
    areas for the unit-radius circle.  By construction the true circle
    ratio lies between per_inscribed.lo and per_circumscribed.hi.
    """

    sides: int
    per_inscribed: Interval
    per_circumscribed: Interval
    area_inscribed: Interval
    area_circumscribed: Interval

    def __post_init__(self) -> None:
        if self.sides < 3:
            raise ValueError(f"a polygon needs at least 3 sides, got {self.sides}")
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


def _inscribed_area(per_in: Interval, sides: int, digits: int) -> Interval:
    # apothem route: A_in(n) = i_n * sqrt(1 - (i_n / n)**2)
    wp = Precision(digits)
    cos_sq = Interval.point(1) - (per_in / sides).square()
    return (per_in * interval_sqrt(cos_sq, wp)).round_outward(digits)


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
    per_in = per_in.round_outward(digits)
    per_circ = per_circ.round_outward(digits)
    return PolygonBounds(
        sides=sides,
        per_inscribed=per_in,
        per_circumscribed=per_circ,
        area_inscribed=_inscribed_area(per_in, sides, digits),
        area_circumscribed=per_circ,
    )


def double_polygon(b: PolygonBounds, p: Precision = DEFAULT_PRECISION) -> PolygonBounds:
    """Bounds at 2n sides from bounds at n sides."""
    digits = _working_digits(p)
    wp = Precision(digits)
    i, c = b.per_inscribed, b.per_circumscribed
    c2 = ((2 * i * c) / (i + c)).round_outward(digits)
    i2 = interval_sqrt(c2 * i, wp).round_outward(digits)
    sides = 2 * b.sides
    return PolygonBounds(
        sides=sides,
        per_inscribed=i2,
        per_circumscribed=c2,
        area_inscribed=_inscribed_area(i2, sides, digits),
        area_circumscribed=c2,
    )


def _chain_seed_for(n: int) -> int:
    """Seed polygon from which n is reachable by doubling."""
    if n < 3:
        raise ValueError(f"a polygon needs at least 3 sides, got {n}")
    m = n
    while m % 2 == 0 and m > 6:
        m //= 2
    if m in (3, 4, 6):
        return m
    raise ValueError(
        f"{n} sides is not reachable by doubling from a 3-, 4-, or 6-gon"
    )


def _polygon(n: int, p: Precision) -> PolygonBounds:
    """Bounds at n sides, doubled up from the seed polygon."""
    b = polygon_seed(_chain_seed_for(n), p)
    while b.sides < n:
        b = double_polygon(b, p)
    return b


def pi_bounds(
    target_sides: int | None = None,
    target_width: Fraction | None = None,
    p: Precision = DEFAULT_PRECISION,
) -> PiBounds:
    """Certified rational bounds on the circle ratio.

    Exactly one of ``target_sides`` (which must be 6 * 2**k) and
    ``target_width`` must be given.  If a requested width cannot be
    reached at the working precision the computation is retried once
    with doubled precision before failing.
    """
    if (target_sides is None) == (target_width is None):
        raise ValueError("give exactly one of target_sides and target_width")

    if target_sides is not None:
        k = target_sides
        while k % 2 == 0 and k > 6:
            k //= 2
        if k != 6:
            raise ValueError(f"target_sides must be 6 * 2**k, got {target_sides}")
        b = _polygon(target_sides, p)
        return PiBounds(
            lower=b.per_inscribed.lo,
            upper=b.per_circumscribed.hi,
            sides=b.sides,
            precision=p,
        )

    width = Fraction(target_width)
    if width <= 0:
        raise ValueError("target_width must be positive")

    def attempt(prec: Precision) -> PiBounds:
        b = polygon_seed(6, prec)
        prev_width = b.per_circumscribed.hi - b.per_inscribed.lo
        for _ in range(_MAX_DOUBLINGS):
            if prev_width <= width:
                return PiBounds(
                    lower=b.per_inscribed.lo,
                    upper=b.per_circumscribed.hi,
                    sides=b.sides,
                    precision=prec,
                )
            b = double_polygon(b, prec)
            new_width = b.per_circumscribed.hi - b.per_inscribed.lo
            if new_width >= prev_width:
                break  # stalled on the rounding grid
            prev_width = new_width
        raise PrecisionError(
            f"cannot reach width {width} at {prec.decimal_digits} digits"
        )

    try:
        return attempt(p)
    except PrecisionError:
        return attempt(Precision(2 * p.decimal_digits))


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
    """Whether 11/14 falls inside the quarter-ratio interval."""

    target: Fraction
    quarter: Interval
    contained: bool
    signed_distance: Fraction


def prop2_ratio_check(pi_b: PiBounds) -> RatioVerdict:
    """Check the classical area:square-of-diameter ratio 11:14.

    The ratio equals the circle ratio divided by 4, so the verdict
    reports containment of 11/14 in [lower/4, upper/4] and the signed
    distance to the nearest endpoint when outside (positive when 11/14
    lies above the interval).
    """
    target = Fraction(11, 14)
    quarter = Interval(pi_b.lower / 4, pi_b.upper / 4)
    if quarter.contains(target):
        return RatioVerdict(target, quarter, True, Fraction(0))
    if target > quarter.hi:
        return RatioVerdict(target, quarter, False, target - quarter.hi)
    return RatioVerdict(target, quarter, False, target - quarter.lo)


@dataclass(frozen=True)
class ExhaustionStep:
    """One doubling step of the square chain with certified halving."""

    sides_before: int
    sides_after: int
    inscribed_gap_before: Interval
    inscribed_gap_after: Interval
    circumscribed_gap_before: Interval
    circumscribed_gap_after: Interval
    inscribed_halved: bool
    circumscribed_halved: bool


def exhaustion_report(
    max_doublings: int, p: Precision = DEFAULT_PRECISION
) -> list[ExhaustionStep]:
    """Certify, step by step, that doubling more than halves both area gaps.

    Starting from the square, each step n -> 2n certifies on interval
    endpoints that circle - A_in(2n) < (circle - A_in(n)) / 2 and that
    A_circ(2n) - circle < (A_circ(n) - circle) / 2, with the circle area
    enclosed by an independent hexagon-chain computation.
    """
    if max_doublings < 1:
        raise ValueError("max_doublings must be at least 1")

    def attempt(prec: Precision) -> list[ExhaustionStep]:
        # The circle area (unit radius) enclosed well below the final gap size.
        final_gap = Fraction(4) / 4 ** max_doublings
        pi_iv_bounds = pi_bounds(target_width=final_gap / 10 ** 6, p=prec)
        circle = Interval(pi_iv_bounds.lower, pi_iv_bounds.upper)

        b = polygon_seed(4, prec)
        steps: list[ExhaustionStep] = []
        for _ in range(max_doublings):
            b2 = double_polygon(b, prec)
            gap_in_before = circle - b.area_inscribed
            gap_in_after = circle - b2.area_inscribed
            gap_circ_before = b.area_circumscribed - circle
            gap_circ_after = b2.area_circumscribed - circle
            in_ok = gap_in_after.hi < gap_in_before.lo / 2
            circ_ok = gap_circ_after.hi < gap_circ_before.lo / 2
            if not (in_ok and circ_ok):
                raise PrecisionError(
                    f"halving not certifiable at {b.sides} -> {b2.sides} sides"
                )
            steps.append(
                ExhaustionStep(
                    sides_before=b.sides,
                    sides_after=b2.sides,
                    inscribed_gap_before=gap_in_before,
                    inscribed_gap_after=gap_in_after,
                    circumscribed_gap_before=gap_circ_before,
                    circumscribed_gap_after=gap_circ_after,
                    inscribed_halved=in_ok,
                    circumscribed_halved=circ_ok,
                )
            )
            b = b2
        return steps

    try:
        return attempt(p)
    except PrecisionError:
        return attempt(Precision(2 * p.decimal_digits))


def fibonacci_identity_check(n: int, p: Precision = DEFAULT_PRECISION) -> Interval:
    """Enclose (radius * half-perimeter of the n-gon) - (area of the 2n-gon).

    For the unit radius the first factor reduces to the inscribed
    perimeter ratio i_n, while the 2n-gon area comes from the
    independent apothem route, so the returned interval is a genuine
    certificate that the two quantities agree; it must contain zero.
    """
    b = _polygon(n, p)
    half_perimeter_times_r = b.per_inscribed
    area_2n = double_polygon(b, p).area_inscribed
    return half_perimeter_times_r - area_2n
