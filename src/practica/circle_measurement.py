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
the recurrence.  Every bound is an integer numerator over 10**D, D the
working digits: the seeds, each doubling and the apothem areas floor
and ceil exact values onto that grid, square roots by integer square
roots, and only the bounds returned become Fractions.  Each call runs
its chain once, at the caller's precision or at the digits its target
width or doubling count needs, if more.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import islice, pairwise

from .numerics import (
    DEFAULT_PRECISION,
    Interval,
    Precision,
    PrecisionError,
    _check_int,
    _cleared,
    _frozen,
    _isqrt_ceil,
    _isqrt_quotient,
    _to_rational,
    int_to_decimal,
)

#: Extra decimal digits carried internally beyond the requested precision.
_GUARD_DIGITS = 10


@_frozen
class PolygonBounds:
    """Certified perimeter/diameter ratios of the inscribed and
    circumscribed regular n-gons.

    Areas are not stored: the exhaustion and identity checks derive them
    from the chain's perimeter bounds.  By construction the true circle
    ratio lies between per_inscribed.lo and per_circumscribed.hi.
    """

    sides: int
    per_inscribed: Interval
    per_circumscribed: Interval

    def __post_init__(self) -> None:
        _check_int(self.sides, "sides")
        if self.sides < 3:
            raise ValueError(f"a polygon needs at least 3 sides, got {self.sides}")
        for name in ("per_inscribed", "per_circumscribed"):
            lo = getattr(self, name).lo
            if lo <= 0:
                raise ValueError(f"{name}.lo must be positive, got {lo}")
        if not self.per_inscribed.lo < self.per_circumscribed.hi:
            raise ValueError("inscribed/circumscribed bounds are inconsistent")


@_frozen
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


def _at_least(p: Precision, digits: int) -> Precision:
    """p, or the precision whose working digits are ``digits`` if that is more."""
    return Precision(max(p.decimal_digits, digits - _GUARD_DIGITS))


def _times_root(a: int, n: int, d: int, digits: int, up: bool) -> int:
    """a * sqrt(n/d), its root bounded by `_isqrt_quotient`, floored or, when
    ``up``, ceiled: for a >= 0, the end ``round_outward`` gives the product."""
    rn, rd = _isqrt_quotient(n, d, digits, up)
    return -(-a * rn // rd) if up else a * rn // rd


#: Each seed's inscribed and circumscribed perimeter ratios as (k/q) * sqrt(r), q | 10**D.
_SEEDS = {6: ((3, 1, 1), (2, 1, 3)), 4: ((2, 1, 2), (4, 1, 1)), 3: ((3, 2, 3), (3, 1, 3))}


def _seed_ends(sides: int, p: Precision) -> tuple[int, ...]:
    """The numerators over S = 10**D of the seed's i.lo, i.hi, c.lo, c.hi."""
    if sides not in _SEEDS:
        raise ValueError(f"no exact seed for {sides} sides (use 3, 4, or 6)")
    D = _working_digits(p)
    S = 10 ** D
    return tuple(
        _times_root(k * S // q, r, 1, D, up) for k, q, r in _SEEDS[sides] for up in (False, True)
    )


def _inscribed_area(sides: int, p: Precision, i_lo: int, i_hi: int) -> tuple[int, int]:
    """The numerators over S = 10**D of the ends of the inscribed n-gon's area
    from those of i.lo and i.hi, by the apothem: i_n * sqrt(1 - (i_n/n)**2)."""
    D = _working_digits(p)
    nS_sq = (sides * 10 ** D) ** 2
    lo = _times_root(i_lo, nS_sq - i_hi * i_hi, nS_sq, D, up=False)
    return lo, _times_root(i_hi, nS_sq - i_lo * i_lo, nS_sq, D, up=True)


def polygon_seed(sides: int, p: Precision = DEFAULT_PRECISION) -> PolygonBounds:
    """Exact-seed bounds for the 3-, 4-, or 6-gon (doubling handles the rest)."""
    _check_int(sides, "sides")
    return _polygon(p, sides, *_seed_ends(sides, p))


def _doubled(
    sides: int, p: Precision, s: int, b: int, i_lo: int, i_hi: int, c_lo: int, c_hi: int
) -> tuple[int, int, int, int]:
    """One doubling of the n-gon bounds i.lo, i.hi, c.lo, c.hi, given as
    positive numerators over B: the numerators over S = 10**D of i2.lo,
    i2.hi, c2.lo and c2.hi (see `double_polygon`), given s/b = S/B in
    lowest terms."""
    c2_lo = 2 * s * i_lo * c_lo // (b * (i_hi + c_hi))
    c2_hi = -(-2 * s * i_hi * c_hi // (b * (i_lo + c_lo)))
    i2_lo = math.isqrt(s * c2_lo * i_lo // b)
    if i2_lo == 0:
        raise PrecisionError(
            f"cannot double {sides} sides at {p.decimal_digits} digits: "
            f"the inscribed bound rounds to 0"
        )
    # i2.lo > 0 needs c2.lo > 0, so both lower ends are positive; what is
    # left of PolygonBounds' checks is the order of i2.lo and c2.hi.
    if not i2_lo < c2_hi:
        raise ValueError("inscribed/circumscribed bounds are inconsistent")
    return i2_lo, _isqrt_ceil(-(-s * c2_hi * i_hi // b)), c2_lo, c2_hi


def _on_grid(S: int, lo: int, hi: int) -> Interval:
    """[lo/S, hi/S], for integers lo <= hi."""
    return Interval._of(Fraction(lo, S), Fraction(hi, S))


def _polygon(p: Precision, sides: int, i_lo: int, i_hi: int, c_lo: int, c_hi: int) -> PolygonBounds:
    """The bounds whose endpoints have these numerators over 10**D."""
    S = 10 ** _working_digits(p)
    return PolygonBounds(sides, _on_grid(S, i_lo, i_hi), _on_grid(S, c_lo, c_hi))


def double_polygon(b: PolygonBounds, p: Precision = DEFAULT_PRECISION) -> PolygonBounds:
    """Bounds at 2n sides from bounds at n sides.

    With i = [I1/B, I2/B] and c = [C1/B, C2/B] the (positive) perimeter
    bounds at n sides over one denominator B, S = 10**D (D the working
    digits), and c2.lo, c2.hi below their numerators over S:

        c2.lo = floor(2*S*I1*C1 / (B*(I2 + C2))) / S
        c2.hi = ceil(2*S*I2*C2 / (B*(I1 + C1))) / S
        i2.lo = isqrt(floor(S*c2.lo*I1 / B)) / S
        i2.hi = isqrt_ceil(ceil(S*c2.hi*I2 / B)) / S

    On positive intervals 2*i*c is [2*i.lo*c.lo, 2*i.hi*c.hi] and i + c
    is [i.lo + c.lo, i.hi + c.hi], so the c2 lines are exactly the ends
    of ``((2*i*c)/(i + c)).round_outward(D)``.  A real's root floored is
    the isqrt of its floor (ceilings likewise), so the i2 lines are the
    tightest enclosure of sqrt(c2*i) on the grid, never wider than the
    low end of ``rat_sqrt_bounds(c2.lo*i.lo, Precision(D))`` and the high
    end of ``rat_sqrt_bounds(c2.hi*i.hi, Precision(D))``, rounded outward
    to D digits.  Each line
    reads S and B only as their ratio, so the step takes S/B in lowest
    terms, s/b with g = gcd(S, B), s = S/g and b = B/g.  The chain
    carries the numerators over S from step to step (B = S), so its step
    takes s = b = 1 and needs no S/B factor; this function clears
    ``b``'s ends to one denominator and reduces S/B once, so bounds off
    the grid double too.  Once the bounds have widened past the grid's
    reach (at 1 digit, after about 34 doublings), i2.lo rounds to 0;
    that raises `PrecisionError`.
    """
    i, c = b.per_inscribed, b.per_circumscribed
    *ends, B = _cleared(i.lo, i.hi, c.lo, c.hi)
    S = 10 ** _working_digits(p)
    g = math.gcd(S, B)
    return _polygon(p, 2 * b.sides, *_doubled(b.sides, p, S // g, B // g, *ends))


def _chain_seed_for(n: int) -> int:
    """n halved while even and above 6: the seed of the only chain that
    can hold n sides (reachable exactly when that is 3, 4 or 6)."""
    while n % 2 == 0 and n > 6:
        n //= 2
    return n


def _chain_from(n: int, p: Precision) -> Iterator[tuple[int, int, int, int, int]]:
    """The side counts n, 2n, 4n, ... (n = 3, 4 or 6 times a power of two),
    each with its bounds' four numerators over 10**D, doubled on demand."""
    seed = _chain_seed_for(n)
    if n < 3:
        raise ValueError(f"a polygon needs at least 3 sides, got {n}")
    if seed not in _SEEDS:
        raise ValueError(f"{n} sides is not reachable by doubling from a 3-, 4-, or 6-gon")
    sides, ends = seed, _seed_ends(seed, p)
    while True:
        if sides >= n:
            yield sides, *ends
        ends = _doubled(sides, p, 1, 1, *ends)
        sides *= 2


def _digits_for_width(width: Fraction) -> int:
    """Working digits at which the hexagon chain reaches ``width``:
    ceil(5*(k + 2)/3) for 10**-(k+1) < width <= 10**-k (k = 0 above 1).
    At D digits the chain stalls between 10**(-0.589*D) and 10**(-0.608*D)
    (measured for D = 11 .. 419), 0.87 decades or more below 10**-(k+1)."""
    k = len(int_to_decimal(width.denominator // width.numerator)) - 1
    return -(-5 * (k + 2) // 3)


def _pi_to_width(width: Fraction, p: Precision) -> PiBounds:
    # Every endpoint is a numerator over S = 10**(working digits), so each
    # width is a positive integer w standing for w/S.  The loop goes on
    # only while w strictly falls, so it ends: at the target or at a stall.
    S = 10 ** _working_digits(p)
    narrowest: int | None = None
    for sides, i_lo, _, _, c_hi in _chain_from(6, p):
        w = c_hi - i_lo
        if w * width.denominator <= width.numerator * S:
            return PiBounds(Fraction(i_lo, S), Fraction(c_hi, S), sides, p)
        if narrowest is not None and w >= narrowest:
            raise PrecisionError(
                f"cannot reach width {width} at {p.decimal_digits} digits: "
                f"the bounds stopped narrowing at {sides // 2} sides"
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
    the hexagon once, at ``p`` or at the precision the width needs
    (`_digits_for_width`) if more, which the result records.  Bounds
    that stop narrowing short of the width raise `PrecisionError`, which
    the digit rule is chosen to prevent.  Sides are reached at ``p``,
    and too many for it raise there too (see `double_polygon`).
    """
    if (target_sides is None) == (target_width is None):
        raise ValueError("give exactly one of target_sides and target_width")

    if target_sides is not None:
        _check_int(target_sides, "target_sides")
        if _chain_seed_for(target_sides) != 6:
            raise ValueError(f"target_sides must be 6 * 2**k, got {target_sides}")
        S = 10 ** _working_digits(p)
        sides, i_lo, _, _, c_hi = next(_chain_from(target_sides, p))
        return PiBounds(Fraction(i_lo, S), Fraction(c_hi, S), sides, p)

    width = _to_rational(target_width)
    if width <= 0:
        raise ValueError("target_width must be positive")
    return _pi_to_width(width, _at_least(p, _digits_for_width(width)))


def archimedes_window(p: Precision = DEFAULT_PRECISION) -> PiBounds:
    """The classical fractions 3+10/71 and 3+1/7 as certified bounds.

    The 96-gon chain is computed first and checked to lie strictly
    inside the window, which certifies the window itself.
    """
    computed = pi_bounds(target_sides=96, p=p)
    lower, upper = Fraction(3) + Fraction(10, 71), Fraction(3) + Fraction(1, 7)
    if not (lower <= computed.lower and computed.upper <= upper):
        raise PrecisionError("96-gon bounds failed to certify the classical window")
    return PiBounds(lower=lower, upper=upper, sides=96, precision=p)


def circle_area_bounds(radius: Fraction, pi_b: PiBounds) -> Interval:
    """Exact rational scaling of the ratio bounds: area in r**2 * [lower, upper]."""
    r = _to_rational(radius)
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    return Interval(r * r * pi_b.lower, r * r * pi_b.upper)


@_frozen
class RatioVerdict:
    """Whether 11/14 falls inside the quarter-ratio interval.

    Only the interval is stored; the verdict and the signed distance
    from 11/14 to the nearest endpoint are derived from it.
    """

    target = Fraction(11, 14)
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


@_frozen
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


def exhaustion_report(max_doublings: int, p: Precision = DEFAULT_PRECISION) -> list[ExhaustionStep]:
    """Certify, step by step, that doubling more than halves both area gaps.

    Starting from the square, each step n -> 2n certifies on interval
    endpoints that circle - A_in(2n) < (circle - A_in(n)) / 2 and that
    A_circ(2n) - circle < (A_circ(n) - circle) / 2, with the circle area
    enclosed by an independent hexagon-chain computation, which picks its
    own digits.  The square chain runs once, at ``p`` or at
    max_doublings + 2 working digits if that is more; a halving still
    not certified raises `PrecisionError`.
    """
    _check_int(max_doublings, "max_doublings")
    if max_doublings < 1:
        raise ValueError("max_doublings must be at least 1")
    p = _at_least(p, max_doublings + 2)
    # The circle area (unit radius) enclosed well below the final gap size.
    final_gap = Fraction(4) / 4 ** max_doublings
    pi_b = pi_bounds(target_width=final_gap / 10 ** 6, p=p)
    circle = Interval(pi_b.lower, pi_b.upper)

    # For unit radius the circumscribed n-gon's area equals its perimeter/diameter ratio.
    S = 10 ** _working_digits(p)
    gaps = (
        (n, circle - _on_grid(S, *_inscribed_area(n, p, lo, hi)), _on_grid(S, c_lo, c_hi) - circle)
        for n, lo, hi, c_lo, c_hi in islice(_chain_from(4, p), max_doublings + 1)
    )
    steps: list[ExhaustionStep] = []
    for (n, in_before, circ_before), (_, in_after, circ_after) in pairwise(gaps):
        step = ExhaustionStep(n, in_before, in_after, circ_before, circ_after)
        if not (step.inscribed_halved and step.circumscribed_halved):
            raise PrecisionError(f"halving not certifiable at {n} -> {step.sides_after} sides")
        steps.append(step)
    return steps


def fibonacci_identity_check(n: int, p: Precision = DEFAULT_PRECISION) -> Interval:
    """Enclose (radius * half-perimeter of the n-gon) - (area of the 2n-gon).

    For the unit radius the first factor reduces to the inscribed
    perimeter ratio i_n, while the 2n-gon area comes from the
    independent apothem route, so the returned interval is a genuine
    certificate that the two quantities agree; it must contain zero.
    """
    _check_int(n, "n")
    (_, i_lo, i_hi, _, _), (sides, j_lo, j_hi, _, _) = islice(_chain_from(n, p), 2)
    a_lo, a_hi = _inscribed_area(sides, p, j_lo, j_hi)
    return _on_grid(10 ** _working_digits(p), i_lo - a_hi, i_hi - a_lo)
