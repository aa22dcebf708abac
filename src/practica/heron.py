"""Triangle area by the semiperimeter rule, exactly, with its proof decided.

Two routes are kept deliberately separate so they can check each other:
the product s(s-a)(s-b)(s-c) evaluated from side lengths, and the
squared-area symmetric polynomial evaluated from vertex coordinates
(which stays exact even when the side lengths themselves are
irrational).  ``verify_heron_identity`` rebuilds the incenter
configuration behind the rule's classical proof (Heron, *Metrica* I.8)
and decides its key identity as an element of Z[√A, √B, √C] (A, B, C
the squared sides): evaluation into the reals is a ring homomorphism,
so a zero element proves it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .geometry import Point2, PointBounds, dist_sq, orient
from .numerics import DEFAULT_PRECISION, Interval, Precision, rat_sqrt_bounds
from .numerics import _frozen, _to_rational


@_frozen
class TriangleSides:
    """Three side lengths forming a strict (non-degenerate) triangle."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        for name in "abc":
            object.__setattr__(self, name, _to_rational(getattr(self, name)))
        a, b, c = self.a, self.b, self.c
        if min(a, b, c) <= 0:
            raise ValueError("side lengths must be positive")
        if a + b <= c or b + c <= a or a + c <= b:
            raise ValueError(f"sides {a}, {b}, {c} violate the strict triangle inequality")

    @property
    def semiperimeter(self) -> Fraction:
        return (self.a + self.b + self.c) / 2


@_frozen
class TriangleVertices:
    """Three exact rational vertices, rejected when collinear."""

    p1: Point2
    p2: Point2
    p3: Point2

    def __post_init__(self) -> None:
        if orient(self.p1, self.p2, self.p3) == 0:
            raise ValueError("vertices are collinear")


def heron_product(t: TriangleSides) -> Fraction:
    """The pre-square-root product s(s-a)(s-b)(s-c), exactly."""
    s = t.semiperimeter
    return s * (s - t.a) * (s - t.b) * (s - t.c)


def heron_area_bounds(t: TriangleSides, p: Precision = DEFAULT_PRECISION) -> Interval:
    """Certified enclosure of the area sqrt(s(s-a)(s-b)(s-c))."""
    return rat_sqrt_bounds(heron_product(t), p)


def heron_area_sq_from_vertices(t: TriangleVertices) -> Fraction:
    """Exact squared area from vertices via 16*A**2 = 2a2b2+2b2c2+2c2a2-a4-b4-c4.

    The symmetric form needs only the squared side lengths, so it is an
    exact rational even when the sides are irrational.
    """
    a2 = dist_sq(t.p2, t.p3)
    b2 = dist_sq(t.p1, t.p3)
    c2 = dist_sq(t.p1, t.p2)
    sixteen_area_sq = 2 * a2 * b2 + 2 * b2 * c2 + 2 * c2 * a2 - a2 * a2 - b2 * b2 - c2 * c2
    return sixteen_area_sq / 16


@_frozen
class HeronIdentityReport:
    """The incenter construction, in the triangle's own units.

    identity_residual encloses DE**4 AH**2 - EB**2 BH**2 AE**2, the
    squared form of the proof's DE**2 AH**2 = AH EB BH AE (equivalent,
    as AH > 0 and every length is >= 0).  perp_sq are the squared
    distances from the incenter to the three sides, and perp_residuals
    their pairwise differences.  A residual is exactly [0, 0] when its
    ring element is 0, which proves its identity.
    """

    incenter: PointBounds
    de_sq: Interval
    ae: Interval
    eb: Interval
    bh: Interval
    ah: Interval
    identity_residual: Interval
    perp_sq: tuple[Interval, Interval, Interval]
    perp_residuals: tuple[Interval, Interval, Interval]


# Z[√A, √B, √C] for integer radicands: an element is 8 integer
# coefficients, coefficient m (a bitmask, 1: A, 2: B, 4: C) being that of
# the product of the square roots of the radicands in m.
_PERIMETER = [0, 1, 1, 0, 1, 0, 0, 0]  # P = √A + √B + √C
_ZERO = Interval.point(0)  # shared by every quotient whose enclosure is (0, 0)
_GUARD_DIGITS = 10


class _Ring:
    """Z[√A, √B, √C], each monomial enclosed on the grid 1/scale."""

    def __init__(self, a: int, b: int, c: int, scale: int) -> None:
        self.radicands = [(a if m & 1 else 1) * (b if m & 2 else 1) * (c if m & 4 else 1)
                          for m in range(8)]
        self.roots = []
        for r in self.radicands:
            n = r * scale * scale
            root = math.isqrt(n)
            self.roots.append((root, root + (root * root != n)))

    def mul(self, x: list[int], y: list[int]) -> list[int]:
        # √X·√X = X: monomials i and j multiply to i ^ j times the radicands of i & j.
        out = [0] * 8
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        out[i ^ j] += xi * yj * self.radicands[i & j]
        return out

    def times_sqrt_c(self, x: list[int]) -> list[int]:
        """x·√C: monomial m moves to m ^ 4, times C where m holds √C."""
        c = self.radicands[4]
        return [x[4] * c, x[5] * c, x[6] * c, x[7] * c, x[0], x[1], x[2], x[3]]

    def enclose(self, x: list[int]) -> tuple[int, int]:
        """Integer ends lo, hi with x in [lo, hi] / scale."""
        lo = hi = 0
        for k, (root_lo, root_hi) in zip(x, self.roots):
            if k:
                lo += k * (root_lo if k > 0 else root_hi)
                hi += k * (root_hi if k > 0 else root_lo)
        return lo, hi

    def quotient(self, x: list[int], den: tuple[int, int], k: int, shift: int = 0) -> Interval:
        """x / (y·k) + shift / k, for ints k > 0 and shift, and a y > 0 in
        [den[0], den[1]] / scale; each end one Fraction, and [0, 0] shared."""
        lo, hi = self.enclose(x)
        if lo == hi == shift == 0:
            return _ZERO
        lo_den, hi_den = den[lo >= 0], den[hi < 0]
        return Interval._of(Fraction(lo + shift * lo_den, lo_den * k),
                            Fraction(hi + shift * hi_den, hi_den * k))


def _identity(ring: _Ring, d: list[list[int]], v: tuple[int, int], h2: list[int]):
    """The proof's elements on the side from the origin to v, C = |v|**2:
    (P·C)**2 DE**2, P·C·AE, P·C·EB, 2C·AH, 2C·BH and the residual times
    4 P**4 C**6.  E = tau·v is the foot from D, with T = P·C·tau = P·D·v."""
    c_sq = v[0] * v[0] + v[1] * v[1]
    tee = [v[0] * x + v[1] * y for x, y in zip(*d)]
    de = [[c_sq * x - vi * t for x, t in zip(di, tee)] for di, vi in zip(d, v)]
    de_sq = [x + y for x, y in zip(ring.mul(de[0], de[0]), ring.mul(de[1], de[1]))]
    ae, eb, ah, bh = map(ring.times_sqrt_c, (
        tee, [c_sq * q - t for q, t in zip(_PERIMETER, tee)], h2, [h2[0] - 2 * c_sq, *h2[1:]]))
    # DE**4 AH**2 - EB**2 BH**2 AE**2 = (l - r)(l + r), l = DE**2 AH, r = EB BH AE
    lhs, rhs = ring.mul(de_sq, ah), ring.mul(ring.mul(eb, bh), ae)
    return de_sq, ae, eb, ah, bh, ring.mul([l - r for l, r in zip(lhs, rhs)],
                                           [l + r for l, r in zip(lhs, rhs)])


def verify_heron_identity(
    t: TriangleVertices, p: Precision = DEFAULT_PRECISION
) -> HeronIdentityReport:
    """Rebuild the incenter configuration and decide its area identity.

    D is the intersection of the interior angle bisectors, weighted by
    the side lengths.  E is the foot of the perpendicular from D on side
    p1p2, and H extends that side beyond p2 by the tangent length s - c.
    The classical proof shows DE**2 AH**2 = AH EB BH AE, and that D is
    equally far from the three sides.

    The vertices are scaled to integers by the lcm of their
    denominators, and each division is cleared by multiplying through by
    P = a + b + c, C = c**2 or 2C, so both identities become elements of
    Z[√A, √B, √C] (A, B, C the squared sides), on integers.  Evaluation
    into the reals is a ring homomorphism, so an element that is 0
    proves its identity, whatever the radicands are, and its residual
    is exactly [0, 0], with no Fraction built.  Every other end is one
    Fraction, from the monomials' square roots on the grid 10**-(p + 10).
    """
    scale = math.lcm(*(q.denominator for pt in (t.p1, t.p2, t.p3) for q in (pt.x, pt.y)))
    (x1, y1), (x2, y2), (x3, y3) = ([q.numerator * (scale // q.denominator) for q in (pt.x, pt.y)]
                                    for pt in (t.p1, t.p2, t.p3))
    # p1 at the origin; the sides p1p2, p2p3 and p3p1, of squared lengths C, A and B.
    v, u = (x2 - x1, y2 - y1), (x3 - x1, y3 - y1)
    sides = (((0, 0), v), (v, u), (u, (0, 0)))
    c, a, b = sides_sq = [(xb - xa) ** 2 + (yb - ya) ** 2 for (xa, ya), (xb, yb) in sides]
    ring = _Ring(a, b, c, 10 ** (p.decimal_digits + _GUARD_DIGITS))
    # P·D = b·p2 + c·p3, and H = h·p2 with 2C·h = 2·AH·c = P·c, AH = c + (s - c) = s.
    d = [[0, 0, v[i], 0, u[i], 0, 0, 0] for i in (0, 1)]
    de_sq, ae, eb, ah, bh, identity = _identity(ring, d, v, ring.times_sqrt_c(_PERIMETER))
    # P·(D - p_i) x side i, squared: perp_sq[i] times P**2 |side i|**2.
    cross = [[0, k, dx * v[1] + dy * v[0] + k, 0, dx * u[1] + dy * u[0] + k, 0, 0, 0]
             for dx, dy, k in ((xb - xa, ya - yb, xa * yb - ya * xb)
                               for (xa, ya), (xb, yb) in sides)]
    cross_sq = [ring.mul(x, x) for x in cross]
    p_sq = [a + b + c, 0, 0, 2, 0, 2, 2, 0]  # P**2
    per, per_sq, one = ring.enclose(_PERIMETER), ring.enclose(p_sq), ring.roots[0]
    length = scale * c  # P·C·AE / (P·length) is AE in the triangle's units
    return HeronIdentityReport(
        incenter=PointBounds(*(ring.quotient(x, per, scale, q) for x, q in zip(d, (x1, y1)))),
        de_sq=ring.quotient(de_sq, per_sq, length * length),
        ae=ring.quotient(ae, per, length),
        eb=ring.quotient(eb, per, length),
        ah=ring.quotient(ah, one, 2 * length),
        bh=ring.quotient(bh, one, 2 * length),
        identity_residual=ring.quotient(identity, ring.enclose(ring.mul(p_sq, p_sq)),
                                        4 * length ** 6),
        perp_sq=tuple(ring.quotient(x, per_sq, n * scale * scale)
                      for x, n in zip(cross_sq, sides_sq)),
        perp_residuals=tuple(
            ring.quotient([n * x - m * y for x, y in zip(cross_sq[i], cross_sq[j])], per_sq,
                          m * n * scale * scale)
            for i, j, m, n in ((0, 1, c, a), (1, 2, a, b), (2, 0, b, c))
        ),
    )
