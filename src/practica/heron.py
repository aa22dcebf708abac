"""Triangle area by the semiperimeter rule, exactly and with certificates.

Two routes are kept deliberately separate so they can check each other:
the product s(s-a)(s-b)(s-c) evaluated from side lengths, and the
squared-area symmetric polynomial evaluated from vertex coordinates
(which stays exact even when the side lengths themselves are
irrational).  ``verify_heron_identity`` rebuilds the incenter
configuration behind the rule's classical proof and certifies its key
identity numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Point2, PointBounds, dist_sq, orient
from .numerics import DEFAULT_PRECISION, Interval, Precision, interval_sqrt, rat_sqrt_bounds


@dataclass(frozen=True)
class TriangleSides:
    """Three side lengths forming a strict (non-degenerate) triangle."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        a, b, c = Fraction(self.a), Fraction(self.b), Fraction(self.c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if min(a, b, c) <= 0:
            raise ValueError("side lengths must be positive")
        if a + b <= c or b + c <= a or a + c <= b:
            raise ValueError(
                f"sides {a}, {b}, {c} violate the strict triangle inequality"
            )

    @property
    def semiperimeter(self) -> Fraction:
        return (self.a + self.b + self.c) / 2


@dataclass(frozen=True)
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
    sixteen_area_sq = (
        2 * a2 * b2 + 2 * b2 * c2 + 2 * c2 * a2 - a2 * a2 - b2 * b2 - c2 * c2
    )
    return sixteen_area_sq / 16


@dataclass(frozen=True)
class HeronIdentityReport:
    """Certified residuals from the incenter construction.

    identity_residual encloses (DE)**2 (AH)**2 - (AH)(EB)(BH)(AE) and must
    contain zero; perp_sq are the squared distances from the incenter to
    the three sides; perp_residuals are their pairwise differences.
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


def _point_on_segment(p1: Point2, p2: Point2, t: Interval) -> PointBounds:
    return PointBounds(
        t * (p2.x - p1.x) + p1.x,
        t * (p2.y - p1.y) + p1.y,
    )


def _dist_sq_bounds(a: PointBounds, b: PointBounds) -> Interval:
    return (a.x - b.x).square() + (a.y - b.y).square()


def _perp_dist_sq(d: PointBounds, p: Point2, q: Point2) -> Interval:
    # squared distance from d to line (p, q): cross(q-p, d-p)**2 / |q-p|**2
    vx, vy = q.x - p.x, q.y - p.y
    cross = (d.y - p.y) * vx - (d.x - p.x) * vy
    return cross.square() / dist_sq(p, q)


def verify_heron_identity(
    t: TriangleVertices, p: Precision = DEFAULT_PRECISION
) -> HeronIdentityReport:
    """Rebuild the incenter configuration and certify its area identity.

    D is the intersection of the interior angle bisectors (computed from
    the side-length weights; exactly when all three sides are rational,
    otherwise through interval enclosures of the lengths).  E is the
    foot of the perpendicular from D on side p1p2, and H extends that
    side beyond p2 by the tangent length s - c.  The report encloses
    (DE)**2 (AH)**2 - (AH)(EB)(BH)(AE), which the classical proof shows is
    zero, and the pairwise differences of the three perpendicular
    distances from D to the sides, which are all the inradius.
    """
    p1, p2, p3 = t.p1, t.p2, t.p3
    a = rat_sqrt_bounds(dist_sq(p2, p3), p)  # opposite p1
    b = rat_sqrt_bounds(dist_sq(p1, p3), p)  # opposite p2
    c = rat_sqrt_bounds(dist_sq(p1, p2), p)  # opposite p3
    perimeter = a + b + c
    s = perimeter / 2

    incenter = PointBounds(
        (a * p1.x + b * p2.x + c * p3.x) / perimeter,
        (a * p1.y + b * p2.y + c * p3.y) / perimeter,
    )

    # Foot of the perpendicular from the incenter on side p1p2.
    c_sq = dist_sq(p1, p2)
    tau = (
        (incenter.x - p1.x) * (p2.x - p1.x) + (incenter.y - p1.y) * (p2.y - p1.y)
    ) / c_sq
    foot = _point_on_segment(p1, p2, tau)
    # H on ray p1->p2, beyond p2 by the tangent length s - c.
    h_param = (c + (s - c)) / c  # = s/c, kept in construction form
    h_point = _point_on_segment(p1, p2, h_param)

    de_sq = _dist_sq_bounds(incenter, foot)
    ae = interval_len(foot, p1, p)
    eb = interval_len(foot, p2, p)
    bh = interval_len(h_point, p2, p)
    ah = interval_len(h_point, p1, p)

    identity_residual = de_sq * ah.square() - ah * eb * bh * ae

    perp_sq = (
        _perp_dist_sq(incenter, p1, p2),
        _perp_dist_sq(incenter, p2, p3),
        _perp_dist_sq(incenter, p3, p1),
    )
    perp_residuals = (
        perp_sq[0] - perp_sq[1],
        perp_sq[1] - perp_sq[2],
        perp_sq[2] - perp_sq[0],
    )
    return HeronIdentityReport(
        incenter=incenter,
        de_sq=de_sq,
        ae=ae,
        eb=eb,
        bh=bh,
        ah=ah,
        identity_residual=identity_residual,
        perp_sq=perp_sq,
        perp_residuals=perp_residuals,
    )


def interval_len(a: PointBounds, b: Point2, p: Precision = DEFAULT_PRECISION) -> Interval:
    """Enclosure of the distance between an interval point and an exact point."""
    return interval_sqrt((a.x - b.x).square() + (a.y - b.y).square(), p)
