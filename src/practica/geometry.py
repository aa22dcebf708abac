"""Exact rational plane primitives shared by the construction modules."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numerics import Interval, _to_rational


@dataclass(frozen=True)
class Point2:
    """A plane point with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _to_rational(self.x))
        object.__setattr__(self, "y", _to_rational(self.y))


@dataclass(frozen=True)
class PointBounds:
    """A plane point whose coordinates are certified intervals."""

    x: Interval
    y: Interval


def dist_sq(p: Point2, q: Point2) -> Fraction:
    dx, dy = p.x - q.x, p.y - q.y
    return dx * dx + dy * dy


def orient(o: Point2, a: Point2, b: Point2) -> Fraction:
    """Twice the signed area of triangle (o, a, b); zero iff collinear."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
