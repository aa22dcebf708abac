import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from practica.geometry import Point2, dist_sq, orient
from practica.heron import (
    TriangleSides,
    TriangleVertices,
    heron_area_bounds,
    heron_area_sq_from_vertices,
    heron_product,
    verify_heron_identity,
)
from practica.numerics import Precision

coords = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def shoelace_area_sq(p1: Point2, p2: Point2, p3: Point2) -> Fraction:
    return (orient(p1, p2, p3) / 2) ** 2


def test_three_four_five():
    t = TriangleSides(3, 4, 5)
    assert t.semiperimeter == 6
    assert heron_product(t) == 36
    area = heron_area_bounds(t)
    assert area.lo == area.hi == 6


def test_figure_triangle_area_squared_is_25():
    t = TriangleVertices(Point2(0, 0), Point2(5, 0), Point2(1, 2))
    assert heron_area_sq_from_vertices(t) == 25
    assert shoelace_area_sq(t.p1, t.p2, t.p3) == 25


def test_equilateral_product_is_irrational_area():
    t = TriangleSides(2, 2, 2)
    assert heron_product(t) == 3
    area = heron_area_bounds(t, Precision(25))
    # sqrt(3) enclosure
    assert area.lo ** 2 <= 3 <= area.hi ** 2
    assert area.width <= Fraction(1, 10 ** 24)


@given(coords, coords, coords, coords, coords, coords)
def test_vertex_area_squared_matches_shoelace_exactly(x1, y1, x2, y2, x3, y3):
    p1, p2, p3 = Point2(x1, y1), Point2(x2, y2), Point2(x3, y3)
    if orient(p1, p2, p3) == 0:
        with pytest.raises(ValueError):
            TriangleVertices(p1, p2, p3)
        return
    t = TriangleVertices(p1, p2, p3)
    assert heron_area_sq_from_vertices(t) == shoelace_area_sq(p1, p2, p3)


def test_two_hundred_random_triangles_zero_tolerance():
    rng = random.Random(4759)
    checked = 0
    while checked < 200:
        pts = [
            Point2(
                Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 1000)),
                Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 1000)),
            )
            for _ in range(3)
        ]
        if orient(*pts) == 0:
            continue
        t = TriangleVertices(*pts)
        assert heron_area_sq_from_vertices(t) == shoelace_area_sq(*pts)
        checked += 1


def test_triangle_inequality_enforced():
    for bad in [(1, 1, 3), (1, 2, 3), (0, 4, 5), (-3, 4, 5)]:
        with pytest.raises(ValueError):
            TriangleSides(*bad)


def test_sides_accept_rationals():
    t = TriangleSides(Fraction(3, 2), 2, Fraction(5, 2))
    assert heron_product(t) == Fraction(9, 4)  # scaled 3-4-5: area 3/2


# --- the incenter identity ----------------------------------------------


def test_identity_exact_for_right_triangle():
    # rational side lengths make every construction step exact
    report = verify_heron_identity(TriangleVertices(Point2(0, 0), Point2(5, 0), Point2(1, 2)))
    # (5,0)-(0,0)-(1,2) has sides 5, sqrt(5), sqrt(20): not all rational,
    # so this one certifies through intervals instead
    assert report.identity_residual.contains(0)


def test_identity_exact_zero_for_rational_sides():
    # 3-4-5 placed on the axes: all lengths rational, residual exactly [0,0]
    tri = TriangleVertices(Point2(0, 0), Point2(3, 0), Point2(0, 4))
    report = verify_heron_identity(tri)
    assert report.identity_residual.lo == 0
    assert report.identity_residual.hi == 0
    for r in report.perp_residuals:
        assert r.lo == 0 and r.hi == 0


def test_identity_interval_for_irrational_sides():
    tri = TriangleVertices(Point2(0, 0), Point2(5, 0), Point2(1, 2))
    report = verify_heron_identity(tri, Precision(30))
    assert report.identity_residual.contains(0)
    assert report.identity_residual.width < Fraction(1, 10 ** 15)
    for r in report.perp_residuals:
        assert r.contains(0)


def test_incenter_equidistance_certified():
    tri = TriangleVertices(Point2(-3, 1), Point2(4, 2), Point2(1, 7))
    report = verify_heron_identity(tri, Precision(25))
    assert all(r.contains(0) for r in report.perp_residuals)
    # the incenter itself must be strictly inside: all barycentric signs equal
    assert report.incenter.x.width < Fraction(1, 10 ** 20)


def test_segment_lengths_positive():
    tri = TriangleVertices(Point2(0, 0), Point2(7, 1), Point2(2, 5))
    report = verify_heron_identity(tri)
    for seg in (report.ae, report.eb, report.bh, report.ah):
        assert seg.lo > 0


# --- plane primitives -----------------------------------------------------


def test_orient_and_collinear():
    a, b = Point2(0, 0), Point2(2, 2)
    assert orient(a, b, Point2(0, 1)) > 0
    assert orient(a, b, Point2(1, 0)) < 0
    assert orient(a, b, Point2(7, 7)) == 0


def test_dist_sq_exact():
    assert dist_sq(Point2(0, 0), Point2(3, 4)) == 25
    assert dist_sq(Point2(Fraction(1, 2), 0), Point2(0, Fraction(1, 2))) == Fraction(1, 2)
