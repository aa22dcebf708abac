import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from practica import heron
from practica.geometry import Point2, dist_sq, orient
from practica.heron import (
    TriangleSides,
    TriangleVertices,
    heron_area_bounds,
    heron_area_sq_from_vertices,
    heron_product,
    verify_heron_identity,
)
from practica.numerics import Interval, Precision, rat_sqrt_bounds

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


def _decided_zero(report) -> bool:
    return all(r.lo == r.hi == 0 for r in (report.identity_residual, *report.perp_residuals))


def test_identity_exact_for_right_triangle():
    # (0,0)-(5,0)-(1,2) has its right angle at (1,2) and sides 5, sqrt(5)
    # and sqrt(20): the ring decides the identity although two sides are
    # irrational.
    report = verify_heron_identity(TriangleVertices(Point2(0, 0), Point2(5, 0), Point2(1, 2)))
    assert _decided_zero(report)


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


small = st.integers(-30, 30)
offsets = st.fractions(min_value=-20, max_value=20, max_denominator=7)


def _figure(*points) -> TriangleVertices:
    return TriangleVertices(*(Point2(x, y) for x, y in points))


@st.composite
def right_triangles(draw):
    # Legs k(m^2 - n^2) and 2kmn, hypotenuse k(m^2 + n^2): every radicand a square.
    m = draw(st.integers(2, 9))
    n = draw(st.integers(1, m - 1))
    k = draw(st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5))
    ox, oy = draw(offsets), draw(offsets)
    corners = [(ox, oy), (ox + k * (m * m - n * n), oy), (ox, oy + 2 * k * m * n)]
    return _figure(*draw(st.permutations(corners)))


@st.composite
def isosceles_triangles(draw):
    # p3 on the perpendicular bisector of p1p2, so A = B.
    mx, my, wx, wy, h = draw(offsets), draw(offsets), draw(small), draw(small), draw(small)
    assume((wx, wy) != (0, 0) and h != 0)
    return _figure((mx - wx, my - wy), (mx + wx, my + wy), (mx - h * wy, my + h * wx))


@st.composite
def square_product_triangles(draw):
    # p1p3 = k(x, y) and p3p2 = j(y, x) have squared lengths B = k^2 N and
    # A = j^2 N, N = x^2 + y^2, so A*B is a square.
    ox, oy = draw(offsets), draw(offsets)
    x, y, k, j = (draw(small) for _ in range(4))
    p3 = (ox + k * x, oy + k * y)
    points = ((ox, oy), (p3[0] + j * y, p3[1] + j * x), p3)
    assume(orient(*(Point2(*q) for q in points)) != 0)
    return _figure(*points)


@given(st.one_of(right_triangles(), isosceles_triangles(), square_product_triangles()))
def test_special_radicands_decide_exactly_zero(tri):
    # Square radicands or square products make the monomials dependent;
    # the ring element is still identically 0.
    assert _decided_zero(verify_heron_identity(tri, Precision(10)))


@given(
    st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=8, max_size=8),
    st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=8, max_size=8),
    st.lists(st.integers(1, 10 ** 4), min_size=3, max_size=3),
)
def test_ring_product_matches_fraction_evaluation(x, y, roots):
    # With square radicands an element evaluates exactly, and evaluation
    # is multiplicative.
    ring = heron._Ring(*(r * r for r in roots), 10)

    def value(e):
        total = Fraction(0)
        for m, coeff in enumerate(e):
            monomial = Fraction(1)
            for bit, root in zip((1, 2, 4), roots):
                if m & bit:
                    monomial *= root
            total += coeff * monomial
        return total

    assert value(ring.mul(x, y)) == value(x) * value(y)


@given(
    st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=8, max_size=8),
    st.lists(st.integers(1, 10 ** 6), min_size=3, max_size=3),
)
def test_ring_enclosure_contains_the_element(x, radicands):
    def value(e):
        total = Interval.point(0)
        for m, coeff in enumerate(e):
            monomial = 1
            for bit, r in zip((1, 2, 4), radicands):
                if m & bit:
                    monomial *= r
            total = total + rat_sqrt_bounds(monomial, Precision(60)) * coeff
        return total

    ring = heron._Ring(*radicands, 10 ** 12)
    lo, hi = ring.enclose(x)
    assert Interval(Fraction(lo, 10 ** 12), Fraction(hi, 10 ** 12)).contains_interval(value(x))
    # On a coarse grid, x / (7P) still holds the true quotient.
    coarse = heron._Ring(*radicands, 10)
    quotient = coarse.quotient(x, coarse.enclose(heron._PERIMETER), 7)
    assert quotient.contains_interval(value(x) / (value(heron._PERIMETER) * 7))
    # One monomial with a negative coefficient: its lower end is the
    # ceiling root's.
    for m in range(1, 8):
        lo, hi = ring.enclose([-3 * (k == m) for k in range(8)])
        assert lo <= -3 * ring.roots[m][1] and hi >= -3 * ring.roots[m][0]


def _generator_triangles(count: int) -> list[TriangleVertices]:
    # Drawn as the certify benchmark draws its triangles (seed 905, as in criterion 08).
    rng = random.Random(905)
    triangles = []
    while len(triangles) < count:
        pts = [
            Point2(
                Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 4)),
                Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 4)),
            )
            for _ in range(3)
        ]
        if orient(*pts) != 0:
            triangles.append(TriangleVertices(*pts))
    return triangles


FIGURES = [
    _figure((0, 0), (5, 0), (1, 2)),
    _figure((0, 0), (3, 0), (0, 4)),
    _figure((0, 0), (4, 0), (2, 5)),
    _figure((0, 0), (2, 8), (1, 1)),
]

MUTANTS = {
    # H beyond p2 by s - b instead of s - c.
    "h offset": lambda ring, d, v, h2: (
        ring, d, v,
        ring.mul(heron._lin((2, heron._SQRT_C), (1, heron._PERIMETER), (-2, heron._SQRT_B)),
                 heron._SQRT_C),
    ),
    # P·D doubled.
    "scale": lambda ring, d, v, h2: (ring, [heron._lin((2, x)) for x in d], v, h2),
    # The foot dropped on p2's reflection in the diagonal.
    "side vector": lambda ring, d, v, h2: (ring, d, (v[1], v[0]), h2),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutated_constructions_give_nonzero_elements(monkeypatch, mutant):
    real = heron._identity
    elements = []

    def mutated(*args):
        elements.append(real(*MUTANTS[mutant](*args))[-1])
        return real(*args)

    monkeypatch.setattr(heron, "_identity", mutated)
    triangles = _generator_triangles(25) + FIGURES
    for tri in triangles:
        verify_heron_identity(tri, Precision(10))
    assert len(elements) == len(triangles)
    assert all(any(e) for e in elements)


def _overlap(x: Interval, y: Interval) -> bool:
    return x.lo <= y.hi and y.lo <= x.hi


@pytest.mark.parametrize("digits", [10, 30])
def test_segments_overlap_the_classical_tangent_lengths(digits):
    # AH = s, AE = s - a, EB = s - b, BH = s - c and DE^2 = r^2 =
    # (s - a)(s - b)(s - c)/s, from side enclosures at 10 more digits.
    for tri in _generator_triangles(10) + FIGURES:
        a, b, c = (rat_sqrt_bounds(dist_sq(p, q), Precision(digits + 10))
                   for p, q in ((tri.p2, tri.p3), (tri.p1, tri.p3), (tri.p1, tri.p2)))
        s = (a + b + c) / 2
        report = verify_heron_identity(tri, Precision(digits))
        assert _overlap(report.ah, s)
        assert _overlap(report.ae, s - a)
        assert _overlap(report.eb, s - b)
        assert _overlap(report.bh, s - c)
        assert _overlap(report.de_sq, (s - a) * (s - b) * (s - c) / s)
        assert all(seg.lo > 0 for seg in (report.ae, report.eb, report.bh, report.ah))


def _endpoints(value):
    if isinstance(value, Interval):
        yield value.lo
        yield value.hi
    elif isinstance(value, tuple):
        for item in value:
            yield from _endpoints(item)
    else:
        for name in value.__dataclass_fields__:
            yield from _endpoints(getattr(value, name))


def test_report_denominators_stay_small():
    for tri in _generator_triangles(50):
        report = verify_heron_identity(tri, Precision(30))
        assert max(q.denominator.bit_length() for q in _endpoints(report)) < 1000


# --- plane primitives -----------------------------------------------------


def test_orient_and_collinear():
    a, b = Point2(0, 0), Point2(2, 2)
    assert orient(a, b, Point2(0, 1)) > 0
    assert orient(a, b, Point2(1, 0)) < 0
    assert orient(a, b, Point2(7, 7)) == 0


def test_dist_sq_exact():
    assert dist_sq(Point2(0, 0), Point2(3, 4)) == 25
    assert dist_sq(Point2(Fraction(1, 2), 0), Point2(0, Fraction(1, 2))) == Fraction(1, 2)


def test_floats_and_strings_are_refused():
    with pytest.raises(TypeError):
        TriangleSides(0.1, 0.1, 0.1)
    with pytest.raises(TypeError):
        Point2(0.1, "1/3")
    with pytest.raises(TypeError):
        Point2(Fraction(1, 10), "1/3")
