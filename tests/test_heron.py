import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from practica import heron
from practica.geometry import Point2, PointBounds, dist_sq, orient
from practica.heron import (
    HeronIdentityReport,
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
    # irrational
    tri = TriangleVertices(Point2(0, 0), Point2(5, 0), Point2(1, 2))
    assert _decided_zero(verify_heron_identity(tri))


def test_identity_exact_zero_for_rational_sides():
    # 3-4-5 placed on the axes: all lengths rational, residual exactly [0,0]
    tri = TriangleVertices(Point2(0, 0), Point2(3, 0), Point2(0, 4))
    report = verify_heron_identity(tri)
    assert report.identity_residual.lo == 0
    assert report.identity_residual.hi == 0
    for r in report.perp_residuals:
        assert r.lo == 0 and r.hi == 0


def test_identity_interval_for_irrational_sides():
    # the same triangle at 30 digits: the residuals are still exactly zero,
    # so the enclosures are degenerate, not merely narrow
    tri = TriangleVertices(Point2(0, 0), Point2(5, 0), Point2(1, 2))
    report = verify_heron_identity(tri, Precision(30))
    assert report.identity_residual.contains(0)
    assert report.identity_residual.width < Fraction(1, 10 ** 15)
    assert _decided_zero(report)


def test_identity_exact_for_a_scalene_triangle():
    # (-3,1)-(4,2)-(1,7) has sides sqrt(50), sqrt(34) and sqrt(52), no two
    # of them in a rational ratio: the identity and the incenter's
    # equidistance from the sides are still decided exactly, and the
    # incenter itself is enclosed to the working precision
    tri = TriangleVertices(Point2(-3, 1), Point2(4, 2), Point2(1, 7))
    report = verify_heron_identity(tri, Precision(25))
    assert _decided_zero(report)
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


@st.composite
def coord_triangles(draw):
    points = [(draw(coords), draw(coords)) for _ in range(3)]
    assume(orient(*(Point2(*q) for q in points)) != 0)
    return _figure(*points)


@given(st.one_of(right_triangles(), isosceles_triangles(), square_product_triangles()))
def test_special_radicands_decide_exactly_zero(tri):
    # Square radicands or square products make the monomials dependent;
    # the ring element is still identically 0.
    assert _decided_zero(verify_heron_identity(tri, Precision(10)))


# Ring elements for the tests: 1, √B and √C, and their integer combinations.
_ONE, _SQRT_B, _SQRT_C = ([int(m == k) for m in range(8)] for k in (0, 2, 4))


def _lin(*terms: tuple[int, list[int]]) -> list[int]:
    """The integer combination of elements sum(k * x) over (k, x) terms."""
    out = [0] * 8
    for k, x in terms:
        out = [o + k * xm for o, xm in zip(out, x)]
    return out


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
    # the √C product is the ring product by √C
    assert ring.times_sqrt_c(x) == ring.mul(x, _SQRT_C)
    # and is enclosed exactly: each monomial's ceiling root is its floor root
    assert ring.enclose(x) == (10 * value(x), 10 * value(x))


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
        ring.mul(_lin((2, _SQRT_C), (1, heron._PERIMETER), (-2, _SQRT_B)), _SQRT_C),
    ),
    # P·D doubled.
    "scale": lambda ring, d, v, h2: (ring, [_lin((2, x)) for x in d], v, h2),
    # The foot dropped on p2's reflection in the diagonal.
    "side vector": lambda ring, d, v, h2: (ring, d, (v[1], v[0]), h2),
}


class _ReferenceRing:
    """Z[√A, √B, √C] as the ring was first built: every product a full
    8-by-8 product, and every quotient two fresh Fractions."""

    def __init__(self, a: int, b: int, c: int, scale: int) -> None:
        self.radicands = [(a if m & 1 else 1) * (b if m & 2 else 1) * (c if m & 4 else 1)
                          for m in range(8)]
        self.roots = []
        for r in self.radicands:
            n = r * scale * scale
            root = math.isqrt(n)
            self.roots.append((root, root + (root * root != n)))

    def mul(self, x, y):
        out = [0] * 8
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                out[i ^ j] += xi * yj * self.radicands[i & j]
        return out

    def enclose(self, x):
        lo = hi = 0
        for k, (root_lo, root_hi) in zip(x, self.roots):
            lo += k * (root_lo if k > 0 else root_hi)
            hi += k * (root_hi if k > 0 else root_lo)
        return lo, hi

    def quotient(self, x, den, k):
        lo, hi = self.enclose(x)
        return Interval(Fraction(lo, (den[1] if lo >= 0 else den[0]) * k),
                        Fraction(hi, (den[0] if hi >= 0 else den[1]) * k))


def _reference_report(t: TriangleVertices, p: Precision) -> HeronIdentityReport:
    """The incenter report built on Fractions and ``_lin`` combinations."""
    p1, per_b = t.p1, heron._PERIMETER
    scale = math.lcm(*(q.denominator for pt in (p1, t.p2, t.p3) for q in (pt.x, pt.y)))
    v, u = ((int((q.x - p1.x) * scale), int((q.y - p1.y) * scale)) for q in (t.p2, t.p3))
    sides = (((0, 0), v), (v, u), (u, (0, 0)))
    sides_sq = [(x1 - x0) ** 2 + (y1 - y0) ** 2 for (x0, y0), (x1, y1) in sides]
    ring = _ReferenceRing(sides_sq[1], sides_sq[2], sides_sq[0], 10 ** (p.decimal_digits + 10))
    d = [_lin((v[i], _SQRT_B), (u[i], _SQRT_C)) for i in (0, 1)]
    h2 = ring.mul(_lin((2, _SQRT_C), (1, per_b), (-2, _SQRT_C)), _SQRT_C)
    c_sq = sides_sq[0]
    tee = _lin((v[0], d[0]), (v[1], d[1]))
    de = [_lin((c_sq, d[i]), (-v[i], tee)) for i in (0, 1)]
    de_sq = _lin((1, ring.mul(de[0], de[0])), (1, ring.mul(de[1], de[1])))
    ae, eb, ah, bh = (
        ring.mul(x, _SQRT_C)
        for x in (tee, _lin((c_sq, per_b), (-1, tee)), h2, _lin((1, h2), (-2 * c_sq, _ONE)))
    )
    lhs, rhs = ring.mul(de_sq, ah), ring.mul(ring.mul(eb, bh), ae)
    identity = ring.mul(_lin((1, lhs), (-1, rhs)), _lin((1, lhs), (1, rhs)))
    cross = [_lin((x1 - x0, d[1]), (y0 - y1, d[0]), (x0 * y1 - y0 * x1, per_b))
             for (x0, y0), (x1, y1) in sides]
    cross_sq = [ring.mul(x, x) for x in cross]
    p_sq = ring.mul(per_b, per_b)
    per, per_sq, one = ring.enclose(per_b), ring.enclose(p_sq), ring.enclose(_ONE)
    length = scale * c_sq
    return HeronIdentityReport(
        incenter=PointBounds(*(ring.quotient(x, per, scale) + q for x, q in zip(d, (p1.x, p1.y)))),
        de_sq=ring.quotient(de_sq, per_sq, length * length),
        ae=ring.quotient(ae, per, length),
        eb=ring.quotient(eb, per, length),
        ah=ring.quotient(ah, one, 2 * length),
        bh=ring.quotient(bh, one, 2 * length),
        identity_residual=ring.quotient(
            identity, ring.enclose(ring.mul(p_sq, p_sq)), 4 * length ** 6
        ),
        perp_sq=tuple(
            ring.quotient(x, per_sq, n * scale * scale) for x, n in zip(cross_sq, sides_sq)
        ),
        perp_residuals=tuple(
            ring.quotient(_lin((sides_sq[j], cross_sq[i]), (-sides_sq[i], cross_sq[j])), per_sq,
                          sides_sq[i] * sides_sq[j] * scale * scale)
            for i, j in ((0, 1), (1, 2), (2, 0))
        ),
    )


# Apex p1 = (1, 1) with B = C = 25: the incenter's x is p1's, so P·(D - p1)
# has the exact enclosure (0, 0) there, and the incenter end is 1, not 0.
_INCENTER_ABOVE_P1 = _figure((1, 1), (-2, 5), (4, 5))


def _with_reference_examples(test):
    for tri in _generator_triangles(25) + FIGURES + [_INCENTER_ABOVE_P1]:
        test = example(tri)(test)
    return test


@pytest.mark.parametrize("digits", [10, 30])
@given(st.one_of(coord_triangles(), right_triangles(), isosceles_triangles(),
                 square_product_triangles()))
@_with_reference_examples
def test_report_equals_the_ring_reference(digits, tri):
    # Square radicands (right, isosceles, square-product triangles) give
    # the ring zero divisors; the report is the reference's all the same.
    report = verify_heron_identity(tri, Precision(digits))
    expected = _reference_report(tri, Precision(digits))
    assert report == expected
    assert repr(report) == repr(expected)


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


@pytest.mark.parametrize("mutant", MUTANTS)
def test_identity_element_is_the_squared_form(monkeypatch, mutant):
    # (l - r)(l + r), l = DE**2 AH and r = EB BH AE, is the ring element
    # DE**4 AH**2 - EB**2 BH**2 AE**2; compared where it is not 0, on the
    # mutated constructions.
    real = heron._identity
    pairs = []

    def mutated(*args):
        ring = args[0]
        de_sq, ae, eb, ah, bh, element = real(*MUTANTS[mutant](*args))
        sq = [ring.mul(x, x) for x in (de_sq, ah, eb, bh, ae)]
        squared = _lin(
            (1, ring.mul(sq[0], sq[1])),
            (-1, ring.mul(ring.mul(sq[2], sq[3]), sq[4])),
        )
        pairs.append((element, squared))
        return real(*args)

    monkeypatch.setattr(heron, "_identity", mutated)
    for tri in _generator_triangles(5) + FIGURES:
        verify_heron_identity(tri, Precision(10))
    assert len(pairs) == 9
    assert all(any(element) and element == squared for element, squared in pairs)


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
        for name in value._fields:
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
