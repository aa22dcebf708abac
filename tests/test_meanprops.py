import itertools
import math
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from practica import mean_proportionals
from practica.geometry import Point2
from practica.mean_proportionals import (
    DIOCLES,
    HERON_APOLLONIUS,
    METHODS,
    NICOMEDES,
    PHILO,
    BracketNotFoundError,
    MeanPropProblem,
    _apollonius_sign,
    _bisect,
    _cut_constants,
    _diocles_sign,
    _heron_sign,
    _intercept_sign,
    _philo_sign,
    _width_target,
    cissoid_arc_defect,
    cissoid_points,
    conchoid_points,
    conchoid_quartic_residual,
    scale_solid_ratio,
    solve_heron_apollonius,
    solve_philo,
)
from practica.numerics import PrecisionError, int_nth_root_floor


def cbrt(x: Fraction, digits: int = 30) -> Fraction:
    """Cube-root oracle on the 10**-digits grid (floor)."""
    scale = 10 ** digits
    return Fraction(int_nth_root_floor(x.numerator * scale ** 3 // x.denominator, 3), scale)


def check_result(res, ab: Fraction, bc: Fraction, tol: Fraction) -> None:
    oracle_y = bc * cbrt(ab / bc)
    assert abs(res.y.mid - oracle_y) <= max(tol * bc, Fraction(2, 10 ** 25))
    assert res.residual1.contains(0)
    assert res.residual2.contains(0)
    # cross-multiplied defects on midpoints, the documented bound
    assert abs(ab * res.y.mid - res.x.mid ** 2) <= tol * ab * ab
    assert abs(res.x.mid * bc - res.y.mid ** 2) <= tol * ab * ab


@pytest.mark.parametrize("name", [HERON_APOLLONIUS, PHILO, DIOCLES, NICOMEDES])
def test_cube_root_of_two(name):
    prob = MeanPropProblem(ab=Fraction(2), bc=Fraction(1))
    res = METHODS[name](prob)
    assert res.method == name
    check_result(res, Fraction(2), Fraction(1), prob.tol)
    assert abs(res.y.mid - cbrt(Fraction(2))) < Fraction(1, 10 ** 11)
    assert abs(res.x.mid - cbrt(Fraction(4))) < Fraction(1, 10 ** 11)


@pytest.mark.parametrize("name", [HERON_APOLLONIUS, PHILO, DIOCLES, NICOMEDES])
def test_equal_lines_trivial(name):
    res = METHODS[name](MeanPropProblem(ab=Fraction(5), bc=Fraction(5)))
    assert res.x.lo == res.x.hi == 5
    assert res.y.lo == res.y.hi == 5
    assert res.residual1.lo == res.residual1.hi == 0


@pytest.mark.parametrize("name", [HERON_APOLLONIUS, PHILO, DIOCLES, NICOMEDES])
def test_perfect_cube_ratios(name):
    for ab, bc, expect_y in [(8, 1, 2), (27, 1, 3), (1000, 1, 10)]:
        prob = MeanPropProblem(ab=Fraction(ab), bc=Fraction(bc))
        res = METHODS[name](prob)
        assert abs(res.y.mid - expect_y) <= prob.tol * max(1, bc) * 8


def test_swapped_order_gives_same_means():
    a = METHODS[PHILO](MeanPropProblem(ab=Fraction(2), bc=Fraction(1)))
    b = METHODS[PHILO](MeanPropProblem(ab=Fraction(1), bc=Fraction(2)))
    assert b.problem.swapped
    assert abs(a.x.mid - b.x.mid) < Fraction(1, 10 ** 11)


def test_apollonius_variant_matches_heron():
    prob = MeanPropProblem(ab=Fraction(17), bc=Fraction(3))
    h = solve_heron_apollonius(prob)
    ap = solve_heron_apollonius(prob, variant="apollonius")
    assert abs(h.x.mid - ap.x.mid) < 2 * prob.tol * prob.ab
    assert abs(h.y.mid - ap.y.mid) < 2 * prob.tol * prob.ab
    with pytest.raises(ValueError):
        solve_heron_apollonius(prob, variant="pappus")


def test_methods_pairwise_agreement_random():
    rng = random.Random(991)
    for _ in range(8):
        bc = Fraction(rng.randint(1, 50), rng.randint(1, 20))
        ratio = Fraction(rng.randint(1, 10 ** 4), rng.randint(1, 10))
        if ratio < 1:
            ratio = 1 / ratio
        ab = bc * ratio
        prob = MeanPropProblem(ab=ab, bc=bc)
        mids = [METHODS[m](prob).y.mid for m in METHODS]
        assert max(mids) - min(mids) <= 2 * prob.tol * ab
        # certified enclosures of the same true value must overlap
        intervals = [METHODS[m](prob).y for m in METHODS]
        assert max(iv.lo for iv in intervals) <= min(iv.hi for iv in intervals)


#: Every route by name, the apollonius variant included.
_ROUTES = {
    "heron": solve_heron_apollonius,
    "apollonius": lambda prob: solve_heron_apollonius(prob, variant="apollonius"),
    "philo": solve_philo,
    "diocles": METHODS[DIOCLES],
    "nicomedes": METHODS[NICOMEDES],
}


@pytest.mark.parametrize(
    "route, ab, bc, k",
    [
        pytest.param(route, ab, bc, 160, id=f"{route}-{ab}:{bc}-1e-160")
        for ab, bc in ((Fraction(2), Fraction(1)), (Fraction(7, 3), Fraction(5, 11)))
        for route in _ROUTES
    ]
    + [pytest.param("nicomedes", Fraction(2), Fraction(1), 100, id="nicomedes-2:1-1e-100")],
)
def test_tight_tolerances_enclose_the_means(route, ab, bc, k):
    # Bisection has no step budget, so very tight tolerances still return.
    prob = MeanPropProblem(ab=ab, bc=bc, tol=Fraction(1, 10 ** k))
    res = _ROUTES[route](prob)
    assert res.x.lo ** 3 <= ab * ab * bc <= res.x.hi ** 3
    assert res.y.lo ** 3 <= ab * bc * bc <= res.y.hi ** 3
    target = _width_target(prob)
    assert res.x.width <= target and res.y.width <= target


@pytest.mark.parametrize("k", range(2, 21), ids=lambda k: f"1+1e-{k}")
def test_ratios_near_one(k):
    # Near 1 nicomedes' root sits next to t = 0, where the sliding line is
    # parallel to the base line; the sign there is +1, so it still brackets.
    ab, bc = 1 + Fraction(1, 10 ** k), Fraction(1)
    prob = MeanPropProblem(ab=ab, bc=bc)
    target = _width_target(prob)
    for route, solve in _ROUTES.items():
        res = solve(prob)
        assert res.x.lo ** 3 <= ab * ab * bc <= res.x.hi ** 3, route
        assert res.y.lo ** 3 <= ab * bc * bc <= res.y.hi ** 3, route
        assert res.x.width <= target and res.y.width <= target, route


def test_ordering_of_means():
    prob = MeanPropProblem(ab=Fraction(11), bc=Fraction(2))
    for name in METHODS:
        res = METHODS[name](prob)
        assert prob.ab >= res.x.mid >= res.y.mid >= prob.bc


def test_problem_validation():
    with pytest.raises(ValueError):
        MeanPropProblem(ab=Fraction(0), bc=Fraction(1))
    with pytest.raises(ValueError):
        MeanPropProblem(ab=Fraction(2), bc=Fraction(-1))
    with pytest.raises(ValueError):
        MeanPropProblem(ab=Fraction(2), bc=Fraction(1), tol=Fraction(0))


def test_scale_solid_ratio():
    doubled = scale_solid_ratio(Fraction(1), Fraction(2))
    assert abs(doubled.mid - cbrt(Fraction(2))) < Fraction(1, 10 ** 11)
    assert scale_solid_ratio(Fraction(3), Fraction(1)).mid == 3
    tripled_edge = scale_solid_ratio(Fraction(2), Fraction(27), method=DIOCLES)
    assert abs(tripled_edge.mid - 6) < Fraction(1, 10 ** 10)
    halved = scale_solid_ratio(Fraction(1), Fraction(1, 8), method=PHILO)
    assert abs(halved.mid - Fraction(1, 2)) < Fraction(1, 10 ** 10)
    with pytest.raises(ValueError):
        scale_solid_ratio(Fraction(1), Fraction(2), method="compass")
    with pytest.raises(ValueError):
        scale_solid_ratio(Fraction(-1), Fraction(2))


# --- cissoid --------------------------------------------------------------


def test_cissoid_endpoints_exact():
    pts = cissoid_points(Fraction(1), 3)
    assert (pts[0].x.lo, pts[0].x.hi, pts[0].y.lo) == (1, 1, 0)  # E
    assert (pts[-1].x.lo, pts[-1].x.hi, pts[-1].y.lo) == (0, 0, -1)  # cusp


def test_cissoid_quadrant_midpoint():
    [pt] = cissoid_points(Fraction(1), 2, span=(Fraction(1, 2), Fraction(1)))[:1]
    # m = 1/2: x = sqrt(3)/2 * (1/3) = sqrt(3)/6
    assert pt.y.lo == pt.y.hi == Fraction(-1, 2)
    assert pt.x.lo ** 2 <= Fraction(3, 36) <= pt.x.hi ** 2
    assert cissoid_arc_defect(pt, Fraction(1)).contains(0)


def test_cissoid_mirror_symmetry_across_vertical_diameter():
    right = cissoid_points(Fraction(2), 5, span=(Fraction(1, 10), Fraction(9, 10)))
    left = cissoid_points(Fraction(2), 5, span=(Fraction(-9, 10), Fraction(-1, 10)))
    for a, b in zip(right, reversed(left)):
        assert a.y == b.y
        assert a.x.lo == -b.x.hi and a.x.hi == -b.x.lo


def test_cissoid_defining_property_everywhere():
    for pt in cissoid_points(Fraction(3, 2), 17, span=(Fraction(-1), Fraction(1))):
        assert cissoid_arc_defect(pt, Fraction(3, 2)).contains(0)


def test_cissoid_validation():
    with pytest.raises(ValueError):
        cissoid_points(Fraction(0), 5)
    with pytest.raises(ValueError):
        cissoid_points(Fraction(1), 1)
    with pytest.raises(ValueError):
        cissoid_points(Fraction(1), 5, span=(Fraction(-2), Fraction(1)))
    with pytest.raises(ValueError):
        cissoid_points(Fraction(1), 5, span=(Fraction(1), Fraction(0)))


# --- conchoid and neusis ----------------------------------------------------


def test_conchoid_vertical_sample_is_exact():
    pts = conchoid_points(Fraction(1), Fraction(3, 2), 2, (Fraction(0), Fraction(1)))
    assert (pts[0].x.lo, pts[0].x.hi) == (0, 0)
    assert pts[0].y.lo == pts[0].y.hi == Fraction(3, 2)


def test_conchoid_normalized_quartic():
    pts = conchoid_points(Fraction(1), Fraction(1), 50, (Fraction(0), Fraction(21)))
    for pt in pts:
        assert conchoid_quartic_residual(pt).contains(0)


def test_conchoid_heights_strictly_decrease():
    pts = conchoid_points(Fraction(1), Fraction(1), 40, (Fraction(0), Fraction(21)))
    for a, b in zip(pts, pts[1:]):
        assert b.y.hi < a.y.lo


def test_conchoid_validation():
    with pytest.raises(ValueError):
        conchoid_points(Fraction(0), Fraction(1), 5, (Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        conchoid_points(Fraction(1), Fraction(1), 5, (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        conchoid_points(Fraction(1), Fraction(0), 5, (Fraction(0), Fraction(21)))


def _sign_of(sign_at, t):
    """``sign_at(P, Q)`` at a Fraction t, reduced."""
    return sign_at(t.numerator, t.denominator)


def _stepwise(sign_at, lo, hi, accept):
    """Reference for ``_bisect``: call ``accept`` on every step of the
    bisection chain, built on Fractions.  A verdict of None or an int (an
    estimate of the halvings still lacking) is a refusal.  Returns
    (step, verdict)."""
    s_lo, s_hi = _sign_of(sign_at, lo), _sign_of(sign_at, hi)
    if s_lo * s_hi >= 0:
        raise BracketNotFoundError(
            f"defect signs {s_lo} at {lo} and {s_hi} at {hi} are not opposite"
        )
    bl, bh = lo, hi
    for step in itertools.count():
        verdict = accept(bl, bh)
        if verdict is not None and not isinstance(verdict, int):
            return step, verdict
        if bl == bh:
            raise PrecisionError("enclosure too wide at an exact root")
        mid = (bl + bh) / 2
        s_mid = _sign_of(sign_at, mid)
        if s_mid == 0:
            bl = bh = mid
        elif s_mid * s_lo < 0:
            bh = mid
        else:
            bl, s_lo = mid, s_mid


def _square_minus(c):
    """The sign of t*t - c at t = P/Q, as ``sign_at(P, Q)``."""

    def sign_at(P, Q):
        g = P * P * c.denominator - c.numerator * Q * Q  # (t*t - c) * Q**2 * c.denominator
        return (g > 0) - (g < 0)

    return sign_at


@given(
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(399, 100), max_denominator=10**6),
    st.integers(min_value=0, max_value=70),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=60, deadline=None)
def test_bisect_accepts_the_first_step_with_few_probes(c, j, m):
    # One root, sqrt(c), in [0, 2]; accepted once the bracket is narrow enough.
    width = Fraction(m, 2 ** j)
    calls = []
    sign_at = _square_minus(c)

    def accept(bl, bh):
        calls.append(bl)
        return (bl, bh) if bh - bl <= width else None

    found = _bisect(sign_at, Fraction(0), Fraction(2), accept)
    probes = len(calls)
    step, expected = _stepwise(sign_at, Fraction(0), Fraction(2), accept)
    assert found == expected
    assert probes <= 2 * (step + 1).bit_length() + 2  # 2*ceil(log2(step + 2)) + 2


#: What an ``accept`` may estimate when it refuses a bracket of width w
#: that must narrow to ``target``: the exact count of halvings still
#: lacking, none, always one, always far too many, that count off by a
#: few, or noise.
_ESTIMATES = {
    "exact": lambda w, target, rnd: (-(-w // target) - 1).bit_length(),
    "none": lambda w, target, rnd: None,
    "one": lambda w, target, rnd: 1,
    "huge": lambda w, target, rnd: 1000,
    "off": lambda w, target, rnd: (-(-w // target) - 1).bit_length() + rnd.randint(-3, 3),
    "random": lambda w, target, rnd: rnd.randint(-3, 150),
}


@given(
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(399, 100), max_denominator=10**6),
    st.integers(min_value=0, max_value=70),
    st.integers(min_value=1, max_value=9),
    st.sampled_from(sorted(_ESTIMATES)),
    st.randoms(use_true_random=False),
)
@settings(max_examples=120, deadline=None)
def test_bisect_returns_the_stepwise_verdict_whatever_the_estimates(c, j, m, kind, rnd):
    # The root sqrt(c) of test_bisect_accepts_the_first_step_with_few_probes,
    # with accepts that estimate the halvings they still lack.
    width = Fraction(m, 2 ** j)
    estimate = _ESTIMATES[kind]
    calls, estimates = [], [0]
    sign_at = _square_minus(c)

    def accept(bl, bh):
        calls.append(bl)
        if bh - bl <= width:
            return bl, bh
        e = estimate(bh - bl, width, rnd)
        estimates.append(e or 0)
        return e

    found = _bisect(sign_at, Fraction(0), Fraction(2), accept)
    probes, reach = len(calls), max(estimates)
    step, expected = _stepwise(sign_at, Fraction(0), Fraction(2), accept)
    assert found == expected
    if kind == "exact":
        assert probes <= 3  # the estimate, the step it names, the step before
    elif kind == "none":
        assert probes <= 2 * (step + 1).bit_length() + 2
    else:
        # The jumps at least double, so even a hostile estimate costs
        # O(log n) calls, n the furthest step it can send the kernel to.
        assert probes <= 3 * (max(step, reach) + 2).bit_length() + 3


def test_routes_settle_in_few_accept_calls(monkeypatch):
    # The estimates place the probes: on 25 criterion-07 problems every
    # route settles in at most 8 accept calls per solve, and the four
    # in at most 6 on average (12 to 13 with probes at 0, 1, 3, 7, ...).
    rng = random.Random(1462)
    problems = []
    for _ in range(25):
        den = rng.randint(1, 100)
        bc = Fraction(rng.randint(1, 1000), rng.randint(1, 100))
        problems.append(MeanPropProblem(ab=bc * Fraction(rng.randint(den, 10 ** 4 * den), den), bc=bc))
    kernel, calls = _bisect, []

    def counting(sign_at, lo, hi, accept):
        return kernel(sign_at, lo, hi, lambda bl, bh: calls.append(bl) or accept(bl, bh))

    monkeypatch.setattr(mean_proportionals, "_bisect", counting)
    per_solve = {}
    for name, solve in METHODS.items():
        calls.clear()
        for prob in problems:
            solve(prob)
        per_solve[name] = len(calls) / len(problems)
    assert max(per_solve.values()) <= 8, per_solve
    assert sum(per_solve.values()) / len(per_solve) <= 6, per_solve


@pytest.mark.parametrize(
    "sign_at, expected, message",
    [
        # an exact zero reached by bisection and never accepted
        (
            lambda P, Q: (2 * P > Q) - (2 * P < Q),
            PrecisionError,
            "enclosure too wide at an exact root",
        ),
        # the same sign at both ends: no bracket
        (
            lambda P, Q: (P > 2 * Q) - (P < 2 * Q),
            BracketNotFoundError,
            "defect signs -1 at 0 and -1 at 1 are not opposite",
        ),
        # a zero at an end is not a sign change either
        (
            lambda P, Q: (P > 0) - (P < 0),
            BracketNotFoundError,
            "defect signs 0 at 0 and 1 at 1 are not opposite",
        ),
    ],
    ids=["exact-root", "same-end-signs", "zero-at-an-end"],
)
def test_bisect_chain_ends_as_stepwise(sign_at, expected, message):
    def never(bl, bh):
        return None

    for kernel in (_bisect, _stepwise):
        with pytest.raises(expected, match=f"^{re.escape(message)}$"):
            kernel(sign_at, Fraction(0), Fraction(1), never)


_coord = st.fractions(min_value=-10, max_value=10, max_denominator=60)
_point = st.builds(Point2, _coord, _coord)


#: A figure for ``_intercept_sign``: two lines, a pole, a scale for L, a
#: direction parameter t, and whether line 1 runs along that direction.
_intercept_figure = (
    _point, _point, _point, _point, _point,
    st.one_of(
        st.just(Fraction(1)),
        st.fractions(min_value=Fraction(1, 2), max_value=2, max_denominator=60),
    ),
    st.fractions(min_value=-1, max_value=1, max_denominator=2 ** 20),
    st.booleans(),
)


def _intercept_case(a0, a1, b0, b1, z, scale, t, parallel):
    """The figure's integer sign function and the sign that explicit cut
    points give at t, or None when a line is degenerate."""
    dx, dy = 1 - t * t, 2 * t
    if parallel:  # line1 along the direction itself
        a1 = Point2(a0.x + 3 * dx, a0.y + 3 * dy)
    if a0 == a1 or b0 == b1:
        return None
    lines = ((a0, a1), (b0, b1))
    cuts = []
    for p0, p1 in lines:
        vx, vy = p1.x - p0.x, p1.y - p0.y
        den = dx * vy - dy * vx
        if den == 0:
            break
        lam = ((p0.x - z.x) * vy - (p0.y - z.y) * vx) / den
        cuts.append(Point2(z.x + lam * dx, z.y + lam * dy))
    if len(cuts) < 2:  # parallel to a line: the cut is unbounded
        L, expected = scale, 1
    else:
        q1, q2 = cuts
        cut_sq = (q1.x - q2.x) ** 2 + (q1.y - q2.y) ** 2
        # Both cuts lie on one rational ray, so the cut length is rational;
        # L near it (scale 1: equal to it) brings up both signs and ties.
        root = Fraction(math.isqrt(cut_sq.numerator), math.isqrt(cut_sq.denominator))
        assert root * root == cut_sq
        L = scale * root or scale
        g = cut_sq - L * L
        expected = (g > 0) - (g < 0)
    if parallel:
        assert expected == 1
    return _intercept_sign(_cut_constants(z, lines), L), expected


@given(*_intercept_figure)
@settings(max_examples=150, deadline=None)
def test_intercept_sign_matches_explicit_cut_points(a0, a1, b0, b1, z, scale, t, parallel):
    case = _intercept_case(a0, a1, b0, b1, z, scale, t, parallel)
    if case is not None:
        sign_at, expected = case
        assert _sign_of(sign_at, t) == expected


def _fraction_defects(a, c):
    """Each route's defect as its figure states it, over Fraction, with
    its scan range: the reference for the integer signs."""
    base = (a * a - c * c) / 4

    def heron(u):  # EF**2 - EG**2, E = (c/2, a/2), F = (-a/u, a), G = (c, -u*c)
        return (c / 2 + a / u) ** 2 + (a / 2 - a) ** 2 - (c / 2 - c) ** 2 - (a / 2 + u * c) ** 2

    def apollonius(sigma):
        q = a / 2 + a * c / (sigma - c / 2)
        return sigma * sigma + base - q * q

    def philo(u):  # BG - OF along the line through B
        t_o = (c - u * a) / (1 + u * u)
        return c - (t_o - -a / u)

    def diocles(m):
        return a * a * (a - m) ** 3 - c * c * (a + m) ** 3

    u_hi = Fraction(int_nth_root_floor(math.ceil(a / c), 3) + 1)
    return {
        "heron": (_heron_sign, heron, Fraction(1, 2), u_hi),
        "apollonius": (_apollonius_sign, apollonius, c, c / 2 + a),
        "philo": (_philo_sign, philo, Fraction(1, 2), u_hi),
        "diocles": (_diocles_sign, diocles, Fraction(0), a),
    }


def _exact_roots(c, w):
    """Each route's root for a = c * w**3, where the means are c*w**2, c*w."""
    return {
        "heron": w,
        "apollonius": c * w * w + c / 2,
        "philo": w,
        "diocles": c * w ** 3 * (w * w - 1) / (w * w + 1),
    }


_big_den = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=10 ** 15)


@given(
    _big_den,
    _big_den,
    st.fractions(min_value=0, max_value=1, max_denominator=10 ** 18),
    st.one_of(st.none(), st.fractions(min_value=1, max_value=30, max_denominator=10 ** 6)),
)
@settings(max_examples=200, deadline=None)
def test_route_signs_match_fraction_defects(x, y, s, w):
    # w, when drawn, sets a = c * w**3 and puts the parameter on each
    # route's exact root, so the sign must tie.
    c = min(x, y)
    a = max(x, y) if w is None else c * w ** 3
    roots = None if w is None else _exact_roots(c, w)
    for route, (make_sign, defect, lo, hi) in _fraction_defects(a, c).items():
        sign_at = make_sign(a, c)
        if a > c:  # the precondition of ``_bisect``; a == c never reaches it
            assert _sign_of(sign_at, lo) * _sign_of(sign_at, hi) == -1, route
        t = lo + (hi - lo) * s if roots is None else roots[route]
        g = defect(t)
        assert _sign_of(sign_at, t) == (g > 0) - (g < 0), route
        if roots is not None:
            assert g == 0, route


@given(
    _big_den,
    _big_den,
    st.fractions(min_value=0, max_value=1, max_denominator=10 ** 18),
    st.one_of(st.none(), st.fractions(min_value=1, max_value=30, max_denominator=10 ** 6)),
    st.integers(min_value=1, max_value=10 ** 30),
)
@settings(max_examples=100, deadline=None)
def test_route_signs_ignore_a_common_factor(x, y, s, w, k):
    # The bisection chain hands each sign function an unreduced P/Q.
    c = min(x, y)
    a = max(x, y) if w is None else c * w ** 3
    roots = None if w is None else _exact_roots(c, w)
    for route, (make_sign, defect, lo, hi) in _fraction_defects(a, c).items():
        sign_at = make_sign(a, c)
        t = lo + (hi - lo) * s if roots is None else roots[route]
        g = defect(t)
        P, Q = t.numerator, t.denominator
        assert sign_at(k * P, k * Q) == sign_at(P, Q) == (g > 0) - (g < 0), route


@given(*_intercept_figure, st.integers(min_value=1, max_value=10 ** 30))
@settings(max_examples=100, deadline=None)
def test_intercept_sign_ignores_a_common_factor(a0, a1, b0, b1, z, scale, t, parallel, k):
    # Nicomedes' sign, at an unreduced P/Q, ties and parallel directions included.
    case = _intercept_case(a0, a1, b0, b1, z, scale, t, parallel)
    if case is not None:
        sign_at, expected = case
        P, Q = t.numerator, t.denominator
        assert sign_at(k * P, k * Q) == sign_at(P, Q) == expected


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=9))
@settings(max_examples=15, deadline=None)
def test_nicomedes_matches_heron_on_random_ratios(num, den):
    ab, bc = Fraction(num), Fraction(den)
    if ab == bc:
        ab += 1
    prob = MeanPropProblem(ab=ab, bc=bc)
    nic = METHODS[NICOMEDES](prob)
    her = METHODS[HERON_APOLLONIUS](prob)
    assert abs(nic.y.mid - her.y.mid) <= 2 * prob.tol * prob.ab


@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=10 ** 6),
    st.one_of(
        st.fractions(min_value=1, max_value=10 ** 6, max_denominator=10 ** 6),
        st.integers(min_value=1, max_value=30).map(lambda k: 1 + Fraction(1, 10 ** k)),
    ).filter(lambda ratio: ratio > 1),
)
@settings(max_examples=100, deadline=None)
def test_nicomedes_signs_are_opposite_at_the_range_ends(c, ratio):
    # On the figure solve_nicomedes builds: +1 at t = 0 (the line is
    # parallel to the base line, so the cut is unbounded), -1 at t = 1.
    ends = []

    def record(sign_at, lo, hi, accept):
        ends.append((lo, _sign_of(sign_at, lo), hi, _sign_of(sign_at, hi)))

    with mock.patch.object(mean_proportionals, "_bisect", record):
        METHODS[NICOMEDES](MeanPropProblem(ab=c * ratio, bc=c))
    assert ends == [(0, 1, 1, -1)]


@pytest.mark.parametrize("ab", [Fraction(2), Fraction(10), Fraction(1000), Fraction(103, 100)])
def test_nicomedes_abandons_the_short_branch_early(monkeypatch, ab):
    """The root short of C lies at t < 0, so the range t in [0, 1] leaves
    that branch before any bracket is checked (the range ends are pinned
    by ``test_nicomedes_signs_are_opposite_at_the_range_ends``).  The
    result is the one checking every step of the chain gives."""
    prob = MeanPropProblem(ab=ab, bc=Fraction(1), tol=Fraction(1, 10 ** 12))
    res = METHODS[NICOMEDES](prob)
    check_result(res, prob.ab, prob.bc, prob.tol)

    monkeypatch.setattr(mean_proportionals, "_bisect", lambda *args: _stepwise(*args)[1])
    assert METHODS[NICOMEDES](prob) == res
