import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from practica.geometry import Point2
from practica.mean_proportionals import (
    DIOCLES,
    HERON_APOLLONIUS,
    METHODS,
    NICOMEDES,
    PHILO,
    BracketNotFoundError,
    MeanPropProblem,
    _REJECT,
    _apollonius_sign,
    _cut_constants,
    _diocles_sign,
    _heron_sign,
    _intercept_sign,
    _philo_sign,
    _scan_and_bisect,
    _sign_changes,
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
    # Nicomedes refuses every ratio up to about 1.017: the root beyond C
    # lies in the scan cell that ends at t = 0, where the direction is
    # parallel to the base line and the sign is undefined.  ROADMAP item 2
    # (the ruler's-foot defect) turns that case into an enclosure check.
    ab, bc = 1 + Fraction(1, 10 ** k), Fraction(1)
    prob = MeanPropProblem(ab=ab, bc=bc)
    target = _width_target(prob)
    for route in ("heron", "apollonius", "philo", "diocles"):
        res = _ROUTES[route](prob)
        assert res.x.lo ** 3 <= ab * ab * bc <= res.x.hi ** 3, route
        assert res.y.lo ** 3 <= ab * bc * bc <= res.y.hi ** 3, route
        assert res.x.width <= target and res.y.width <= target, route
    with pytest.raises(BracketNotFoundError, match="no direction with intercept"):
        _ROUTES["nicomedes"](prob)


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


def _stepwise(sign_at, lo, hi, accept, samples=64):
    """Reference for ``_scan_and_bisect``: call ``accept`` on every step
    of every bracket's bisection chain.  Returns (step, verdict)."""
    for bl, bh in _sign_changes(sign_at, lo, hi, samples):
        s_lo = sign_at(bl)
        for step in itertools.count():
            verdict = accept(bl, bh)
            if verdict is _REJECT:
                break
            if verdict is not None:
                return step, verdict
            if bl == bh:
                raise PrecisionError("enclosure too wide at an exact root")
            mid = (bl + bh) / 2
            s_mid = sign_at(mid)
            if s_mid is None:
                break
            if s_mid == 0:
                bl = bh = mid
            elif s_mid * s_lo < 0:
                bh = mid
            else:
                bl, s_lo = mid, s_mid
    return None


def _outcome(call):
    try:
        return call()
    except PrecisionError as exc:
        return type(exc), str(exc)


@given(
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(399, 100), max_denominator=10**6),
    st.integers(min_value=0, max_value=70),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=60, deadline=None)
def test_scan_and_bisect_accepts_the_first_step_with_few_probes(c, j, m):
    # Roots at -sqrt(c) and sqrt(c): the negative bracket is rejected
    # once narrow enough, the positive one accepted.
    width = Fraction(m, 2 ** j)
    calls = []

    def sign_at(t):
        return (t * t > c) - (t * t < c)

    def accept(bl, bh):
        calls.append(bl)
        if bh - bl > width:
            return None
        return _REJECT if bh <= 0 else (bl, bh)

    found = _scan_and_bisect(sign_at, Fraction(-2), Fraction(2), accept)
    probes = sum(1 for bl in calls if bl >= 0)  # on the accepted chain
    step, expected = _stepwise(sign_at, Fraction(-2), Fraction(2), accept)
    assert found == expected
    assert probes <= 2 * (step + 1).bit_length() + 2  # 2*ceil(log2(step + 2)) + 2


def _undefined_at_half(t):
    # Brackets (0, 1) and (2, 3) over the samples 0..4; the first one's
    # midpoint has no sign.
    if t == Fraction(1, 2):
        return None
    f = (t - Fraction(1, 3)) * (t - Fraction(7, 3))
    return (f > 0) - (f < 0)


@pytest.mark.parametrize(
    "sign_at, lo, hi, samples, expected",
    [
        # an exact zero reached by bisection and never accepted
        (lambda t: (t > Fraction(1, 2)) - (t < Fraction(1, 2)), 0, 1, 3,
         (PrecisionError, "enclosure too wide at an exact root")),
        # an undefined midpoint abandons the first bracket for the second
        (_undefined_at_half, 0, 4, 4, None),
    ],
    ids=["exact-root", "undefined-midpoint"],
)
def test_scan_and_bisect_chain_ends_as_stepwise(sign_at, lo, hi, samples, expected):
    def never(bl, bh):
        return None

    def narrow_second(bl, bh):
        return (bl, bh) if bl >= 2 and bh - bl <= Fraction(1, 2 ** 10) else None

    accept = narrow_second if expected is None else never
    args = (sign_at, Fraction(lo), Fraction(hi), accept, samples)
    found = _outcome(lambda: _scan_and_bisect(*args))
    reference = _outcome(lambda: _stepwise(*args))
    if expected is None:
        _, verdict = reference
        assert found == verdict
        assert verdict[0] < Fraction(7, 3) < verdict[1]
    else:
        assert found == reference == expected


_coord = st.fractions(min_value=-10, max_value=10, max_denominator=60)
_point = st.builds(Point2, _coord, _coord)


@given(
    _point, _point, _point, _point, _point,
    st.one_of(
        st.just(Fraction(1)),
        st.fractions(min_value=Fraction(1, 2), max_value=2, max_denominator=60),
    ),
    st.fractions(min_value=-1, max_value=1, max_denominator=2 ** 20),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_intercept_sign_matches_explicit_cut_points(a0, a1, b0, b1, z, scale, t, parallel):
    dx, dy = 1 - t * t, 2 * t
    if parallel:  # line1 along the direction itself
        a1 = Point2(a0.x + 3 * dx, a0.y + 3 * dy)
    if a0 == a1 or b0 == b1:
        return
    lines = ((a0, a1), (b0, b1))
    cuts = []
    for p0, p1 in lines:
        vx, vy = p1.x - p0.x, p1.y - p0.y
        den = dx * vy - dy * vx
        if den == 0:
            break
        lam = ((p0.x - z.x) * vy - (p0.y - z.y) * vx) / den
        cuts.append(Point2(z.x + lam * dx, z.y + lam * dy))
    if len(cuts) < 2:
        L, expected = scale, None
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
    assert _intercept_sign(_cut_constants(z, lines), L)(t) == expected
    if parallel:
        assert expected is None


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
        t = lo + (hi - lo) * s if roots is None else roots[route]
        g = defect(t)
        assert make_sign(a, c)(t) == (g > 0) - (g < 0), route
        if roots is not None:
            assert g == 0, route


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

