import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from practica import mean_proportionals
from practica.geometry import Point2, PointBounds
from practica.mean_proportionals import (
    DIOCLES,
    HERON_APOLLONIUS,
    METHODS,
    NICOMEDES,
    PHILO,
    BracketNotFoundError,
    MeanPropProblem,
    _apollonius_defect,
    _bisect,
    _chain,
    _cleared,
    _digits_for,
    _diocles_defect,
    _halvings,
    _heron_defect,
    _intercept_defect,
    _neusis_figure,
    _neusis_means,
    _philo_defect,
    _sign,
    cissoid_arc_defect,
    cissoid_points,
    conchoid_points,
    conchoid_quartic_residual,
    scale_solid_ratio,
    solve_heron_apollonius,
    solve_philo,
)
from practica.numerics import Interval, Precision, PrecisionError, int_nth_root_floor, rat_sqrt_bounds

from interval_reference import encloses, quotient


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
    # the variant is checked before the equal-sides shortcut
    with pytest.raises(ValueError, match="unknown variant 'pappus'"):
        solve_heron_apollonius(MeanPropProblem(Fraction(5), Fraction(5)), variant="pappus")


def test_apollonius_reads_the_second_mean_as_x_squared_over_ab():
    # Apollonius' defect proves x**3 = ab**2 * bc at its root, so it reads
    # y = x**2/ab: the y ends are the x ends squared over ab, exactly.
    problems = _criterion07_problems() + [
        MeanPropProblem(ab=Fraction(7, 3), bc=Fraction(5, 11), tol=Fraction(1, 10 ** 160)),
        MeanPropProblem(ab=Fraction(1), bc=Fraction(2), tol=Fraction(1, 2)),
        MeanPropProblem(ab=1 + Fraction(1, 10 ** 20), bc=Fraction(1)),
        MeanPropProblem(ab=Fraction(10 ** 30), bc=Fraction(1, 10 ** 6)),
    ]
    for prob in problems:
        res = solve_heron_apollonius(prob, variant="apollonius")
        assert res.y.lo == res.x.lo ** 2 / prob.ab, prob
        assert res.y.hi == res.x.hi ** 2 / prob.ab, prob


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
    target = prob.width_target
    assert res.x.width <= target and res.y.width <= target


@pytest.mark.parametrize("k", range(2, 21), ids=lambda k: f"1+1e-{k}")
def test_ratios_near_one(k):
    # Near 1 nicomedes' root sits next to t = 0, where the sliding line is
    # parallel to the base line; the sign there is +1, so it still brackets.
    ab, bc = 1 + Fraction(1, 10 ** k), Fraction(1)
    prob = MeanPropProblem(ab=ab, bc=bc)
    target = prob.width_target
    for route, solve in _ROUTES.items():
        res = solve(prob)
        assert res.x.lo ** 3 <= ab * ab * bc <= res.x.hi ** 3, route
        assert res.y.lo ** 3 <= ab * bc * bc <= res.y.hi ** 3, route
        assert res.x.width <= target and res.y.width <= target, route


@pytest.mark.parametrize("ratio", [2, 10, 1000, 10 ** 9])
def test_small_lines_solve_on_every_route(ratio):
    # Lines this small floor nicomedes' estimate to 0 at shallow levels,
    # where it once divided by zero; the kernel gallops from that 0.
    for k in range(4, 38):
        bc = Fraction(1, 10 ** k)
        ab = ratio * bc
        prob = MeanPropProblem(ab=ab, bc=bc)
        for route, solve in _ROUTES.items():
            res = solve(prob)
            assert res.x.lo ** 3 <= ab * ab * bc <= res.x.hi ** 3, (route, k)
            assert res.y.lo ** 3 <= ab * bc * bc <= res.y.hi ** 3, (route, k)


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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ab": 2.1, "bc": 1},
        {"ab": 2, "bc": 1.0},
        {"ab": 2, "bc": 1, "tol": 1e-12},
        {"ab": "2.1", "bc": 1},
        {"ab": True, "bc": 1},
    ],
    ids=["ab", "bc", "tol", "string", "bool"],
)
def test_problem_refuses_inexact_numbers(kwargs):
    # A float would be stored as its binary value: 2.1 as 4728779608739021/2**51.
    with pytest.raises(TypeError, match="^expected an exact rational, got (float|str|bool)$"):
        MeanPropProblem(**kwargs)


def test_width_target_is_tol_times_the_smaller_scale():
    # tol * min(bc, max(1, ab)/8), read off the swap-normalized lines
    tol = Fraction(1, 10 ** 9)
    assert MeanPropProblem(Fraction(2), Fraction(1), tol).width_target == tol / 4
    assert MeanPropProblem(Fraction(1, 100), Fraction(1, 2), tol).width_target == tol / 100
    assert MeanPropProblem(Fraction(1000), Fraction(3), tol).width_target == 3 * tol


def test_reading_the_width_target_leaves_the_problem_and_results_unchanged():
    # The cached values live outside the fields (``_fields``).
    prob = MeanPropProblem(ab=Fraction(7, 3), bc=Fraction(5, 11))
    fresh = MeanPropProblem(ab=Fraction(7, 3), bc=Fraction(5, 11))
    before = repr(prob), hash(prob)
    results = {route: solve(prob) for route, solve in _ROUTES.items()}
    expected = {route: repr(res) for route, res in results.items()}
    assert prob.width_target == Fraction(7, 24) * prob.tol
    assert (repr(prob), hash(prob)) == before == (repr(fresh), hash(fresh))
    assert prob == fresh
    for route, res in results.items():
        assert repr(res) == expected[route], route
        assert res == _ROUTES[route](fresh), route
        assert hash(res.problem) == hash(fresh), route


@pytest.mark.parametrize(
    "ab, bc, tol",
    [
        (Fraction(2), Fraction(1), Fraction(1, 10 ** 12)),
        (Fraction(7, 3), Fraction(5, 11), Fraction(1, 10 ** 6)),
        (Fraction(10 ** 30), Fraction(1), Fraction(1, 10 ** 12)),
        (1 + Fraction(1, 10 ** 15), Fraction(1), Fraction(1, 10 ** 12)),
        (Fraction(1, 3), Fraction(1000, 7), Fraction(1, 10 ** 20)),
    ],
)
def test_one_problem_shared_by_every_route_gives_the_fresh_results(ab, bc, tol):
    # Whichever route reads the problem's cached integer form first, every
    # route gives the result that a problem of its own gives.
    shared = MeanPropProblem(ab=ab, bc=bc, tol=tol)
    for route, solve in _ROUTES.items():
        assert solve(shared) == solve(MeanPropProblem(ab=ab, bc=bc, tol=tol)), route


def test_problem_takes_ints_and_fractions():
    prob = MeanPropProblem(ab=2, bc=Fraction(1, 3), tol=Fraction(1, 10 ** 12))
    assert (prob.ab, prob.bc, prob.tol) == (Fraction(2), Fraction(1, 3), Fraction(1, 10 ** 12))
    assert all(type(v) is Fraction for v in (prob.ab, prob.bc, prob.tol))


@pytest.mark.parametrize(
    "args", [(1.5, 2), (1, 2.0), (1, 2, HERON_APOLLONIUS, 1e-12)], ids=["edge", "ratio", "tol"]
)
def test_scale_solid_ratio_refuses_floats(args):
    with pytest.raises(TypeError, match="^expected an exact rational, got float$"):
        scale_solid_ratio(*args)


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


def test_cissoid_arc_defect_refuses_points_off_the_curve():
    for pt in cissoid_points(Fraction(3, 2), 9, span=(Fraction(1, 10), Fraction(9, 10))):
        off = PointBounds(pt.x + Fraction(1, 10 ** 6), pt.y)
        assert not cissoid_arc_defect(off, Fraction(3, 2)).contains(0)


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
        assert conchoid_quartic_residual(pt, 1, 1).contains(0)


@pytest.mark.parametrize(
    "d, e, reach",
    [(Fraction(3, 2), 2, 5), (Fraction(1, 1000), 10 ** 6, 1000), (2, 3, 1)],
)
def test_conchoid_check_takes_its_figure(d, e, reach):
    # the check encloses the quartic of the figure it is given: every
    # sample of that figure passes, and the same point 1e-6 higher fails
    for pt in conchoid_points(d, e, 21, (-reach, reach)):
        assert conchoid_quartic_residual(pt, d, e).contains(0)
        off = PointBounds(pt.x, pt.y + Fraction(1, 10 ** 6))
        assert not conchoid_quartic_residual(off, d, e).contains(0)


def test_conchoid_heights_strictly_decrease():
    pts = conchoid_points(Fraction(1), Fraction(1), 40, (Fraction(0), Fraction(21)))
    for a, b in zip(pts, pts[1:]):
        assert b.y.hi < a.y.lo


#: Lengths from 1e-20 to 1e20 with short mantissas.
_LENGTHS = st.builds(lambda m, k: m * Fraction(10) ** k,
                     st.fractions(min_value=1, max_value=10, max_denominator=1000),
                     st.integers(-20, 20))


@settings(max_examples=150, deadline=None)
@given(_LENGTHS, _LENGTHS, _LENGTHS, _LENGTHS, st.integers(1, 60))
def test_sampled_coordinates_are_roots_as_narrow_as_their_precision(r, d, e, reach, digits):
    # Each coordinate is one root of at most r (cissoid) or e (conchoid),
    # so it is at most 10**-p * max(1, r or e) wide, and the points keep
    # their defining properties.
    p = Precision(digits)
    for pt in cissoid_points(r, 5, p, (Fraction(-1), Fraction(1))):
        assert pt.x.width <= max(1, r) / 10 ** digits and pt.y.width == 0
        assert cissoid_arc_defect(pt, r).contains(0)
    for pt in conchoid_points(d, e, 5, (-reach, reach), p):
        assert max(pt.x.width, pt.y.width) <= max(1, e) / 10 ** digits
        assert conchoid_quartic_residual(pt, d, e).contains(0)


def test_conchoid_validation():
    with pytest.raises(ValueError):
        conchoid_points(Fraction(0), Fraction(1), 5, (Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        conchoid_points(Fraction(1), Fraction(1), 5, (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        conchoid_points(Fraction(1), Fraction(0), 5, (Fraction(0), Fraction(21)))


def _sign_of(value_at, t):
    """The sign of ``value_at(P, Q)`` at a Fraction t, reduced."""
    return _sign(value_at(t.numerator, t.denominator))


def _stepwise_chain(value_at, lo, hi):
    """Reference for ``_chain``: yield the brackets (bl, bh) of the
    bisection chain, one per step, built on Fractions by testing every
    midpoint, up to a point bracket."""
    s_lo, s_hi = _sign_of(value_at, lo), _sign_of(value_at, hi)
    if s_lo * s_hi >= 0:
        raise BracketNotFoundError(
            f"defect signs {s_lo} at {lo} and {s_hi} at {hi} are not opposite"
        )
    bl, bh = lo, hi
    while True:
        yield bl, bh
        if bl == bh:
            return
        mid = (bl + bh) / 2
        s_mid = _sign_of(value_at, mid)
        if s_mid == 0:
            bl = bh = mid
        elif s_mid * s_lo < 0:
            bh = mid
        else:
            bl, s_lo = mid, s_mid


def _intervals(means):
    """The means that ``evaluate`` reads, as integer ends, made Intervals."""
    return tuple(Interval(Fraction(ln, ld), Fraction(hn, hd)) for ln, ld, hn, hd in means)


def _stepwise(value_at, lo, hi, floor_root, evaluate, target):
    """Reference for ``_bisect``: call ``evaluate`` on every step of the
    bisection chain of ``_stepwise_chain``, over one denominator, and
    return the first step whose means, made Intervals, are both no wider
    than ``target``.  A read of None or an int (an estimate of the
    halvings still lacking) is a refusal; the estimate ``floor_root`` is
    not used.  Returns (step, (x, y))."""
    for step, (bl, bh) in enumerate(_stepwise_chain(value_at, lo, hi)):
        means = evaluate(*_cleared(bl, bh))
        if type(means) is tuple:
            x, y = _intervals(means)
            if x.width <= target and y.width <= target:
                return step, (x, y)
        if bl == bh:
            raise PrecisionError("enclosure too wide at an exact root")


#: Value functions of one sign change at the root n/d, each homogeneous in
#: (P, Q): the linear defect, its sign alone, the defect made 10**30 times
#: steeper on one side of the root, and a cubic.
_VALUE_SHAPES = {
    "linear": lambda n, d: lambda P, Q: P * d - n * Q,
    "sign": lambda n, d: lambda P, Q: _sign(P * d - n * Q),
    "steep": lambda n, d: lambda P, Q: (P * d - n * Q) * (10 ** 30 if P * d > n * Q else 1),
    "cubic": lambda n, d: lambda P, Q: (P * d - n * Q) * (P * P + P * Q + Q * Q),
}


@st.composite
def _rooted_ranges(draw):
    """A range [lo, hi], a value function with one root in it, in either
    orientation, and the root.  The root is a point of the range's dyadic
    grid at a level from 1 to 90, or anywhere inside."""
    lo = draw(st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6))
    hi = lo + draw(st.fractions(min_value=Fraction(1, 10 ** 6), max_value=100, max_denominator=10 ** 6))
    if draw(st.booleans()):
        level = draw(st.integers(min_value=1, max_value=90))
        index = 2 * draw(st.integers(min_value=0, max_value=2 ** (level - 1) - 1)) + 1
        root = lo + (hi - lo) * index / 2 ** level
    else:
        den = draw(st.integers(min_value=2, max_value=10 ** 30))
        root = lo + (hi - lo) * Fraction(draw(st.integers(min_value=1, max_value=den - 1)), den)
    value = _VALUE_SHAPES[draw(st.sampled_from(sorted(_VALUE_SHAPES)))](root.numerator, root.denominator)
    if draw(st.booleans()):
        value_at = value
    else:
        def value_at(P, Q, value=value):
            return -value(P, Q)
    return lo, hi, value_at, root


@st.composite
def _floor_roots(draw, lo, hi, root):
    """An estimate ``floor_root(M)`` of floor(root * M): exact, off by up
    to 2**40 cells of the level it is taken at (M = Q0 * 2**K, cells W
    wide), always 0, or 10**50 * M, far past the range."""
    kind = draw(st.sampled_from(["exact", "off", "zero", "huge"]))
    event(f"estimate {kind}")
    L0, H0, _ = _cleared(lo, hi)
    W = H0 - L0
    off = draw(st.integers(min_value=-2 ** 40, max_value=2 ** 40)) if kind == "off" else 0
    return {
        "exact": lambda M: root.numerator * M // root.denominator,
        "off": lambda M: root.numerator * M // root.denominator + off * W,
        "zero": lambda M: 0,
        "huge": lambda M: 10 ** 50 * M,
    }[kind]


@given(_rooted_ranges(), st.permutations(range(81)), st.data())
@settings(max_examples=300, deadline=None)
def test_chain_steps_match_stepwise(case, order, data):
    # Every step up to 80, asked for in any order, is the step-by-step
    # chain's bracket over the denominator Q0 * 2**step, or its end,
    # however far off the estimate that places it.
    lo, hi, value_at, root = case
    expected = list(itertools.islice(_stepwise_chain(value_at, lo, hi), 81))
    end = len(expected) - 1
    event("ends at a point" if expected[-1][0] == expected[-1][1] else "runs past step 80")
    Q0 = _cleared(lo, hi)[2]
    step = _chain(value_at, lo, hi, data.draw(_floor_roots(lo, hi, root)))
    for k in order:
        s, L, H, Q = step(k)
        assert s == min(k, end)
        assert Q == Q0 << s
        assert (Fraction(L, Q), Fraction(H, Q)) == expected[s]


def _square_minus(c):
    """t*t - c at t = P/Q, times Q**2 * c.denominator, as ``value_at(P, Q)``."""

    def value_at(P, Q):
        return P * P * c.denominator - c.numerator * Q * Q

    return value_at


def _fractions(evaluate):
    """An ``evaluate`` on Fraction ends as the kernel's ``evaluate(L, H, Q)``."""
    return lambda L, H, Q: evaluate(Fraction(L, Q), Fraction(H, Q))


def _means_of(bl, bh):
    """The means x = [bl, bh] and y = [bl + 1, bh + 1] as ``evaluate``
    reads them, as integer ends."""
    return tuple(
        (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
        for lo, hi in ((bl, bh), (bl + 1, bh + 1))
    )


def _floor_sqrt(c):
    """floor(sqrt(c) * M), the exact estimate of the root of ``_square_minus(c)``."""
    return lambda M: math.isqrt(c.numerator * M * M // c.denominator)


@given(
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(399, 100), max_denominator=10**6),
    st.integers(min_value=0, max_value=70),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=60, deadline=None)
def test_bisect_accepts_the_first_step_with_few_probes(c, j, m):
    # One root, sqrt(c), in [0, 2]; the means are read, and accepted, once
    # the bracket is narrow enough.
    width = Fraction(m, 2 ** j)
    calls = []
    value_at = _square_minus(c)

    @_fractions
    def evaluate(bl, bh):
        calls.append(bl)
        return _means_of(bl, bh) if bh - bl <= width else None

    found = _bisect(value_at, Fraction(0), Fraction(2), _floor_sqrt(c), evaluate, width)
    probes = len(calls)
    step, expected = _stepwise(value_at, Fraction(0), Fraction(2), _floor_sqrt(c), evaluate, width)
    assert found == expected
    assert probes <= 2 * (step + 1).bit_length() + 2  # 2*ceil(log2(step + 2)) + 2


#: What an ``evaluate`` may estimate when it cannot read a bracket of
#: width w that must narrow to ``target``: the exact count of halvings
#: still lacking, none, always one, always far too many, that count off by
#: a few, or noise; or it reads every bracket ("widths"), and the kernel
#: estimates from the means' widths.
_ESTIMATES = {
    "exact": lambda w, target, rnd: (-(-w // target) - 1).bit_length(),
    "none": lambda w, target, rnd: None,
    "one": lambda w, target, rnd: 1,
    "huge": lambda w, target, rnd: 1000,
    "off": lambda w, target, rnd: (-(-w // target) - 1).bit_length() + rnd.randint(-3, 3),
    "random": lambda w, target, rnd: rnd.randint(-3, 150),
    "widths": None,
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
    # with reads that estimate the halvings they still lack.
    width = Fraction(m, 2 ** j)
    estimate = _ESTIMATES[kind]
    calls, estimates = [], [0]
    value_at = _square_minus(c)

    @_fractions
    def evaluate(bl, bh):
        calls.append(bl)
        if bh - bl <= width or estimate is None:
            return _means_of(bl, bh)
        e = estimate(bh - bl, width, rnd)
        estimates.append(e or 0)
        return e

    found = _bisect(value_at, Fraction(0), Fraction(2), _floor_sqrt(c), evaluate, width)
    probes, reach = len(calls), max(estimates)
    step, expected = _stepwise(value_at, Fraction(0), Fraction(2), _floor_sqrt(c), evaluate, width)
    assert found == expected
    if kind == "exact":
        assert probes <= 3  # the estimate, the step it names, the step before
    elif kind == "none":
        assert probes <= 2 * (step + 1).bit_length() + 2
    else:
        # The jumps at least double, so even a hostile estimate costs
        # O(log n) calls, n the furthest step it can send the kernel to.
        assert probes <= 3 * (max(step, reach) + 2).bit_length() + 3


def _criterion07_problems():
    """The 25 problems the count tests share (ratios from 1 to 1e4)."""
    rng = random.Random(1462)
    problems = []
    for _ in range(25):
        den = rng.randint(1, 100)
        bc = Fraction(rng.randint(1, 1000), rng.randint(1, 100))
        problems.append(MeanPropProblem(ab=bc * Fraction(rng.randint(den, 10 ** 4 * den), den), bc=bc))
    return problems


def _counting_kernel(monkeypatch):
    """Count the sign evaluations and ``evaluate`` reads of every solve."""
    kernel, counts = _bisect, {"values": 0, "reads": 0}

    def counting(value_at, lo, hi, floor_root, evaluate, target):
        def value(P, Q):
            counts["values"] += 1
            return value_at(P, Q)

        def read(L, H, Q):
            counts["reads"] += 1
            return evaluate(L, H, Q)

        return kernel(value, lo, hi, floor_root, read, target)

    monkeypatch.setattr(mean_proportionals, "_bisect", counting)
    return counts


def test_routes_settle_in_few_accept_calls(monkeypatch):
    # The estimates place the probes: on 25 criterion-07 problems every
    # route settles in at most 8 ``evaluate`` reads, the kernel's checks,
    # per solve, and the four in at most 6 on average (12 to 13 with probes
    # at 0, 1, 3, 7, ...).
    problems = _criterion07_problems()
    counts = _counting_kernel(monkeypatch)
    per_solve = {}
    for name, solve in METHODS.items():
        counts["reads"] = 0
        for prob in problems:
            solve(prob)
        per_solve[name] = counts["reads"] / len(problems)
    assert max(per_solve.values()) <= 8, per_solve
    assert sum(per_solve.values()) / len(per_solve) <= 6, per_solve


#: Sign evaluations per solve on the 25 problems at tol 1e-12: two at the
#: range's ends and two for the deepest step placed exactly, whose
#: ancestors are shifts of it: 4.0 for heron and philo, 5.6 for diocles
#: and 6.52 for nicomedes, whose estimates can be a cell or more off.
#: Proving every step asked for took 12.0, 12.0, 9.04 and 9.88, and
#: regula falsi 12.9, 12.9, 29.3 and 22.7.
_VALUES_PER_SOLVE = {HERON_APOLLONIUS: 4, PHILO: 4, DIOCLES: 6, NICOMEDES: 7}


def test_routes_settle_in_few_sign_evaluations(monkeypatch):
    problems = _criterion07_problems()
    counts = _counting_kernel(monkeypatch)
    per_solve = {}
    for name, solve in METHODS.items():
        counts["values"] = 0
        for prob in problems:
            solve(prob)
        per_solve[name] = counts["values"] / len(problems)
    assert all(per_solve[name] <= bound for name, bound in _VALUES_PER_SOLVE.items()), per_solve


@pytest.mark.parametrize(
    "route, reads",
    [("heron", 3), ("apollonius", 3), ("philo", 3), ("diocles", 3), ("nicomedes", 7)],
)
def test_deep_tolerances_take_few_sign_evaluations(monkeypatch, route, reads):
    # 2/1 at tol 1e-600 settles near step 2000: 4 sign evaluations, and 7
    # for nicomedes' seven steps, where bisection takes about 2000, proving
    # every step asked for took 6 and 13, and regula falsi 26 to 30.
    counts = _counting_kernel(monkeypatch)
    prob = MeanPropProblem(ab=Fraction(2), bc=Fraction(1), tol=Fraction(1, 10 ** 600))
    res = _ROUTES[route](prob)
    assert res.x.lo ** 3 <= 4 <= res.x.hi ** 3 and res.y.lo ** 3 <= 2 <= res.y.hi ** 3
    assert counts["values"] <= (7 if route == "nicomedes" else 4), counts
    assert counts["reads"] == reads, counts


def test_kernel_memory_is_linear_in_the_digits():
    # The kernel keeps the estimate and one cell of the chain: about
    # 23 KiB here, twice that at 1e-2400.
    prob = MeanPropProblem(ab=Fraction(2), bc=Fraction(1), tol=Fraction(1, 10 ** 1200))
    tracemalloc.start()
    try:
        solve_heron_apollonius(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


@pytest.mark.parametrize(
    "value_at, expected, message",
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
def test_bisect_chain_ends_as_stepwise(value_at, expected, message):
    def never(L, H, Q):
        return None

    for kernel in (_bisect, _stepwise):
        with pytest.raises(expected, match=f"^{re.escape(message)}$"):
            kernel(value_at, Fraction(0), Fraction(1), lambda M: M // 2, never, Fraction(1))


def _cut_constants(z, lines):
    """The reference cut constants: per line (p0, p1), its direction
    v = (vx, vy) and the numerator (p0 - z) x v of the ray parameter at
    which the ray from z meets it, built from Fraction points and scaled
    to integers."""
    constants = []
    for p0, p1 in lines:
        vx, vy = p1.x - p0.x, p1.y - p0.y
        vx_i, vy_i, num_i, _ = _cleared(vx, vy, (p0.x - z.x) * vy - (p0.y - z.y) * vx)
        constants.append((vx_i, vy_i, num_i))
    return tuple(constants)


def _figure_by_points(prob, digits):
    """The reference for ``_neusis_figure``: the pole Z as the midpoint of
    ``rat_sqrt_bounds``, the two lines as Fraction points, their cut
    constants and the band, with the pole itself."""
    a, c = prob.ab, prob.bc
    c_pt = Point2(c, Fraction(0))
    z_len = rat_sqrt_bounds((a * a - c * c) / 4, Precision(2 * digits + 12)).mid
    z = Point2(c / 2, -z_len)
    # G = (-c, 0): the neusis cuts the line through C parallel to G -> Z,
    # then the base line.
    theta_line = (c_pt, Point2(c_pt.x + 3 * c / 2, -z_len))
    base_line = (Point2(Fraction(0), Fraction(0)), c_pt)
    L = a / 2
    tol = Fraction(1, 10 ** (digits + 4)) * max(Fraction(1), L)
    target_sq = Interval((L - tol) ** 2 if L > tol else Fraction(0), (L + tol) ** 2)
    return z, _cut_constants(z, (theta_line, base_line)), target_sq


_coord = st.fractions(min_value=-10, max_value=10, max_denominator=60)
_point = st.builds(Point2, _coord, _coord)


#: A figure for ``_intercept_defect``: two lines, a pole, a scale for L, a
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
    """The figure's integer value function and the sign that explicit cut
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
    return _intercept_defect(_cut_constants(z, lines), L), expected


@given(*_intercept_figure)
@settings(max_examples=150, deadline=None)
def test_intercept_sign_matches_explicit_cut_points(a0, a1, b0, b1, z, scale, t, parallel):
    case = _intercept_case(a0, a1, b0, b1, z, scale, t, parallel)
    if case is not None:
        value_at, expected = case
        assert _sign_of(value_at, t) == expected


def _fraction_defects(a, c):
    """Each route's defect as its figure states it, over Fraction, with
    its scan range: the reference for the signs of the integer values."""
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
        "heron": (_heron_defect, heron, Fraction(1, 2), u_hi),
        "apollonius": (_apollonius_defect, apollonius, c, c / 2 + a),
        "philo": (_philo_defect, philo, Fraction(1, 2), u_hi),
        "diocles": (_diocles_defect, diocles, Fraction(0), a),
    }


#: The degree of each route's homogeneous value in (P, Q); nicomedes' is 4.
_DEGREES = {"heron": 4, "apollonius": 4, "philo": 3, "diocles": 3}


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
    for route, (make_value, defect, lo, hi) in _fraction_defects(a, c).items():
        value_at = make_value(MeanPropProblem(a, c))
        if a > c:  # the precondition of ``_bisect``; a == c never reaches it
            assert _sign_of(value_at, lo) * _sign_of(value_at, hi) == -1, route
        t = lo + (hi - lo) * s if roots is None else roots[route]
        g = defect(t)
        assert _sign_of(value_at, t) == (g > 0) - (g < 0), route
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
    # The bisection chain hands each value function an unreduced P/Q, and
    # the kernel compares values at one denominator, so each value must
    # scale as k**degree.
    c = min(x, y)
    a = max(x, y) if w is None else c * w ** 3
    roots = None if w is None else _exact_roots(c, w)
    for route, (make_value, defect, lo, hi) in _fraction_defects(a, c).items():
        value_at = make_value(MeanPropProblem(a, c))
        t = lo + (hi - lo) * s if roots is None else roots[route]
        g = defect(t)
        P, Q = t.numerator, t.denominator
        assert value_at(k * P, k * Q) == k ** _DEGREES[route] * value_at(P, Q), route
        assert _sign(value_at(P, Q)) == (g > 0) - (g < 0), route


@given(*_intercept_figure, st.integers(min_value=1, max_value=10 ** 30))
@settings(max_examples=100, deadline=None)
def test_intercept_sign_ignores_a_common_factor(a0, a1, b0, b1, z, scale, t, parallel, k):
    # Nicomedes' value, at an unreduced P/Q, ties and parallel directions
    # included: it scales as k**4, so its sign does not move.
    case = _intercept_case(a0, a1, b0, b1, z, scale, t, parallel)
    if case is not None:
        value_at, expected = case
        P, Q = t.numerator, t.denominator
        assert value_at(k * P, k * Q) == k ** 4 * value_at(P, Q)
        assert _sign(value_at(P, Q)) == expected


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

    def record(value_at, lo, hi, *rest):
        ends.append((lo, _sign_of(value_at, lo), hi, _sign_of(value_at, hi)))
        return _bisect(value_at, lo, hi, *rest)

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


def _digits_by_loop(x):
    """The reference for ``_digits_for``: try d = 1, 2, ... on Fractions."""
    d = 1
    while Fraction(1, 10 ** d) > x:
        d += 1
    return d


@given(
    st.one_of(
        # exact powers of ten, and values just either side of them
        st.builds(
            lambda k, e: Fraction(10) ** -k + e * Fraction(1, 10 ** (k + 40)),
            st.integers(min_value=-5, max_value=60),
            st.sampled_from([-1, 0, 1]),
        ),
        st.fractions(min_value=1, max_value=10 ** 12),
        st.fractions(min_value=Fraction(1, 10 ** 70), max_value=2, max_denominator=10 ** 80),
    )
)
def test_digits_for_matches_the_loop(x):
    assert _digits_for(x) == _digits_by_loop(x)


def test_digits_for_rejects_nonpositive_targets():
    for x in (Fraction(0), Fraction(-1, 10)):
        with pytest.raises(ValueError, match="^width target must be positive$"):
            _digits_for(x)


def _interval_cut(z, cuts, tl, th):
    """K's abscissa and the squared cut over [tl, th] as ``Interval``
    expressions, or None where a cut denominator contains 0."""
    (vx1, vy1, n1), (vx_k, vy_k, n_k) = cuts
    t_iv = Interval(tl, th)
    dx = 1 - t_iv.square()
    dy = 2 * t_iv
    den1 = dx * vy1 - dy * vx1
    den_k = dx * vy_k - dy * vx_k
    if den1.contains(0) or den_k.contains(0):
        return None
    lam_k = quotient(n_k, den_k)
    x_k = z.x + lam_k * dx  # K's abscissa on the base line
    lam1 = quotient(n1, den1)
    cut_x = z.x + lam1 * dx - x_k
    cut_y = z.y + lam1 * dy - (z.y + lam_k * dy)
    return x_k, cut_x.square() + cut_y.square()


def _interval_neusis_means(prob, z, cuts, target_sq):
    """The reference for ``_neusis_means``: nicomedes' read of a bracket
    as ``Interval`` expressions."""
    a, c = prob.ab, prob.bc

    def evaluate(tl, th):
        cut = _interval_cut(z, cuts, tl, th)
        if cut is None:
            return None
        x_k, cut_sq = cut
        if not encloses(target_sq, cut_sq):
            return _halvings(cut_sq.width, target_sq.width)
        if x_k.lo <= c:
            return None
        x_iv = x_k - c
        return x_iv, quotient(x_k * a, x_iv) - a

    return evaluate


def _band_ends(band):
    """An Interval band as the four integers ``_neusis_means`` takes."""
    return band.lo.numerator, band.lo.denominator, band.hi.numerator, band.hi.denominator


def _both_checks(prob):
    """The integer read and the interval reference on one figure, and
    the figure's value function."""
    z, cuts, target_sq = _figure_by_points(prob, _digits_for(prob.width_target))
    return (
        _neusis_means(prob, cuts, _band_ends(target_sq)),
        _interval_neusis_means(prob, z, cuts, target_sq),
        _intercept_defect(cuts, prob.ab / 2),
    )


def _verdict(evaluate, *bracket):
    """A read's verdict on a bracket, integer ends made Intervals."""
    got = evaluate(*bracket)
    if type(got) is tuple and type(got[0]) is tuple:
        got = _intervals(got)
    return type(got), got


def _verdicts(check, reference, L, H, Q):
    """The integer read's verdict on [L/Q, H/Q] and the interval
    reference's on the same bracket as Fractions."""
    return _verdict(check, L, H, Q), _verdict(reference, Fraction(L, Q), Fraction(H, Q))


#: Problems with ab/bc from 1 + 1e-15 to 1e30 and tol from 1e-6 to 1e-40.
_neusis_problems = st.builds(
    lambda c, ratio, tol: MeanPropProblem(ab=c * ratio, bc=c, tol=tol),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
    st.one_of(
        st.integers(min_value=1, max_value=15).map(lambda k: 1 + Fraction(1, 10 ** k)),
        st.fractions(min_value=Fraction(10001, 10000), max_value=10 ** 4, max_denominator=10 ** 4),
        st.integers(min_value=1, max_value=30).map(lambda k: Fraction(10 ** k)),
    ),
    st.integers(min_value=6, max_value=40).map(lambda k: Fraction(1, 10 ** k)),
)


@st.composite
def _neusis_brackets(draw, value_at):
    """A bracket (L, H, Q) inside [0, 1]: a step of the figure's
    bisection chain as the kernel hands it over (these pass the cut test
    once they are narrow), or one drawn over any denominator, not
    reduced, with its ends at 0, at 1 or equal."""
    kind = draw(st.sampled_from(["chain", "chain-point", "any"]))
    if kind != "any":
        step = draw(st.integers(min_value=0, max_value=250))
        _, L, H, Q = _chain(value_at, Fraction(0), Fraction(1), lambda M: 0)(step)
        if kind == "chain-point":
            L = H = draw(st.sampled_from([L, H]))
        return L, H, Q
    Q = draw(st.one_of(
        st.integers(min_value=1, max_value=10 ** 6), st.integers(0, 200).map(lambda k: 2 ** k)
    ))
    ends = st.one_of(st.just(0), st.just(Q), st.integers(min_value=0, max_value=Q))
    L, H = sorted((draw(ends), draw(ends)))
    if draw(st.booleans()):
        L = H
    return L, H, Q


@given(_neusis_problems, st.data())
@settings(max_examples=300, deadline=None)
def test_cut_check_equals_the_interval_check(prob, data):
    check, reference, value_at = _both_checks(prob)
    verdict, expected = _verdicts(check, reference, *data.draw(_neusis_brackets(value_at)))
    event(verdict[0].__name__)
    assert verdict == expected


@given(_neusis_problems, st.data())
@settings(max_examples=100, deadline=None)
def test_cut_check_band_is_closed(prob, data):
    # A band that ends exactly at the squared cut's ends holds it.
    target = prob.width_target
    z, cuts, _ = _figure_by_points(prob, _digits_for(target))
    L, H, Q = data.draw(_neusis_brackets(_intercept_defect(cuts, prob.ab / 2)))
    cut = _interval_cut(z, cuts, Fraction(L, Q), Fraction(H, Q))
    assume(cut is not None)
    cut_sq = cut[1]
    for band in (cut_sq, Interval(cut_sq.lo, cut_sq.hi + 1), Interval(cut_sq.lo / 2, cut_sq.hi)):
        check = _neusis_means(prob, cuts, _band_ends(band))
        reference = _interval_neusis_means(prob, z, cuts, band)
        verdict, expected = _verdicts(check, reference, L, H, Q)
        assert verdict == expected


@pytest.mark.parametrize(
    "ab, bc, tol",
    [
        (Fraction(2), Fraction(1), Fraction(1, 10 ** 12)),
        (Fraction(10 ** 30), Fraction(1), Fraction(1, 10 ** 12)),
        (1 + Fraction(1, 10 ** 15), Fraction(1), Fraction(1, 10 ** 12)),
        (Fraction(2), Fraction(1), Fraction(1, 10 ** 40)),
        (Fraction(7, 3), Fraction(5, 11), Fraction(1, 10 ** 6)),
        (Fraction(10 ** 6), Fraction(1), Fraction(1, 10 ** 12)),
        (Fraction(2), Fraction(1), Fraction(1, 10 ** 30)),
    ],
)
def test_cut_check_equals_the_interval_check_along_the_chain(ab, bc, tol):
    # Every step of the chain up to a few past the first one whose means
    # meet the width target, so that each of the read's verdicts is reached.
    prob = MeanPropProblem(ab=ab, bc=bc, tol=tol)
    check, reference, value_at = _both_checks(prob)
    chain = _chain(value_at, Fraction(0), Fraction(1), lambda M: 0)
    kinds, past = set(), None
    for step in itertools.count():
        reached, L, H, Q = chain(step)
        assert reached == step  # the root is irrational: the chain never ends
        verdict, expected = _verdicts(check, reference, L, H, Q)
        assert verdict == expected, step
        kind, means = verdict
        kinds.add(kind)
        if kind is tuple and past is None and max(iv.width for iv in means) <= prob.width_target:
            past = step + 5
        if step == past:
            break
    assert kinds >= {type(None), int, tuple}


@given(_neusis_problems)
@settings(max_examples=100, deadline=None)
def test_neusis_cut_constants_have_fixed_signs(prob):
    # The signs the integer check relies on, for every ab > bc: the line
    # through C runs right and down with n1 < 0; the base line runs right.
    cuts, _ = _neusis_figure(prob)
    (vx1, vy1, n1), (vx_k, vy_k, n_k) = cuts
    assert vx1 > 0 and vy1 < 0 and n1 < 0
    assert vx_k > 0 and vy_k == 0 and n_k < 0



def _edge(ab, tol):
    return MeanPropProblem(ab=ab, bc=Fraction(1), tol=Fraction(1, 10 ** tol))


@given(_neusis_problems)
# the four edge problems of the benchmark's meanprops blocks
@example(_edge(Fraction(10 ** 30), 12))
@example(_edge(1 + Fraction(1, 10 ** 15), 12))
@example(_edge(Fraction(10 ** 6), 12))
@example(_edge(Fraction(2), 30))
@settings(max_examples=150, deadline=None)
def test_neusis_figure_equals_the_fraction_reference(prob):
    # The integer cut constants are positive multiples of the triples the
    # Point2 figure gives (a line's cut does not change when its triple is
    # scaled by a positive number), the base line's triple holds the
    # pole's depth, and the band's integer ends are the reference band's
    # ends.
    z, cuts, target_sq = _figure_by_points(prob, _digits_for(prob.width_target))
    got_cuts, (bln, bld, bhn, bhd) = _neusis_figure(prob)
    for got, ref in zip(got_cuts, cuts, strict=True):
        k = Fraction(got[0], ref[0])
        assert k > 0 and got == tuple(k * r for r in ref), (got, ref)
    assert (Fraction(bln, bld), Fraction(bhn, bhd)) == (target_sq.lo, target_sq.hi)
    _, (vx_k, _, n_k) = got_cuts
    assert Fraction(n_k, vx_k) == z.y


def _recorded_kernel_calls(monkeypatch):
    """Record the value function, range and estimate of each kernel call."""
    calls = []

    def recording(value_at, lo, hi, floor_root, *rest):
        calls.append((value_at, lo, hi, floor_root))
        return _bisect(value_at, lo, hi, floor_root, *rest)

    monkeypatch.setattr(mean_proportionals, "_bisect", recording)
    return calls


def _slope_cell(A, C, D, F, M):
    return C * F ** 3 <= A * M ** 3 < C * (F + 1) ** 3


#: Each route's exact test that F/M <= root < (F + 1)/M for a = A/D and
#: c = C/D: the slope's root is cbrt(A/C), and sigma's is cbrt(a**2 c) + c/2.
_CELL_TESTS = {
    "heron": _slope_cell,
    "philo": _slope_cell,
    "apollonius": lambda A, C, D, F, M: (
        (2 * D * F - C * M) ** 3 <= 8 * A * A * C * M ** 3 < (2 * D * (F + 1) - C * M) ** 3
    ),
}


@pytest.mark.parametrize("route", ["heron", "apollonius", "philo", "diocles"])
def test_route_estimates_place_the_root(monkeypatch, route):
    # On the 25 count-test problems and the four benchmark edges, at grids
    # M = Q0 * 2**K as the kernel takes them: heron, philo and apollonius
    # estimate floor(root * M) exactly, and diocles names the level-K cell
    # that its decreasing defect proves (sign >= 0 at the low end, < 0 at
    # the high end), or a cell next to it.
    calls = _recorded_kernel_calls(monkeypatch)
    edges = [_edge(Fraction(10 ** 30), 12), _edge(1 + Fraction(1, 10 ** 15), 12),
             _edge(Fraction(10 ** 6), 12), _edge(Fraction(2), 30)]
    for prob in _criterion07_problems() + edges:
        calls.clear()
        _ROUTES[route](prob)
        [(value_at, lo, hi, floor_root)] = calls
        A, C, D = _cleared(prob.ab, prob.bc)
        L0, H0, Q0 = _cleared(lo, hi)
        for K in (0, 1, 8, 50, 200, 700):
            M, base, W = Q0 << K, L0 << K, H0 - L0
            F = floor_root(M)
            if route == "diocles":
                i = (F - base) // W
                a, b = max(i - 1, 0), min(i + 2, 1 << K)
                low, high = value_at(base + a * W, M), value_at(base + b * W, M)
                assert _sign(low) >= 0 > _sign(high), (prob, K)
            else:
                assert _CELL_TESTS[route](A, C, D, F, M), (prob, K)


_MISSED = MeanPropProblem(ab=10 ** 34, bc=Fraction(1, 3), tol=Fraction(1, 10 ** 6))


def test_nicomedes_refuses_means_its_rounded_pole_moves(monkeypatch):
    # At 1e34 : 1/3 the pole depth, rounded to 26 digits, moves the
    # figure's root by about a*dz/(3x): the step the kernel settles on
    # gives an x 4.2e-19 wide that lies wholly above cbrt(a**2 c).
    settled = []

    def keeping(*args):
        settled.append(_bisect(*args))
        return settled[-1]

    monkeypatch.setattr(mean_proportionals, "_bisect", keeping)
    message = "^the rounded pole depth moves the neusis off the means$"
    with pytest.raises(PrecisionError, match=message):
        METHODS[NICOMEDES](_MISSED)
    [(x, _)] = settled
    a, c = _MISSED.ab, _MISSED.bc
    assert x.width < Fraction(1, 10 ** 18)
    assert x.lo ** 3 > a * a * c
    check_result(METHODS[HERON_APOLLONIUS](_MISSED), a, c, _MISSED.tol)


@pytest.mark.parametrize("tol", [Fraction(1, 10 ** 6), Fraction(1, 10 ** 12)])
def test_nicomedes_means_enclose_the_cube_roots_or_refuse(tol):
    # ab from 1e20 to 1e40 against small bc, where the rounded pole depth
    # can move the figure's root (14 of these 110 problems, all at 1e-6,
    # are refused): every result nicomedes returns holds both true means.
    for k in range(20, 41, 2):
        for bc in (Fraction(1, n) for n in (3, 7, 999, 1000, 12345)):
            prob = MeanPropProblem(ab=Fraction(10 ** k), bc=bc, tol=tol)
            try:
                res = METHODS[NICOMEDES](prob)
            except PrecisionError:
                continue
            a, c = prob.ab, prob.bc
            assert res.x.lo ** 3 <= a * a * c <= res.x.hi ** 3, prob
            assert res.y.lo ** 3 <= a * c * c <= res.y.hi ** 3, prob
