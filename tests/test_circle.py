"""Polygon-doubling bounds: seeds, recurrences, and the derived checks."""

import math
import subprocess
import sys
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from practica.circle_measurement import (
    ExhaustionStep,
    PiBounds,
    PolygonBounds,
    RatioVerdict,
    _chain_from,
    _doubled,
    _inscribed_area,
    _pi_to_width,
    _polygon,
    _working_digits,
    archimedes_window,
    circle_area_bounds,
    double_polygon,
    exhaustion_report,
    fibonacci_identity_check,
    pi_bounds,
    polygon_seed,
    prop2_ratio_check,
)
from practica.mean_proportionals import cissoid_points, conchoid_points
from practica.numerics import Interval, Precision, PrecisionError, rat_sqrt_bounds
from practica.root_extraction import SpecialNumbers

from interval_reference import quotient, round_outward

P20 = Precision(20)

# the circle ratio to 60 decimals, truncated, and one unit in the last place above
PI_60 = Fraction(3141592653589793238462643383279502884197169399375105820974944, 10 ** 60)
PI_60_UP = PI_60 + Fraction(1, 10 ** 60)


def _machin_pi(digits):
    """Fractions lo < hi, 2e-(digits + 6) apart, around the circle ratio,
    from Machin's pi = 16 arctan(1/5) - 4 arctan(1/239) on integers."""
    scale = 10 ** (digits + 10)

    def arctan_inv(x):
        # each term, floor(scale / x**(2k+1)) // (2k+1), is under 2 units
        # off, and the first term dropped is under 1 unit
        total, power, k = 0, scale // x, 0
        while power:
            total += (-1) ** k * (power // (2 * k + 1))
            power //= x * x
            k += 1
        return total

    # about (digits + 10)/1.4 terms for 1/5 and (digits + 10)/4.7 for
    # 1/239, so for digits up to 300 the error is under 10**4 units
    pi = 16 * arctan_inv(5) - 4 * arctan_inv(239)
    return Fraction(pi - 10 ** 4, scale), Fraction(pi + 10 ** 4, scale)


PI_LO, PI_HI = _machin_pi(260)


def test_seed_values_are_exact_where_possible():
    hexagon = polygon_seed(6, P20)
    assert hexagon.per_inscribed.lo == hexagon.per_inscribed.hi == 3
    square = polygon_seed(4, P20)
    assert square.per_circumscribed.lo == square.per_circumscribed.hi == 4
    triangle = polygon_seed(3, P20)
    assert triangle.per_circumscribed.lo ** 2 <= 27 <= triangle.per_circumscribed.hi ** 2


def test_seed_rejects_other_counts():
    with pytest.raises(ValueError):
        polygon_seed(5, P20)


def test_doubling_against_float_oracle():
    # i_n = n sin(pi/n), c_n = n tan(pi/n) for the unit-diameter ratios
    b = polygon_seed(6, P20)
    for _ in range(4):
        b = double_polygon(b, P20)
        n = b.sides
        assert abs(float(b.per_inscribed.mid) - n * math.sin(math.pi / n)) < 1e-12
        assert abs(float(b.per_circumscribed.mid) - n * math.tan(math.pi / n)) < 1e-12


def test_perimeter_ordering_invariant():
    b = polygon_seed(6, P20)
    for _ in range(6):
        nxt = double_polygon(b, P20)
        # inscribed grows, circumscribed shrinks, never crossing
        assert nxt.per_inscribed.lo >= b.per_inscribed.lo
        assert nxt.per_circumscribed.hi <= b.per_circumscribed.hi
        assert nxt.per_inscribed.hi <= nxt.per_circumscribed.hi
        b = nxt


@pytest.mark.parametrize("lo", [0, -1, Fraction(-1, 10 ** 30)])
@pytest.mark.parametrize("field", ["per_inscribed", "per_circumscribed"])
def test_polygon_bounds_need_positive_lower_ends(field, lo):
    # a perimeter ratio is positive; the message names the field
    fields = {"per_inscribed": Interval(3, 3), "per_circumscribed": Interval(4, 4)}
    fields[field] = Interval(lo, 5)
    with pytest.raises(ValueError, match=rf"^{field}\.lo must be positive, got {lo}$"):
        PolygonBounds(6, **fields)


def _sqrt_by_intervals(iv, p):
    """The enclosure of sqrt over a nonnegative interval: the low end of
    rat_sqrt_bounds at iv.lo and its high end at iv.hi."""
    return Interval(rat_sqrt_bounds(iv.lo, p).lo, rat_sqrt_bounds(iv.hi, p).hi)


def _means_by_intervals(b, p):
    """The reference's i2 and c2: the interval expressions, rounded afterwards."""
    digits = _working_digits(p)
    i, c = b.per_inscribed, b.per_circumscribed
    c2 = round_outward(quotient(2 * i * c, i + c), digits)
    return round_outward(_sqrt_by_intervals(c2 * i, Precision(digits)), digits), c2


def _doubled_by_intervals(b, p):
    """The reference: one doubling as interval expressions, rounded afterwards."""
    return PolygonBounds(2 * b.sides, *_means_by_intervals(b, p))


#: Each seed's squared perimeter ratios, inscribed and circumscribed:
#: (3, 2*sqrt(3)), (2*sqrt(2), 4) and ((3/2)*sqrt(3), 3*sqrt(3)).
_SEED_SQUARES = {6: (9, 12), 4: (8, 16), 3: (Fraction(27, 4), 27)}


def _on_grid_by_roots(S, lo_sq, hi_sq):
    """[floor(S*sqrt(lo_sq)), ceil(S*sqrt(hi_sq))] / S by `_tightest_root`."""
    return Interval(Fraction(_tightest_root(S * S * lo_sq, up=False), S),
                    Fraction(_tightest_root(S * S * hi_sq, up=True), S))


@settings(deadline=None)
@given(st.sampled_from([3, 4, 6]), st.integers(min_value=1, max_value=410), st.integers(0, 30))
@example(3, 24, 0)  # the 3-gon seed at 34 and 67 working digits, where a root
@example(3, 57, 0)  # on a 100 times finer grid, multiplied, misses the tightest by a step
def test_seeds_and_apothem_areas_equal_the_interval_reference(seed, digits, doublings):
    # every end is its exact value floored or ceiled onto the grid: the
    # seeds' perimeter ratios, and the area i * sqrt(1 - (i/n)**2) from
    # i's ends, each factor at its own low end for the low end
    p = Precision(digits)
    S = 10 ** _working_digits(p)
    expected = PolygonBounds(seed, *(_on_grid_by_roots(S, sq, sq) for sq in _SEED_SQUARES[seed]))
    assert polygon_seed(seed, p) == expected
    n, i_lo, i_hi, _, _ = next(islice(_chain_from(seed, p), doublings, None))
    lo, hi = Fraction(i_lo, S), Fraction(i_hi, S)
    area = _on_grid_by_roots(S, lo * lo * (1 - (hi / n) ** 2), hi * hi * (1 - (lo / n) ** 2))
    assert _inscribed_area(n, p, i_lo, i_hi) == (area.lo * S, area.hi * S)


def _outcome(double, b, p):
    try:
        return double(b, p)
    except ValueError as e:  # a result whose bounds are not a polygon's
        return str(e)
    except PrecisionError:  # raised where i2.lo rounds to 0
        return "per_inscribed.lo must be positive, got 0"


@st.composite
def doubling_inputs(draw):
    p = Precision(draw(st.integers(min_value=1, max_value=70)))
    scale = 10 ** _working_digits(p)
    on_grid = st.integers(min_value=1, max_value=10 * scale).map(lambda k: Fraction(k, scale))
    off_grid = st.fractions(min_value=Fraction(1, 10 ** 15), max_value=10, max_denominator=10 ** 40)
    ends = st.one_of(on_grid, off_grid)
    i = sorted((draw(ends), draw(ends)))
    c = sorted((draw(ends), draw(ends)))
    assume(i[0] < c[1])
    sides = draw(st.sampled_from([3, 4, 6])) * 2 ** draw(st.integers(min_value=0, max_value=40))
    return PolygonBounds(sides, Interval(*i), Interval(*c)), p


def _tightest_root(x, up):
    """floor(sqrt(x)), or ceil(sqrt(x)) when ``up``, for a Fraction x >= 0
    (x > 0 when ``up``), checked against its defining inequalities."""
    k = math.isqrt(math.floor(x))
    if up:
        k += k * k < x
        assert (k - 1) ** 2 < x <= k ** 2
    else:
        assert k ** 2 <= x < (k + 1) ** 2
    return k


# Roots just above and just below a grid point, where any enclosure less
# tight than the floor and the ceiling puts i2.lo, then i2.hi, one grid
# step wider.
_NEAR_GRID_FROM_ABOVE = PolygonBounds(
    6,
    Interval(Fraction(654573571016600838023200, 218191190338638000713277), Fraction(31, 10)),
    Interval(Fraction(801, 250), Fraction(33, 10)),
)
_NEAR_GRID_FROM_BELOW = PolygonBounds(
    6,
    Interval(3, Fraction(756854740926001707538550, 244146690617305545218457)),
    Interval(
        Fraction(16, 5),
        Fraction(24976206450142788728439014628098227833, 7568547409260017075385500000000000000),
    ),
)


# Bounds whose ends clear to B = S, to B = 3*S (g = gcd(S, B) = S, so the
# step takes S/B as 1/3) and to B = 77 (g = 1), at 5 digits.
_P5 = Precision(5)
_S5 = 10 ** _working_digits(_P5)
_C5 = Interval(Fraction(16, 5), Fraction(33, 10))
_OVER_S = PolygonBounds(6, Interval(3 + Fraction(1, _S5), Fraction(31, 10)), _C5)
_OVER_3S = PolygonBounds(6, Interval(3 + Fraction(1, 3 * _S5), Fraction(31, 10)), _C5)
_OVER_7_AND_11 = PolygonBounds(
    6, Interval(Fraction(20, 7), Fraction(22, 7)), Interval(Fraction(35, 11), Fraction(36, 11))
)


@given(doubling_inputs())
@example((_NEAR_GRID_FROM_ABOVE, Precision(1)))
@example((_NEAR_GRID_FROM_BELOW, Precision(1)))
@example((_OVER_S, _P5))
@example((_OVER_3S, _P5))
@example((_OVER_7_AND_11, _P5))
def test_doubling_is_the_tightest_grid_enclosure(case):
    # c2 is exactly the reference's; i2 is floor(S*sqrt(c2.lo*i.lo)) and
    # ceil(S*sqrt(c2.hi*i.hi)) over S, the reference's i2 too, whose roots
    # lie on a grid 100 times finer; the step refuses as the bounds it
    # would return demand
    b, p = case
    S = 10 ** _working_digits(p)
    i = b.per_inscribed
    ref_i2, c2 = _means_by_intervals(b, p)
    i2_lo = _tightest_root(S * S * c2.lo * i.lo, up=False)
    i2_hi = _tightest_root(S * S * c2.hi * i.hi, up=True)
    i2 = Interval(Fraction(i2_lo, S), Fraction(i2_hi, S))
    assert ref_i2 == i2
    expected = _outcome(lambda *_: PolygonBounds(2 * b.sides, i2, c2), b, p)
    assert _outcome(double_polygon, b, p) == expected


@pytest.mark.parametrize("seed", [3, 4, 6])
@pytest.mark.parametrize("digits", [5, 30, 70])
def test_doubling_chain_equals_the_interval_chain(seed, digits):
    p = Precision(digits)
    b = ref = polygon_seed(seed, p)
    for _ in range(40):
        b, ref = double_polygon(b, p), _doubled_by_intervals(ref, p)
        assert b == ref


@pytest.mark.parametrize("seed", [3, 4, 6])
def test_doubling_raises_where_the_inscribed_bound_rounds_to_zero(seed):
    # at 1 digit the widths grow past the grid after 33 doublings, and the
    # interval expression's next inscribed bound rounds to 0
    p = Precision(1)
    b = _polygon(p, *next(islice(_chain_from(seed, p), 33, None)))
    assert b.per_inscribed.lo > 0
    with pytest.raises(ValueError, match=r"^per_inscribed\.lo must be positive, got 0$"):
        _doubled_by_intervals(b, p)
    message = rf"^cannot double {b.sides} sides at 1 digits: the inscribed bound rounds to 0$"
    with pytest.raises(PrecisionError, match=message):
        double_polygon(b, p)
    if seed == 6:
        with pytest.raises(PrecisionError, match=message):
            pi_bounds(target_sides=2 * b.sides, p=p)


def _raised(f, *args):
    """f(*args), or the type and message of the refusal it raised."""
    try:
        return f(*args)
    except (ValueError, PrecisionError) as e:
        return type(e), str(e)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 4, 6]), st.integers(min_value=1, max_value=70), st.integers(0, 45))
@example(3, 1, 45)  # at 1 digit the inscribed bound rounds to 0 at the 34th doubling
@example(4, 1, 45)
@example(6, 1, 45)
def test_chain_equals_iterated_double_polygon(seed, digits, doublings):
    # the chain carries integers between steps; the public step fed its
    # own output gives the same bounds and the same refusal
    p = Precision(digits)
    chain = (_polygon(p, *ends) for ends in _chain_from(seed, p))
    b = polygon_seed(seed, p)
    assert next(chain) == b
    for _ in range(doublings):
        expected = _raised(double_polygon, b, p)
        assert _raised(next, chain) == expected
        if not isinstance(expected, PolygonBounds):
            break
        b = expected


def test_integer_step_checks_the_order_of_its_bounds():
    # the chain builds no PolygonBounds between the bounds it returns, so
    # the integer step makes its check itself, with the same message
    with pytest.raises(ValueError, match=r"^inscribed/circumscribed bounds are inconsistent$"):
        _doubled(6, P20, 1, 1, 100, 100, 1, 1)


def test_bounds_nest_as_sides_double():
    prev = pi_bounds(target_sides=6, p=P20)
    for k in range(1, 7):
        cur = pi_bounds(target_sides=6 * 2 ** k, p=P20)
        assert prev.lower <= cur.lower <= cur.upper <= prev.upper
        prev = cur


def test_hexagon_lower_bound_is_exactly_three():
    assert pi_bounds(target_sides=6, p=P20).lower == 3


def test_target_sides_must_be_hexagon_chain():
    for bad in (0, 17, 48 * 3, 7, 3, 4, 12 * 5, -6):
        with pytest.raises(ValueError, match=rf"^target_sides must be 6 \* 2\*\*k, got {bad}$"):
            pi_bounds(target_sides=bad, p=P20)
    with pytest.raises(ValueError):
        pi_bounds(p=P20)  # neither target given
    with pytest.raises(ValueError):
        pi_bounds(target_sides=96, target_width=Fraction(1, 10), p=P20)


def test_width_driver_reaches_requested_width():
    b = pi_bounds(target_width=Fraction(1, 10 ** 12), p=Precision(20))
    assert b.upper - b.lower <= Fraction(1, 10 ** 12)
    assert b.sides % 6 == 0


def test_machin_pi_agrees_with_the_60_digit_constant():
    assert PI_60 < PI_LO < PI_HI < PI_60_UP
    assert PI_HI - PI_LO <= Fraction(2, 10 ** 266)


def _assert_reached(width, p):
    # no PrecisionError, the width met, and the circle ratio strictly inside
    b = pi_bounds(target_width=width, p=p)
    assert b.width <= width, (width, p)
    assert b.lower < PI_LO and PI_HI < b.upper, (width, p)


def test_width_driver_never_stalls_at_one_digit():
    # the working digits come from the width alone here, 11 to 337 of
    # them.  Each decade 10**-(k+1) < width <= 10**-k runs at one digit
    # count, so its narrowest width, just above 10**-(k+1), lies nearest
    # the floor: where it is reached, 10**-k is reached no later.
    for k in range(1, 201):
        _assert_reached(Fraction(10 ** 9 + 1, 10 ** (k + 10)), Precision(1))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=200),
    st.sampled_from([1, 3, 5, 10, 30, 52, 60]),
)
@example(1, 200, 1)  # the deepest width, from the rule's digits
@example(1, 21, 3)  # refused before, when the retry at 6 digits stalled
def test_width_driver_never_stalls(m, k, digits):
    _assert_reached(Fraction(m, 10 ** k), Precision(digits))


def test_width_driver_has_no_doubling_cap():
    # the rule gives 1e-42 74 working digits (precision 64), which reach
    # the width at 6 * 2**70 sides, 70 doublings from the hexagon
    b = pi_bounds(target_width=Fraction(1, 10 ** 42), p=Precision(52))
    assert b.width <= Fraction(1, 10 ** 42)
    assert (b.sides, b.precision) == (6 * 2 ** 70, Precision(64))
    assert b.lower < PI_60 and PI_60_UP < b.upper
    r = subprocess.run(
        [sys.executable, "-m", "practica", "pi-bounds", "--width", "1e-42", "--precision", "52"],
        capture_output=True,
        timeout=120,
    )
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("exponent", [10, 30, 41])
def test_width_mode_agrees_with_side_mode(exponent):
    b = pi_bounds(target_width=Fraction(1, 10 ** exponent), p=Precision(30))
    assert pi_bounds(target_sides=b.sides, p=b.precision) == b


def _pi_by_public_steps(m, k, p):
    """pi_bounds(target_width=m/10**k, p=p), for 1 <= m <= 9, from
    polygon_seed and double_polygon alone: double the hexagon once, at
    ceil(5*(j + 2)/3) working digits for the decade 10**-(j+1) < width
    <= 10**-j if that is more than p's, until the width is reached or
    stops falling."""
    width, j = Fraction(m, 10 ** k), k if m == 1 else k - 1
    q = Precision(max(p.decimal_digits, math.ceil(5 * (j + 2) / 3) - 10))
    b, narrowest = polygon_seed(6, q), None
    while True:
        w = b.per_circumscribed.hi - b.per_inscribed.lo
        if w <= width:
            return PiBounds(b.per_inscribed.lo, b.per_circumscribed.hi, b.sides, q)
        if narrowest is not None and w >= narrowest:
            raise PrecisionError(
                f"cannot reach width {width} at {q.decimal_digits} digits: "
                f"the bounds stopped narrowing at {b.sides // 2} sides"
            )
        narrowest = w
        b = double_polygon(b, q)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=80),
    st.sampled_from([1, 5, 30, 52, 60]),
)
@example(1, 80, 1)  # reached at the rule's 137 working digits; refused before
@example(3, 42, 52)  # reached at the rule's 72 working digits
@example(7, 1, 60)  # reached at the hexagon
def test_width_search_equals_the_public_steps(m, k, digits):
    # m = 2, 4, 5, 6 and 8 reduce to denominators that are not powers of
    # ten, so the integer width comparison reads both parts of the width
    width, p = Fraction(m, 10 ** k), Precision(digits)
    found = _raised(pi_bounds, None, width, p)
    assert found == _raised(_pi_by_public_steps, m, k, p)
    if isinstance(found, PiBounds):
        # a width met with equality stops the search where it was reached
        assert _pi_to_width(found.width, found.precision) == found


def test_pi_bounds_validation():
    with pytest.raises(ValueError):
        PiBounds(lower=Fraction(4), upper=Fraction(3), sides=6, precision=P20)


def test_archimedes_window_is_the_classical_fractions():
    w = archimedes_window(Precision(15))
    assert w.lower == Fraction(3) + Fraction(10, 71)
    assert w.upper == Fraction(22, 7)
    assert w.sides == 96


def test_prop2_verdict_inside_for_classical_window():
    verdict = prop2_ratio_check(archimedes_window(Precision(15)))
    assert verdict.target == Fraction(11, 14)
    assert verdict.contained
    assert verdict.signed_distance == 0
    # 11/14 is exactly the upper endpoint: (22/7)/4
    assert verdict.quarter.hi == Fraction(11, 14)


def test_prop2_verdict_outside_for_tight_bounds():
    tight = pi_bounds(target_width=Fraction(1, 10 ** 10), p=P20)
    verdict = prop2_ratio_check(tight)
    assert not verdict.contained
    assert verdict.signed_distance > 0  # 11/14 sits above the true ratio / 4
    assert abs(verdict.signed_distance - Fraction(316, 10 ** 6)) < Fraction(2, 10 ** 6)


@pytest.mark.parametrize(
    "lo, hi, contained, distance",
    [
        (Fraction(3, 4), Fraction(4, 5), True, 0),
        (Fraction(1, 2), Fraction(3, 4), False, Fraction(11, 14) - Fraction(3, 4)),
        (Fraction(4, 5), Fraction(9, 10), False, Fraction(11, 14) - Fraction(4, 5)),
    ],
    ids=["inside", "above", "below"],
)
def test_ratio_verdict_derives_from_the_quarter(lo, hi, contained, distance):
    verdict = RatioVerdict(Interval(lo, hi))
    assert verdict.target == Fraction(11, 14)
    assert verdict.contained is contained
    assert verdict.signed_distance == distance
    # prop2_ratio_check reads the same verdict off pi bounds four times as large
    assert prop2_ratio_check(PiBounds(4 * lo, 4 * hi, 6, P20)) == verdict


def test_circle_area_with_archimedes_window():
    area = circle_area_bounds(7, archimedes_window(Precision(15)))
    assert area.hi == 154  # 22/7 * 49
    assert area.lo == 49 * (Fraction(3) + Fraction(10, 71))
    with pytest.raises(ValueError):
        circle_area_bounds(0, archimedes_window(Precision(15)))


def test_exhaustion_steps_certify_halving():
    # 20 working digits cannot certify 20 halvings: that report runs at 22
    for doublings, digits in ((5, 25), (20, 10)):
        steps = exhaustion_report(doublings, Precision(digits))
        assert [s.sides_before for s in steps] == [4 * 2 ** k for k in range(doublings)]
        for s in steps:
            assert s.inscribed_halved and s.circumscribed_halved
            assert s.inscribed_gap_after.hi < s.inscribed_gap_before.lo / 2
            assert s.circumscribed_gap_after.hi < s.circumscribed_gap_before.lo / 2


@pytest.mark.parametrize("digits", [1, 10, 30])
def test_exhaustion_report_never_raises(digits):
    # the square chain runs at max_doublings + 2 working digits or more
    p = Precision(digits)
    for doublings in range(1, 81):
        steps = exhaustion_report(doublings, p)
        assert len(steps) == doublings
        assert all(s.inscribed_halved and s.circumscribed_halved for s in steps), doublings


def test_exhaustion_steps_share_each_polygons_gaps():
    steps = exhaustion_report(6, Precision(25))
    for s in steps:
        assert s.sides_after == 2 * s.sides_before
    for before, after in zip(steps, steps[1:]):
        assert after.inscribed_gap_before is before.inscribed_gap_after
        assert after.circumscribed_gap_before is before.circumscribed_gap_after


def test_exhaustion_step_reports_a_gap_that_does_not_halve():
    halves, stays = Interval(Fraction(1, 10), Fraction(1, 9)), Interval(Fraction(1), Fraction(2))
    step = ExhaustionStep(
        sides_before=4,
        inscribed_gap_before=Interval(Fraction(1), Fraction(2)),
        inscribed_gap_after=stays,
        circumscribed_gap_before=Interval(Fraction(1), Fraction(2)),
        circumscribed_gap_after=halves,
    )
    assert step.inscribed_halved is False
    assert step.circumscribed_halved is True
    # the bound is strict: an after-gap reaching half the before-gap's low end fails
    edge = ExhaustionStep(4, stays, Interval(0, Fraction(1, 2)), stays, Interval(0, Fraction(1, 3)))
    assert (edge.inscribed_halved, edge.circumscribed_halved) == (False, True)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: pi_bounds(target_sides=96.0, p=P20), "target_sides"),
        (lambda: pi_bounds(target_sides=True, p=P20), "target_sides"),
        (lambda: fibonacci_identity_check(12.0, P20), "n"),
        (lambda: exhaustion_report(2.5, P20), "max_doublings"),
        (lambda: exhaustion_report(True, P20), "max_doublings"),
        (lambda: polygon_seed(6.0, P20), "sides"),
        (lambda: polygon_seed(True, P20), "sides"),
        (lambda: PolygonBounds(6.5, Interval(3, 3), Interval(4, 4)), "sides"),
        (lambda: cissoid_points(Fraction(1), 3.0), "samples"),
        (lambda: cissoid_points(Fraction(1), True), "samples"),
        (lambda: conchoid_points(Fraction(1), Fraction(1), 3.0, (0, 1)), "samples"),
        (lambda: conchoid_points(Fraction(1), Fraction(1), True, (0, 1)), "samples"),
        (lambda: SpecialNumbers.for_degree(3.0), "degree"),
        (lambda: SpecialNumbers.for_degree(True), "degree"),
    ],
)
def test_counts_must_be_integers(call, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer$"):
        call()


def test_fibonacci_identity_small_and_large():
    for n in (3, 4, 6, 12):
        d = fibonacci_identity_check(n, Precision(30))
        assert d.contains(0)
        assert d.width <= Fraction(1, 10 ** 20)


@pytest.mark.parametrize("digits", [10, 30])
def test_derived_inscribed_areas_contain_exact_values(digits):
    # unit-radius areas squared: square 4, octagon 8, hexagon 27/4, 12-gon 9
    p = Precision(digits)
    S = 10 ** _working_digits(p)
    for sides, num, den in ((4, 4, 1), (8, 8, 1), (6, 27, 4), (12, 9, 1)):
        n, i_lo, i_hi, _, _ = next(_chain_from(sides, p))
        lo, hi = (Fraction(e, S) for e in _inscribed_area(n, p, i_lo, i_hi))
        assert 0 < lo, sides
        # lo**2 <= num/den <= hi**2, cross-multiplied on integers
        assert lo.numerator ** 2 * den <= num * lo.denominator ** 2, sides
        assert num * hi.denominator ** 2 <= hi.numerator ** 2 * den, sides


def test_fibonacci_identity_rejects_bad_sides():
    with pytest.raises(ValueError):
        fibonacci_identity_check(5, P20)


def test_interval_endpoints_are_on_decimal_grid():
    # every endpoint of the chain lies on the 10**-(p + 10) grid, so
    # denominators stay bounded however many doublings are taken
    p = Precision(25)
    grid = 10 ** (25 + 10)
    polygons = [_polygon(p, *ends) for ends in islice(_chain_from(6, p), 21)]
    assert polygons[-1].sides == 6 * 2 ** 20
    for b in polygons:
        for iv in (b.per_inscribed, b.per_circumscribed):
            assert grid % iv.lo.denominator == 0 and grid % iv.hi.denominator == 0, b.sides
    bounds = pi_bounds(target_sides=6 * 2 ** 20, p=p)
    last = polygons[-1]
    assert (bounds.lower, bounds.upper) == (last.per_inscribed.lo, last.per_circumscribed.hi)
