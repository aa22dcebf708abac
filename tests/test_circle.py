"""Polygon-doubling bounds: seeds, recurrences, and the derived checks."""

import math
import subprocess
import sys
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from practica.circle_measurement import (
    ExhaustionStep,
    PiBounds,
    PolygonBounds,
    RatioVerdict,
    _chain,
    _chain_from,
    _inscribed_area,
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
from practica.numerics import Interval, Precision, PrecisionError, interval_sqrt

P20 = Precision(20)

# the circle ratio to 60 decimals, truncated, and one unit in the last place above
PI_60 = Fraction(3141592653589793238462643383279502884197169399375105820974944, 10 ** 60)
PI_60_UP = PI_60 + Fraction(1, 10 ** 60)


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


def _doubled_by_intervals(b, p):
    """The reference: one doubling as interval expressions, rounded afterwards."""
    digits = _working_digits(p)
    i, c = b.per_inscribed, b.per_circumscribed
    c2 = ((2 * i * c) / (i + c)).round_outward(digits)
    i2 = interval_sqrt(c2 * i, Precision(digits)).round_outward(digits)
    return PolygonBounds(2 * b.sides, i2, c2)


def _outcome(double, b, p):
    try:
        return double(b, p)
    except ValueError as e:  # a result whose bounds are not a polygon's
        return str(e)
    except PrecisionError:  # raised where the reference's i2.lo is 0
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


@given(doubling_inputs())
def test_doubling_equals_the_rounded_interval_expression(case):
    b, p = case
    assert _outcome(double_polygon, b, p) == _outcome(_doubled_by_intervals, b, p)


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
    b = next(islice(_chain(seed, p), 33, None))
    assert b.per_inscribed.lo > 0
    with pytest.raises(ValueError, match=r"^per_inscribed\.lo must be positive, got 0$"):
        _doubled_by_intervals(b, p)
    message = rf"^cannot double {b.sides} sides at 1 digits: the inscribed bound rounds to 0$"
    with pytest.raises(PrecisionError, match=message):
        double_polygon(b, p)
    if seed == 6:
        with pytest.raises(PrecisionError, match=message):
            pi_bounds(target_sides=2 * b.sides, p=p)


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


def test_width_driver_raises_when_precision_cannot_deliver():
    # after the retry at 6 digits the chain stalls; the error says where
    with pytest.raises(PrecisionError, match=r"at 6 digits: .* stopped narrowing at \d+ sides"):
        pi_bounds(target_width=Fraction(1, 10 ** 21), p=Precision(3))


def test_width_driver_has_no_doubling_cap():
    # 62 working digits stall near 4e-38; the retry at 104 digits reaches
    # the width at 6 * 2**70 sides, 70 doublings from the hexagon
    b = pi_bounds(target_width=Fraction(1, 10 ** 42), p=Precision(52))
    assert b.width <= Fraction(1, 10 ** 42)
    assert (b.sides, b.precision) == (6 * 2 ** 70, Precision(104))
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
    # 10 digits cannot certify 20 halvings: that report is rebuilt at 20
    for doublings, digits in ((5, 25), (20, 10)):
        steps = exhaustion_report(doublings, Precision(digits))
        assert [s.sides_before for s in steps] == [4 * 2 ** k for k in range(doublings)]
        for s in steps:
            assert s.inscribed_halved and s.circumscribed_halved
            assert s.inscribed_gap_after.hi < s.inscribed_gap_before.lo / 2
            assert s.circumscribed_gap_after.hi < s.circumscribed_gap_before.lo / 2


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
    for sides, num, den in ((4, 4, 1), (8, 8, 1), (6, 27, 4), (12, 9, 1)):
        area = _inscribed_area(next(_chain_from(sides, p)), p)
        lo, hi = area.lo, area.hi
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
    polygons = list(islice(_chain(6, p), 21))
    assert polygons[-1].sides == 6 * 2 ** 20
    for b in polygons:
        for iv in (b.per_inscribed, b.per_circumscribed):
            assert grid % iv.lo.denominator == 0 and grid % iv.hi.denominator == 0, b.sides
    bounds = pi_bounds(target_sides=6 * 2 ** 20, p=p)
    last = polygons[-1]
    assert (bounds.lower, bounds.upper) == (last.per_inscribed.lo, last.per_circumscribed.hi)
