import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from practica.numerics import (
    Interval,
    Precision,
    _decade,
    int_nth_root_floor,
    rat_sqrt_bounds,
)

from interval_reference import ends

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
small_rationals = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000)


def make_interval(a: Fraction, b: Fraction) -> Interval:
    return Interval(min(a, b), max(a, b))


@given(rationals, rationals, rationals, rationals, st.sampled_from(["add", "sub", "rsub", "mul"]))
def test_interval_ops_contain_pointwise_results(a, b, c, d, op):
    """If x in X and y in Y then x op y must land in X op Y."""
    x_iv, y_iv = make_interval(a, b), make_interval(c, d)
    for x in (x_iv.lo, x_iv.mid, x_iv.hi):
        for y in (y_iv.lo, y_iv.mid, y_iv.hi):
            if op == "add":
                assert (x_iv + y_iv).contains(x + y)
            elif op == "sub":
                assert (x_iv - y_iv).contains(x - y)
            elif op == "rsub":  # Fraction - Interval
                assert (x - y_iv).contains(x - y)
            else:
                assert (x_iv * y_iv).contains(x * y)


@given(rationals, rationals)
def test_square_is_tight_image(a, b):
    iv = make_interval(a, b)
    sq = iv.square()
    ends = (iv.lo * iv.lo, iv.hi * iv.hi)
    assert sq.lo <= min(ends) and max(ends) <= sq.hi
    product = iv * iv
    assert product.lo <= sq.lo and sq.hi <= product.hi
    for x in (iv.lo, iv.mid, iv.hi):
        assert sq.contains(x * x)
    # the image is exactly attained at an endpoint or at zero
    assert sq.lo == (0 if iv.contains(0) else min(iv.lo * iv.lo, iv.hi * iv.hi))


@given(rationals, rationals)
def test_magnitude(a, b):
    iv = make_interval(a, b)
    m = iv.magnitude()
    assert m.lo >= 0
    for x in (iv.lo, iv.mid, iv.hi):
        assert m.contains(abs(x))


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        Interval(2, 1)
    assert Interval.point(5).width == 0
    values = (Fraction(3), Fraction(-1), Fraction(2))
    hull = Interval(min(values), max(values))
    assert (hull.lo, hull.hi) == (-1, 3)
    unit = Interval(0, 1)
    for inexact in (
        lambda: Interval(0.5, 1),
        lambda: Interval.point(0.5),
        lambda: unit * 0.5,
        lambda: 0.5 * unit,
        lambda: unit + 0.5,
        lambda: 0.5 - unit,
        lambda: unit.contains(0.5),
    ):
        with pytest.raises(TypeError):
            inexact()
    for flag in (lambda: Interval(True, 2), lambda: Interval(1, 2) + True):
        # a bool is no rational, as it is no count
        with pytest.raises(TypeError, match="^expected an exact rational, got bool$"):
            flag()
    # there is no interval quotient, by an interval or by a scalar
    for divide in (lambda: Interval(1, 2) / 2, lambda: 1 / Interval(1, 2), lambda: unit / unit):
        with pytest.raises(TypeError, match="unsupported operand"):
            divide()


# -- exact endpoints: every operator against the four-endpoint formulas

endpoints = st.one_of(st.just(Fraction(0)), rationals)
scalars = st.one_of(st.integers(min_value=-1000, max_value=1000), rationals)


@st.composite
def intervals(draw):
    a = draw(endpoints)
    if draw(st.booleans()):
        return Interval.point(a)
    return make_interval(a, draw(endpoints))


def _hull(*values: Fraction) -> tuple[Fraction, Fraction]:
    return min(values), max(values)


def _reference(op: str, x: tuple, y: tuple) -> tuple[Fraction, Fraction]:
    """x op y from all four endpoint combinations."""
    (a, b), (c, d) = x, y
    if op == "add":
        return a + c, b + d
    if op == "sub":
        return a - d, b - c
    return _hull(a * c, a * d, b * c, b * d)


BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def assert_endpoints(got: Interval, expected: tuple[Fraction, Fraction]) -> None:
    assert (got.lo, got.hi) == expected
    assert type(got.lo) is Fraction and type(got.hi) is Fraction


@given(intervals(), intervals(), scalars)
def test_interval_ops_match_four_endpoint_reference(x, y, v):
    """Endpoints equal the min and max over all four, for each operator,
    with interval or scalar operands of either sign on either side."""
    for op, apply in BINARY.items():
        for a in (x, Interval(-x.hi, -x.lo)):
            pairs = [(a, s) for s in (v, -v)] + [(a, b) for b in (y, Interval(-y.hi, -y.lo))]
            for left, right in pairs + [(r, l) for l, r in pairs]:
                assert_endpoints(apply(left, right), _reference(op, ends(left), ends(right)))


@given(intervals())
def test_interval_unary_ops_match_reference(x):
    a, b = x.lo, x.hi
    square = (Fraction(0), max(a * a, b * b)) if a <= 0 <= b else _hull(a * a, b * b)
    if a >= 0:
        magnitude = (a, b)
    elif b <= 0:
        magnitude = (-b, -a)
    else:
        magnitude = (Fraction(0), max(-a, b))
    assert_endpoints(x.square(), square)
    assert_endpoints(x.magnitude(), magnitude)
    assert_endpoints(-x, (-b, -a))


def _is_rational_square(x: Fraction) -> bool:
    return all(math.isqrt(k) ** 2 == k for k in (x.numerator, x.denominator))


@given(
    small_rationals,
    st.integers(min_value=1, max_value=40),
    st.fractions(min_value=0, max_value=Fraction(1, 10 ** 6), max_denominator=10 ** 12),
)
@example(Fraction(1, 9), 3, Fraction(1, 10 ** 9))  # a square whose root is off the grid
def test_rat_sqrt_bounds_postcondition(x, digits, step):
    # the ends are floor(G*sqrt(x)) and ceil(G*sqrt(x)) over G = 10**(digits + 2),
    # each by its defining inequalities on integers, so the width is 1/G; a
    # rational square is its exact root, 0 wide
    p, G = Precision(digits), 10 ** (digits + 2)
    iv = rat_sqrt_bounds(x, p)
    assert iv.lo * iv.lo <= x <= iv.hi * iv.hi
    if _is_rational_square(x):
        assert iv.lo == iv.hi >= 0 and iv.lo * iv.lo == x
    else:
        lo, hi = iv.lo * G, iv.hi * G
        assert lo.denominator == hi.denominator == 1
        n, d, lo, hi = x.numerator * G * G, x.denominator, int(lo), int(hi)
        assert lo * lo * d <= n < (lo + 1) ** 2 * d
        assert (hi - 1) ** 2 * d < n <= hi * hi * d
        assert iv.width == Fraction(1, G)
    # off the rational squares both ends are non-decreasing in x
    y = x + step
    if step and not (_is_rational_square(x) or _is_rational_square(y)):
        above = rat_sqrt_bounds(y, p)
        assert iv.lo <= above.lo and iv.hi <= above.hi


@given(
    st.one_of(
        # exact powers of ten, and values just either side of them
        st.builds(
            lambda k, e: Fraction(10) ** k * (1 + Fraction(e, 10 ** 40)),
            st.integers(min_value=-6000, max_value=6000),
            st.sampled_from([-1, 0, 1]),
        ),
        st.fractions(min_value=0, max_value=1, max_denominator=10 ** 30).filter(bool),
        st.builds(Fraction, st.integers(1, 10 ** 5100), st.integers(1, 10 ** 60)),
    )
)
def test_decade_brackets_the_value(x):
    k = _decade(x.numerator, x.denominator)
    assert Fraction(10) ** k <= x < Fraction(10) ** (k + 1)


@given(st.fractions(min_value=0, max_value=100, max_denominator=50))
def test_rat_sqrt_exact_for_perfect_squares(r):
    iv = rat_sqrt_bounds(r * r)
    assert iv.lo == iv.hi == abs(r)


def test_sqrt_domain_errors():
    with pytest.raises(ValueError):
        rat_sqrt_bounds(Fraction(-1))


@given(st.integers(min_value=0, max_value=10 ** 80), st.integers(min_value=2, max_value=17))
@settings(max_examples=200)
def test_int_nth_root_floor_oracle(N, n):
    r = int_nth_root_floor(N, n)
    assert r ** n <= N < (r + 1) ** n


@given(st.integers(min_value=0, max_value=10 ** 12), st.integers(min_value=2, max_value=9))
def test_int_nth_root_floor_perfect_powers(r, n):
    assert int_nth_root_floor(r ** n, n) == r


def test_int_nth_root_floor_validation():
    with pytest.raises(ValueError):
        int_nth_root_floor(-1, 2)
    with pytest.raises(ValueError):
        int_nth_root_floor(10, 1)
    with pytest.raises(TypeError):
        int_nth_root_floor(Fraction(10), 2)
    with pytest.raises(TypeError):
        int_nth_root_floor(10, True)
    assert int_nth_root_floor(2, 64) == 1  # degree above the bit length


def test_precision_validation():
    with pytest.raises(ValueError):
        Precision(0)
    with pytest.raises(ValueError):
        Precision(-3)
    for flag in (True, False):  # bools are not digit counts
        with pytest.raises(ValueError, match="decimal_digits must be a positive integer"):
            Precision(flag)
    assert Precision(7).decimal_digits == 7

