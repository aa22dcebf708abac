"""Longhand root extraction: golden traces, the remainder invariant, the
divisor bookkeeping, and the digit loop against a pow-based reference."""

import dataclasses
import decimal
import math
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from practica.numerics import int_nth_root_floor
from practica.root_extraction import (
    _SHIFT_BITS,
    FULL,
    SIMPLIFIED,
    RootExtraction,
    SpecialNumbers,
    _trial_digit,
    extract_root,
    group_points,
    render_trace,
)


# --- the two historical worked examples, field for field ---------------


def test_cube_root_trace_full_divisor():
    rx = extract_root(239483190, 3)
    assert rx.digits == (6, 2, 1)
    assert rx.remainder == 129

    s1, s2, s3 = rx.steps
    assert (s1.point_value, s1.trial_digit, s1.corrected_digit) == (239, 6, 6)
    assert s1.subtrahend == 216
    assert s1.remainder_after == 23

    assert s2.point_value == 23483
    assert s2.divisor == 10980
    assert s2.corrected_digit == 2
    assert s2.subtrahend == 22328
    assert s2.remainder_after == 1155

    assert s3.point_value == 1155190
    assert s3.corrected_digit == 1
    assert s3.remainder_after == 129


def test_cube_root_trace_simplified_divisor():
    rx = extract_root(80621568000, 3, divisor_mode=SIMPLIFIED)
    assert rx.root_scaled == 4320
    assert rx.remainder == 0

    s1, s2 = rx.steps[0], rx.steps[1]
    assert (s1.point_value, s1.corrected_digit, s1.subtrahend) == (80, 4, 64)
    assert s2.point_value == 16621
    assert s2.divisor == 4800  # 300 * 4**2 = 4800, the simplified divisor
    assert s2.corrected_digit == 3
    assert s2.subtrahend == 15480 + 27
    assert s2.remainder_after == 1114


def test_trace_rendering_contains_all_columns():
    text = render_trace(extract_root(239483190, 3))
    for token in ("10980", "22328", "1155", "621", "129"):
        assert token in text
    header = text.splitlines()[0].split()
    assert header == ["step", "point", "divisor", "trial", "digit", "subtrahend", "remainder"]


# --- grouping and special numbers ---------------------------------------


def test_group_points():
    assert group_points(239483190, 3) == [239, 483, 190]
    assert group_points(80621568000, 3) == [80, 621, 568, 0]
    assert group_points(144, 2) == [1, 44]
    assert group_points(0, 5) == [0]


def test_group_points_checks_its_arguments():
    # the checks extract_root relies on, with its messages
    for args, error, message in (
        ((1e20, 2), TypeError, "radicand must be an integer"),
        ((10.5, 2), TypeError, "radicand must be an integer"),
        ((True, 2), TypeError, "radicand must be an integer"),
        ((100, 2.0), TypeError, "root degree must be an integer"),
        ((100, True), TypeError, "root degree must be an integer"),
        ((-1, 2), ValueError, "radicand must be nonnegative, got -1"),
        ((100, 1), ValueError, "degree must be at least 2, got 1"),
    ):
        with pytest.raises(error, match=message):
            group_points(*args)


def test_special_numbers_rows():
    assert SpecialNumbers.for_degree(2).values == (20,)
    assert SpecialNumbers.for_degree(3).values == (300, 30)
    assert SpecialNumbers.for_degree(4).values == (4000, 600, 40)
    assert len(SpecialNumbers.for_degree(17).values) == 16


def test_special_numbers_match_comb():
    for n in [*range(2, 41), 800]:
        expected = tuple(math.comb(n, k) * 10 ** (n - k) for k in range(1, n))
        assert SpecialNumbers.for_degree(n).values == expected, n


# --- the invariant that defines the algorithm ----------------------------


@given(
    st.integers(min_value=0, max_value=10 ** 40),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([FULL, SIMPLIFIED]),
)
@settings(max_examples=120, deadline=None)
def test_remainder_invariant(N, n, frac, mode):
    rx = extract_root(N, n, frac_digits=frac, divisor_mode=mode)
    scaled = N * 10 ** (n * frac)
    root = rx.root_scaled
    assert root ** n + rx.remainder == scaled
    assert (root + 1) ** n > scaled
    assert root == int_nth_root_floor(scaled, n) if scaled > 0 else root == 0


@given(st.integers(min_value=2, max_value=10 ** 30), st.integers(min_value=2, max_value=7))
@settings(max_examples=60, deadline=None)
def test_divisor_modes_agree_on_digits(N, n):
    # the trial digit may differ mid-step, but the corrected output never does
    full = extract_root(N, n, divisor_mode=FULL)
    simp = extract_root(N, n, divisor_mode=SIMPLIFIED)
    assert full.digits == simp.digits
    assert full.remainder == simp.remainder


def test_fractional_digits_square_root_of_two():
    rx = extract_root(2, 2, frac_digits=5)
    assert rx.root_string() == "1.41421"
    assert rx.integer_digits == (1,)
    assert rx.fractional_digits == (4, 1, 4, 2, 1)
    assert rx.remainder == 2 * 10 ** 10 - 141421 ** 2


def test_root_string_shapes():
    assert extract_root(144, 2).root_string() == "12"
    assert extract_root(0, 3).root_string() == "0"
    assert extract_root(0, 2, frac_digits=2).root_string() == "0.00"
    # radicand below 1 in the first point still yields a leading digit slot
    assert extract_root(8, 2, frac_digits=1).root_string() == "2.8"


def test_trace_divisor_zero_while_root_is_zero():
    # while the root-so-far is 0 no divisor exists; the 0 sentinel is
    # recorded and the digit falls back to the power-table rule
    rx = extract_root(0, 2, frac_digits=3)
    assert rx.root_string() == "0.000"
    assert all(step.divisor == 0 for step in rx.steps)
    # a zero *digit* after a nonzero leading digit still forms a divisor
    rx2 = extract_root(100, 2)
    assert rx2.digits == (1, 0)
    assert rx2.steps[1].divisor == 20
    assert rx2.steps[1].corrected_digit == 0


def test_validation():
    with pytest.raises(ValueError):
        extract_root(10, 1)
    with pytest.raises(ValueError):
        extract_root(-1, 2)
    with pytest.raises(ValueError):
        extract_root(10, 2, frac_digits=-1)
    with pytest.raises(ValueError):
        extract_root(10, 2, divisor_mode="quick")
    with pytest.raises(TypeError):
        extract_root(10.0, 2)


@pytest.mark.parametrize(
    "args, name",
    [
        ((10, 3.0), "root degree"),
        ((10, True), "root degree"),
        ((10, 2, 1.5), "frac_digits"),
        ((10, 2, True), "frac_digits"),
    ],
)
def test_bad_argument_types_name_the_argument(args, name):
    with pytest.raises(TypeError, match=name):
        extract_root(*args)


# --- the digit loop against the pow-based reference ----------------------


def reference_extraction(N, n, frac_digits, mode):
    """The longhand loop with every power taken in full: per step
    (point, divisor, trial, digit, subtrahend, remainder), then the
    final remainder."""
    s = str(N)
    first = len(s) % n or n
    groups = [int(s[:first])] + [int(s[i : i + n]) for i in range(first, len(s), n)]
    special = {k: math.comb(n, k) * 10 ** (n - k) for k in range(1, n)}
    rows, root, remainder = [], 0, 0
    for group in groups + [0] * frac_digits:
        point = remainder * 10 ** n + group
        if root == 0:
            digit = max((d for d in range(10) if d ** n <= point), default=0)
            divisor, trial = 0, digit
        else:
            if mode == SIMPLIFIED:
                divisor = special[1] * root ** (n - 1)
            else:
                divisor = sum(special[k] * root ** (n - k) for k in range(1, n))
            trial = digit = min(9, point // divisor)
            while (10 * root + digit) ** n - (10 * root) ** n > point:
                digit -= 1
        subtrahend = (10 * root + digit) ** n - (10 * root) ** n
        remainder = point - subtrahend
        rows.append((point, divisor, trial, digit, subtrahend, remainder))
        root = 10 * root + digit
    return rows, remainder


def reference_render(rows, root_string, remainder, n):
    header = ("step", "point", "divisor", "trial", "digit", "subtrahend", "remainder")
    table = [(str(i + 1), *map(str, row)) for i, row in enumerate(rows)]
    widths = [max(len(header[c]), *(len(r[c]) for r in table)) for c in range(7)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    lines += ["  ".join(f.rjust(w) for f, w in zip(r, widths)) for r in table]
    lines.append(f"root {root_string}  remainder {remainder}  (degree {n})")
    return "\n".join(lines)


def assert_matches_reference(N, n, frac, mode):
    rx = extract_root(N, n, frac_digits=frac, divisor_mode=mode)
    rows, remainder = reference_extraction(N, n, frac, mode)
    assert rx.digits == tuple(row[3] for row in rows)
    assert rx.remainder == remainder
    got = [
        (s.point_value, s.divisor, s.trial_digit, s.corrected_digit, s.subtrahend,
         s.remainder_after)
        for s in rx.steps
    ]
    assert got == rows
    assert rx.steps[0].carried == 0
    for prev, step in zip(rx.steps, rx.steps[1:]):
        assert step.carried is prev.remainder_after
    assert all(s.degree == n and 0 <= s.group < 10 ** n for s in rx.steps)
    assert render_trace(rx) == reference_render(rows, rx.root_string(), remainder, n)


@st.composite
def radicands_with_zero_groups(draw):
    n = draw(st.integers(min_value=2, max_value=17))
    group = st.one_of(st.just(0), st.integers(min_value=0, max_value=10 ** n - 1))
    groups = draw(st.lists(group, min_size=1, max_size=6))
    N = sum(g * 10 ** (n * i) for i, g in enumerate(groups))
    return N, n


@given(
    radicands_with_zero_groups(),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([FULL, SIMPLIFIED]),
)
@settings(max_examples=300, deadline=None)
def test_digit_loop_matches_pow_reference(case, frac, mode):
    N, n = case
    assert_matches_reference(N, n, frac, mode)


@pytest.mark.parametrize("mode", [FULL, SIMPLIFIED])
def test_long_cube_root_matches_pow_reference(mode):
    assert_matches_reference(2, 3, 400, mode)


@pytest.fixture
def no_str_digit_limit():
    # reference_render spells every step's numbers with str(); past the
    # power switch they outgrow the default 4300 digits at high degrees.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("mode", [FULL, SIMPLIFIED])
@pytest.mark.parametrize("n", range(3, 18))
def test_roots_past_the_power_switch_match_pow_reference(n, mode, no_str_digit_limit):
    # R is the first prefix of the root with more than _SHIFT_BITS + n**2
    # bits, so the first binomial power update takes the digit after it,
    # 0 or 9 by turns; len(R) fractional digits follow, so most steps run
    # on updated powers.
    tail = 9 * ((n + (mode == SIMPLIFIED)) % 2)
    rng = random.Random(100 * n + tail)
    switch = _SHIFT_BITS + n * n
    R = rng.randrange(2 ** switch, 10 * 2 ** switch)
    assert (R // 10).bit_length() <= switch < R.bit_length()
    S = 10 * R + tail
    N = S ** n + rng.randrange((S + 1) ** n - S ** n)
    assert_matches_reference(N, n, len(str(R)), mode)
    assert extract_root(N, n).digits[-1] == tail


# --- the trial digit from the leading bits --------------------------------


class CountedInt(int):
    """An int that counts the exact divisions taken of it."""

    divisions = 0

    def __floordiv__(self, other):
        self.divisions += 1
        return int.__floordiv__(self, other)


#: Divisors of every size, many past 64 bits, and powers of two a little
#: off, where the leading bits cut the divisor just below or above a carry.
divisors = st.one_of(
    st.integers(min_value=1, max_value=2 ** 400),
    st.builds(lambda e, s: 2 ** e + s, st.integers(min_value=60, max_value=400),
              st.integers(min_value=-3, max_value=3)),
)


@given(
    divisors,
    st.integers(min_value=0, max_value=12),
    st.one_of(st.integers(min_value=-3, max_value=3),
              st.integers(min_value=0, max_value=2 ** 400)),
)
@settings(max_examples=500, deadline=None)
def test_trial_digit_is_the_capped_quotient(divisor, quotient, offset):
    # points at quotient * divisor + r: exact multiples (r = 0), just off
    # them, and anywhere in between
    point = max(0, quotient * divisor + offset)
    assert _trial_digit(point, divisor) == min(9, point // divisor)


def test_trial_digit_divides_exactly_only_where_the_leading_bits_part():
    # divisor = 2**100 + 1 keeps q = 2**63 of its leading bits.  At the
    # exact multiple 3 * divisor the bounds p // (q + 1) and (p + 1) // q
    # are 2 and 3, so the trial needs the exact division; a little above
    # the multiple, or far past 9 multiples, the leading bits decide.
    divisor = 2 ** 100 + 1
    for point, trial, divisions in (
        (3 * divisor, 3, 1),
        (3 * divisor + 2 ** 90, 3, 0),
        (50 * divisor, 9, 0),
    ):
        counted = CountedInt(point)
        assert _trial_digit(counted, divisor) == trial
        assert counted.divisions == divisions, point


# --- what an extraction keeps ------------------------------------------------


def test_extraction_keeps_only_its_digits():
    # The trace is O(D**2) in size; an extraction holds its digits and
    # final remainder, and steps replays the walk on first read.
    assert [f.name for f in dataclasses.fields(RootExtraction)] == [
        "radicand", "degree", "frac_digits", "digits", "remainder", "divisor_mode",
    ]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rx = extract_root(2, 2, frac_digits=5000)
        held = tracemalloc.get_traced_memory()[0] - base
        before = hash(rx)
        steps = rx.steps
        with_steps = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 0.25 * 2 ** 20, held
    assert held < with_steps / 20, (held, with_steps)
    assert rx.steps is steps
    fresh = extract_root(2, 2, frac_digits=5000)
    assert rx == fresh
    assert hash(rx) == before == hash(fresh)


def test_extractions_compare_by_mode_too():
    full, simplified = (
        extract_root(2, 3, frac_digits=50, divisor_mode=m) for m in (FULL, SIMPLIFIED)
    )
    assert full == extract_root(2, 3, frac_digits=50)
    assert hash(full) == hash(extract_root(2, 3, frac_digits=50))
    assert full.digits == simplified.digits
    assert full != simplified


def test_trace_steps_have_slots():
    step = extract_root(239483190, 3).steps[1]
    assert not hasattr(step, "__dict__")
    assert (step.carried, step.group, step.degree) == (23, 483, 3)


def test_root_of_one_point_builds_no_special_numbers():
    # One point never divides, so the degree-50000 row of special numbers
    # (over a billion digits in all) must not be built; a short timeout
    # catches it.
    code = (
        "from practica.root_extraction import extract_root\n"
        "rx = extract_root(2, 50000)\n"
        "print(rx.root_string(), rx.remainder)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=30)
    assert r.returncode == 0
    assert r.stdout.decode() == "1 1\n"


def test_special_numbers_are_cached():
    assert SpecialNumbers.for_degree(5) is SpecialNumbers.for_degree(5)
    with pytest.raises(ValueError):
        SpecialNumbers.for_degree(1)


# --- integers beyond the 4300-digit str() limit ---------------------------


def test_radicand_beyond_str_limit():
    N = 10 ** 4400 + 1
    assert extract_root(N, 2).root_scaled == int_nth_root_floor(N, 2)


def test_render_trace_beyond_str_limit():
    rx = extract_root(2, 2, frac_digits=5000)
    root = int_nth_root_floor(2 * 10 ** 10000, 2)
    digits = str(decimal.Decimal(root))
    remainder = str(decimal.Decimal(2 * 10 ** 10000 - root ** 2))
    last = render_trace(rx).rsplit("\n", 1)[1]
    assert last == f"root {digits[0]}.{digits[1:]}  remainder {remainder}  (degree 2)"
