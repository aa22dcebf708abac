"""Digit-by-digit extraction of nth roots with full working traces.

The algorithm is the classical longhand scheme: mark off the radicand
into "points" of n digits from the right (each point yields one digit
of the root), take the first digit from a table of nth powers, then for
every further point divide by a divisor assembled from the binomial
"special numbers" C(n,k) * 10**(n-k) to guess the next digit, correct
the guess downward until the subtrahend (10r + d)**n - (10r)**n fits,
and carry the remainder into the next point.  Fractional digits come
from appending n zeros per requested digit before grouping.

Cost per digit.  With V_k = C(n,k) * 10**(n-k) (and V_n = 1) and r the
root so far, each step needs the powers r, r**2, ..., r**(n-1) and the
terms T_k = V_k * r**(n-k).  The divisor is T_1 (simplified) or
T_1 + ... + T_(n-1) (full), and the subtrahend of a candidate digit d is
(10r + d)**n - (10r)**n = T_1*d + T_2*d**2 + ... + T_n*d**n, evaluated
by Horner's rule in d.  The trial digit min(9, point // divisor) is
read from the leading bits (`_trial_digit`): shifted until the divisor
keeps 64 bits, point and divisor bound the quotient from both sides,
and an exact division is left only where the bounds part, at or very
near a multiple of the divisor.  At 16000 bits the exact division
took 2.6 us and the leading bits 0.7 us, about one big subtraction
(best of 7 on the host named below).  The powers come one of two ways:

* While the root is short, and always for n = 2, one chain of n-2
  full-size multiplications rebuilds them at every step (`_powers`).
* For n >= 3, once r has more than _SHIFT_BITS + n**2 = 512 + n**2
  bits, they are carried from one step to the next and updated by the
  binomial theorem, (10r + d)**j = sum of C(j,i) * 10**i * d**(j-i) *
  r**i over i <= j (`_shifted`): about n**2/2 products, each a power of
  r times a small number.

Either way each term is a power times a small special number, and
everything else multiplies a big number by a small one.  The switch
reads only n and the size of r.  Its constant comes from the per-step
crossover, measured as the best of 15 runs over 20 random digits on a
shared 2-core x86-64 host under CPython 3.11: the update overtakes the
chain near 950 bits at n = 3 (chain 1.72 us, update 2.04 us at 896
bits; 2.34 against 1.91 us at 1024), 600 at n = 5 (2.94 against 3.64 us
at 512; 5.14 against 4.38 at 640), 500 at n = 9 (13.6 against 12.9 us
at 512), 770 at n = 17 (71.6 against 71.2 us at 768), about 1500 at
n = 33, 4000-6000 at n = 65 and 16000-32000 at n = 129.  The update's
small factors grow with n, so the crossover does too, roughly as n**2.
512 + n**2 bits switches early at n = 3, where the two differ by under
a microsecond a step, and at n = 129.  The cube root of 2 to 3000
fractional digits takes 42 ms with the switch and 111 ms without (best
of 7 on the same host).

The trace is O(D**2) in size for D digits, and the digits determine
it, so a `RootExtraction` keeps only the digits and the final
remainder.  The extraction and its trace run the same loop
(`_longhand`), which yields each step's carried remainder, divisor,
trial and corrected digits and remainder; the extraction keeps the
digits and the last remainder, and ``steps`` replays the whole loop on
first read and keeps the `TraceStep` rows.  So the first read costs
more than the extraction did.  On the square root of 2 to 5000 digits
the extraction takes 42 ms and holds 0.04 MiB, and the first read of
``steps`` takes 55 ms more and leaves 11.3 MiB held (best of 7 on the
host named above; tracemalloc).  A `TraceStep` derives ``point_value``
and ``subtrahend`` from its fields on access.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import cached_property, lru_cache
from operator import mul

from .numerics import _check_int, _frozen, int_to_decimal

FULL = "full"
SIMPLIFIED = "simplified"


@_frozen
class SpecialNumbers:
    """The divisor coefficients C(n,k) * 10**(n-k) for k = 1 .. n-1."""

    degree: int
    values: tuple[int, ...]

    @classmethod
    @lru_cache(maxsize=64, typed=True)
    def for_degree(cls, degree: int) -> "SpecialNumbers":
        """The row for one degree; frozen, so repeated calls share it."""
        _check_int(degree, "degree")
        if degree < 2:
            raise ValueError(f"degree must be at least 2, got {degree}")
        values = tuple(
            math.comb(degree, k) * 10 ** (degree - k) for k in range(1, degree)
        )
        return cls(degree, values)


#: Roots of degree 3 or more update their powers by the binomial theorem
#: once the root has more than ``_SHIFT_BITS + degree**2`` bits; the
#: measured crossover is under "Cost per digit" above.
_SHIFT_BITS = 512


@lru_cache(maxsize=64)
def _shift_rows(degree: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Rows C(j,i) * 10**i * d**(j-i), i = 0 .. j, for j = 1 .. degree-1.

    Indexed by the digit d first: (10r + d)**j is row j of digit d dotted
    with 1, r, ..., r**j.  Built only for degrees whose roots grow past
    the switch, and kept apart from `SpecialNumbers`, whose rows the
    ``special-numbers`` command prints.
    """
    return tuple(
        tuple(
            tuple(math.comb(j, i) * 10 ** i * d ** (j - i) for i in range(j + 1))
            for j in range(1, degree)
        )
        for d in range(10)
    )


@_frozen
class TraceStep:
    """One point of the extraction, with every intermediate quantity.

    ``carried`` is the remainder brought into this point, the previous
    step's ``remainder_after`` (0 on the first step), and ``group`` is
    the point's own n digits.  ``divisor`` is 0 on steps where the root
    so far is zero (the first digit comes straight from the power table,
    not from a division).
    """

    __slots__ = ("carried", "group", "degree", "divisor", "trial_digit", "corrected_digit", "remainder_after")
    carried: int
    group: int
    degree: int
    divisor: int
    trial_digit: int
    corrected_digit: int
    remainder_after: int

    @property
    def point_value(self) -> int:
        """The number this step divides: carried * 10**degree + group."""
        return self.carried * 10 ** self.degree + self.group

    @property
    def subtrahend(self) -> int:
        """(10r + d)**n - (10r)**n for the corrected digit d."""
        return self.point_value - self.remainder_after


@_frozen
class RootExtraction:
    """The result and complete trace of one longhand root extraction.

    With R the concatenation of ``digits`` read as an integer:
    R**degree <= radicand * 10**(degree*frac_digits) < (R+1)**degree
    and ``remainder`` is the exact difference on the left.

    Only the digits and the final remainder are kept: ``steps`` replays
    the extraction on first read and keeps the `TraceStep` rows it gives.
    """

    radicand: int
    degree: int
    frac_digits: int
    digits: tuple[int, ...]
    remainder: int
    divisor_mode: str

    @cached_property
    def steps(self) -> tuple[TraceStep, ...]:
        """One `TraceStep` per point, from a replay of the extraction
        (`_longhand`) on first read."""
        n = self.degree
        groups = group_points(self.radicand, n) + [0] * self.frac_digits
        walk = _longhand(groups, n, self.divisor_mode == SIMPLIFIED)
        return tuple(
            TraceStep(carried, group, n, divisor, trial, digit, after)
            for group, (carried, divisor, trial, digit, after) in zip(groups, walk)
        )

    @property
    def integer_digits(self) -> tuple[int, ...]:
        return self.digits[: len(self.digits) - self.frac_digits]

    @property
    def fractional_digits(self) -> tuple[int, ...]:
        return self.digits[len(self.digits) - self.frac_digits :]

    @property
    def root_scaled(self) -> int:
        """The digits as one integer (root * 10**frac_digits)."""
        value = 0
        for d in self.digits:
            value = value * 10 + d
        return value

    def root_string(self) -> str:
        ipart = "".join(str(d) for d in self.integer_digits)
        if not self.frac_digits:
            return ipart
        fpart = "".join(str(d) for d in self.fractional_digits)
        return f"{ipart}.{fpart}"


def group_points(N: int, n: int) -> list[int]:
    """Groups of n decimal digits of N from the right.

    The leftmost group carries 1..n digits; concatenating all groups
    (with zero padding on the inner ones) reproduces N.
    """
    _check_int(N, "radicand")
    _check_int(n, "root degree")
    if N < 0:
        raise ValueError(f"radicand must be nonnegative, got {N}")
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")
    s = int_to_decimal(N)
    first = len(s) % n or n
    return [int(s[:first])] + [int(s[i : i + n]) for i in range(first, len(s), n)]


def _powers(root: int, n: int) -> list[int]:
    """1, root, root**2, ..., root**(n-1), by one chain of n-2 full-size
    multiplications (none for n = 2)."""
    power, powers = root, [1, root]
    for _ in range(n - 2):
        power *= root
        powers.append(power)
    return powers


def _shifted(powers: list[int], rows: tuple[tuple[int, ...], ...]) -> list[int]:
    """The powers of 10r + d from those of r, given digit d's `_shift_rows`.

    (10r + d)**j = sum of C(j,i) * 10**i * d**(j-i) * r**i over i = 0 .. j,
    so every product multiplies a power of r by a small number.
    """
    return [1, *(sum(map(mul, row, powers)) for row in rows)]


def _longhand(
    groups: list[int], n: int, simplified: bool
) -> Iterator[tuple[int, int, int, int, int]]:
    """(carried, divisor, trial, digit, remainder_after) for each point.

    While the root so far is 0 the digit comes from the power table and
    the divisor is 0.  After that the powers of the root are rebuilt by
    `_powers` at every step, or carried and updated by `_shifted` once
    n >= 3 and the root has more than _SHIFT_BITS + n**2 bits; this loop
    is the only code that decides which, for the extraction and its
    trace.  The powers for a point are updated only when it is asked
    for, so a caller zips the walk with the groups, which stops at the
    last point without asking for another.
    """
    base = 10 ** n
    points = iter(groups)
    root = remainder = 0
    for group in points:
        # Power-table rule: the remainder stays 0 until the first
        # nonzero digit, so the point is the group itself.
        root = 0
        for d in range(9, 0, -1):
            if d ** n <= group:
                root = d
                break
        remainder = group - root ** n
        yield 0, 0, root, root, remainder
        if root:
            break
    # V_n = 1, V_(n-1), ..., V_1, times 1, r, ..., r**(n-1).  Built at the
    # first step that divides: a radicand of one point never reads the
    # row, and a high degree's row is large.
    coefficients = (1, *reversed(SpecialNumbers.for_degree(n).values))
    shift_bits = _SHIFT_BITS + n * n
    powers: list[int] | None = None
    for group in points:
        point = remainder * base
        if group:  # adding a fractional step's 0 would copy the big int
            point += group
        step_powers = powers or _powers(root, n)
        terms = [*map(mul, coefficients, step_powers)]
        # T_1, or T_1 + ... + T_(n-1); at n = 2 both are T_1 itself
        divisor = terms[-1] if simplified else sum(terms[1:-1], terms[-1])
        trial = digit = _trial_digit(point, divisor)
        while (subtrahend := _subtrahend(terms, digit)) > point:
            digit -= 1
        after = point - subtrahend
        yield remainder, divisor, trial, digit, after
        if n > 2 and root.bit_length() > shift_bits:
            powers = _shifted(step_powers, _shift_rows(n)[digit])
        root = 10 * root + digit
        remainder = after


def _trial_digit(point: int, divisor: int) -> int:
    """min(9, point // divisor), from the leading bits when they decide it.

    With k = divisor.bit_length() - 64 > 0, p = point >> k and
    q = divisor >> k, p // (q + 1) <= point // divisor <= (p + 1) // q.
    When the two bounds, each capped at 9, agree they give the trial
    digit with no big division; they part only where point lies at or
    within about 2**-60 of its size from a multiple of divisor, and there
    the exact division decides.
    """
    k = divisor.bit_length() - 64
    if k > 0:
        p, q = point >> k, divisor >> k
        low = min(9, p // (q + 1))
        if low == min(9, (p + 1) // q):
            return low
    return min(9, point // divisor)


def _subtrahend(terms: list[int], d: int) -> int:
    """(10r + d)**n - (10r)**n = T_1*d + ... + T_n*d**n, by Horner in d."""
    acc = 0
    for t in terms:
        acc = acc * d + t
    return acc * d


def extract_root(
    N: int,
    n: int,
    frac_digits: int = 0,
    divisor_mode: str = FULL,
) -> RootExtraction:
    """Run the longhand algorithm and keep its digits and final remainder.

    The first digit of each extraction is the largest d with
    d**n <= leading point.  Every later digit starts from the trial
    min(9, point // divisor) and is decremented until the subtrahend
    (10r + d)**n - (10r)**n no longer exceeds the point.
    """
    groups = group_points(N, n)  # checks N and n
    _check_int(frac_digits, "frac_digits")
    if frac_digits < 0:
        raise ValueError(f"frac_digits must be nonnegative, got {frac_digits}")
    if divisor_mode not in (FULL, SIMPLIFIED):
        raise ValueError(f"unknown divisor mode {divisor_mode!r}")

    groups += [0] * frac_digits
    digits: list[int] = []
    remainder = 0
    walk = _longhand(groups, n, divisor_mode == SIMPLIFIED)
    for _, (_, _, _, digit, remainder) in zip(groups, walk):
        digits.append(digit)
    return RootExtraction(N, n, frac_digits, tuple(digits), remainder, divisor_mode)


def render_trace(rx: RootExtraction) -> str:
    """Deterministic plain-text table of the extraction, one row per step."""
    header = ("step", "point", "divisor", "trial", "digit", "subtrahend", "remainder")
    rows = [
        (
            str(i + 1),
            int_to_decimal(s.point_value),
            int_to_decimal(s.divisor),
            str(s.trial_digit),
            str(s.corrected_digit),
            int_to_decimal(s.subtrahend),
            int_to_decimal(s.remainder_after),
        )
        for i, s in enumerate(rx.steps)
    ]
    widths = [
        max(len(header[c]), max(len(r[c]) for r in rows)) for c in range(len(header))
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(f.rjust(w) for f, w in zip(row, widths)) for row in rows]
    remainder = int_to_decimal(rx.remainder)
    lines.append(f"root {rx.root_string()}  remainder {remainder}  (degree {rx.degree})")
    return "\n".join(lines)
