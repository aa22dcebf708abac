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
by Horner's rule in d.  The powers come one of two ways:

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

Each `TraceStep` stores only what it cannot derive: the remainder
carried into the point (the same object as the previous step's
``remainder_after``), the point's digit group, the degree, the divisor,
both digits and ``remainder_after``.  ``point_value`` and ``subtrahend``
are computed from these on access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .numerics import _check_int, int_to_decimal

FULL = "full"
SIMPLIFIED = "simplified"


@dataclass(frozen=True)
class SpecialNumbers:
    """The divisor coefficients C(n,k) * 10**(n-k) for k = 1 .. n-1."""

    degree: int
    values: tuple[int, ...]

    @classmethod
    @lru_cache(maxsize=64, typed=True)
    def for_degree(cls, degree: int) -> "SpecialNumbers":
        """The row for one degree; frozen, so repeated calls share it."""
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


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One point of the extraction, with every intermediate quantity.

    ``carried`` is the remainder brought into this point, the previous
    step's ``remainder_after`` (0 on the first step), and ``group`` is
    the point's own n digits.  ``divisor`` is 0 on steps where the root
    so far is zero (the first digit comes straight from the power table,
    not from a division).
    """

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


@dataclass(frozen=True)
class RootExtraction:
    """The result and complete trace of one longhand root extraction.

    With R the concatenation of ``digits`` read as an integer:
    R**degree <= radicand * 10**(degree*frac_digits) < (R+1)**degree
    and ``remainder`` is the exact difference on the left.
    """

    radicand: int
    degree: int
    frac_digits: int
    digits: tuple[int, ...]
    remainder: int
    steps: tuple[TraceStep, ...]

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
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")
    if N < 0:
        raise ValueError(f"radicand must be nonnegative, got {N}")
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
    """Run the longhand algorithm and record every step.

    The first digit of each extraction is the largest d with
    d**n <= leading point.  Every later digit starts from the trial
    min(9, point // divisor) and is decremented until the subtrahend
    (10r + d)**n - (10r)**n no longer exceeds the point.
    """
    _check_int(N, "radicand")
    _check_int(n, "root degree")
    _check_int(frac_digits, "frac_digits")
    if N < 0:
        raise ValueError(f"radicand must be nonnegative, got {N}")
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")
    if frac_digits < 0:
        raise ValueError(f"frac_digits must be nonnegative, got {frac_digits}")
    if divisor_mode not in (FULL, SIMPLIFIED):
        raise ValueError(f"unknown divisor mode {divisor_mode!r}")

    groups = group_points(N, n) + [0] * frac_digits
    base = 10 ** n
    # Built at the first step that divides: a radicand of one point never
    # reads it, and a high degree's row is large.
    sp: SpecialNumbers | None = None
    shift_bits = _SHIFT_BITS + n * n
    simplified = divisor_mode == SIMPLIFIED

    steps: list[TraceStep] = []
    root = 0
    remainder = 0
    powers: list[int] | None = None
    for group in groups:
        point = remainder * base + group
        if root == 0:
            # Power-table rule: no divisor exists yet.
            digit = 0
            for d in range(9, 0, -1):
                if d ** n <= point:
                    digit = d
                    break
            divisor = 0
            trial = digit
            subtrahend = digit ** n
        else:
            if sp is None:
                sp = SpecialNumbers.for_degree(n)
                # V_n = 1, V_(n-1), ..., V_1, times 1, r, ..., r**(n-1)
                coefficients = (1, *reversed(sp.values))
            step_powers = powers or _powers(root, n)
            terms = [*map(mul, coefficients, step_powers)]
            divisor = terms[-1] if simplified else sum(terms[1:])
            trial = digit = min(9, point // divisor)
            while (subtrahend := _subtrahend(terms, digit)) > point:
                digit -= 1
        after = point - subtrahend
        steps.append(TraceStep(remainder, group, n, divisor, trial, digit, after))
        remainder = after
        if n > 2 and root.bit_length() > shift_bits:
            # a root this long is not 0, so this step formed step_powers
            powers = _shifted(step_powers, _shift_rows(n)[digit])
        root = 10 * root + digit

    return RootExtraction(
        radicand=N,
        degree=n,
        frac_digits=frac_digits,
        digits=tuple(s.corrected_digit for s in steps),
        remainder=remainder,
        steps=tuple(steps),
    )


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
