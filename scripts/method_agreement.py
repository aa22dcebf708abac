"""Cross-check the four mean-proportional constructions against each
other and against a high-precision cube-root oracle.

For each (ab, bc) pair the table shows every method's midpoint for y,
the worst pairwise disagreement, and the worst deviation of y/bc from
(ab/bc)^(1/3).  All four constructions answer the same question through
unrelated geometry, so agreement here is a strong end-to-end check.  A
method that raises a numerical failure shows ``refused`` in its cell,
and the two columns are then taken over the methods that returned.

Usage: python scripts/method_agreement.py
"""

import time
from fractions import Fraction

from practica import (
    METHODS,
    BracketNotFoundError,
    MeanPropProblem,
    PrecisionError,
    int_nth_root_floor,
)
from practica.cli import format_decimal, format_magnitude_bound

PAIRS = [
    (Fraction(2), Fraction(1)),
    (Fraction(27), Fraction(1)),
    (Fraction(5), Fraction(3)),
    (Fraction(100), Fraction(7)),
    (Fraction(355), Fraction(113)),
    (Fraction(9999), Fraction(2)),
    (Fraction(101), Fraction(100)),  # nicomedes: the root lies next to t = 0
]


def cbrt_oracle(ratio: Fraction, digits: int = 24) -> Fraction:
    """Floor of ratio**(1/3) on the 10**-digits grid."""
    scale = 10 ** digits
    n = ratio.numerator * scale ** 3 // ratio.denominator
    return Fraction(int_nth_root_floor(n, 3), scale)


def main() -> None:
    names = list(METHODS)
    print("ab/bc      " + "  ".join(f"{n:<24}" for n in names)
          + "max pairwise   oracle dev")
    t0 = time.perf_counter()
    for ab, bc in PAIRS:
        prob = MeanPropProblem(ab=ab, bc=bc)
        cells, mids = [], []
        for name in names:
            try:
                mid = METHODS[name](prob).y.mid
            except (BracketNotFoundError, PrecisionError):
                cells.append("refused")
                continue
            cells.append(format_decimal(mid, 18))
            mids.append(mid)
        spread = max(mids) - min(mids)
        oracle = bc * cbrt_oracle(ab / bc)
        dev = max(abs(m - oracle) for m in mids)
        row = "  ".join(f"{cell:<24}" for cell in cells)
        print(f"{str(ab) + '/' + str(bc):<10} {row}"
              f"{format_magnitude_bound(spread):<14} {format_magnitude_bound(dev)}")
    print(f"\n{len(PAIRS)} problems x {len(names)} methods "
          f"in {time.perf_counter() - t0:.2f}s")


if __name__ == "__main__":
    main()
