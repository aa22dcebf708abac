"""Reference answers computed with plain integer arithmetic.

Nothing here imports or calls the library under test: every check reads
the plain fields of a returned object (interval endpoints, digit tuples,
process output) and compares them with a value derived independently
from `int` and `Fraction` arithmetic.  Each checker returns None when the
output is right and a short reason string when it is not.
"""

from __future__ import annotations

import decimal
import xml.etree.ElementTree as ET
from fractions import Fraction

# ----------------------------------------------------------------------
# integer kernels


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, by integer Newton iteration."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # 2**ceil(bits/k) > root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def _atan_inv(x: int, scale: int) -> int:
    """scale * atan(1/x), truncated termwise (error below one unit per term)."""
    power = scale // x
    total = power
    x2, n, sign = x * x, 1, -1
    while power:
        power //= x2
        total += sign * (power // (2 * n + 1))
        sign, n = -sign, n + 1
    return total


_PI_DIGITS = 80
_GUARD = 10


def _pi_scaled() -> int:
    """pi * 10**(_PI_DIGITS + _GUARD) by Machin's formula, to a few units."""
    scale = 10 ** (_PI_DIGITS + _GUARD)
    return 4 * (4 * _atan_inv(5, scale) - _atan_inv(239, scale))


_PI_INT = _pi_scaled() // 10 ** _GUARD
#: pi lies strictly inside [PI_LO, PI_HI] (80 digits, two units of slack).
PI_LO = Fraction(_PI_INT - 2, 10 ** _PI_DIGITS)
PI_HI = Fraction(_PI_INT + 2, 10 ** _PI_DIGITS)


def _sin_cos_scaled(theta: int, scale: int) -> tuple[int, int]:
    """(scale * sin(t), scale * cos(t)) for t = theta / scale in [0, 2]."""
    s = term = theta
    k = 1
    while term:
        term = -term * theta * theta // (scale * scale * (2 * k) * (2 * k + 1))
        s += term
        k += 1
    c = term = scale
    k = 1
    while term:
        term = -term * theta * theta // (scale * scale * (2 * k - 1) * (2 * k))
        c += term
        k += 1
    return s, c


_TRIG_DIGITS = 90
_PI_TRIG = _pi_scaled() // 10 ** (_PI_DIGITS + _GUARD - _TRIG_DIGITS)
#: Slack around the trigonometric references, far above their error
#: (a few hundred units at 1e-90 times at most a few thousand sides).
_TRIG_SLACK = Fraction(1, 10 ** 75)


def polygon_areas(n: int) -> tuple[Fraction, Fraction]:
    """(inscribed, circumscribed) areas of the regular n-gon on the unit
    circle, to about 1e-85: n/2 sin(2 pi/n) and n tan(pi/n)."""
    scale = 10 ** _TRIG_DIGITS
    s2, _ = _sin_cos_scaled(2 * _PI_TRIG // n, scale)
    s1, c1 = _sin_cos_scaled(_PI_TRIG // n, scale)
    return Fraction(n * s2, 2 * scale), Fraction(n * s1, c1)


def _encloses(lo: Fraction, hi: Fraction, value: Fraction, slack: Fraction) -> bool:
    return lo <= value - slack and value + slack <= hi


# ----------------------------------------------------------------------
# meanprops


def check_meanprops(ab: Fraction, bc: Fraction, tol: Fraction, x, y) -> str | None:
    """Certified means x ~ bc r**(2/3), y ~ bc r**(1/3) for r = ab/bc >= 1.

    Each interval must meet an integer cube-root bracket of the ratio,
    and the midpoints must pass the acceptance-suite bounds: relative
    error of y/bc at most 1e-9 and both continued-proportion residuals
    at most tol * ab**2.
    """
    digits = 60
    scale = 10 ** digits
    ratio = Fraction(ab) / Fraction(bc)
    k = iroot(ratio.numerator * scale ** 3 // ratio.denominator, 3)
    y_lo, y_hi = bc * Fraction(k, scale), bc * Fraction(k + 1, scale)
    x_lo, x_hi = bc * Fraction(k * k, scale * scale), bc * Fraction((k + 1) ** 2, scale * scale)
    if not (x.lo <= x_hi and x_lo <= x.hi):
        return "x misses the cube-root bracket"
    if not (y.lo <= y_hi and y_lo <= y.hi):
        return "y misses the cube-root bracket"
    x_mid, y_mid = (x.lo + x.hi) / 2, (y.lo + y.hi) / 2
    cube_root = Fraction(k, scale)
    if abs(y_mid / bc - cube_root) > cube_root / 10 ** 9:
        return "y midpoint off the cube root by more than 1e-9"
    if abs(ab * y_mid - x_mid ** 2) > tol * ab * ab:
        return "residual ab*y - x^2 above tol*ab^2"
    if abs(x_mid * bc - y_mid ** 2) > tol * ab * ab:
        return "residual x*bc - y^2 above tol*ab^2"
    return None


# ----------------------------------------------------------------------
# certify


def check_pi_bounds(lower: Fraction, upper: Fraction, width: Fraction) -> str | None:
    if not (lower <= PI_LO and PI_HI <= upper):
        return "bounds do not enclose pi"
    if upper - lower > width:
        return "bounds wider than the target"
    return None


def _contains_zero(iv) -> bool:
    return iv.lo <= 0 <= iv.hi


def check_heron_report(report) -> str | None:
    if not _contains_zero(report.identity_residual):
        return "identity residual excludes 0"
    if not all(_contains_zero(r) for r in report.perp_residuals):
        return "perpendicular residual excludes 0"
    return None


def check_exhaustion(steps, max_doublings: int) -> str | None:
    """Sides 4, 8, ...; every gap encloses the true area gap and is certified
    to more than halve."""
    if [s.sides_before for s in steps] != [4 << j for j in range(max_doublings)]:
        return "unexpected side sequence"
    pi_mid = (PI_LO + PI_HI) / 2
    for s in steps:
        if not (s.inscribed_halved and s.circumscribed_halved):
            return f"halving not reported at {s.sides_before} sides"
        if not (s.inscribed_gap_after.hi < s.inscribed_gap_before.lo / 2
                and s.circumscribed_gap_after.hi < s.circumscribed_gap_before.lo / 2):
            return f"gaps do not halve at {s.sides_before} sides"
        for sides, gin, gcirc in (
            (s.sides_before, s.inscribed_gap_before, s.circumscribed_gap_before),
            (s.sides_after, s.inscribed_gap_after, s.circumscribed_gap_after),
        ):
            a_in, a_circ = polygon_areas(sides)
            if not _encloses(gin.lo, gin.hi, pi_mid - a_in, _TRIG_SLACK):
                return f"inscribed gap at {sides} sides excludes the true gap"
            if not _encloses(gcirc.lo, gcirc.hi, a_circ - pi_mid, _TRIG_SLACK):
                return f"circumscribed gap at {sides} sides excludes the true gap"
    return None


def check_fibonacci(iv, max_width: Fraction) -> str | None:
    if not _contains_zero(iv):
        return "identity enclosure excludes 0"
    if iv.hi - iv.lo > max_width:
        return "identity enclosure too wide"
    return None


# ----------------------------------------------------------------------
# roots


def check_root(radicand: int, degree: int, frac_digits: int, digits, remainder: int) -> str | None:
    """R**n + remainder == N * 10**(n f) < (R + 1)**n, in plain ints."""
    scaled = radicand * 10 ** (degree * frac_digits)
    r = 0
    for d in digits:
        r = r * 10 + d
    if r ** degree + remainder != scaled:
        return "R**n + remainder differs from the scaled radicand"
    if (r + 1) ** degree <= scaled:
        return "(R+1)**n does not exceed the scaled radicand"
    return None


# ----------------------------------------------------------------------
# cli


def check_cli_exact(expected: bytes):
    def check(out: bytes) -> str | None:
        return None if out == expected else "stdout differs from the README bytes"
    return check


def check_cli_grep(pattern: bytes, expected: bytes):
    """The README pipes the command through `grep pattern`."""
    def check(out: bytes) -> str | None:
        kept = b"".join(line for line in out.splitlines(keepends=True) if pattern in line)
        return None if kept == expected else "filtered stdout differs from the README bytes"
    return check


def check_cli_svg(samples: int):
    """A standalone 800x800 SVG whose polyline has one in-canvas vertex per
    sample, left to right (the conchoid's upper branch over x >= 0)."""
    def check(out: bytes) -> str | None:
        try:
            root = ET.fromstring(out)
        except ET.ParseError:
            return "stdout is not well-formed XML"
        if not root.tag.endswith("svg") or root.get("width") != "800":
            return "not an 800x800 SVG"
        line = next((el for el in root.iter() if el.tag.endswith("polyline")), None)
        if line is None:
            return "no polyline"
        pts = [tuple(map(Fraction, p.split(","))) for p in line.get("points", "").split()]
        if len(pts) != samples:
            return f"{len(pts)} vertices, expected {samples}"
        if not all(0 <= px <= 800 and 0 <= py <= 800 for px, py in pts):
            return "vertex outside the canvas"
        if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
            return "abscissae not increasing"
        return None
    return check


def check_cli_meanprop(ab: Fraction, bc: Fraction):
    """Single-method meanprops output whose printed x and y agree with the
    cube-root oracle to 1e-9 relative."""
    def check(out: bytes) -> str | None:
        lines = out.decode("utf-8", "replace").splitlines()
        if len(lines) != 5 or not lines[0].startswith("method "):
            return "unexpected meanprops layout"
        try:
            x = Fraction(decimal.Decimal(lines[1].split()[2]))
            y = Fraction(decimal.Decimal(lines[2].split()[2]))
        except (IndexError, decimal.InvalidOperation):
            return "unparseable x or y"
        scale = 10 ** 40
        ratio = ab / bc
        k = Fraction(iroot(ratio.numerator * scale ** 3 // ratio.denominator, 3), scale)
        if abs(y - bc * k) > bc * k / 10 ** 9 or abs(x - bc * k * k) > bc * k * k / 10 ** 9:
            return "printed means off the cube-root oracle"
        return None
    return check
