"""Command line front end.

Every number crosses the CLI boundary exactly: arguments parse as
fractions (``p/q`` or decimal literals), and decimal output is produced
by integer arithmetic, truncated toward zero, so identical flags give
byte-identical output on any platform.  Exit codes: 0 success, 2 usage
or domain error, 3 numerical failure (exact root, no bracket, a pi chain
doubled past its precision).
"""

from __future__ import annotations

import argparse
import decimal
import re
import sys
from collections.abc import Callable
from fractions import Fraction

from .circle_measurement import pi_bounds
from .geometry import Point2, PointBounds, orient
from .heron import (
    TriangleSides,
    TriangleVertices,
    heron_area_sq_from_vertices,
    heron_product,
)
from .mean_proportionals import (
    DEFAULT_TOL,
    DIOCLES,
    HERON_APOLLONIUS,
    METHODS,
    NICOMEDES,
    PHILO,
    BracketNotFoundError,
    MeanPropProblem,
    MeanPropResult,
    cissoid_points,
    conchoid_points,
    solve_heron_apollonius,
)
from .numerics import (
    DEFAULT_PRECISION,
    Interval,
    Precision,
    PrecisionError,
    _decade,
    int_to_decimal,
    rat_sqrt_bounds,
)
from .root_extraction import FULL, SIMPLIFIED, SpecialNumbers, extract_root, render_trace

#: ``meanprops --method`` flag -> key in the solver registry
_METHODS = {
    "heron": HERON_APOLLONIUS,
    "philo": PHILO,
    "diocles": DIOCLES,
    "nicomedes": NICOMEDES,
}


def parse_rational(text: str) -> Fraction:
    """Exact rational from `p/q` or a decimal literal (1.5, 1e-21, ...).

    A decimal literal is refused, before any integer is built, when its
    numerator or denominator as written (digits times 10**exponent)
    would have more digits than ``sys.get_int_max_str_digits()``, the
    limit ``int()`` already puts on `p/q`; a limit of 0 means none."""
    s = text.strip()
    try:
        if "/" in s:
            return Fraction(s)
        d = decimal.Decimal(s)
        # Pythons before 3.10.7 have no limit and no getter.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and d.is_finite() and d:
            digits, exponent = d.as_tuple()[1:]
            if max(len(digits) + exponent, len(digits), 1 - exponent) > limit:
                raise argparse.ArgumentTypeError(
                    f"{text!r} has more than {limit} digits as an exact fraction"
                )
        return Fraction(d)
    except (ValueError, OverflowError, ZeroDivisionError, decimal.InvalidOperation):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def format_fraction(x: Fraction) -> str:
    """``str(x)`` (``p/q``, or ``p`` when q is 1) for a fraction of any size."""
    if x.denominator == 1:
        return int_to_decimal(x.numerator)
    return f"{int_to_decimal(x.numerator)}/{int_to_decimal(x.denominator)}"


def format_decimal(x: Fraction, digits: int) -> str:
    """Fixed-point decimal, truncated toward zero, via integer math."""
    sign = "-" if x < 0 else ""
    n = abs(Fraction(x))
    scaled = int_to_decimal(n.numerator * 10 ** digits // n.denominator)
    if digits == 0:
        return sign + scaled
    scaled = scaled.rjust(digits + 1, "0")
    return f"{sign}{scaled[:-digits]}.{scaled[-digits:]}"


def format_magnitude_bound(x: Fraction) -> str:
    """Upper bound on |x| in scientific notation, 3 significant digits,
    rounded up (so the printed bound always holds)."""
    x = Fraction(x)
    num, den = abs(x.numerator), x.denominator
    if num == 0:
        return "0"
    exp = _decade(num, den)  # 10**exp <= |x| < 10**(exp + 1)
    top, bottom = (num * 10 ** (2 - exp), den) if exp <= 2 else (num, den * 10 ** (exp - 2))
    m = -(-top // bottom)  # |x| * 10**(2 - exp) rounded up, in [100, 1000]
    if m == 1000:  # rounding crossed a decade
        m, exp = 100, exp + 1
    s = str(m)
    return f"{s[0]}.{s[1:]}e{exp:+03d}"


def render_value(iv: Interval, digits: int) -> str:
    """Midpoint rendering; the full interval is shown alongside whenever
    the width exceeds one unit in the last printed place."""
    s = format_decimal(iv.mid, digits)
    if iv.width > Fraction(1, 10 ** digits):
        s += f" [{format_decimal(iv.lo, digits)}, {format_decimal(iv.hi, digits)}]"
    return s


def _emit_text(text: str) -> None:
    # write bytes when possible so line endings stay LF on every platform
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is not None:
        buffer.write(text.encode("utf-8"))
        sys.stdout.flush()
    else:
        sys.stdout.write(text)


def _emit(lines: list[str]) -> None:
    _emit_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# subcommands


def cmd_pi_bounds(args: argparse.Namespace) -> int:
    p = Precision(args.precision)
    digits = args.decimal_digits if args.decimal_digits is not None else p.decimal_digits
    b = pi_bounds(target_sides=args.sides, target_width=args.width, p=p)
    if args.format == "csv":
        _emit(
            [
                "bound,fraction,decimal",
                f"lower,{format_fraction(b.lower)},{format_decimal(b.lower, digits)}",
                f"upper,{format_fraction(b.upper)},{format_decimal(b.upper, digits)}",
            ]
        )
        return 0
    _emit(
        [
            f"sides    {int_to_decimal(b.sides)}",
            f"lower    {format_fraction(b.lower)}",
            f"upper    {format_fraction(b.upper)}",
            f"lower ~  {format_decimal(b.lower, digits)}",
            f"upper ~  {format_decimal(b.upper, digits)}",
            f"width <= {format_magnitude_bound(b.width)}",
        ]
    )
    return 0


def _precision_for(digits: int) -> Precision:
    """``digits``, and at least `DEFAULT_PRECISION`'s: a root from
    `rat_sqrt_bounds` is then 10**-(p + 2) wide, whatever its size, so
    well within one unit in the last of ``digits`` places."""
    return Precision(max(DEFAULT_PRECISION.decimal_digits, digits))


def cmd_heron(args: argparse.Namespace) -> int:
    if args.sides is not None:
        tri = TriangleSides(*args.sides)
        area_sq = heron_product(tri)
        lines = [
            "sides          " + " ".join(map(format_fraction, (tri.a, tri.b, tri.c))),
            f"semiperimeter  {format_fraction(tri.semiperimeter)}",
            f"product        {format_fraction(area_sq)}",
        ]
    else:
        tri = TriangleVertices(*(Point2(*args.vertices[i:i + 2]) for i in (0, 2, 4)))
        area_sq = heron_area_sq_from_vertices(tri)
        cross_sq = (orient(tri.p1, tri.p2, tri.p3) / 2) ** 2
        lines = [
            "vertices       "
            + " ".join(f"({format_fraction(v.x)}, {format_fraction(v.y)})" for v in (tri.p1, tri.p2, tri.p3)),
            f"area^2         {format_fraction(area_sq)}  (product route)",
            f"area^2         {format_fraction(cross_sq)}  (cross product route)",
            f"agreement      {'exact' if area_sq == cross_sq else 'MISMATCH'}",
        ]
    digits = args.decimal_digits
    area = rat_sqrt_bounds(area_sq, _precision_for(digits))
    lines.append(f"area ~         {render_value(area, digits)}"
                 + ("  (exact)" if area.width == 0 else ""))
    _emit(lines)
    return 0


def _residual_bounds(res: MeanPropResult) -> tuple[Fraction, Fraction]:
    """Upper bounds on |ab*y - x^2| and |x*bc - y^2|."""
    return res.residual1.magnitude().hi, res.residual2.magnitude().hi


def _meanprop_row(name: str, res: MeanPropResult, digits: int) -> str:
    r1, r2 = _residual_bounds(res)
    return (
        f"{name:<10s} x~{format_decimal(res.x.mid, digits):<{digits + 4}s} "
        f"y~{format_decimal(res.y.mid, digits):<{digits + 4}s} "
        f"|r1|<={format_magnitude_bound(r1):<9s} |r2|<={format_magnitude_bound(r2)}"
    )


def cmd_meanprops(args: argparse.Namespace) -> int:
    digits = args.decimal_digits
    if args.variant is not None and args.method != "heron":
        raise ValueError("--variant applies only to --method heron")
    prob = MeanPropProblem(ab=args.ab, bc=args.bc, tol=args.tol)
    if args.method == "all":
        # one failing method must not hide the others' rows
        lines, status = [], 0
        for flag, name in _METHODS.items():
            try:
                lines.append(_meanprop_row(flag, METHODS[name](prob), digits))
            except _NUMERICAL_FAILURES as exc:
                lines.append(f"{flag:<10s} numerical failure: {exc}")
                status = 3
        _emit(lines)
        return status
    if args.method == "heron" and args.variant == "apollonius":
        res = solve_heron_apollonius(prob, variant="apollonius")
    else:
        res = METHODS[_METHODS[args.method]](prob)
    r1, r2 = _residual_bounds(res)
    _emit(
        [
            f"method     {args.method}",
            f"x ~        {render_value(res.x, digits)}",
            f"y ~        {render_value(res.y, digits)}",
            f"|ab*y - x^2| <= {format_magnitude_bound(r1)}",
            f"|x*bc - y^2| <= {format_magnitude_bound(r2)}",
        ]
    )
    return 0


#: The largest ``nth-root --degree`` and ``special-numbers --max-degree``.
#: A degree-n row of special numbers has O(n**2) digits, and an
#: extraction builds it as soon as a step divides.
MAX_DEGREE = 1000


def _check_degree(flag: str, degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(f"{flag} must be at most {MAX_DEGREE}, got {degree}")


def cmd_nth_root(args: argparse.Namespace) -> int:
    _check_degree("--degree", args.degree)
    mode = FULL if args.divisor == "full" else SIMPLIFIED
    rx = extract_root(args.radicand, args.degree, frac_digits=args.frac_digits, divisor_mode=mode)
    lines = [f"root       {rx.root_string()}", f"remainder  {int_to_decimal(rx.remainder)}"]
    if args.trace:
        lines.append("")
        lines.append(render_trace(rx))
    _emit(lines)
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    # every coordinate is one root from rat_sqrt_bounds
    digits = args.decimal_digits
    p = _precision_for(digits)
    if args.type == "cissoid":
        points = cissoid_points(args.radius, args.samples, p, args.span)
    else:
        points = conchoid_points(args.pole_distance, args.offset, args.samples, args.x_range, p)
    if args.format == "csv":
        rows = ["x,y"]
        rows += [
            f"{format_decimal(pt.x.mid, digits)},{format_decimal(pt.y.mid, digits)}"
            for pt in points
        ]
        _emit(rows)
        return 0
    _emit_text(render_svg(points))
    return 0


def cmd_special_numbers(args: argparse.Namespace) -> int:
    if args.max_degree < 2:
        raise ValueError("--max-degree must be at least 2")
    _check_degree("--max-degree", args.max_degree)
    # one row at a time: all rows up to MAX_DEGREE run to about 240 MB
    for n in range(2, args.max_degree + 1):
        sp = SpecialNumbers.for_degree(n)
        _emit([f"degree {n:>2d}: " + ", ".join(map(int_to_decimal, sp.values))])
    return 0


# ----------------------------------------------------------------------
# SVG


def render_svg(points: list[PointBounds]) -> str:
    """Standalone 800x800 SVG with the midpoint polyline autoscaled to
    fit (uniform scale, y up)."""
    size, margin = Fraction(800), Fraction(40)
    xs = [pt.x.mid for pt in points]
    ys = [pt.y.mid for pt in points]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    spans = [s for s in (xmax - xmin, ymax - ymin) if s > 0]
    scale = min((size - 2 * margin) / s for s in spans) if spans else Fraction(1)
    offx = (size - scale * (xmax - xmin)) / 2 - scale * xmin
    offy = (size - scale * (ymax - ymin)) / 2 - scale * ymin
    coords = " ".join(
        f"{format_decimal(scale * x + offx, 2)},{format_decimal(size - (scale * y + offy), 2)}"
        for x, y in zip(xs, ys)
    )
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="0 0 800 800">\n'
        '  <rect width="800" height="800" fill="white"/>\n'
        f'  <polyline points="{coords}" fill="none" stroke="black" '
        'stroke-width="1.5"/>\n'
        "</svg>\n"
    )


# ----------------------------------------------------------------------
# parser and dispatch


#: Errors reported with exit code 3.
_NUMERICAL_FAILURES = (PrecisionError, BracketNotFoundError)


def int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        n = int(text)  # argparse reports a ValueError as an invalid value
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_decimal_digits(sub: argparse.ArgumentParser, default: int | None = 15) -> None:
    sub.add_argument("--decimal-digits", type=int_at_least(0), default=default, metavar="D",
                     help="decimal places in printed values")


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts "-" or "-." and a digit as a value (no
    option does): ``--span -1/2 1/2`` and ``--x-range -1e3 1e3`` too,
    which older Pythons (3.11, for one) read as an option.  The
    subparsers are built with this class too."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="practica",
        description="Exact-arithmetic reconstructions of classical geometry algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pi-bounds", help="polygon-doubling bounds on the circle ratio")
    target = sp.add_mutually_exclusive_group(required=True)
    target.add_argument("--sides", type=int, metavar="N",
                        help="stop at an N-gon (N = 6*2^k)")
    target.add_argument("--width", type=parse_rational, metavar="W",
                        help="double until upper - lower <= W")
    sp.add_argument("--format", choices=("text", "csv"), default="text")
    sp.add_argument("--precision", type=int_at_least(1), default=DEFAULT_PRECISION.decimal_digits,
                    metavar="P", help="working precision in decimal digits; with --width, a floor "
                    "under the digits the width needs (default %(default)s)")
    _add_decimal_digits(sp, default=None)
    sp.set_defaults(func=cmd_pi_bounds)

    sp = sub.add_parser("heron", help="triangle area from sides or vertices")
    triangle = sp.add_mutually_exclusive_group(required=True)
    triangle.add_argument("--sides", type=parse_rational, nargs=3, metavar=("A", "B", "C"))
    triangle.add_argument("--vertices", type=parse_rational, nargs=6,
                          metavar=("X1", "Y1", "X2", "Y2", "X3", "Y3"))
    _add_decimal_digits(sp)
    sp.set_defaults(func=cmd_heron)

    sp = sub.add_parser("meanprops", help="two mean proportionals between two lines")
    sp.add_argument("--method", choices=(*_METHODS, "all"), default="all")
    sp.add_argument("--variant", choices=("heron", "apollonius"),
                    help="equal-cuts criterion used by the heron method (default heron)")
    sp.add_argument("--ab", type=parse_rational, required=True, metavar="A")
    sp.add_argument("--bc", type=parse_rational, required=True, metavar="C")
    sp.add_argument("--tol", type=parse_rational, default=DEFAULT_TOL, metavar="T")
    _add_decimal_digits(sp)
    sp.set_defaults(func=cmd_meanprops)

    sp = sub.add_parser("nth-root", help="digit-by-digit root extraction")
    sp.add_argument("--degree", type=int, required=True, metavar="N")
    sp.add_argument("--radicand", type=int, required=True, metavar="K")
    sp.add_argument("--frac-digits", type=int, default=0, metavar="F")
    sp.add_argument("--divisor", choices=("full", "simplified"), default="full")
    sp.add_argument("--trace", action="store_true", help="print the working table")
    sp.set_defaults(func=cmd_nth_root)

    sp = sub.add_parser("curve", help="emit certified curve points as CSV or SVG")
    sp.add_argument("--type", choices=("cissoid", "conchoid"), required=True)
    sp.add_argument("--samples", type=int, default=100, metavar="K")
    sp.add_argument("--format", choices=("csv", "svg"), default="csv")
    sp.add_argument("--radius", type=parse_rational, default=Fraction(1), metavar="R")
    sp.add_argument("--span", type=parse_rational, nargs=2, metavar=("S0", "S1"),
                    default=(Fraction(0), Fraction(1)),
                    help="cissoid parameter range inside [-1, 1]")
    sp.add_argument("--pole-distance", type=parse_rational, default=Fraction(1), metavar="D")
    sp.add_argument("--offset", type=parse_rational, default=Fraction(1), metavar="E")
    sp.add_argument("--x-range", type=parse_rational, nargs=2, metavar=("X0", "X1"),
                    default=(Fraction(0), Fraction(21)))
    _add_decimal_digits(sp)
    sp.set_defaults(func=cmd_curve)

    sp = sub.add_parser("special-numbers", help="divisor coefficient rows per degree")
    sp.add_argument("--max-degree", type=int, required=True, metavar="M")
    sp.set_defaults(func=cmd_special_numbers)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_FAILURES as exc:
        print(f"practica: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"practica: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
