"""End-to-end runs of the installed command line tool.

Each case goes through a real subprocess so the exit-code contract and
byte-level determinism are what a shell user would see, except the one
that runs ``cli.main`` in process to stand a failure in for a route and
the generated ``heron`` and ``curve`` runs that check every printed digit.
"""

import contextlib
import csv
import io
import math
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from decimal import Decimal
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from practica import cli
from practica.circle_measurement import pi_bounds
from practica.cli import format_decimal, format_fraction, format_magnitude_bound, parse_rational
from practica.heron import TriangleSides, heron_product
from practica.mean_proportionals import (
    DIOCLES,
    MeanPropProblem,
    conchoid_points,
    solve_nicomedes,
)
from practica.numerics import DEFAULT_PRECISION, Precision, PrecisionError, int_nth_root_floor

README = Path(__file__).resolve().parent.parent / "README.md"


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "practica", *args],
        capture_output=True,
        timeout=120,
    )


def test_pi_bounds_sides_96():
    r = run("pi-bounds", "--sides", "96", "--precision", "15")
    assert r.returncode == 0
    out = r.stdout.decode()
    assert "sides    96" in out
    lower = Fraction(out.splitlines()[1].split()[1])
    upper = Fraction(out.splitlines()[2].split()[1])
    assert Fraction(3) + Fraction(10, 71) <= lower < upper <= Fraction(22, 7)


def test_pi_bounds_hexagon_lower_exactly_three():
    r = run("pi-bounds", "--sides", "6")
    assert r.returncode == 0
    assert r.stdout.decode().splitlines()[1] == "lower    3"


def test_pi_bounds_width_target_shows_ludolphine_digits():
    r = run("pi-bounds", "--width", "1e-21", "--precision", "30")
    assert r.returncode == 0
    out = r.stdout.decode()
    assert "3.14159265358979323846" in out


def test_pi_bounds_csv_format():
    r = run("pi-bounds", "--sides", "12", "--format", "csv", "--decimal-digits", "8")
    rows = list(csv.reader(io.StringIO(r.stdout.decode())))
    assert rows[0] == ["bound", "fraction", "decimal"]
    assert rows[1][0] == "lower" and rows[2][0] == "upper"
    assert Fraction(rows[1][1]) < Fraction(rows[2][1])


def test_pi_bounds_exit_codes():
    assert run("pi-bounds", "--sides", "17").returncode == 2
    assert run("pi-bounds").returncode == 2
    assert run("pi-bounds", "--sides", "96", "--width", "1e-3").returncode == 2
    # a width takes the digits it needs, however small the precision
    r = run("pi-bounds", "--width", "1e-21", "--precision", "3")
    assert r.returncode == 0, r.stderr
    lines = dict(line.split(None, 1) for line in r.stdout.decode().splitlines()[:3])
    assert Fraction(lines["upper"]) - Fraction(lines["lower"]) <= Fraction(1, 10 ** 21)
    # too many doublings for the precision: numerical failure
    r = run("pi-bounds", "--sides", str(6 * 2 ** 34), "--precision", "1")
    assert r.returncode == 3
    assert "the inscribed bound rounds to 0" in r.stderr.decode()


def test_heron_sides():
    r = run("heron", "--sides", "3", "4", "5")
    assert r.returncode == 0
    out = r.stdout.decode()
    assert "product        36" in out
    assert "6.000000000000000" in out


def test_heron_vertices_dual_route():
    r = run("heron", "--vertices", "0", "0", "5", "0", "1", "2")
    assert r.returncode == 0
    out = r.stdout.decode()
    assert out.count("area^2         25") == 2
    assert "agreement      exact" in out


def test_heron_rejects_degenerate():
    r = run("heron", "--sides", "1", "1", "3")
    assert r.returncode == 2
    assert "triangle" in r.stderr.decode()


def test_heron_accepts_rational_syntax():
    r = run("heron", "--sides", "3/2", "2", "5/2")
    assert r.returncode == 0
    assert "product        9/4" in r.stdout.decode()


def _truncated(x: Fraction, digits: int) -> str:
    # x >= 0 to `digits` places, truncated, spelled by decimal.Decimal
    scaled = Decimal(x.numerator * 10 ** digits // x.denominator).as_tuple()
    return str(Decimal((0, scaled.digits, -digits)))


def _pi_lines(sides: int, precision: int, digits: int) -> list[str]:
    b = pi_bounds(target_sides=sides, p=Precision(precision))
    return [
        f"sides    {b.sides}",
        f"lower    {format_fraction(b.lower)}",
        f"upper    {format_fraction(b.upper)}",
        f"lower ~  {_truncated(b.lower, digits)}",
        f"upper ~  {_truncated(b.upper, digits)}",
    ]


def _heron_lines(side: Fraction) -> list[str]:
    tri = TriangleSides(side, side, side)
    return [
        "sides          " + " ".join([format_fraction(side)] * 3),
        f"semiperimeter  {format_fraction(tri.semiperimeter)}",
        f"product        {format_fraction(heron_product(tri))}",
    ]


#: Commands that print numbers past the 4300-digit limit of ``str(int)``,
#: by test id, with the lines they must print first.
LONG_NUMBER_COMMANDS = {
    "pi-bounds-decimal-digits": (
        "pi-bounds --sides 96 --decimal-digits 5000",
        partial(_pi_lines, 96, DEFAULT_PRECISION.decimal_digits, 5000),
    ),
    "pi-bounds-precision": ("pi-bounds --sides 6 --precision 4400", partial(_pi_lines, 6, 4400, 4400)),
    "heron-sides": ("heron --sides 1e1500 1e1500 1e1500", partial(_heron_lines, Fraction(10 ** 1500))),
}


@pytest.mark.parametrize("command, lines", LONG_NUMBER_COMMANDS.values(), ids=LONG_NUMBER_COMMANDS.keys())
def test_numbers_past_the_str_limit_print(command, lines):
    r = run(*command.split())
    assert r.returncode == 0, r.stderr.decode()
    expected = lines()
    assert r.stdout.decode().splitlines()[:len(expected)] == expected


#: Every README command that prints to stdout, by test id.
README_COMMANDS = {
    "pi-bounds-sides": "practica pi-bounds --sides 96 --decimal-digits 10",
    "pi-bounds-width": "practica pi-bounds --width 1e-21 | grep 'lower ~'",
    "heron": "practica heron --vertices 0 0 5 0 1 2",
    "meanprops": "practica meanprops --method all --ab 2 --bc 1",
    "nth-root": "practica nth-root --degree 3 --radicand 239483190 --trace",
    "special-numbers": "practica special-numbers --max-degree 4",
}


@pytest.mark.parametrize("command", README_COMMANDS.values(), ids=README_COMMANDS.keys())
def test_readme_cli_block(command):
    # the block printed under the command in the README, byte for byte
    # (up to the next command or the end of the code block, less the blank
    # line that separates commands)
    readme = README.read_text(encoding="utf-8").splitlines()
    start = readme.index(f"$ {command}") + 1
    end = next(i for i in range(start, len(readme)) if readme[i].startswith(("$ ", "```")))
    while readme[end - 1] == "":
        end -= 1
    invocation, _, grep = command.partition(" | grep ")
    r = run(*shlex.split(invocation)[1:])
    assert r.returncode == 0
    out = r.stdout.decode()
    if grep:
        pattern = shlex.split(grep)[0]
        out = "".join(line for line in out.splitlines(keepends=True) if pattern in line)
    assert out == "\n".join(readme[start:end]) + "\n"


def test_meanprops_all_reports_each_failure_and_keeps_other_rows(monkeypatch, capsys):
    # A route can still fail numerically (an exact root that no enclosure
    # certifies); stand such a failure in for diocles.
    def fail(prob):
        raise PrecisionError("enclosure too wide at an exact root")

    monkeypatch.setitem(cli.METHODS, DIOCLES, fail)
    assert cli.main(["meanprops", "--method", "all", "--ab", "2", "--bc", "1"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["heron", "philo", "diocles", "nicomedes"]
    for line in lines[:2] + lines[3:]:
        assert " x~" in line and " y~" in line
    assert lines[2] == "diocles    numerical failure: enclosure too wide at an exact root"

    # no route refuses a ratio near 1
    r = run("meanprops", "--method", "all", "--ab", "1.000000000000001", "--bc", "1")
    assert r.returncode == 0, r.stderr.decode()
    lines = r.stdout.decode().splitlines()
    assert [line.split()[0] for line in lines] == ["heron", "philo", "diocles", "nicomedes"]
    for line in lines:
        assert " x~" in line and " y~" in line


def test_meanprops_all_on_small_lines():
    # nicomedes once divided by zero here, and --method all printed no row
    r = run("meanprops", "--method", "all", "--ab", "2e-6", "--bc", "1e-6")
    assert r.returncode == 0, r.stderr.decode()
    lines = r.stdout.decode().splitlines()
    assert [line.split()[0] for line in lines] == ["heron", "philo", "diocles", "nicomedes"]
    assert all(" x~0.000001587401051 " in line for line in lines)


def test_meanprops_all_at_tight_tolerance():
    r = run("meanprops", "--method", "all", "--ab", "2", "--bc", "1", "--tol", "1e-160")
    assert r.returncode == 0, r.stderr.decode()
    lines = r.stdout.decode().splitlines()
    assert [line.split()[0] for line in lines] == ["heron", "philo", "diocles", "nicomedes"]
    assert all(" x~1.587401051968199 " in line for line in lines)


def test_meanprops_nicomedes_at_huge_ratio():
    r = run("meanprops", "--method", "nicomedes", "--ab", "1e30", "--bc", "1")
    assert r.returncode == 0
    res = solve_nicomedes(MeanPropProblem(ab=Fraction(10 ** 30), bc=Fraction(1)))
    assert res.x.contains(10 ** 20)
    assert res.y.contains(10 ** 10)


def test_meanprops_nicomedes_refuses_means_its_rounded_pole_moves():
    # At 1e34 : 1/3, tol 1e-6, the figure's root misses the means: exit 3
    # alone, and a failure row beside the other routes under --method all.
    args = ("meanprops", "--ab", "1e34", "--bc", "1/3", "--tol", "1e-6")
    message = "the rounded pole depth moves the neusis off the means"
    r = run(*args, "--method", "nicomedes")
    assert r.returncode == 3
    assert r.stderr.decode() == f"practica: numerical failure: {message}\n"
    r = run(*args, "--method", "all")
    assert r.returncode == 3
    lines = r.stdout.decode().splitlines()
    assert [line.split()[0] for line in lines] == ["heron", "philo", "diocles", "nicomedes"]
    assert lines[3] == f"nicomedes  numerical failure: {message}"
    for line in lines[:3]:
        assert " x~" in line and " y~" in line


def test_meanprops_single_method_and_variant():
    r = run("meanprops", "--method", "heron", "--ab", "5", "--bc", "5")
    assert r.returncode == 0
    assert "5.000000000000000" in r.stdout.decode()
    r2 = run("meanprops", "--method", "heron", "--variant", "apollonius",
             "--ab", "2", "--bc", "1")
    assert r2.returncode == 0
    assert "y ~        1.2599210498" in r2.stdout.decode()
    # only heron has variants; a --variant elsewhere must not be ignored
    for method in ("philo", "all"):
        r3 = run("meanprops", "--method", method, "--variant", "apollonius",
                 "--ab", "2", "--bc", "1")
        assert r3.returncode == 2
        assert "--variant" in r3.stderr.decode()


def test_meanprops_decimal_input():
    r = run("meanprops", "--method", "philo", "--ab", "0.5", "--bc", "4")
    assert r.returncode == 0
    assert run("meanprops", "--method", "philo", "--ab", "x", "--bc", "1").returncode == 2


def test_nth_root_trace():
    r = run("nth-root", "--degree", "3", "--radicand", "239483190", "--trace")
    assert r.returncode == 0
    out = r.stdout.decode()
    assert "root       621" in out
    assert "remainder  129" in out
    for token in ("10980", "22328", "1155"):
        assert token in out


def test_nth_root_simplified_exact_cube():
    r = run("nth-root", "--degree", "3", "--radicand", "80621568000",
            "--divisor", "simplified")
    assert r.returncode == 0
    out = r.stdout.decode()
    assert "root       4320" in out
    assert "remainder  0" in out


def test_nth_root_frac_digits():
    r = run("nth-root", "--degree", "2", "--radicand", "2", "--frac-digits", "5")
    assert "root       1.41421" in r.stdout.decode()


def test_nth_root_remainder_beyond_str_limit():
    r = run("nth-root", "--degree", "2", "--radicand", "2", "--frac-digits", "5000")
    assert r.returncode == 0
    lines = r.stdout.decode().splitlines()
    root = int_nth_root_floor(2 * 10 ** 10000, 2)
    assert lines[0].split()[1].replace(".", "") == str(Decimal(root))
    assert lines[1].split() == ["remainder", str(Decimal(2 * 10 ** 10000 - root ** 2))]


def test_nth_root_exit_codes():
    assert run("nth-root", "--degree", "1", "--radicand", "5").returncode == 2
    assert run("nth-root", "--degree", "2", "--radicand", "-4").returncode == 2


@pytest.mark.parametrize(
    "args, flag",
    [
        (("nth-root", "--degree", "1001", "--radicand", "2"), "--degree"),
        (("special-numbers", "--max-degree", "1001"), "--max-degree"),
    ],
)
def test_degree_flags_are_bounded(args, flag):
    # A degree-n row of special numbers has O(n**2) digits, so both flags
    # stop at 1000; the library functions take any degree.
    r = run(*args)
    assert r.returncode == 2
    assert r.stdout == b""
    assert r.stderr.decode() == f"practica: error: {flag} must be at most 1000, got 1001\n"


def test_nth_root_degree_at_the_bound():
    # A second digit group, so a step divides and builds the degree-1000 row;
    # the remainder is 2 * 10**1000 - 10**1000 (the root 1.0 read as 10).
    r = run("nth-root", "--degree", "1000", "--radicand", "2", "--frac-digits", "1")
    assert r.returncode == 0
    assert r.stdout.decode().splitlines() == ["root       1.0", f"remainder  {10 ** 1000}"]


def test_curve_conchoid_csv_row_count():
    r = run("curve", "--type", "conchoid", "--samples", "100", "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.decode().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 101


def test_curve_cissoid_two_rows():
    r = run("curve", "--type", "cissoid", "--samples", "2")
    lines = r.stdout.decode().splitlines()
    assert lines == ["x,y", "1.000000000000000,0.000000000000000",
                     "0.000000000000000,-1.000000000000000"]


def test_curve_output_is_byte_deterministic():
    a = run("curve", "--type", "conchoid", "--samples", "50")
    b = run("curve", "--type", "conchoid", "--samples", "50")
    assert a.stdout == b.stdout
    assert b"\r" not in a.stdout  # LF only


def test_curve_csv_round_trips_to_midpoints():
    samples, digits = 20, 15
    r = run("curve", "--type", "conchoid", "--samples", str(samples))
    rows = list(csv.reader(io.StringIO(r.stdout.decode())))[1:]
    pts = conchoid_points(Fraction(1), Fraction(1), samples, (Fraction(0), Fraction(21)))
    ulp = Fraction(1, 10 ** digits)
    for row, pt in zip(rows, pts):
        assert abs(parse_rational(row[0]) - pt.x.mid) <= ulp
        assert abs(parse_rational(row[1]) - pt.y.mid) <= ulp


def test_curve_svg_is_wellformed_standalone():
    r = run("curve", "--type", "cissoid", "--samples", "30", "--format", "svg",
            "--span", "-1", "1")
    assert r.returncode == 0
    root = ET.fromstring(r.stdout.decode())
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 1
    assert len(polylines[0].get("points").split()) == 30
    assert "http" not in r.stdout.decode().replace("http://www.w3.org/2000/svg", "")


@pytest.mark.parametrize(
    "args, spelled",
    [
        (("curve", "--type", "cissoid", "--samples", "5", "--span", "-1/2", "1/2"),
         ("-0.5", "0.5")),
        (("curve", "--type", "conchoid", "--samples", "5", "--x-range", "-1e3", "1e3"),
         ("-1000", "1000")),
        (("heron", "--vertices", "0", "0", "5", "0", "-1/2", "2"), ("-0.5", "2")),
    ],
    ids=["span-p/q", "x-range-scientific", "vertices-p/q"],
)
def test_multi_value_flags_take_negative_fractions_and_scientific_literals(args, spelled):
    # The last two values, spelled as plain decimals, give the same bytes.
    r = run(*args)
    assert r.returncode == 0, r.stderr.decode()
    plain = run(*args[:-2], *spelled)
    assert plain.returncode == 0, plain.stderr.decode()
    assert r.stdout == plain.stdout


def test_curve_exit_codes():
    assert run("curve", "--type", "cissoid", "--samples", "1").returncode == 2
    assert run("curve", "--type", "cissoid", "--span", "0", "3").returncode == 2
    assert run("curve", "--type", "helix").returncode == 2


def test_special_numbers_rows():
    r = run("special-numbers", "--max-degree", "3")
    assert r.returncode == 0
    lines = r.stdout.decode().splitlines()
    assert lines[0].endswith("20")
    assert lines[1].endswith("300, 30")
    assert run("special-numbers", "--max-degree", "1").returncode == 2


def test_special_numbers_degree_17_row_width():
    r = run("special-numbers", "--max-degree", "17")
    last = r.stdout.decode().splitlines()[-1]
    assert last.startswith("degree 17:")
    assert len(last.split(":")[1].split(",")) == 16


@pytest.mark.parametrize(
    "command",
    [
        ("pi-bounds", "--sides", "96"),
        ("heron", "--sides", "3", "4", "5"),
        ("meanprops", "--ab", "2", "--bc", "1"),
        ("curve", "--type", "cissoid"),
    ],
    ids=lambda command: command[0],
)
def test_negative_decimal_digits_is_usage_error(command):
    r = run(*command, "--decimal-digits", "-1")
    assert r.returncode == 2
    assert "--decimal-digits" in r.stderr.decode()
    assert r.stdout == b""


@pytest.mark.parametrize("command", ["pi-bounds"])
@pytest.mark.parametrize("precision", ["0", "-1"])
def test_nonpositive_precision_is_usage_error(command, precision):
    r = run(command, "--sides", "96", f"--precision={precision}")
    assert r.returncode == 2
    assert f"argument --precision: must be at least 1, got {precision}" in r.stderr.decode()
    assert r.stdout == b""


@pytest.mark.parametrize(
    "command", [("heron", "--sides", "3", "4", "5"), ("curve", "--type", "cissoid")],
    ids=lambda command: command[0],
)
def test_heron_and_curve_take_no_precision(command):
    # their working digits follow from --decimal-digits
    r = run(*command, "--precision", "30")
    assert r.returncode == 2
    assert "unrecognized arguments: --precision 30" in r.stderr.decode()
    assert r.stdout == b""


# --- every printed digit of heron and curve -------------------------------


def _floor_root(q: Fraction, b: Fraction) -> int:
    """floor(q + sqrt(b)) for rationals q, b >= 0, decided by squaring:
    it is n or n + 1 for n = floor(q) + isqrt(floor(b))."""
    n = math.floor(q) + math.isqrt(math.floor(b))
    return n + (n + 1 <= q or (n + 1 - q) ** 2 <= b)


#: One printed decimal's true value, -(q + sqrt(b)) if ``negative`` else
#: q + sqrt(b), with rationals q, b >= 0.
Truth = tuple[bool, Fraction, Fraction]


def _check_printed(printed: str, truth: Truth) -> None:
    """``printed`` is the true value truncated toward zero to its places,
    or one unit in the last place from that."""
    negative, q, b = truth
    assert printed.startswith("-") == negative, printed
    scale = 10 ** len(printed.partition(".")[2])
    shown = abs(Fraction(printed)) * scale
    assert abs(shown - _floor_root(q * scale, b * scale * scale)) <= 1, (printed, truth)


def _main_stdout(argv: list[str]) -> str:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.buffer.getvalue().decode()


def _heron_sides_case(sides: list[Fraction], digits: int) -> tuple[list[str], list[Truth]]:
    a, b, c = sides
    s = (a + b + c) / 2
    argv = ["heron", "--sides", *map(str, sides), "--decimal-digits", str(digits)]
    return argv, [(False, Fraction(0), s * (s - a) * (s - b) * (s - c))]


def _heron_vertices_case(coords: list[Fraction], digits: int) -> tuple[list[str], list[Truth]]:
    x1, y1, x2, y2, x3, y3 = coords
    cross = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
    argv = ["heron", "--vertices", *map(str, coords), "--decimal-digits", str(digits)]
    return argv, [(False, Fraction(0), cross * cross / 4)]


def _cissoid_case(r: Fraction, samples: int, span: tuple[Fraction, Fraction] | None,
                  digits: int) -> tuple[list[str], list[Truth]]:
    # (h*(r-m)/(r+m), -m) with h**2 = r**2 - m**2, as the figure builds it
    argv = ["curve", "--type", "cissoid", "--samples", str(samples), "--radius", str(r),
            "--decimal-digits", str(digits)]
    if span is not None:
        argv += ["--span", *map(str, span)]
    s0, s1 = span or (Fraction(0), Fraction(1))
    truths = []
    for j in range(samples):
        s = s0 + (s1 - s0) * Fraction(j, samples - 1)
        m = r * abs(s)
        x_sq = (r * r - m * m) * ((r - m) / (r + m)) ** 2
        truths += [(s < 0 and x_sq > 0, Fraction(0), x_sq), (m > 0, m, Fraction(0))]
    return argv, truths


def _conchoid_case(d: Fraction, e: Fraction, samples: int, x_range: tuple[Fraction, Fraction],
                   digits: int) -> tuple[list[str], list[Truth]]:
    # S = (s, 0) pushed by e away from the pole (0, -d): S + e*(s, d)/|(s, d)|
    argv = ["curve", "--type", "conchoid", "--samples", str(samples), "--pole-distance", str(d),
            "--offset", str(e), "--x-range", *map(str, x_range), "--decimal-digits", str(digits)]
    x0, x1 = x_range
    truths = []
    for j in range(samples):
        s = x0 + (x1 - x0) * Fraction(j, samples - 1)
        hyp_sq = s * s + d * d
        truths += [(s < 0, abs(s), e * e * s * s / hyp_sq), (False, Fraction(0), e * e * d * d / hyp_sq)]
    return argv, truths


#: Lengths from 1e-20 to 1e20 with short mantissas.
_LENGTHS = st.builds(lambda m, k: m * Fraction(10) ** k,
                     st.fractions(min_value=1, max_value=10, max_denominator=1000),
                     st.integers(-20, 20))
_UNIT = st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000), max_denominator=1000)
_DIGITS = st.integers(0, 60)
_SAMPLES = st.integers(2, 5)
_COORDINATES = st.fractions(min_value=-1, max_value=1, max_denominator=1000)
_PAIRS = st.lists(_COORDINATES, min_size=2, max_size=2, unique=True).map(sorted)


@st.composite
def _triangle_sides(draw) -> list[Fraction]:
    # c strictly between |a - b| and a + b
    a, b = draw(_LENGTHS), draw(_LENGTHS)
    c = abs(a - b) + 2 * min(a, b) * draw(_UNIT)
    return [a, b, c]


@st.composite
def _vertices(draw) -> list[Fraction]:
    scale = draw(_LENGTHS)
    coords = [scale * v for v in draw(st.lists(_COORDINATES, min_size=6, max_size=6))]
    x1, y1, x2, y2, x3, y3 = coords
    assume((x2 - x1) * (y3 - y1) != (y2 - y1) * (x3 - x1))
    return coords


_CLI_CASES = st.one_of(
    st.builds(_heron_sides_case, _triangle_sides(), _DIGITS),
    st.builds(_heron_vertices_case, _vertices(), _DIGITS),
    st.builds(_cissoid_case, _LENGTHS, _SAMPLES, st.none() | _PAIRS.map(tuple), _DIGITS),
    st.builds(_conchoid_case, _LENGTHS, _LENGTHS, _SAMPLES,
              st.tuples(_LENGTHS, _PAIRS).map(lambda sp: tuple(sp[0] * v for v in sp[1])), _DIGITS),
)


@settings(max_examples=200, deadline=None)
@given(_CLI_CASES)
@example(_cissoid_case(Fraction(1), 3, None, 45))  # wrong from the 31st decimal at 30 digits
@example(_conchoid_case(Fraction(1), Fraction(1), 3, (Fraction(0), Fraction(21)), 60))
@example(_heron_sides_case([Fraction(10 ** 20)] * 3, 60))
def test_heron_and_curve_print_only_true_digits(case):
    # Every decimal heron or curve (CSV) prints is the true value
    # truncated to its places, up to one unit in the last place, with no
    # interval beside it.
    argv, truths = case
    out = _main_stdout(argv)
    if argv[0] == "heron":
        match = re.fullmatch(r"area ~ +(\S+)(  \(exact\))?", out.splitlines()[-1])
        assert match, out
        printed = [match.group(1)]
    else:
        printed = [value for row in out.splitlines()[1:] for value in row.split(",")]
    assert len(printed) == len(truths)
    for text, truth in zip(printed, truths):
        _check_printed(text, truth)


@pytest.mark.parametrize("literal", ["inf", "Infinity", "-inf", "-Infinity", "nan", "snan"])
def test_non_finite_literal_is_usage_error(literal):
    r = run("meanprops", "--method", "heron", f"--ab={literal}", "--bc", "1")
    assert r.returncode == 2
    assert f"argument --ab: not a rational number: {literal!r}" in r.stderr.decode()
    assert r.stdout == b""


def test_unknown_subcommand_is_usage_error():
    assert run("frobnicate").returncode == 2


# --- the deterministic formatting helpers, unit level ---------------------


def test_format_decimal_truncates_toward_zero():
    assert format_decimal(Fraction(1, 3), 5) == "0.33333"
    assert format_decimal(Fraction(-1, 3), 5) == "-0.33333"
    assert format_decimal(Fraction(2, 3), 5) == "0.66666"
    assert format_decimal(Fraction(5), 0) == "5"
    assert format_decimal(Fraction(22, 7), 3) == "3.142"


def _format_decimal_reference(x: Fraction, digits: int) -> str:
    # format_decimal as it was spelled before it went through int_to_decimal
    sign = "-" if x < 0 else ""
    n = abs(Fraction(x))
    scaled = n.numerator * 10 ** digits // n.denominator
    if digits == 0:
        return f"{sign}{scaled}"
    ip, fp = divmod(scaled, 10 ** digits)
    return f"{sign}{ip}.{fp:0{digits}d}"


#: Fractions whose decimal spellings stay inside the str limit.
_SPELLABLE = st.builds(Fraction, st.integers(-10 ** 4000, 10 ** 4000), st.integers(1, 10 ** 200))


@given(st.one_of(st.fractions(), _SPELLABLE), st.integers(0, 200))
@example(Fraction(-1, 1000), 2)  # truncates to -0.00
@example(Fraction(-7, 2), 0)
@example(Fraction(0), 0)
def test_format_decimal_matches_the_f_string_form(x, digits):
    assert format_decimal(x, digits) == _format_decimal_reference(x, digits)


@given(st.one_of(st.fractions(), _SPELLABLE))
def test_format_fraction_matches_str(x):
    assert format_fraction(x) == str(x)


def test_format_magnitude_bound_rounds_up():
    assert format_magnitude_bound(Fraction(0)) == "0"
    assert format_magnitude_bound(Fraction(1, 3)) == "3.34e-01"
    assert format_magnitude_bound(Fraction(1000)) == "1.00e+03"
    assert format_magnitude_bound(Fraction(-999, 1000)) == "9.99e-01"
    # rounding up may carry across a decade
    assert format_magnitude_bound(Fraction(9999, 10000)) == "1.00e+00"


def _format_magnitude_bound_reference(x: Fraction) -> str:
    # format_magnitude_bound as it was spelled before it read the decade
    # from the bit lengths: one division or multiplication by 10 a decade
    n = abs(Fraction(x))
    if n == 0:
        return "0"
    exp = 0
    while n >= 10:
        n /= 10
        exp += 1
    while n < 1:
        n *= 10
        exp -= 1
    scaled = n * 100
    m = scaled.numerator // scaled.denominator
    if Fraction(m) != scaled:
        m += 1
    if m == 1000:
        m, exp = 100, exp + 1
    s = str(m)
    return f"{s[0]}.{s[1:]}e{exp:+03d}"


#: Mantissas just off a power of ten, of either sign: the ones a little
#: under it round up across the decade.
_NEAR_DECADE = st.builds(
    lambda k, s, sign: Fraction(sign * (10 ** k + s), 10 ** k),
    st.integers(1, 12), st.integers(-3, 3), st.sampled_from([-1, 1]),
)


@given(st.one_of(st.fractions(), _NEAR_DECADE), st.integers(-6000, 6000))
@example(Fraction(9999, 10000), 0)
@example(Fraction(-999, 1000), 6000)
@example(Fraction(9999, 10000), -6000)
@example(Fraction(-999999, 1000000), 6000)
@example(Fraction(7, 3), 1000)
@settings(deadline=None)
def test_format_magnitude_bound_matches_the_decade_loop(mantissa, exp):
    x = mantissa * Fraction(10) ** exp
    assert format_magnitude_bound(x) == _format_magnitude_bound_reference(x)


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("0.125") == Fraction(1, 8)
    assert parse_rational("1e-21") == Fraction(1, 10 ** 21)
    assert parse_rational("-2.5e2") == -250
    assert parse_rational("1e4000") == 10 ** 4000  # within the int digit limit


@pytest.mark.parametrize("flag, literal", [("--ab", "1e999999999"), ("--tol", "1e-999999999")])
def test_meanprops_refuses_literals_past_the_int_digit_limit(flag, literal):
    # Exact, either literal is a billion-digit integer; the parse must
    # refuse it before building one, so a short timeout catches a hang.
    args = {"--ab": "2", "--bc": "1", flag: literal}
    r = subprocess.run(
        [sys.executable, "-m", "practica", "meanprops", *(x for kv in args.items() for x in kv)],
        capture_output=True,
        timeout=30,
    )
    assert r.returncode == 2
    assert f"argument {flag}: '{literal}'" in r.stderr.decode()
