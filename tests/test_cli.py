"""End-to-end runs of the installed command line tool.

Each case goes through a real subprocess so the exit-code contract and
byte-level determinism are what a shell user would see, except the one
that runs ``cli.main`` in process to stand a failure in for a route.
"""

import csv
import io
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from practica import cli
from practica.cli import format_decimal, format_magnitude_bound, parse_rational
from practica.mean_proportionals import (
    DIOCLES,
    MeanPropProblem,
    conchoid_points,
    solve_nicomedes,
)
from practica.numerics import PrecisionError, int_nth_root_floor

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


def test_nth_root_of_one_point_builds_no_special_numbers():
    # One point never divides, so the degree-50000 row of special numbers
    # (over a billion digits in all) must not be built; a short timeout
    # catches it.
    r = subprocess.run(
        [sys.executable, "-m", "practica", "nth-root", "--degree", "50000", "--radicand", "2"],
        capture_output=True,
        timeout=30,
    )
    assert r.returncode == 0
    assert r.stdout.decode().splitlines() == ["root       1", "remainder  1"]


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


@pytest.mark.parametrize("command", ["pi-bounds", "heron", "curve"])
@pytest.mark.parametrize("precision", ["0", "-1"])
def test_nonpositive_precision_is_usage_error(command, precision):
    flags = {
        "pi-bounds": ("--sides", "96"),
        "heron": ("--sides", "3", "4", "5"),
        "curve": ("--type", "cissoid"),
    }[command]
    r = run(command, *flags, f"--precision={precision}")
    assert r.returncode == 2
    assert f"argument --precision: must be at least 1, got {precision}" in r.stderr.decode()
    assert r.stdout == b""


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


def test_format_magnitude_bound_rounds_up():
    assert format_magnitude_bound(Fraction(0)) == "0"
    assert format_magnitude_bound(Fraction(1, 3)) == "3.34e-01"
    assert format_magnitude_bound(Fraction(1000)) == "1.00e+03"
    assert format_magnitude_bound(Fraction(-999, 1000)) == "9.99e-01"
    # rounding up may carry across a decade
    assert format_magnitude_bound(Fraction(9999, 10000)) == "1.00e+00"


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
