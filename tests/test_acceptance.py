"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines
even when everything passes).  Each criterion states its tolerance
inline; nothing here is loosened to make a check go green.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from practica.circle_measurement import (
    archimedes_window,
    exhaustion_report,
    fibonacci_identity_check,
    pi_bounds,
    prop2_ratio_check,
)
from practica.geometry import Point2, orient
from practica.heron import TriangleVertices, heron_area_sq_from_vertices
from practica.mean_proportionals import (
    METHODS,
    MeanPropProblem,
    conchoid_points,
    conchoid_quartic_residual,
)
from practica.numerics import Precision, int_nth_root_floor
from practica.root_extraction import FULL, SIMPLIFIED, extract_root


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num:02d} failed: {label} {detail}"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "practica", *args], capture_output=True, timeout=90
    )


def test_criterion_01_classical_96_gon_window():
    t0 = time.perf_counter()
    r = run_cli("pi-bounds", "--sides", "96", "--precision", "15")
    elapsed = time.perf_counter() - t0
    lines = r.stdout.decode().splitlines()
    lower = Fraction(lines[1].split()[1])
    upper = Fraction(lines[2].split()[1])
    ok = (
        r.returncode == 0
        and Fraction(3) + Fraction(10, 71) <= lower
        and upper <= Fraction(3) + Fraction(1, 7)
        and elapsed < 1.0
    )
    report(1, f"96-gon bounds inside [3+10/71, 3+1/7] in {elapsed:.3f}s", ok)


def test_criterion_02_twenty_decimal_enclosure():
    t0 = time.perf_counter()
    b = pi_bounds(target_width=Fraction(1, 10 ** 21), p=Precision(30))
    elapsed = time.perf_counter() - t0
    lo_window = Fraction(3) + Fraction(14159265358979323846, 10 ** 20)
    hi_window = Fraction(3) + Fraction(14159265358979323847, 10 ** 20)
    ok = lo_window <= b.lower and b.upper <= hi_window and elapsed < 30.0
    report(2, f"width 1e-21 enclosure sits in the 20-decimal window in {elapsed:.3f}s", ok)


def test_criterion_03_eleven_fourteenths_verdicts():
    window_verdict = prop2_ratio_check(archimedes_window(Precision(15)))
    tight_verdict = prop2_ratio_check(
        pi_bounds(target_width=Fraction(1, 10 ** 21), p=Precision(30))
    )
    distance_ok = abs(tight_verdict.signed_distance - Fraction(316, 10 ** 6)) <= Fraction(
        1, 10 ** 6
    )
    ok = window_verdict.contained and not tight_verdict.contained and distance_ok
    report(
        3,
        "11/14 inside the classical quarter-window, outside the tight one "
        f"by {float(tight_verdict.signed_distance):.6e}",
        ok,
    )


def test_criterion_04_cube_root_trace_full():
    rx = extract_root(239483190, 3, 0, FULL)
    s1, s2, s3 = rx.steps
    checks = [
        s1.corrected_digit == 6,
        s1.subtrahend == 216,
        s2.point_value == 23483,
        s2.divisor == 10980,
        s2.corrected_digit == 2,
        s2.subtrahend == 22328,
        s2.remainder_after == 1155,
        s3.point_value == 1155190,
        rx.root_scaled == 621,
        rx.remainder == 129,
    ]
    report(4, "cube root of 239483190: historical trace field-for-field", all(checks))


def test_criterion_05_cube_root_trace_simplified():
    rx = extract_root(80621568000, 3, 0, SIMPLIFIED)
    s1, s2 = rx.steps[0], rx.steps[1]
    checks = [
        s1.corrected_digit == 4,
        s1.subtrahend == 64,
        s2.point_value == 16621,
        s2.divisor == 4800,
        s2.corrected_digit == 3,
        s2.subtrahend == 15480 + 27,
        s2.remainder_after == 1114,
        rx.root_scaled == 4320,
        rx.remainder == 0,
    ]
    report(5, "cube root of 80621568000: simplified-divisor trace field-for-field", all(checks))


def test_criterion_06_thousand_random_roots():
    rng = random.Random(20260816)
    t0 = time.perf_counter()
    ok = True
    for i in range(1000):
        exponent = rng.randint(0, 60)
        radicand = rng.randrange(10 ** exponent + 1)
        degree = rng.randint(2, 17)
        frac = rng.choice([0, 1, 2])
        mode = FULL if i % 2 == 0 else SIMPLIFIED
        rx = extract_root(radicand, degree, frac_digits=frac, divisor_mode=mode)
        scaled = radicand * 10 ** (degree * frac)
        if rx.root_scaled != int_nth_root_floor(scaled, degree) and scaled > 0:
            ok = False
            break
        if rx.root_scaled ** degree + rx.remainder != scaled:
            ok = False
            break
        if (rx.root_scaled + 1) ** degree <= scaled:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(6, f"1000 random extractions match the integer-root oracle in {elapsed:.1f}s", ok)


def test_criterion_07_mean_proportionals_oracle_suite():
    rng = random.Random(1462)
    tol = Fraction(1, 10 ** 12)
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for _ in range(50):
        den = rng.randint(1, 100)
        ratio = Fraction(rng.randint(den, 10 ** 4 * den), den)  # in [1, 1e4]
        bc = Fraction(rng.randint(1, 1000), rng.randint(1, 100))
        ab = ratio * bc
        prob = MeanPropProblem(ab=ab, bc=bc, tol=tol)
        scale = 10 ** 30
        oracle = Fraction(
            int_nth_root_floor(ratio.numerator * scale ** 3 // ratio.denominator, 3), scale
        )
        for name, solver in METHODS.items():
            res = solver(prob)
            rel_err = abs(res.y.mid / bc - oracle) / oracle
            if rel_err > Fraction(1, 10 ** 9):
                ok, detail = False, f"{name} rel err {float(rel_err)} on {ab}/{bc}"
                break
            if abs(ab * res.y.mid - res.x.mid ** 2) > tol * ab * ab:
                ok, detail = False, f"{name} residual1 bound on {ab}/{bc}"
                break
            if abs(res.x.mid * bc - res.y.mid ** 2) > tol * ab * ab:
                ok, detail = False, f"{name} residual2 bound on {ab}/{bc}"
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(
        7,
        f"50 random problems x 4 methods within 1e-9 of the cube-root oracle in {elapsed:.1f}s",
        ok,
        detail,
    )


def test_criterion_08_heron_exactness():
    rng = random.Random(905)
    ok = True
    checked = 0
    while checked < 200:
        pts = [
            Point2(
                Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 4)),
                Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 4)),
            )
            for _ in range(3)
        ]
        if orient(*pts) == 0:
            continue
        tri = TriangleVertices(*pts)
        if heron_area_sq_from_vertices(tri) != (orient(*pts) / 2) ** 2:
            ok = False
            break
        checked += 1
    figure = TriangleVertices(Point2(0, 0), Point2(5, 0), Point2(1, 2))
    ok = ok and heron_area_sq_from_vertices(figure) == 25
    report(8, "200 random triangles match the shoelace oracle exactly; figure A^2 = 25", ok)


def test_criterion_09_exhaustion_halving():
    steps = exhaustion_report(5, Precision(30))
    ok = [s.sides_before for s in steps] == [4, 8, 16, 32, 64]
    for s in steps:
        ok = ok and s.inscribed_gap_after.hi < s.inscribed_gap_before.lo / 2
        ok = ok and s.circumscribed_gap_after.hi < s.circumscribed_gap_before.lo / 2
    report(9, "doubling the square chain certifiably halves both area gaps, n=4..64", ok)


def test_criterion_10_half_perimeter_identity():
    ok = True
    worst = Fraction(0)
    for n in (4, 6, 12, 48, 96):
        d = fibonacci_identity_check(n, Precision(30))
        worst = max(worst, d.width)
        ok = ok and d.contains(0) and d.width <= Fraction(1, 10 ** 20)
    report(
        10,
        f"r*P_in(n)/2 - A_in(2n) contains 0 at width <= 1e-20 (worst {float(worst):.2e})",
        ok,
    )


def test_criterion_11_conchoid_properties():
    pts = conchoid_points(Fraction(1), Fraction(1), 200, (Fraction(0), Fraction(21)))
    ok = all(conchoid_quartic_residual(pt, 1, 1).contains(0) for pt in pts)
    for a, b in zip(pts, pts[1:]):
        ok = ok and b.y.hi < a.y.lo  # strictly decreasing with |x|
    ok = ok and pts[-1].y.hi < Fraction(5, 100)
    report(11, "200-sample conchoid: quartic residuals, monotone heights, tail < 0.05", ok)
