"""The benchmark's own tests, run by `python3 perfbench/run.py --smoke`.

1. Every oracle accepts a known-right answer and rejects a wrong one.
2. A seed fixes the inputs, and another seed changes them.
3. Every workload runs one block end to end, untraced and traced, with no
   wrong or crashed op, and prints exactly the metric names and units that
   BENCHMARK.json lists for that mode.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace as NS

import oracles
import tracing
import workloads
from run import END_TO_END_UNITS, ROOT, SRC


def _iv(lo, hi) -> NS:
    return NS(lo=Fraction(lo), hi=Fraction(hi))


def _oracle_cases():
    """(label, reason returned for a right answer, reason for a wrong one)."""
    eps = Fraction(1, 10 ** 14)
    c = Fraction(oracles.iroot(2 * 10 ** 60, 3), 10 ** 20)  # cube root of 2
    y, x = _iv(c - eps, c + eps), _iv(c * c - eps, c * c + eps)
    tol = Fraction(1, 10 ** 12)
    yield ("meanprops", oracles.check_meanprops(2, 1, tol, x, y),
           oracles.check_meanprops(2, 1, tol, x, _iv(c + 1000 * eps, c + 1002 * eps)))

    width = Fraction(1, 10 ** 30)
    lo = oracles.PI_LO - width / 4
    yield ("pi_bounds", oracles.check_pi_bounds(lo, lo + width / 2, width),
           oracles.check_pi_bounds(lo + width, lo + width * 2, 2 * width))

    zero, off = _iv(-1, 1), _iv(1, 2)
    yield ("heron", oracles.check_heron_report(NS(identity_residual=zero, perp_residuals=(zero,) * 3)),
           oracles.check_heron_report(NS(identity_residual=zero, perp_residuals=(zero, off, zero))))

    def step(n, shift=0):
        slack = Fraction(1, 10 ** 40)
        gaps = []
        for sides in (n, 2 * n):
            a_in, a_circ = oracles.polygon_areas(sides)
            g_in = oracles.PI_LO - a_in + shift
            g_circ = a_circ - oracles.PI_LO
            gaps += [_iv(g_in - slack, g_in + slack), _iv(g_circ - slack, g_circ + slack)]
        return NS(sides_before=n, sides_after=2 * n, inscribed_gap_before=gaps[0],
                  circumscribed_gap_before=gaps[1], inscribed_gap_after=gaps[2],
                  circumscribed_gap_after=gaps[3], inscribed_halved=True, circumscribed_halved=True)

    yield ("exhaustion", oracles.check_exhaustion([step(4), step(8)], 2),
           oracles.check_exhaustion([step(4), step(8, shift=Fraction(1, 10 ** 30))], 2))

    yield ("fibonacci", oracles.check_fibonacci(_iv(-eps, eps), Fraction(1)),
           oracles.check_fibonacci(_iv(eps, 2 * eps), Fraction(1)))

    yield ("roots", oracles.check_root(239483190, 3, 0, (6, 2, 1), 129),
           oracles.check_root(239483190, 3, 0, (6, 2, 0), 239483190 - 620 ** 3))

    exact = oracles.check_cli_exact(b"a\nb\n")
    yield ("cli exact", exact(b"a\nb\n"), exact(b"a\nb"))
    grep = oracles.check_cli_grep(b"lower ~", b"lower ~  3.14\n")
    yield ("cli grep", grep(b"sides 6\nlower ~  3.14\nupper ~  3.15\n"), grep(b"lower ~  3.15\n"))
    svg = oracles.check_cli_svg(3)

    def doc(points):
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800">'
                f'<polyline points="{points}"/></svg>').encode()

    yield ("cli svg", svg(doc("40.00,760.00 400.00,400.50 760.00,40.00")),
           svg(doc("40.00,760.00 30.00,400.50 760.00,40.00")))
    means = oracles.check_cli_meanprop(Fraction(10 ** 30), Fraction(1))
    text = ("method     nicomedes\nx ~        {x}\ny ~        {y}\n"
            "|ab*y - x^2| <= 1.00e-03\n|x*bc - y^2| <= 1.00e-03\n")
    yield ("cli meanprop", means(text.format(x="100000000000000000000.000", y="10000000000.000").encode()),
           means(text.format(x="100000000000000000000.000", y="10000100000.000").encode()))


def _check_oracles(problems: list[str]) -> None:
    for label, right, wrong in _oracle_cases():
        if right is not None:
            problems.append(f"oracle {label} rejects a right answer: {right}")
        if wrong is None:
            problems.append(f"oracle {label} accepts a wrong answer")


def _check_seeding(problems: list[str]) -> None:
    sys.path.insert(0, str(SRC))

    def fingerprint(name: str, seed: int) -> list:
        w = workloads.build(name, seed, str(SRC))
        return [repr((p.call.args, p.call.keywords)) for op in w.block() for p in op.parts]

    for name in workloads.WORKLOADS:
        if fingerprint(name, 1) != fingerprint(name, 1):
            problems.append(f"{name}: one seed gave two different input sets")
        if fingerprint(name, 1) == fingerprint(name, 2):
            problems.append(f"{name}: seeds 1 and 2 gave the same inputs")


def _check_runs(run_workload, problems: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if declared[False] != END_TO_END_UNITS:
        problems.append("end_to_end in BENCHMARK.json differs from run.END_TO_END_UNITS")
    if declared[True] != tracing.LAYER_UNITS:
        problems.append("per_layer in BENCHMARK.json differs from tracing.LAYER_UNITS")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from workloads.WORKLOADS")
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, seed=1, seconds=0, trace=trace, min_ops=1, setup_repeats=1)
            label = f"{name} trace={int(trace)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append(f"{label}: printed metrics differ from BENCHMARK.json")
            print(f"smoke: {label} ran {result['attempted']} ops", file=sys.stderr)


def main(run_workload) -> int:
    problems: list[str] = []
    _check_oracles(problems)
    _check_seeding(problems)
    _check_runs(run_workload, problems)
    for p in problems:
        print(f"smoke: FAIL {p}")
    print("smoke: PASS" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0
