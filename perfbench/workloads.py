"""The four workloads: seeded inputs, one op per unit of user work.

A workload hands out blocks of ops.  Blocks are drawn one after another
from a single `random.Random` seeded by the workload's base seed and the
run's `--seed`, so a seed fixes every input of the run.  Each block has
the same make-up (the same count of each kind of op, known-defect inputs
included), and runs always end on a block boundary, so the share of each
kind of op does not depend on how many blocks a run completes.

An op is a list of parts.  Each part is one library call, the outcome key
its result is booked under (a layer, or a solver of mean_proportionals),
and the oracle that judges the result.  An op is solved only if every
part is.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from typing import Callable

import oracles

SOLVED, UNSOLVED, WRONG, CRASHED = "solved", "unsolved", "wrong", "crashed"


@dataclass
class Part:
    key: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Op:
    parts: list[Part]
    #: cli only: argv to replay in-process through `practica.cli.main`
    argv: list[str] | None = None


@dataclass
class CliRun:
    """One `python -m practica` child: exit code, stdout, peak RSS in KiB."""

    returncode: int
    stdout: bytes
    maxrss_kib: int


@dataclass
class Workload:
    name: str
    rng: random.Random
    make_block: Callable[["Workload"], list[Op]]
    #: exceptions the library documents for a numerical failure (CLI exit 3)
    numerical_errors: tuple[type[BaseException], ...]
    #: the practica modules, by short name
    mods: SimpleNamespace
    state: dict = field(default_factory=dict)

    def block(self) -> list[Op]:
        return self.make_block(self)


# ----------------------------------------------------------------------
# meanprops: one op solves one problem with all four constructions

MEANPROPS_SEED = 1462
#: 21 + 4 edge problems: four blocks make the 100 ops a run needs.
MEANPROPS_RANDOM_PER_BLOCK = 21
#: ab, bc, tol; nicomedes could not solve the first two when this
#: benchmark was written.
MEANPROPS_EDGES = (
    (Fraction(10 ** 30), Fraction(1), Fraction(1, 10 ** 12)),
    (1 + Fraction(1, 10 ** 15), Fraction(1), Fraction(1, 10 ** 12)),
    (Fraction(10 ** 6), Fraction(1), Fraction(1, 10 ** 12)),
    (Fraction(2), Fraction(1), Fraction(1, 10 ** 30)),
)


def _criterion07_problem(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    den = rng.randint(1, 100)
    ratio = Fraction(rng.randint(den, 10 ** 4 * den), den)  # in [1, 1e4]
    bc = Fraction(rng.randint(1, 1000), rng.randint(1, 100))
    return ratio * bc, bc, Fraction(1, 10 ** 12)


def _meanprops_block(w: Workload) -> list[Op]:
    mp = w.mods.mean_proportionals
    problems = [_criterion07_problem(w.rng) for _ in range(MEANPROPS_RANDOM_PER_BLOCK)]
    problems += MEANPROPS_EDGES
    w.rng.shuffle(problems)
    ops = []
    for ab, bc, tol in problems:
        prob = mp.MeanPropProblem(ab=ab, bc=bc, tol=tol)
        check = partial(_check_means, ab, bc, tol)
        parts = [
            Part(f"mean_proportionals.{m}", partial(getattr(mp, f"solve_{m}"), prob), check)
            for m in ("heron_apollonius", "philo", "diocles", "nicomedes")
        ]
        ops.append(Op(parts))
    return ops


def _check_means(ab, bc, tol, res) -> str | None:
    return oracles.check_meanprops(ab, bc, tol, res.x, res.y)


# ----------------------------------------------------------------------
# certify: long outward-rounded interval chains

CERTIFY_SEED = 905
#: Four-exponent strata of the width sweep: 1e-10..1e-13, ..., 1e-38..1e-41.
CERTIFY_PI_STRATA = 8
#: Enough triangles that the median op is a Heron check in every block.
CERTIFY_HERON_PER_BLOCK = 30
FIBONACCI_MAX_WIDTH = Fraction(1, 10 ** 20)


def _certify_block(w: Workload) -> list[Op]:
    cm, heron, geometry, numerics = (
        w.mods.circle_measurement, w.mods.heron, w.mods.geometry, w.mods.numerics)
    rng = w.rng
    ops = []
    # A stratified sweep: one width exponent from each stratum, each at
    # p=30 and at p=52, so every block has the same mix of chain lengths.
    sweep = [(rng.randint(10 + 4 * i, 13 + 4 * i), digits)
             for i in range(CERTIFY_PI_STRATA) for digits in (30, 52)]
    # Width 1e-42 at p=52 was unsolved when this benchmark was written: the
    # doubling cap, not precision, is the limit, after a retry at doubled
    # precision.
    for exponent, digits in sweep + [(42, 52)]:
        width = Fraction(1, 10 ** exponent)
        call = partial(cm.pi_bounds, target_width=width, p=numerics.Precision(digits))
        ops.append(Op([Part("circle_measurement", call, partial(_check_pi, width))]))

    # Fixed sizes, so that only the widths and the triangles vary with the seed.
    call = partial(cm.exhaustion_report, 6, numerics.Precision(30))
    ops.append(Op([
        Part("circle_measurement", call, partial(oracles.check_exhaustion, max_doublings=6))
    ]))
    # Sides as in the acceptance criterion: 4 * 2**j or 6 * 2**j.
    call = partial(cm.fibonacci_identity_check, 96, numerics.Precision(30))
    ops.append(Op([
        Part("circle_measurement", call, partial(oracles.check_fibonacci, max_width=FIBONACCI_MAX_WIDTH))
    ]))

    for _ in range(CERTIFY_HERON_PER_BLOCK):
        call = partial(_verify_triangle, heron, geometry, _criterion08_vertices(rng))
        ops.append(Op([Part("heron", call, oracles.check_heron_report)]))
    rng.shuffle(ops)
    return ops


def _check_pi(width, b) -> str | None:
    return oracles.check_pi_bounds(b.lower, b.upper, width)


def _verify_triangle(heron, geometry, vertices):
    tri = heron.TriangleVertices(*(geometry.Point2(x, y) for x, y in vertices))
    return heron.verify_heron_identity(tri)


def _criterion08_vertices(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    """Three random rational points, redrawn until not collinear."""
    while True:
        pts = [
            (Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 4)),
             Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 4)))
            for _ in range(3)
        ]
        (x1, y1), (x2, y2), (x3, y3) = pts
        if (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) != 0:
            return pts


# ----------------------------------------------------------------------
# roots: digit-by-digit extraction, long and short

ROOTS_SEED = 20260816
#: radicand, degree, fractional digits
ROOTS_LONG = ((2, 3, 1000), (2, 3, 2000), (2, 3, 3000), (2, 2, 5000))
#: The short extractions' radicand exponent strata: [0, 9], [10, 19], ... [50, 60].
ROOTS_SHORT_STRATA = ((0, 9), (10, 19), (20, 29), (30, 39), (40, 49), (50, 60))


def _roots_block(w: Workload) -> list[Op]:
    rx, rng = w.mods.root_extraction, w.rng
    jobs = [(n, d, f, mode) for n, d, f in ROOTS_LONG for mode in (rx.FULL, rx.SIMPLIFIED)]
    # The criterion-06 generator, stratified: every block has each degree
    # 2..17 with each of 0..2 fractional digits once per exponent stratum
    # (288 short extractions), so the seed varies the radicands and hardly
    # their sizes.
    short = [(lo, hi, degree, frac) for lo, hi in ROOTS_SHORT_STRATA
             for degree in range(2, 18) for frac in (0, 1, 2)]
    for i, (lo, hi, degree, frac) in enumerate(short):
        radicand = rng.randrange(10 ** rng.randint(lo, hi) + 1)
        jobs.append((radicand, degree, frac, rx.FULL if i % 2 == 0 else rx.SIMPLIFIED))
    rng.shuffle(jobs)
    ops = []
    for radicand, degree, frac, mode in jobs:
        call = partial(rx.extract_root, radicand, degree, frac_digits=frac, divisor_mode=mode)
        check = partial(_check_extraction, radicand, degree, frac)
        ops.append(Op([Part("root_extraction", call, check)]))
    return ops


def _check_extraction(radicand, degree, frac, res) -> str | None:
    return oracles.check_root(radicand, degree, frac, res.digits, res.remainder)


# ----------------------------------------------------------------------
# cli: the README commands as child processes, one at a time

_PI96 = b"""sides    96
lower    31410319508905096381113529264596601070341/10000000000000000000000000000000000000000
upper    15713572998226841490844295468860619355023/5000000000000000000000000000000000000000
lower ~  3.1410319508
upper ~  3.1427145996
width <= 1.69e-03
"""
_HERON = b"""vertices       (0, 0) (5, 0) (1, 2)
area^2         25  (product route)
area^2         25  (cross product route)
agreement      exact
area ~         5.000000000000000  (exact)
"""
_MEANPROPS_ALL = b"""heron      x~1.587401051968202   y~1.259921049894870   |r1|<=5.27e-13  |r2|<=3.32e-13
philo      x~1.587401051968202   y~1.259921049894870   |r1|<=5.27e-13  |r2|<=3.32e-13
diocles    x~1.587401051968233   y~1.259921049894927   |r1|<=3.03e-13  |r2|<=3.41e-13
nicomedes  x~1.587401051968199   y~1.259921049894873   |r1|<=5.47e-17  |r2|<=5.01e-17
"""
_NTH_ROOT = b"""root       621
remainder  129

step    point  divisor  trial  digit  subtrahend  remainder
----  -------  -------  -----  -----  ----------  ---------
   1      239        0      6      6         216         23
   2    23483    10980      2      2       22328       1155
   3  1155190  1155060      1      1     1155061        129
root 621  remainder 129  (degree 3)
"""
_SPECIAL = b"""degree  2: 20
degree  3: 300, 30
degree  4: 4000, 600, 40
"""

#: argv after `practica`, and the oracle for its stdout.  The last command
#: exited 3 when this benchmark was written (nicomedes at ab/bc = 1e30).
CLI_COMMANDS = (
    ("pi-bounds --sides 96 --decimal-digits 10", oracles.check_cli_exact(_PI96)),
    ("pi-bounds --width 1e-21", oracles.check_cli_grep(
        b"lower ~", b"lower ~  3.141592653589793238462521791270\n")),
    ("heron --vertices 0 0 5 0 1 2", oracles.check_cli_exact(_HERON)),
    ("meanprops --method all --ab 2 --bc 1", oracles.check_cli_exact(_MEANPROPS_ALL)),
    ("nth-root --degree 3 --radicand 239483190 --trace", oracles.check_cli_exact(_NTH_ROOT)),
    ("curve --type conchoid --samples 200 --format svg", oracles.check_cli_svg(200)),
    ("special-numbers --max-degree 4", oracles.check_cli_exact(_SPECIAL)),
    ("meanprops --method nicomedes --ab 1e30 --bc 1",
     oracles.check_cli_meanprop(Fraction(10 ** 30), Fraction(1))),
)
#: The CLI's documented exit code for a numerical failure.
CLI_NUMERICAL_EXIT = 3
CLI_SEED = 0


def run_cli(argv: list[str], env: dict[str, str]) -> CliRun:
    """Run `python -m practica argv` to completion and reap it with its rusage."""
    with subprocess.Popen(
        [sys.executable, "-m", "practica", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
    ) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(proc.returncode, out, usage.ru_maxrss)


class Refused(Exception):
    """The output is the program's documented numerical-failure answer."""


def check_cli_run(check, run: CliRun) -> str | None:
    if run.returncode == CLI_NUMERICAL_EXIT:
        raise Refused(f"exit code {CLI_NUMERICAL_EXIT}")
    if run.returncode != 0:
        return f"exit code {run.returncode}"
    return check(run.stdout)


def _cli_block(w: Workload) -> list[Op]:
    env = w.state["env"]
    ops = []
    for command, check in w.state["order"]:
        argv = command.split()
        call = partial(run_cli, argv, env)
        ops.append(Op([Part("cli", call, partial(check_cli_run, check))], argv=argv))
    return ops


def run_cli_in_process(cli_module, argv: list[str]) -> None:
    """Run `practica.cli.main(argv)` with stdout and stderr captured."""
    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    sys.stderr = io.StringIO()
    try:
        cli_module.main(argv)
    finally:
        sys.stdout, sys.stderr = saved


# ----------------------------------------------------------------------


def build(name: str, seed: int, src: str) -> Workload:
    """The named workload over the already importable `practica`.

    ``src`` goes on the PYTHONPATH of the cli workload's children.
    """
    import importlib

    mods = SimpleNamespace(**{m: importlib.import_module(f"practica.{m}") for m in (
        "numerics", "geometry", "heron", "circle_measurement", "mean_proportionals",
        "root_extraction", "cli")})
    numerical = (mods.numerics.PrecisionError, mods.mean_proportionals.BracketNotFoundError)
    make_block, base_seed = {
        "meanprops": (_meanprops_block, MEANPROPS_SEED),
        "certify": (_certify_block, CERTIFY_SEED),
        "roots": (_roots_block, ROOTS_SEED),
        "cli": (_cli_block, CLI_SEED),
    }[name]
    w = Workload(name, random.Random(f"{name}:{base_seed}:{seed}"), make_block, numerical, mods)
    if name == "cli":
        w.state["order"] = w.rng.sample(CLI_COMMANDS, len(CLI_COMMANDS))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        w.state["env"] = dict(os.environ, PYTHONPATH=path)
    return w


WORKLOADS = ("meanprops", "certify", "roots", "cli")
