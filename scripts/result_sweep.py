"""Print one line per library call over fixed input sets, to diff two trees.

Each line is the call, its result (its ``repr``, or a digest when that
would be long) or the exception it raised, and the verdict of the
integer oracles in ``perfbench/oracles.py``: ``ok``, ``refused`` (a
documented numerical failure, CLI exit 3), ``WRONG: <reason>`` or
``CRASHED``.  The sets:

* meanprops: the 21 criterion-07 problems of the first meanprops block
  of each of seeds 1-10, the four edge problems, 1 + 10**-k : 1 for
  k = 1..20, 2 : 1 at tol 1/2 down to 1e-160, and 7/3 : 5/11, each on
  all five routes, plus one ``scale_solid_ratio`` call;
* circle: at 5, 10, 20, 30, 40, 52 and 60 digits, ``pi_bounds`` at
  widths 1e-1 to 1e-79 and at 6 * 2**k sides (k <= 11),
  ``exhaustion_report``, ``fibonacci_identity_check`` and 40 doublings
  from each of the 3-, 4- and 6-gon, which also run at 1 digit, where
  the 34th doubling refuses, and at 24 and 57 digits;
* heron: 158 ``verify_heron_identity`` reports at 10 and 30 digits, of 75
  random triangles and four figures: the README's, 3-4-5, an isosceles
  triangle and one whose squared sides A, B have a square product;
* roots: 932 ``extract_root`` calls (the first roots block of seed 1,
  the short extractions of seeds 2 and 3, and the square root of 2 to
  degrees 3-17 at 200 and 1000 fractional digits in both divisor modes);
* curves: one line per sampled point, each checked by its defining
  property (``cissoid_arc_defect`` or ``conchoid_quartic_residual``
  contains 0): the README's 200-sample conchoid over [0, 21] at 30 digits,
  21-sample conchoids over [-5, 5] and [0, 1000] at 10 and 60 digits,
  with pole distance and offset 1, and at 30 digits with pole distance
  3/2 and offset 2 over [-5, 5] and with 1/1000 and 10**6 over
  [-1000, 1000], and 9-sample cissoids of radius 1 and 3/2 over the
  spans [-1, 1] and [1/10, 9/10] at 10, 30 and 60 digits.

Usage: PYTHONPATH=<tree>/src python scripts/result_sweep.py [SET ...]

With no SET it prints every set.  ``tests/test_scripts.py`` pins each
set by its line count and the sha256 of its lines (``SWEEP_LINES``, as
``result_sweep.py SET | sha256sum`` prints it), so a moved result fails
the tests; the failing test prints each moved set's new row.  A change
that means to move a set updates that set's row and says in CHANGES.md
which set moved and why.  To list the lines that
moved, run the script once per tree and diff the two outputs: every
differing line is a result that moved.
"""

from __future__ import annotations

import hashlib
import random
import sys
import traceback
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import oracles  # noqa: E402
import workloads  # noqa: E402

from practica import (  # noqa: E402
    DEFAULT_TOL,
    FULL,
    METHODS,
    SIMPLIFIED,
    BracketNotFoundError,
    MeanPropProblem,
    Point2,
    Precision,
    PrecisionError,
    RootExtraction,
    TriangleVertices,
    cissoid_arc_defect,
    cissoid_points,
    conchoid_points,
    conchoid_quartic_residual,
    double_polygon,
    exhaustion_report,
    extract_root,
    fibonacci_identity_check,
    pi_bounds,
    polygon_seed,
    scale_solid_ratio,
    solve_heron_apollonius,
    verify_heron_identity,
)

#: Results whose canonical form is longer than this print as a digest.
SHOWN_CHARS = 400
REFUSALS = (PrecisionError, BracketNotFoundError)


#: Results spelled by these public attributes, in this order, rather than
#: by their fields (``_fields``): an extraction's ``steps`` is no field, but
#: a replay of the extraction made when it is first read.
PUBLIC_ATTRIBUTES = {
    RootExtraction: ("radicand", "degree", "frac_digits", "digits", "remainder", "steps"),
}


def _canonical(value: object) -> str:
    """A spelling of a result with every integer in hex, so that results
    with huge integers are digested without decimal conversion."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return repr(value)
    if isinstance(value, int):
        return format(value, "x")
    if isinstance(value, Fraction):
        return f"{value.numerator:x}/{value.denominator:x}"
    names = PUBLIC_ATTRIBUTES.get(type(value)) or getattr(type(value), "_fields", None)
    if names is not None:
        inner = ",".join(_canonical(getattr(value, name)) for name in names)
        return f"{type(value).__name__}({inner})"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(_canonical, value)) + ")"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def shown(value: object) -> str:
    canonical = _canonical(value)
    if len(canonical) <= SHOWN_CHARS:
        if type(value) in PUBLIC_ATTRIBUTES:
            # the value class's repr, spelled from the public attributes
            names = PUBLIC_ATTRIBUTES[type(value)]
            inner = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
            return f"{type(value).__name__}({inner})"
        return repr(value)
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:24]
    return f"<{type(value).__name__} sha256:{digest}>"


Check = Callable[[object], "str | None"]


def run(call: Callable[[], object]) -> tuple[object, Exception | None]:
    """The call's result, or the exception it raised."""
    try:
        return call(), None
    except Exception as exc:  # noqa: BLE001 - a crash is a line of the sweep too
        return None, exc


def spell(label: str, result: object, exc: Exception | None, check: Check) -> str:
    """One line: the call, its outcome and the verdict."""
    if isinstance(exc, REFUSALS):
        return f"{label} -> {type(exc).__name__}: {exc} :: refused"
    if exc is not None:
        traceback.print_exception(exc)
        return f"{label} -> {type(exc).__name__}: {exc} :: CRASHED"
    reason = check(result)
    return f"{label} -> {shown(result)} :: {'ok' if reason is None else 'WRONG: ' + reason}"


def line(label: str, call: Callable[[], object], check: Check) -> str:
    return spell(label, *run(call), check)


# ----------------------------------------------------------------------
# meanprops

ROUTES = {
    "heron": solve_heron_apollonius,
    "apollonius": partial(solve_heron_apollonius, variant="apollonius"),
    **{name: solve for name, solve in METHODS.items() if name != "heron_apollonius"},
}
TOLS = tuple(Fraction(1, n) for n in (2, 10, 10 ** 12, 10 ** 30, 10 ** 60, 10 ** 100, 10 ** 160))
#: The oracle's midpoint bound (1e-9 relative) assumes a tolerance at least this tight.
ORACLE_TOL = Fraction(1, 10 ** 9)


def _encloses_cube(iv, cube: Fraction) -> str | None:
    return None if iv.lo ** 3 <= cube <= iv.hi ** 3 else "the interval misses the cube root"


def _check_means(ab: Fraction, bc: Fraction, tol: Fraction, res) -> str | None:
    if tol <= ORACLE_TOL:
        return oracles.check_meanprops(ab, bc, tol, res.x, res.y)
    return _encloses_cube(res.x, ab * ab * bc) or _encloses_cube(res.y, ab * bc * bc)


def meanprops_problems() -> list[tuple[Fraction, Fraction, Fraction]]:
    problems = []
    for seed in range(1, 11):
        rng = random.Random(f"meanprops:{workloads.MEANPROPS_SEED}:{seed}")
        problems += [workloads._criterion07_problem(rng)
                     for _ in range(workloads.MEANPROPS_RANDOM_PER_BLOCK)]
    problems += workloads.MEANPROPS_EDGES
    problems += [(1 + Fraction(1, 10 ** k), Fraction(1), DEFAULT_TOL) for k in range(1, 21)]
    problems += [(Fraction(2), Fraction(1), tol) for tol in TOLS]
    problems.append((Fraction(7, 3), Fraction(5, 11), DEFAULT_TOL))
    return problems


def meanprops() -> Iterator[str]:
    methods = list(METHODS)
    for i, (ab, bc, tol) in enumerate(meanprops_problems()):
        prob = MeanPropProblem(ab=ab, bc=bc, tol=tol)
        for name, solve in ROUTES.items():
            yield line(f"{name} ab={ab} bc={bc} tol={tol}", partial(solve, prob),
                       partial(_check_means, ab, bc, tol))
        # Alternate ratios above and below 1 and cycle the methods.
        ratio, method = (ab / bc if i % 2 == 0 else bc / ab), methods[i % len(methods)]
        yield line(f"scale_solid_ratio edge={bc} ratio={ratio} method={method} tol={tol}",
                   partial(scale_solid_ratio, bc, ratio, method, tol),
                   partial(_encloses_cube, cube=bc ** 3 * ratio))


# ----------------------------------------------------------------------
# circle

PRECISIONS = (5, 10, 20, 30, 40, 52, 60)
EXHAUSTION_DOUBLINGS = (1, 3, 6, 10)
FIBONACCI_SIDES = (3, 4, 6, 12, 96, 384, 3072)
CHAIN_DOUBLINGS = 40


def _check_pi(width: Fraction | None, b) -> str | None:
    return oracles.check_pi_bounds(b.lower, b.upper, b.upper - b.lower if width is None else width)


def _check_polygon(b) -> str | None:
    lo, hi = b.per_inscribed.lo, b.per_circumscribed.hi
    return oracles.check_pi_bounds(lo, hi, hi - lo)


def _doublings(digits: int) -> Iterator[str]:
    p = Precision(digits)
    for seed in (3, 4, 6):
        b, exc = run(partial(polygon_seed, seed, p))
        for j in range(CHAIN_DOUBLINGS + 1):
            yield spell(f"polygon {seed}-gon doubled {j} times p={digits}", b, exc, _check_polygon)
            if exc is not None:
                break
            b, exc = run(partial(double_polygon, b, p))


def circle() -> Iterator[str]:
    # At 1 digit each chain widens past the grid and refuses.
    yield from _doublings(1)
    for digits in PRECISIONS:
        p = Precision(digits)
        for k in range(1, 80):
            width = Fraction(1, 10 ** k)
            yield line(f"pi_bounds target_width=1e-{k} p={digits}",
                       partial(pi_bounds, target_width=width, p=p), partial(_check_pi, width))
        for k in range(12):
            yield line(f"pi_bounds target_sides={6 << k} p={digits}",
                       partial(pi_bounds, target_sides=6 << k, p=p), partial(_check_pi, None))
        for m in EXHAUSTION_DOUBLINGS:
            yield line(f"exhaustion_report {m} p={digits}", partial(exhaustion_report, m, p),
                       partial(oracles.check_exhaustion, max_doublings=m))
        for n in FIBONACCI_SIDES:
            # The identity is certified at the working digits, so the
            # enclosure may be as wide as 10**-digits.
            yield line(f"fibonacci_identity_check {n} p={digits}",
                       partial(fibonacci_identity_check, n, p),
                       partial(oracles.check_fibonacci, max_width=Fraction(1, 10 ** digits)))
        yield from _doublings(digits)
    # 34 and 67 working digits, where the 3-gon seed, the tightest grid
    # enclosure of (k/q) * sqrt(r), is a step narrower than a root taken on
    # a 100 times finer grid and then multiplied.
    yield from _doublings(24)
    yield from _doublings(57)


# ----------------------------------------------------------------------
# heron

HERON_SEED = 8
HERON_TRIANGLES = 75
HERON_FIGURES = (
    ((0, 0), (5, 0), (1, 2)),
    ((0, 0), (3, 0), (0, 4)),
    ((0, 0), (4, 0), (2, 5)),
    ((0, 0), (2, 8), (1, 1)),  # A = 50, B = 2
)


def heron() -> Iterator[str]:
    rng = random.Random(HERON_SEED)
    triangles = [workloads._criterion08_vertices(rng) for _ in range(HERON_TRIANGLES)]
    for vertices in [*triangles, *HERON_FIGURES]:
        tri = TriangleVertices(*(Point2(x, y) for x, y in vertices))
        spelled = " ".join(f"({x}, {y})" for x, y in vertices)
        for digits in (10, 30):
            yield line(f"verify_heron_identity {spelled} p={digits}",
                       partial(verify_heron_identity, tri, Precision(digits)),
                       oracles.check_heron_report)


# ----------------------------------------------------------------------
# roots

LONG_FRAC_DIGITS = 1000


def _root_line(radicand: int, degree: int, frac: int, mode: str) -> str:
    return line(
        f"extract_root {radicand} degree={degree} frac_digits={frac} mode={mode}",
        partial(extract_root, radicand, degree, frac_digits=frac, divisor_mode=mode),
        lambda rx: oracles.check_root(radicand, degree, frac, rx.digits, rx.remainder),
    )


def roots() -> Iterator[str]:
    for seed in (1, 2, 3):
        w = workloads.build("roots", seed, "")
        for op in w.block():
            [part] = op.parts
            radicand, degree = part.call.args
            frac, mode = part.call.keywords["frac_digits"], part.call.keywords["divisor_mode"]
            if seed == 1 or frac < LONG_FRAC_DIGITS:
                yield _root_line(radicand, degree, frac, mode)
    for degree in range(3, 18):
        for frac in (200, LONG_FRAC_DIGITS):
            for mode in (FULL, SIMPLIFIED):
                yield _root_line(2, degree, frac, mode)


# ----------------------------------------------------------------------
# curves

#: (pole distance, offset, samples, x_range, digits) of the conchoids.
CONCHOIDS = (
    (Fraction(1), Fraction(1), 200, (Fraction(0), Fraction(21)), 30),  # the README's curve
    (Fraction(1), Fraction(1), 21, (Fraction(-5), Fraction(5)), 10),
    (Fraction(1), Fraction(1), 21, (Fraction(-5), Fraction(5)), 60),
    (Fraction(1), Fraction(1), 21, (Fraction(0), Fraction(1000)), 10),
    (Fraction(1), Fraction(1), 21, (Fraction(0), Fraction(1000)), 60),
    (Fraction(3, 2), Fraction(2), 21, (Fraction(-5), Fraction(5)), 30),
    (Fraction(1, 1000), Fraction(10 ** 6), 21, (Fraction(-1000), Fraction(1000)), 30),
)
CISSOID_SAMPLES = 9
CISSOID_RADII = (Fraction(1), Fraction(3, 2))
CISSOID_SPANS = ((Fraction(-1), Fraction(1)), (Fraction(1, 10), Fraction(9, 10)))


def _contains_zero(what: str, iv) -> str | None:
    return None if iv.contains(0) else f"the {what} excludes 0"


def _sampled(label: str, sample: Callable[[], list], check: Check) -> Iterator[str]:
    """One line per sampled point, or one line for a sampler that raised."""
    points, exc = run(sample)
    if exc is not None:
        yield spell(label, None, exc, check)
        return
    for j, point in enumerate(points):
        yield spell(f"{label} #{j}", point, None, check)


def curves() -> Iterator[str]:
    for d, e, samples, (x0, x1), digits in CONCHOIDS:
        yield from _sampled(
            f"conchoid_points d={d} e={e} samples={samples} x_range=[{x0}, {x1}] p={digits}",
            partial(conchoid_points, d, e, samples, (x0, x1), Precision(digits)),
            lambda pt, d=d, e=e: _contains_zero("quartic residual", conchoid_quartic_residual(pt, d, e)),
        )
    for r in CISSOID_RADII:
        for s0, s1 in CISSOID_SPANS:
            for digits in (10, 30, 60):
                p = Precision(digits)
                yield from _sampled(
                    f"cissoid_points r={r} samples={CISSOID_SAMPLES} span=[{s0}, {s1}] p={digits}",
                    partial(cissoid_points, r, CISSOID_SAMPLES, p, (s0, s1)),
                    lambda pt, r=r: _contains_zero("arc defect", cissoid_arc_defect(pt, r)),
                )


SETS = {"meanprops": meanprops, "circle": circle, "heron": heron, "roots": roots, "curves": curves}


def main(argv: list[str]) -> None:
    for name in argv or SETS:
        for text in SETS[name]():
            print(text)


if __name__ == "__main__":
    main(sys.argv[1:])
