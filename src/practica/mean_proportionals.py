"""Two mean proportionals between given lines, by four classical routes.

Each construction is realized as exact rational geometry plus bracketed
one-dimensional root finding: a coarse scan locates a sign change of
the defect function, bisection with no step budget narrows it, and the
answers are returned as certified intervals, from which the residuals of
the two continued-proportion equations AB*y - x**2 and x*BC - y**2 follow.
The defect signs are exact: each is the sign of an integer polynomial
in the numerator and denominator of the scan parameter, whose
coefficients are the route's constants with their denominators cleared
once per solve (square roots are eliminated by squaring before
comparing), so bisection never accumulates rounding error and the sign
tests build no Fraction; enclosures enter only when a bracket is
converted to coordinate intervals.  Because the signs are exact, each
scanned bracket's chain of bisection steps is fixed in advance, and the
one kernel (``_scan_and_bisect``) converts and checks only the brackets
at steps 0, 1, 3, 7, ..., then binary-searches back to the first step
that passes: the checks are monotone along nested brackets, so this
finds the step that checking every one would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator

from .geometry import Point2, PointBounds
from .numerics import (
    DEFAULT_PRECISION,
    Interval,
    Precision,
    PrecisionError,
    int_nth_root_floor,
    interval_sqrt,
    pow10,
    rat_sqrt_bounds,
)

DEFAULT_TOL = Fraction(1, 10 ** 12)

HERON_APOLLONIUS = "heron_apollonius"
PHILO = "philo"
DIOCLES = "diocles"
NICOMEDES = "nicomedes"


class BracketNotFoundError(RuntimeError):
    """The defect function showed no sign change over the scanned range."""


@dataclass(frozen=True)
class MeanPropProblem:
    """Find x, y with ab : x :: x : y :: y : bc.

    Arguments are swap-normalized so that ab >= bc; ``swapped`` records
    whether the caller's order was reversed (the two means are the same
    numbers either way, read in the opposite order).
    """

    ab: Fraction
    bc: Fraction
    tol: Fraction = DEFAULT_TOL
    swapped: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        ab, bc = Fraction(self.ab), Fraction(self.bc)
        if ab <= 0 or bc <= 0:
            raise ValueError("line lengths must be positive")
        tol = Fraction(self.tol)
        if tol <= 0:
            raise ValueError("tol must be positive")
        if bc > ab:
            ab, bc = bc, ab
            object.__setattr__(self, "swapped", True)
        object.__setattr__(self, "ab", ab)
        object.__setattr__(self, "bc", bc)
        object.__setattr__(self, "tol", tol)


@dataclass(frozen=True)
class MeanPropResult:
    """Certified means; the continued-proportion residuals are derived."""

    method: str
    x: Interval
    y: Interval
    problem: MeanPropProblem

    @property
    def residual1(self) -> Interval:
        """Encloses ab * y - x**2."""
        return self.problem.ab * self.y - self.x.square()

    @property
    def residual2(self) -> Interval:
        """Encloses x * bc - y**2."""
        return self.x * self.problem.bc - self.y.square()


# ----------------------------------------------------------------------
# shared root-finding machinery


def _digits_for(x: Fraction) -> int:
    """Smallest d >= 1 with 10**-d <= x."""
    if x <= 0:
        raise ValueError("width target must be positive")
    d = 1
    while pow10(-d) > x:
        d += 1
    return d


def _width_target(prob: MeanPropProblem) -> Fraction:
    # Tight enough that midpoints beat both the relative agreement with
    # the cube-root oracle and the cross-multiplied residual bounds.
    return prob.tol * min(prob.bc, max(Fraction(1), prob.ab) / 8)


#: Verdict of an ``accept`` callback: abandon this bracket, try the next.
_REJECT = object()

#: Evenly spaced cells a scan splits its parameter range into.
_SCAN_SAMPLES = 64


def _sign_changes(
    sign_at: Callable[[Fraction], int | None], lo: Fraction, hi: Fraction, samples: int
) -> Iterator[tuple[Fraction, Fraction]]:
    """Scan ``samples + 1`` evenly spaced points from lo to hi and yield,
    left to right, each zero as (t, t) and each sign change as (t0, t1).

    A None sign (defect undefined there) never brackets."""
    prev_t, prev_s = lo, None
    for j in range(samples + 1):
        t = lo + (hi - lo) * Fraction(j, samples)
        s = sign_at(t)
        if s == 0:
            yield t, t
        elif s is not None and prev_s is not None and s * prev_s < 0:
            yield prev_t, t
        prev_t, prev_s = t, s


def _bisection_chain(
    sign_at: Callable[[Fraction], int | None], bl: Fraction, bh: Fraction
) -> Iterator[tuple[Fraction, Fraction]]:
    """Yield the nested brackets that bisection on exact signs makes from
    (bl, bh), starting with (bl, bh) itself, one per step, up to a point
    bracket or a bracket whose midpoint sign is undefined."""
    s_lo = sign_at(bl)
    while True:
        yield bl, bh
        if bl == bh:
            return
        mid = (bl + bh) / 2
        s_mid = sign_at(mid)
        if s_mid is None:
            return  # the bracket straddles a direction where the defect is undefined
        if s_mid == 0:
            bl = bh = mid
        elif s_mid * s_lo < 0:
            bh = mid
        else:
            bl, s_lo = mid, s_mid


def _scan_and_bisect(
    sign_at: Callable[[Fraction], int | None],
    lo: Fraction,
    hi: Fraction,
    accept: Callable[[Fraction, Fraction], object],
    samples: int = _SCAN_SAMPLES,
) -> object:
    """Bisect each scanned bracket on exact signs until ``accept`` takes it.

    ``accept(lo, hi)`` returns the result, None to keep narrowing, or
    ``_REJECT`` to abandon the bracket for the next one.  The kernel
    returns the verdict of the first step of each bracket's bisection
    chain (see ``_bisection_chain``) whose verdict is not None, moving
    on when that verdict is ``_REJECT``.  When every step of a chain
    gives None, its last bracket decides: a point bracket raises
    PrecisionError, one cut short by an undefined midpoint sign moves
    on.  Returns None when the scan yields no bracket or every bracket
    is abandoned.

    There is no step budget.  The loop ends because, along any chain
    that narrows onto a root where the defect is defined, ``accept``
    eventually returns something other than None: heron and philo read
    x and y through exact maps; apollonius and diocles go through
    ``rat_sqrt_bounds``, whose error falls as endpoint denominators grow
    like 2**k; and nicomedes' ``accept``, interval evaluation, converges
    at a root since the cut denominators are nonzero there, and cannot
    leave K straddling C at a root (K = C means x = 0).

    Contract: along nested brackets, "the verdict is not None" is
    monotone; once a bracket's verdict is not None, so is every bracket
    inside it.  Interval arithmetic on exact Fraction endpoints is
    inclusion-isotonic, so a certification that succeeds on a bracket
    succeeds on any sub-bracket.  ``_REJECT`` persists the same way:
    nicomedes rejects a bracket whose enclosure of K's abscissa lies at
    or below C, and a sub-bracket's enclosure lies inside its parent's;
    a bracket holding the root beyond C encloses that root's K, so it is
    never rejected.  (Apollonius and diocles read their
    means through ``rat_sqrt_bounds``, whose endpoints are monotone
    only up to their last-digit rounding; a width within that rounding
    of the target at a skipped step is the one way they could settle
    on another step than the step-by-step loop.)

    The chain depends on the signs alone, so ``accept`` is called only
    at steps 0, 1, 3, 7, 15, ... (the gap doubles), and at the chain's
    last step when the chain ends first; at the first probe whose
    verdict is not None a binary search back to the last None probe
    finds the first such step.  For a chain settled at step k that is
    at most 2*ceil(log2(k + 2)) + 2 calls instead of k + 1.  Whatever
    the kernel returns is still the verdict ``accept`` gave on that
    very bracket; only its being the first such step rests on the
    contract.
    """
    for bracket in _sign_changes(sign_at, lo, hi, samples):
        steps = _bisection_chain(sign_at, *bracket)
        # chain[i] is step start + i; the steps before the last None probe
        # are dropped, since the search back never reads them.
        chain: list[tuple[Fraction, Fraction]] = []
        start = 0
        none_at, probe = -1, 0  # last step known to give None; next step to probe
        while True:
            chain.extend(islice(steps, probe + 1 - start - len(chain)))
            probe = min(probe, start + len(chain) - 1)
            if probe == none_at:  # the chain ended and no step of it is accepted
                if chain[-1][0] == chain[-1][1]:  # a point bracket
                    raise PrecisionError("enclosure too wide at an exact root")
                break
            verdict = accept(*chain[probe - start])
            if verdict is None:
                del chain[: probe - start]
                start = none_at = probe
                probe = 2 * probe + 1
                continue
            while probe - none_at > 1:  # the first step not None lies in (none_at, probe]
                mid = (none_at + probe) // 2
                mid_verdict = accept(*chain[mid - start])
                if mid_verdict is None:
                    none_at = mid
                else:
                    probe, verdict = mid, mid_verdict
            if verdict is _REJECT:
                break
            return verdict
    return None


def _solve_defect(
    sign_at: Callable[[Fraction], int],
    lo: Fraction,
    hi: Fraction,
    evaluate: Callable[[Fraction, Fraction], tuple[Interval, Interval]],
    target: Fraction,
) -> tuple[Interval, Interval]:
    """Narrow the defect's first bracket until the (x, y) intervals that
    ``evaluate`` reads off it are both no wider than the target."""

    def accept(bl: Fraction, bh: Fraction) -> tuple[Interval, Interval] | None:
        x_iv, y_iv = evaluate(bl, bh)
        if x_iv.width <= target and y_iv.width <= target:
            return x_iv, y_iv
        return None

    found = _scan_and_bisect(sign_at, lo, hi, accept)
    if found is None:
        raise BracketNotFoundError("defect function has no sign change in range")
    return found


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _cleared(*values: Fraction) -> tuple[int, ...]:
    """Integers N1, ..., Nk, D with values[i] = Ni / D and D > 0."""
    d = math.lcm(*(v.denominator for v in values))
    return (*(v.numerator * (d // v.denominator) for v in values), d)


def _trivial(method: str, prob: MeanPropProblem) -> MeanPropResult:
    point = Interval.point(prob.ab)
    return MeanPropResult(method, point, point, prob)


# ----------------------------------------------------------------------
# rectangle methods (shared figure: B=(0,0), A=(0,ab), C=(bc,0), D=(bc,ab))


def _solve_slope(
    prob: MeanPropProblem, sign_at: Callable[[Fraction], int]
) -> tuple[Interval, Interval]:
    """Rotate a line through B with slope u from 1/2 to past cbrt(a/c) until
    ``sign_at`` changes sign; it cuts off x = AF = a/u and y = CG = u*c."""
    a, c = prob.ab, prob.bc
    u_hi = Fraction(int_nth_root_floor(math.ceil(a / c), 3) + 1)

    def evaluate(ul: Fraction, uh: Fraction) -> tuple[Interval, Interval]:
        return Interval(a / uh, a / ul), Interval(ul * c, uh * c)

    return _solve_defect(sign_at, Fraction(1, 2), u_hi, evaluate, _width_target(prob))


def _heron_sign(a: Fraction, c: Fraction) -> Callable[[Fraction], int]:
    """Sign of EF**2 - EG**2 at slope u > 0, with E = (c/2, a/2) the
    diagonal midpoint and F = (-a/u, a), G = (c, -u*c) the cuts.

    Four times the defect is (c + 2a/u)**2 + a**2 - c**2 - (a + 2uc)**2.
    With a = A/D, c = C/D and u = P/Q, that times (PQD)**2 is
    Q**2 (CP + 2AQ)**2 + (A**2 - C**2) P**2 Q**2 - P**2 (AQ + 2CP)**2.
    That factors as 4 (CP + AQ)(AQ**3 - CP**3), so for u > 0 the sign is
    that of a - c*u**3; the figure's form is kept as the construction."""
    A, C, _ = _cleared(a, c)
    diff = A * A - C * C

    def sign_at(u: Fraction) -> int:
        P, Q = u.numerator, u.denominator
        ef = Q * (C * P + 2 * A * Q)  # PQD times F's horizontal offset from E, doubled
        eg = P * (A * Q + 2 * C * P)  # PQD times G's vertical offset from E, doubled
        return _sign(ef * ef + diff * P * P * Q * Q - eg * eg)

    return sign_at


def _apollonius_sign(a: Fraction, c: Fraction) -> Callable[[Fraction], int]:
    """Sign of sigma**2 + base - q**2 for sigma > c/2, with
    base = (a**2 - c**2)/4.  The circle about E through F (AF = sigma - c/2)
    crosses the vertical through C sqrt(sigma**2 + base) below E's height,
    and the line from F through B crosses it q = a/2 + a*c/(sigma - c/2)
    below E's height, so the sign vanishes when F, B, G line up.

    With a = A/D, c = C/D, sigma = P/Q and W = 2PD - CQ (so that
    2*sigma - c = W/(QD)), four times the defect times (QDW)**2 is
    4 P**2 D**2 W**2 + (A**2 - C**2) Q**2 W**2 - A**2 Q**2 (W + 4CQ)**2.
    In x = AF the defect is (x + c)(x**3 - a**2 c) / x**2, so its sign is
    that of x**3 - a**2 c; the figure's form is kept as the construction."""
    A, C, D = _cleared(a, c)
    base4 = A * A - C * C  # 4 * base * D**2

    def sign_at(sigma: Fraction) -> int:
        P, Q = sigma.numerator, sigma.denominator
        W = 2 * P * D - C * Q
        qw = Q * W
        q = A * Q * (W + 4 * C * Q)  # 2 * q * QDW
        s = 2 * P * D * W  # 2 * sigma * QDW
        return _sign(s * s + base4 * qw * qw - q * q)

    return sign_at


def solve_heron_apollonius(
    prob: MeanPropProblem, variant: str = "heron"
) -> MeanPropResult:
    """Rotate a line through the rectangle corner B until the two cut
    segments seen from the diagonal midpoint E are equal.

    ``variant="heron"`` drives the defect EF - EG directly (F and G are
    the cuts on the extended sides through D).  ``variant="apollonius"``
    grows a circle about E instead, parametrized by where it crosses
    the horizontal through A, and drives the collinearity of F, B, G;
    both land on the same line and read off x = AF, y = CG.
    """
    a, c = prob.ab, prob.bc
    if a == c:
        return _trivial(HERON_APOLLONIUS, prob)

    if variant == "heron":
        return MeanPropResult(HERON_APOLLONIUS, *_solve_slope(prob, _heron_sign(a, c)), prob)

    if variant != "apollonius":
        raise ValueError(f"unknown variant {variant!r}")
    target = _width_target(prob)
    wp = Precision(_digits_for(target) + 8)

    # sigma is the (signed) distance from E's abscissa to the circle's
    # cut F on the horizontal through A; the matching vertical cut is
    # s_c = sqrt(sigma**2 + (a**2 - c**2)/4) below E's height.
    base = (a * a - c * c) / 4

    def evaluate_sigma(sl: Fraction, sh: Fraction) -> tuple[Interval, Interval]:
        x_iv = Interval(sl - c / 2, sh - c / 2)
        root_lo = rat_sqrt_bounds(sl * sl + base, wp).lo
        root_hi = rat_sqrt_bounds(sh * sh + base, wp).hi
        return x_iv, Interval(root_lo - a / 2, root_hi - a / 2)

    means = _solve_defect(
        _apollonius_sign(a, c), Fraction(c), c / 2 + a, evaluate_sigma, target
    )
    return MeanPropResult(HERON_APOLLONIUS, *means, prob)


def _philo_sign(a: Fraction, c: Fraction) -> Callable[[Fraction], int]:
    """Sign of BG - OF at slope u > 0, read as abscissa differences along
    the line through B: G sits at abscissa c, the second circle crossing
    O at (c - u*a)/(1 + u**2) and the cut F at -a/u.

    With a = A/D, c = C/D, u = P/Q and N = P**2 + Q**2, the defect
    times D*P*N (positive for u > 0) is C*P*N - (C*Q - A*P)*P*Q - A*Q*N.
    Expanded, that is C*P**3 - A*Q**3: the sign of c*u**3 - a, the cube
    test Philo's equality reduces to; the figure's form is kept as the
    construction."""
    A, C, _ = _cleared(a, c)

    def sign_at(u: Fraction) -> int:
        P, Q = u.numerator, u.denominator
        N = P * P + Q * Q
        bg = C * P * N
        of = (C * Q - A * P) * P * Q + A * Q * N  # O's abscissa minus F's
        return _sign(bg - of)

    return sign_at


def solve_philo(prob: MeanPropProblem) -> MeanPropResult:
    """Philo's condition on the circle through the rectangle's corners.

    The line through B meets the horizontal through A at F, the vertical
    through C at G, and the circumscribed circle again at O; the sought
    position makes BG = OF.  Both segments carry the common factor
    sqrt(1 + u**2), so the defect sign reduces to an exact rational
    comparison of abscissa differences along the line.
    """
    a, c = prob.ab, prob.bc
    if a == c:
        return _trivial(PHILO, prob)
    return MeanPropResult(PHILO, *_solve_slope(prob, _philo_sign(a, c)), prob)


# ----------------------------------------------------------------------
# cissoid


def cissoid_points(
    radius: Fraction,
    samples: int,
    p: Precision = DEFAULT_PRECISION,
    span: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1)),
) -> list[PointBounds]:
    """Sample the cuspidal curve generated from equal arcs on a circle.

    The circle has center at the origin and the given radius r; the
    cusp diameter runs vertically from A = (0, r) down to the cusp
    D = (0, -r), and E = (r, 0) caps the perpendicular diameter.  For a
    chord at height -m, take H on the circle at that height on E's side
    and its mirror M across the vertical diameter (equal arcs either
    side of E); the emitted point is the intersection of line DM with
    the horizontal through the chord's foot K = (0, -m), namely
    (h*(r-m)/(r+m), -m) with h the half-chord sqrt(r**2 - m**2).

    The sample parameter s runs over ``span`` inside [-1, 1]: |s| scales
    the foot height (s = 0 gives E, |s| = 1 the cusp D) and its sign
    selects the side, so mirrored parameters give points mirrored
    across the vertical diameter.
    """
    r = Fraction(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    s0, s1 = Fraction(span[0]), Fraction(span[1])
    if not (-1 <= s0 < s1 <= 1):
        raise ValueError("span must be an ordered pair inside [-1, 1]")
    points = []
    for j in range(samples):
        s = s0 + (s1 - s0) * Fraction(j, samples - 1)
        m = r * abs(s)
        chord = rat_sqrt_bounds(r * r - m * m, p)  # the half-chord KH
        x = chord * ((r - m) / (r + m))
        if s < 0:
            x = -x
        points.append(PointBounds(x, Interval.point(-m)))
    return points


def cissoid_arc_defect(
    point: PointBounds, radius: Fraction, p: Precision = DEFAULT_PRECISION
) -> Interval:
    """Re-check a sampled point against the defining mean-proportion
    property DK**2 = KH * KL; the enclosure must contain zero."""
    r = Fraction(radius)
    x, y = point.x, point.y
    dk = y + r  # cusp D = (0, -r) up to the foot K = (0, y)
    kh = interval_sqrt(Interval.point(r * r) - y.square(), p)
    kl = x.magnitude()
    return dk.square() - kh * kl


def _diocles_sign(r: Fraction, k: Fraction) -> Callable[[Fraction], int]:
    """Sign of r**2 (r - m)**3 - k**2 (r + m)**3 at the chord foot m: the
    cissoid's height against the secant's, squared exactly.

    With r = R/D, k = K/D and m = P/Q, the defect times D**5 Q**3 is
    R**2 (RQ - DP)**3 - K**2 (RQ + DP)**3.  Divided by (r + m)**3 it is
    r**2 q**3 - k**2 with q = (r - m)/(r + m), a cube test in q."""
    R, K, D = _cleared(r, k)
    R2, K2 = R * R, K * K

    def sign_at(m: Fraction) -> int:
        P, Q = m.numerator, m.denominator
        rq, dp = R * Q, D * P
        return _sign(R2 * (rq - dp) ** 3 - K2 * (rq + dp) ** 3)

    return sign_at


def solve_diocles(prob: MeanPropProblem) -> MeanPropResult:
    """Intersect the cissoid with the line joining the diameter endpoint
    A = (-r, 0) to the point (0, bc) on the vertical radius (r = ab).

    At the crossing, the half-chord KH and the segment DK are the two
    mean proportionals between AK and KL; rescaling all four lines by
    ab : AK turns them into (ab, x, y, bc).
    """
    r, k = prob.ab, prob.bc
    if r == k:
        return _trivial(DIOCLES, prob)
    target = _width_target(prob)
    wp = Precision(_digits_for(target) + 8)

    def evaluate(ml: Fraction, mh: Fraction) -> tuple[Interval, Interval]:
        q_lo = (r - mh) / (r + mh)
        q_hi = (r - ml) / (r + ml)
        y_iv = Interval(r * q_lo, r * q_hi)
        x_iv = Interval(
            r * rat_sqrt_bounds(q_lo, wp).lo, r * rat_sqrt_bounds(q_hi, wp).hi
        )
        return x_iv, y_iv

    means = _solve_defect(_diocles_sign(r, k), Fraction(0), r, evaluate, target)
    return MeanPropResult(DIOCLES, *means, prob)


# ----------------------------------------------------------------------
# conchoid and neusis


def conchoid_points(
    pole_distance: Fraction,
    offset: Fraction,
    samples: int,
    x_range: tuple[Fraction, Fraction],
    p: Precision = DEFAULT_PRECISION,
) -> list[PointBounds]:
    """Upper-branch points of the fixed-offset locus over a base line.

    The base line is y = 0 and the pole sits below it at (0, -d); each
    sampled base point S = (s, 0) is pushed away from the pole by the
    offset e along the ray pole -> S, landing on the upper branch."""
    d, e = Fraction(pole_distance), Fraction(offset)
    if d <= 0 or e <= 0:
        raise ValueError("pole distance and offset must be positive")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    x0, x1 = Fraction(x_range[0]), Fraction(x_range[1])
    if not x0 < x1:
        raise ValueError("x_range must be an ordered pair")
    points = []
    for j in range(samples):
        s = x0 + (x1 - x0) * Fraction(j, samples - 1)
        hyp = rat_sqrt_bounds(s * s + d * d, p)  # |S - pole|
        stretch = e / hyp
        points.append(
            PointBounds(Interval.point(s) + s * stretch, d * stretch)
        )
    return points


def conchoid_quartic_residual(point: PointBounds) -> Interval:
    """Residual of (x**2 + (y+1)**2) * y**2 - (y+1)**2 for the normalized
    curve (pole distance = offset = 1); contains zero for true points."""
    x, y = point.x, point.y
    y1 = y + 1
    return (x.square() + y1.square()) * y.square() - y1.square()


def _cut_constants(
    z: Point2, lines: tuple[tuple[Point2, Point2], ...]
) -> tuple[tuple[int, int, int], ...]:
    """Per line (p0, p1): its direction v = (vx, vy) and the numerator
    (p0 - z) x v of the ray parameter lam = num / (d x v) at which the
    ray z + lam * d meets it, scaled to integers.  Scaling one line's
    triple by a positive number leaves its lam unchanged."""
    constants = []
    for p0, p1 in lines:
        vx, vy = p1.x - p0.x, p1.y - p0.y
        vx_i, vy_i, num_i, _ = _cleared(vx, vy, (p0.x - z.x) * vy - (p0.y - z.y) * vx)
        constants.append((vx_i, vy_i, num_i))
    return tuple(constants)


def _intercept_sign(
    cuts: tuple[tuple[int, int, int], ...], L: Fraction
) -> Callable[[Fraction], int | None]:
    """The exact sign of |q1 - q2|**2 - L**2 as a function of t, where
    q1, q2 are the cuts of the ray z + lam * (1 - t**2, 2t) with the two
    lines of ``cuts``; None when the direction is parallel to either line.

    Both cuts lie on the ray and (1 - t**2)**2 + (2t)**2 = (1 + t**2)**2,
    so |q1 - q2| = |lam1 - lam2| * (1 + t**2) and no point is built.
    With t = P/Q, lam_i = n_i * Q**2 / d_i where
    d_i = (Q**2 - P**2) * vy_i - 2PQ * vx_i, so the sign is that of
    |n1*d2 - n2*d1| * (P**2 + Q**2) * Lq - Lp * |d1*d2| for L = Lp/Lq."""
    (vx1, vy1, n1), (vx2, vy2, n2) = cuts
    Lp, Lq = L.numerator, L.denominator

    def sign_at(t: Fraction) -> int | None:
        P, Q = t.numerator, t.denominator
        dx, dy = Q * Q - P * P, 2 * P * Q  # Q**2 times the direction
        d1 = dx * vy1 - dy * vx1
        d2 = dx * vy2 - dy * vx2
        dd = d1 * d2
        if dd == 0:
            return None
        return _sign(abs(n1 * d2 - n2 * d1) * (P * P + Q * Q) * Lq - Lp * abs(dd))

    return sign_at


def solve_nicomedes(prob: MeanPropProblem) -> MeanPropResult:
    """The conchoid-compass route, reduced to its neusis.

    With the given lines at right angles (B at the corner, A above, C
    beside), the classical auxiliary points are D and E (midpoints of
    the sides), G on CB extended with the side-line through the far
    rectangle corner, and a point Z below E with CZ equal to half of
    AB.  The neusis then slides a line through Z cutting the line
    through C parallel to GZ and the base line so that the cut segment
    equals half of AB; where it meets the base line (K) and where KL
    meets the vertical axis (M) read off the means x = CK, y = MA.

    Directions of the sliding line are parametrized as (1 - t**2, 2t)
    for t in [-1, 1], which covers every line direction with rational
    arithmetic.  A coarse scan locates sign changes of |cut|**2 - L**2
    (L = AB/2), exact and building no point (see ``_intercept_sign``),
    and bisection with no step budget narrows each candidate.  The cut
    grows without bound toward a direction parallel to either line, so
    no sign change closes on one.  Interval evaluation over a bracket
    checks, in this order: both cut denominators exclude 0; K, read
    alone, is not certainly short of C (if it is, the bracket is
    abandoned at once, long before its cut could be certified); the cut
    lies within 10**-(d + 4) * max(1, L) of L (d the decimal digits of
    the width target); and K lies beyond C.  Only then are the means
    read.  Each check is interval arithmetic on exact endpoints, so the
    verdicts are monotone along nested brackets and the kernel evaluates
    only O(log n) of a chain's n brackets (see ``_scan_and_bisect``).

    Ratios ab/bc up to about 1.017 raise BracketNotFoundError: the root
    beyond C lies in the scan cell that ends at t = 0, where the line is
    parallel to the base line and the sign is undefined.
    """
    a, c = prob.ab, prob.bc
    if a == c:
        return _trivial(NICOMEDES, prob)
    target = _width_target(prob)
    base_digits = _digits_for(target)

    c_pt = Point2(c, Fraction(0))
    z_len = rat_sqrt_bounds((a * a - c * c) / 4, Precision(2 * base_digits + 12)).mid
    z = Point2(c / 2, -z_len)
    # G = (-c, 0) always: the line through the far corner and the midpoint
    # of AB meets the base line there.  The neusis cuts the line through C
    # parallel to G -> Z, then the base line.
    theta_line = (c_pt, Point2(c_pt.x + 3 * c / 2, -z_len))
    base_line = (Point2(Fraction(0), Fraction(0)), c_pt)
    cuts = _cut_constants(z, (theta_line, base_line))
    L = a / 2
    tol = pow10(-(base_digits + 4)) * max(Fraction(1), L)
    target_sq = Interval((L - tol) ** 2 if L > tol else Fraction(0), (L + tol) ** 2)

    (vx1, vy1, n1), (vx_k, vy_k, n_k) = cuts  # the line through C, then the base line

    def accept(tl: Fraction, th: Fraction) -> object:
        t_iv = Interval(tl, th)
        dx = 1 - t_iv.square()
        dy = 2 * t_iv
        den1 = dx * vy1 - dy * vx1
        den_k = dx * vy_k - dy * vx_k
        if den1.contains(0) or den_k.contains(0):
            return None
        lam_k = n_k / den_k
        x_k = z.x + lam_k * dx  # K's abscissa on the base line
        if x_k.hi <= c:
            return _REJECT  # certainly the branch short of C
        lam1 = n1 / den1
        cut_x = z.x + lam1 * dx - x_k
        cut_y = z.y + lam1 * dy - (z.y + lam_k * dy)
        if not target_sq.contains_interval(cut_x.square() + cut_y.square()):
            return None
        if x_k.lo <= c:
            return None  # may still lie beyond C: narrow until it is decided
        x_iv = x_k - c
        y_iv = (x_k * a) / x_iv - a  # MA, with M = (0, x_k * a / (x_k - c))
        if x_iv.width <= target and y_iv.width <= target:
            return MeanPropResult(NICOMEDES, x_iv, y_iv, prob)
        return None

    found = _scan_and_bisect(_intercept_sign(cuts, L), Fraction(-1), Fraction(1), accept)
    if found is None:
        raise BracketNotFoundError(
            f"no direction with intercept {L} certified over {_SCAN_SAMPLES} scanned samples"
        )
    return found


METHODS: dict[str, Callable[[MeanPropProblem], MeanPropResult]] = {
    HERON_APOLLONIUS: solve_heron_apollonius,
    PHILO: solve_philo,
    DIOCLES: solve_diocles,
    NICOMEDES: solve_nicomedes,
}


def scale_solid_ratio(
    edge: Fraction,
    ratio: Fraction,
    method: str = HERON_APOLLONIUS,
    tol: Fraction = DEFAULT_TOL,
) -> Interval:
    """Edge of the solid scaled in volume by ``ratio``: edge times the
    cube root of the ratio, read off the second mean proportional."""
    edge, ratio = Fraction(edge), Fraction(ratio)
    if edge <= 0 or ratio <= 0:
        raise ValueError("edge and ratio must be positive")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if ratio == 1:
        return Interval.point(edge)
    prob = MeanPropProblem(ab=ratio * edge, bc=edge, tol=tol)
    res = METHODS[method](prob)
    return res.x if prob.swapped else res.y

