"""Two mean proportionals between given lines, by four classical routes.

Each construction is realized as exact rational geometry plus bracketed
one-dimensional root finding: each route's parameter range holds exactly
one root of its defect function (the factorizations in the docstrings
show it), bisection with no step budget narrows that range, and the
answers are returned as certified intervals, from which the residuals of
the two continued-proportion equations AB*y - x**2 and x*BC - y**2 follow.
Each defect is an integer polynomial in the numerator and denominator of
the route's parameter, whose coefficients are the route's constants with
their denominators cleared once per problem (square roots are eliminated
by squaring before comparing), so its signs are exact and bisection
never accumulates rounding error.  A problem computes its width target,
the target's decimal digits and its lines cleared to integers on first
read and keeps them, and every route that solves it reads those.  Each
polynomial is homogeneous, so its sign does not change when numerator
and denominator share a factor, and the chain of bisection steps lives
on integers: step k is a cell of the range's level-k dyadic grid, over
one denominator that doubles at each step, with no Fraction and no gcd.
Because the signs are exact, the chain is fixed in advance, and the one
kernel (``_bisect``) checks only some of its brackets, then searches
back to the first step that passes.  It never walks the chain: every
route knows its root in closed form, a cube root taken on integers, so
``_chain`` places each step it asks for and proves it by the exact
signs at the cell's two ends.  A check that fails may estimate how many
more halvings the bracket needs, and the kernel probes there.  Neither
estimate changes the result: the signs fix each cell, and the checks
are monotone along nested brackets.
The routes differ only in their figure: a defect, a range, a root
estimate and ``evaluate``, which maps a bracket's integer ends to the
integer ends of the means.  The kernel alone judges a bracket: it
compares the widths of both means with the width target as integer
cross-products and builds the Intervals only for the step it settles
on.  Heron, philo and apollonius map the bracket exactly, diocles
through directed square-root bounds, and nicomedes through the interval
expressions of its cut, evaluated on integers, which may refuse a
bracket before its means can be read.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import cached_property
from fractions import Fraction

from .geometry import PointBounds
from .numerics import (
    DEFAULT_PRECISION,
    Interval,
    Precision,
    PrecisionError,
    _check_int,
    _cleared,
    _decade,
    _frozen,
    _isqrt_ceil,
    _to_rational,
    int_nth_root_floor,
    rat_sqrt_bounds,
)

DEFAULT_TOL = Fraction(1, 10 ** 12)

HERON_APOLLONIUS = "heron_apollonius"
PHILO = "philo"
DIOCLES = "diocles"
NICOMEDES = "nicomedes"


class BracketNotFoundError(RuntimeError):
    """The defect function's signs at the ends of its range are not opposite."""


@_frozen(derived=("swapped",))
class MeanPropProblem:
    """Find x, y with ab : x :: x : y :: y : bc.

    Arguments are swap-normalized so that ab >= bc; ``swapped`` records
    whether the caller's order was reversed (the two means are the same
    numbers either way, read in the opposite order).
    """

    ab: Fraction
    bc: Fraction
    tol: Fraction = DEFAULT_TOL
    swapped: bool = False

    def __post_init__(self) -> None:
        ab, bc = _to_rational(self.ab), _to_rational(self.bc)
        if ab <= 0 or bc <= 0:
            raise ValueError("line lengths must be positive")
        tol = _to_rational(self.tol)
        if tol <= 0:
            raise ValueError("tol must be positive")
        object.__setattr__(self, "swapped", bc > ab)
        if bc > ab:
            ab, bc = bc, ab
        object.__setattr__(self, "ab", ab)
        object.__setattr__(self, "bc", bc)
        object.__setattr__(self, "tol", tol)

    # The cached values below are computed on first read, by whichever
    # route reads them first, and kept on the instance, outside the
    # fields: they stay out of repr, == and hash.

    @cached_property
    def width_target(self) -> Fraction:
        """The width every route's means must get within: tol times
        min(bc, max(1, ab)/8).  Tight enough that midpoints beat both the
        relative agreement with the cube-root oracle and the
        cross-multiplied residual bounds."""
        return self.tol * min(self.bc, max(Fraction(1), self.ab) / 8)

    @cached_property
    def _lines(self) -> tuple[int, int, int]:
        """(A, C, D) with ab = A/D and bc = C/D, D > 0 least."""
        return _cleared(self.ab, self.bc)

    @cached_property
    def _digits(self) -> int:
        """The decimal digits of the width target (see ``_digits_for``)."""
        return _digits_for(self.width_target)


@_frozen
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
    """Smallest d >= 1 with 10**-d <= x: minus the decade of x, or 1."""
    if x <= 0:
        raise ValueError("width target must be positive")
    return max(1, -_decade(x.numerator, x.denominator))


def _halvings(width: Fraction | int, target: Fraction | int) -> int:
    """The bit length of ceil(width / target), for Fractions or for a
    cross-multiplied ratio of integers: about how many halvings bring
    ``width`` down to ``target``."""
    return (-(-width // target)).bit_length()


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _chain(
    value_at: Callable[[int, int], int],
    lo: Fraction,
    hi: Fraction | int,
    floor_root: Callable[[int], int],
) -> Callable[[int], tuple[int, int, int, int]]:
    """Random access to the chain of nested brackets that bisection on
    the signs of ``value_at`` makes from [lo, hi].

    ``value_at(P, Q)`` is the defect's value at P/Q for integers P and
    Q > 0; only its sign is read, and that sign must not depend on how
    P/Q is written.  The signs at lo and hi must be nonzero and opposite,
    or BracketNotFoundError is raised, and the sign must change once on
    [lo, hi]: every route passes a range on which its defect has exactly
    one root (see each route's factorization).  ``floor_root(M)``
    estimates floor(root * M) for M > 0.

    Returns ``step(k)``, which gives (s, L, H, Q): s = min(k, e) with e
    the chain's last step (infinite unless the chain ends), and
    [L/Q, H/Q] the bracket at step s.  With [lo, hi] = [L0/Q0, H0/Q0]
    over one denominator and W = H0 - L0, step k is a cell [i, i + 1] of
    the level-k dyadic grid, with ends (L0*2**k + i*W) / (Q0*2**k) and
    (L0*2**k + (i + 1)*W) / (Q0*2**k): the integers that bisecting each
    bracket at (L + H)/2Q, as it stands, gives.  When the root is a grid
    point, first on the grid at level e (so at an odd index g), the chain
    ends at step e on the point bracket L = H = L0*2**e + g*W.

    The kernel keeps the deepest cell it has proved, as its level J and
    index I, or the chain's end point.  Step k <= J is that cell shifted
    to cell I >> (J - k), with no sign evaluated, and so is any step
    before the end point's.  A deeper step is searched among the cell's
    level-k descendants, [I << (k - J), (I + 1) << (k - J)], whose ends
    have known signs.  The estimate places it and the signs prove it:
    floor(root * M) is taken at M = Q0*2**K, K eight levels deeper than
    the deepest step asked for, and shifted down to level k, and the
    exact signs at the ends of the cell it names prove that cell.
    Otherwise the search gallops from it in strides 1, 2, 4, ... until
    the sign changes, then bisects: an estimate n cells off costs
    O(log n) signs, and none moves the cell.  An exact zero at grid
    index g of level k ends the chain at step k - v2(g), v2(g) the
    number of times 2 divides g.
    """
    L0, H0, Q0 = _cleared(lo, hi)
    s_lo, s_hi = _sign(value_at(L0, Q0)), _sign(value_at(H0, Q0))
    if s_lo * s_hi >= 0:
        raise BracketNotFoundError(
            f"defect signs {s_lo} at {lo} and {s_hi} at {hi} are not opposite"
        )
    W = H0 - L0
    K, F = 0, L0  # F = floor(root * Q0 * 2**K); level 0 is one cell and needs none
    J, I, ended = 0, 0, False  # the deepest cell proved, or the end point at level J

    def step(k: int) -> tuple[int, int, int, int]:
        nonlocal K, F, J, I, ended
        if k > J and not ended:
            if k > K:
                K = k + 8
                F = floor_root(Q0 << K)
            base, a, b = L0 << k, I << (k - J), (I + 1) << (k - J)  # signs s_lo at a, s_hi at b
            g, stride = min(max(((F >> (K - k)) - base) // W, a + 1), b - 1), 1
            while b - a > 1:
                if not a < g < b:
                    g = (a + b) >> 1
                s = _sign(value_at(base + g * W, Q0 << k))
                if s == 0:
                    t = (g & -g).bit_length() - 1
                    J, I, ended = k - t, g >> t, True
                    break
                if s == s_lo:
                    a, g = g, g + stride
                else:
                    b, g = g, g - stride
                stride *= 2
            else:
                J, I = k, a
        if ended and k >= J:
            P = (L0 << J) + I * W
            return J, P, P, Q0 << J
        i = I >> (J - k)
        return k, (L0 << k) + i * W, (L0 << k) + (i + 1) * W, Q0 << k

    return step


#: A mean's ends over a bracket as integers (lo_num, lo_den, hi_num,
#: hi_den), denominators positive.
Ends = tuple[int, int, int, int]


def _bisect(
    value_at: Callable[[int, int], int],
    lo: Fraction,
    hi: Fraction | int,
    floor_root: Callable[[int], int],
    evaluate: Callable[[int, int, int], tuple[Ends, Ends] | int | None],
    target: Fraction,
) -> tuple[Interval, Interval]:
    """Bisect [lo, hi] on exact signs until the means x and y that
    ``evaluate`` reads off a bracket are both no wider than ``target``.

    ``value_at``, [lo, hi] and ``floor_root`` are as ``_chain`` takes
    them.  ``evaluate(L, H, Q)`` reads the bracket [L/Q, H/Q] (Q > 0, not
    reduced): it returns the integer ends of x and of y, or, while the
    bracket cannot be read yet, None or an int, its estimate of how many
    more halvings the bracket needs.  The kernel compares both widths
    with the target as integer cross-products and refuses a wider
    bracket with the halvings still lacking from the wider of the two
    (the value ``_halvings`` gives).  It returns x and y as Intervals,
    built only for the first step of the bisection chain that it does
    not refuse; when the chain ends at a point bracket (an exact root)
    that it still refuses, it raises PrecisionError.  It keeps nothing
    of the chain but the estimate and the deepest cell proved, so its
    memory is linear in the digits of the brackets.

    There is no step budget.  The loop ends because, along any chain
    that narrows onto a root, the means narrow onto the true ones and
    ``evaluate`` eventually reads them: heron, philo and apollonius read
    x and y through exact maps; diocles goes through directed
    square-root bounds, whose error falls as endpoint denominators grow
    like 2**k; and nicomedes reads them off the interval expressions of
    its cut (see ``_neusis_means``), which converge at its root since
    the cut denominators are nonzero for t > 0 and K lies beyond C
    there.

    Contract: along nested brackets, "not refused" is monotone.  Interval
    arithmetic on exact endpoints is inclusion-isotonic, so means that
    meet the target on a bracket meet it on any sub-bracket.
    (Diocles reads x through directed square-root bounds, monotone only
    up to their last-digit rounding; a width within that rounding of the
    target at a skipped step is the one way it could settle on another
    step than the step-by-step loop.)

    The chain depends on the signs alone, so only some of its steps are
    read, and ``_chain`` places only the steps the probes reach.  After
    a refusal at step s the next probe is step s + max(estimate, jump):
    the minimum jump is 1 at first and doubles at each refusal, so
    refusals without an estimate probe steps 0, 1, 3, 7, 15, ..., and
    the chain's last step when the chain ends first.  Once a probe is
    accepted, the first accepted step lies between the last refused
    probe and it, and later probes stay there: the step just before an
    accepted probe that an estimate placed; after a refusal with an
    estimate, s + max(estimate, jump) or the step just before the
    accepted probe, whichever is nearer; otherwise the middle step.
    Without estimates a chain settled at step k costs at most
    2*ceil(log2(k + 2)) + 2 reads, an exact estimate settles it in 3,
    and any estimates cost O(log n) reads, n the furthest step they send
    the kernel to.  Whatever the kernel returns is still read off that
    very bracket, and its being the first such step rests on the
    contract alone.
    """
    step = _chain(value_at, lo, hi, floor_root)
    tn, td = target.numerator, target.denominator
    none_at, ok_at = -1, None  # last step known refused; first step known accepted
    probe, jump, guessed = 0, 1, False  # next step; minimum jump; placed by an estimate
    while True:
        probe, L, H, Q = step(probe)
        if probe == none_at:  # the chain ended at a point bracket, never accepted
            raise PrecisionError("enclosure too wide at an exact root")
        verdict = evaluate(L, H, Q)
        if type(verdict) is tuple:
            (xln, xld, xhn, xhd), (yln, yld, yhn, yhd) = verdict
            n, d = xhn * xld - xln * xhd, xhd * xld  # x's width is n/d
            yn, yd = yhn * yld - yln * yhd, yhd * yld
            if yn * d > n * yd:
                n, d = yn, yd
            if n * td > tn * d:
                verdict = _halvings(n * td, d * tn)
        if type(verdict) is tuple:  # accepted
            ok_at, ends = probe, verdict
            probe = probe - 1 if guessed else (none_at + probe) // 2
            guessed = False
        elif verdict is None and ok_at is not None:
            none_at = probe
            probe = (none_at + ok_at) // 2
        else:
            none_at = probe
            guessed = verdict is not None and verdict >= jump
            probe += max(verdict or 0, jump)
            jump *= 2
        if ok_at is not None:  # the first step accepted lies in (none_at, ok_at]
            if ok_at - none_at == 1:
                (xln, xld, xhn, xhd), (yln, yld, yhn, yhd) = ends
                return (
                    Interval._of(Fraction(xln, xld), Fraction(xhn, xhd)),
                    Interval._of(Fraction(yln, yld), Fraction(yhn, yhd)),
                )
            probe = min(probe, ok_at - 1)


def _cube_encloses(iv: Interval, n: int, d: int) -> bool:
    """Whether iv.lo**3 <= n/d <= iv.hi**3 (d > 0), on integers."""
    (ln, ld), (hn, hd) = iv.lo.as_integer_ratio(), iv.hi.as_integer_ratio()
    return ln ** 3 * d <= n * ld ** 3 and n * hd ** 3 <= hn ** 3 * d


def _trivial(method: str, prob: MeanPropProblem) -> MeanPropResult:
    point = Interval.point(prob.ab)
    return MeanPropResult(method, point, point, prob)


# ----------------------------------------------------------------------
# rectangle methods (shared figure: B=(0,0), A=(0,ab), C=(bc,0), D=(bc,ab))


def _solve_slope(
    prob: MeanPropProblem, value_at: Callable[[int, int], int]
) -> tuple[Interval, Interval]:
    """Rotate a line through B with slope u from 1/2 to past cbrt(a/c) until
    ``value_at`` changes sign; it cuts off x = AF = a/u and y = CG = u*c.
    The root is u = cbrt(a/c) = cbrt(A/C), so floor(u*M) is the integer
    cube root of floor(A*M**3/C), exactly."""
    A, C, D = prob._lines
    u_hi = int_nth_root_floor(-(-A // C), 3) + 1

    def floor_root(M: int) -> int:
        return int_nth_root_floor(A * M ** 3 // C, 3)

    def evaluate(L: int, H: int, Q: int) -> tuple[Ends, Ends]:
        # u in [L/Q, H/Q]: x in [AQ/DH, AQ/DL], y in [CL/QD, CH/QD]
        AQ, QD = A * Q, Q * D
        return (AQ, D * H, AQ, D * L), (C * L, QD, C * H, QD)

    return _bisect(value_at, Fraction(1, 2), u_hi, floor_root, evaluate, prob.width_target)


def _heron_defect(prob: MeanPropProblem) -> Callable[[int, int], int]:
    """EF**2 - EG**2 at slope u > 0 as an integer polynomial, with E = (c/2, a/2) the
    diagonal midpoint and F = (-a/u, a), G = (c, -u*c) the cuts.

    Four times the defect is (c + 2a/u)**2 + a**2 - c**2 - (a + 2uc)**2.
    With a = A/D, c = C/D and u = P/Q, that times (PQD)**2 is
    Q**2 (CP + 2AQ)**2 + (A**2 - C**2) P**2 Q**2 - P**2 (AQ + 2CP)**2.
    That factors as 4 (CP + AQ)(AQ**3 - CP**3), so for u > 0 the sign is
    that of a - c*u**3; the figure's form is kept as the construction.
    The form is homogeneous of degree 4 in (P, Q): ``value_at(P, Q)``
    (Q > 0) is Q**4 times a function of P/Q, so its sign does not depend
    on whether P/Q is reduced."""
    A, C, _ = prob._lines
    diff = A * A - C * C

    def value_at(P: int, Q: int) -> int:
        ef = Q * (C * P + 2 * A * Q)  # PQD times F's horizontal offset from E, doubled
        eg = P * (A * Q + 2 * C * P)  # PQD times G's vertical offset from E, doubled
        return ef * ef + diff * P * P * Q * Q - eg * eg

    return value_at


def _apollonius_defect(prob: MeanPropProblem) -> Callable[[int, int], int]:
    """sigma**2 + base - q**2 for sigma > c/2 as an integer polynomial, with
    base = (a**2 - c**2)/4.  The circle about E through F (AF = sigma - c/2)
    crosses the vertical through C sqrt(sigma**2 + base) below E's height,
    and the line from F through B crosses it q = a/2 + a*c/(sigma - c/2)
    below E's height, so the sign vanishes when F, B, G line up.

    With a = A/D, c = C/D, sigma = P/Q and W = 2PD - CQ (so that
    2*sigma - c = W/(QD)), four times the defect times (QDW)**2 is
    4 P**2 D**2 W**2 + (A**2 - C**2) Q**2 W**2 - A**2 Q**2 (W + 4CQ)**2.
    In x = AF the defect is (x + c)(x**3 - a**2 c) / x**2, so its sign is
    that of x**3 - a**2 c; the figure's form is kept as the construction.
    The form is homogeneous of degree 4 in (P, Q): ``value_at(P, Q)``
    (Q > 0) is Q**4 times a function of P/Q, so its sign does not depend
    on whether P/Q is reduced."""
    A, C, D = prob._lines
    base4 = A * A - C * C  # 4 * base * D**2

    def value_at(P: int, Q: int) -> int:
        W = 2 * P * D - C * Q
        qw = Q * W
        q = A * Q * (W + 4 * C * Q)  # 2 * q * QDW
        s = 2 * P * D * W  # 2 * sigma * QDW
        return s * s + base4 * qw * qw - q * q

    return value_at


def solve_heron_apollonius(
    prob: MeanPropProblem, variant: str = "heron"
) -> MeanPropResult:
    """Rotate a line through the rectangle corner B until the two cut
    segments seen from the diagonal midpoint E are equal.

    ``variant="heron"`` drives the defect EF - EG directly (F and G are
    the cuts on the extended sides through D).  ``variant="apollonius"``
    grows a circle about E instead, parametrized by where it crosses
    the horizontal through A, and drives the collinearity of F, B, G;
    both land on the same line.  Heron reads off x = AF and y = CG, and
    apollonius x = AF and y = x**2/a: its defect's factorization (see
    ``_apollonius_defect``) proves x**3 = a**2 c at the root, so x**2/a
    is the second mean, with no square root.  Apollonius' root is
    sigma = x + c/2 with x = cbrt(a**2 c), so with a = A/D and c = C/D,
    floor(sigma*M) = (floor(cbrt(8 A**2 C M**3)) + CM) // 2D.
    """
    if variant not in ("heron", "apollonius"):
        raise ValueError(f"unknown variant {variant!r}")
    a, c = prob.ab, prob.bc
    if a == c:
        return _trivial(HERON_APOLLONIUS, prob)

    if variant == "heron":
        return MeanPropResult(HERON_APOLLONIUS, *_solve_slope(prob, _heron_defect(prob)), prob)

    # sigma is the (signed) distance from E's abscissa to the circle's cut
    # F on the horizontal through A.  With a = A/D, c = C/D and sigma in
    # [L/Q, H/Q], x = sigma - c/2 runs over [2DL - CQ, 2DH - CQ] / 2QD, in
    # [c/2, a], and y = x**2/a over the squares of those ends / 4 Q**2 DA.
    A, C, D = prob._lines
    D2, A2C8 = 2 * D, 8 * A * A * C

    def floor_root(M: int) -> int:
        return (int_nth_root_floor(A2C8 * M ** 3, 3) + C * M) // D2

    def evaluate_sigma(L: int, H: int, Q: int) -> tuple[Ends, Ends]:
        QD2, CQ = Q * D2, C * Q
        xl, xh, yd = D2 * L - CQ, D2 * H - CQ, QD2 * Q * 2 * A
        return (xl, QD2, xh, QD2), (xl * xl, yd, xh * xh, yd)

    means = _bisect(
        _apollonius_defect(prob), c, c / 2 + a, floor_root, evaluate_sigma, prob.width_target
    )
    return MeanPropResult(HERON_APOLLONIUS, *means, prob)


def _philo_defect(prob: MeanPropProblem) -> Callable[[int, int], int]:
    """BG - OF at slope u > 0 as an integer polynomial, read as abscissa
    differences along the line through B: G sits at abscissa c, the
    second circle crossing O at (c - u*a)/(1 + u**2) and the cut F at
    -a/u.

    With a = A/D, c = C/D, u = P/Q and N = P**2 + Q**2, the defect
    times D*P*N (positive for u > 0) is C*P*N - (C*Q - A*P)*P*Q - A*Q*N.
    Expanded, that is C*P**3 - A*Q**3: the sign of c*u**3 - a, the cube
    test Philo's equality reduces to; the figure's form is kept as the
    construction.  The form is homogeneous of degree 3 in (P, Q):
    ``value_at(P, Q)`` (Q > 0) is Q**3 times a function of P/Q, so its
    sign does not depend on whether P/Q is reduced."""
    A, C, _ = prob._lines

    def value_at(P: int, Q: int) -> int:
        N = P * P + Q * Q
        bg = C * P * N
        of = (C * Q - A * P) * P * Q + A * Q * N  # O's abscissa minus F's
        return bg - of

    return value_at


def solve_philo(prob: MeanPropProblem) -> MeanPropResult:
    """Philo's condition on the circle through the rectangle's corners.

    The line through B meets the horizontal through A at F, the vertical
    through C at G, and the circumscribed circle again at O; the sought
    position makes BG = OF.  Both segments carry the common factor
    sqrt(1 + u**2), so the defect sign reduces to an exact rational
    comparison of abscissa differences along the line.
    """
    if prob.ab == prob.bc:
        return _trivial(PHILO, prob)
    return MeanPropResult(PHILO, *_solve_slope(prob, _philo_defect(prob)), prob)


# ----------------------------------------------------------------------
# cissoid


def _sample_grid(lo: Fraction, hi: Fraction, samples: int) -> list[Fraction]:
    """``samples`` evenly spaced parameters from lo to hi, both included."""
    _check_int(samples, "samples")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    return [lo + (hi - lo) * Fraction(j, samples - 1) for j in range(samples)]


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
    (h*(r-m)/(r+m), -m) with h the half-chord sqrt(r**2 - m**2): as
    h**2 = (r-m)(r+m), the abscissa is one root, sqrt((r-m)**3/(r+m)),
    which `rat_sqrt_bounds` encloses 10**-(p+2) wide whatever r is.

    The sample parameter s runs over ``span`` inside [-1, 1]: |s| scales
    the foot height (s = 0 gives E, |s| = 1 the cusp D) and its sign
    selects the side, so mirrored parameters give points mirrored
    across the vertical diameter.
    """
    r = _to_rational(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    s0, s1 = _to_rational(span[0]), _to_rational(span[1])
    if not (-1 <= s0 < s1 <= 1):
        raise ValueError("span must be an ordered pair inside [-1, 1]")
    points = []
    for s in _sample_grid(s0, s1, samples):
        m = r * abs(s)
        x = rat_sqrt_bounds((r - m) ** 3 / (r + m), p)
        points.append(PointBounds(-x if s < 0 else x, Interval.point(-m)))
    return points


def cissoid_arc_defect(point: PointBounds, radius: Fraction) -> Interval:
    """Re-check a sampled point against the defining mean-proportion
    property DK**2 = KH * KL, squared so that no root is taken: with
    KH**2 = r**2 - y**2 and KL = |x|, the enclosure of
    DK**4 - (r**2 - y**2) * x**2 must contain zero."""
    r = _to_rational(radius)
    x, y = point.x, point.y
    dk2 = (y + r).square()  # cusp D = (0, -r) up to the foot K = (0, y)
    return dk2.square() - (r * r - y.square()) * x.square()


def _isqrt_quotient(n: int, d: int, digits: int, up: bool) -> tuple[int, int]:
    """A bound on sqrt(n/d) from below, or from above when ``up``, for
    n >= 0 and d > 0, as an unreduced numerator and denominator: with n/d
    reduced and s = 10**(digits + 2), isqrt(n*s*s) / isqrt_ceil(d*s*s), or
    isqrt_ceil(n*s*s) / isqrt(d*s*s).  Only diocles and nicomedes bound
    roots so, which keeps their results; it goes when they map their
    brackets exactly.  Every other root is `rat_sqrt_bounds`' grid form.
    """
    g = math.gcd(n, d)
    n, d = n // g, d // g
    sq = 10 ** (2 * digits + 4)
    if up:
        return _isqrt_ceil(n * sq), math.isqrt(d * sq)
    return math.isqrt(n * sq), _isqrt_ceil(d * sq)


def _diocles_defect(prob: MeanPropProblem) -> Callable[[int, int], int]:
    """r**2 (r - m)**3 - k**2 (r + m)**3 at the chord foot m as an integer
    polynomial: the cissoid's height against the secant's, squared
    exactly.

    With r = R/D, k = K/D and m = P/Q, the defect times D**5 Q**3 is
    R**2 (RQ - DP)**3 - K**2 (RQ + DP)**3.  Divided by (r + m)**3 it is
    r**2 q**3 - k**2 with q = (r - m)/(r + m), a cube test in q.  The
    form is homogeneous of degree 3 in (P, Q): ``value_at(P, Q)`` (Q > 0)
    is Q**3 times a function of P/Q, so its sign does not depend on
    whether P/Q is reduced."""
    R, K, D = prob._lines
    R2, K2 = R * R, K * K

    def value_at(P: int, Q: int) -> int:
        rq, dp = R * Q, D * P
        return R2 * (rq - dp) ** 3 - K2 * (rq + dp) ** 3

    return value_at


def solve_diocles(prob: MeanPropProblem) -> MeanPropResult:
    """Intersect the cissoid with the line joining the diameter endpoint
    A = (-r, 0) to the point (0, bc) on the vertical radius (r = ab).

    At the crossing, the half-chord KH and the segment DK are the two
    mean proportionals between AK and KL; rescaling all four lines by
    ab : AK turns them into (ab, x, y, bc).  The root is m = r(1 - q)/(1 + q)
    with q = cbrt(k**2/r**2); q is taken 8 bits finer than the grid, so the
    estimate lands in the kernel's cell or next to it.
    """
    r = prob.ab
    if r == prob.bc:
        return _trivial(DIOCLES, prob)
    digits = prob._digits + 8
    R, K, D = prob._lines

    def floor_root(M: int) -> int:
        G = M << 8
        q = int_nth_root_floor(K * K * G ** 3 // (R * R), 3)  # about q * G
        return R * M * (G - q) // (D * (G + q))

    def evaluate(L: int, H: int, Q: int) -> tuple[Ends, Ends]:
        # q = (r - m)/(r + m) = (RQ - DM)/(RQ + DM) at m = M/Q, which
        # falls in m; y = r*q and x = r*sqrt(q)
        rq, dl, dh = R * Q, D * L, D * H
        qln, qld, qhn, qhd = rq - dh, rq + dh, rq - dl, rq + dl
        sln, sld = _isqrt_quotient(qln, qld, digits, up=False)
        shn, shd = _isqrt_quotient(qhn, qhd, digits, up=True)
        return (R * sln, D * sld, R * shn, D * shd), (R * qln, D * qld, R * qhn, D * qhd)

    means = _bisect(
        _diocles_defect(prob), Fraction(0), r, floor_root, evaluate, prob.width_target
    )
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
    offset e along the ray pole -> S, landing on the upper branch: with
    k = e**2/(s**2 + d**2), x = s +- sqrt(k*s**2) and y = sqrt(k*d**2),
    each one root, which `rat_sqrt_bounds` encloses 10**-(p+2) wide
    whatever d and e are."""
    d, e = _to_rational(pole_distance), _to_rational(offset)
    if d <= 0 or e <= 0:
        raise ValueError("pole distance and offset must be positive")
    x0, x1 = _to_rational(x_range[0]), _to_rational(x_range[1])
    if not x0 < x1:
        raise ValueError("x_range must be an ordered pair")
    points = []
    for s in _sample_grid(x0, x1, samples):
        k = e * e / (s * s + d * d)
        push = rat_sqrt_bounds(k * s * s, p)
        points.append(PointBounds(s + push if s >= 0 else s - push, rat_sqrt_bounds(k * d * d, p)))
    return points


def conchoid_quartic_residual(
    point: PointBounds, pole_distance: Fraction, offset: Fraction
) -> Interval:
    """Residual of (x**2 + (y + d)**2) * y**2 - e**2 * (y + d)**2 on the
    conchoid with pole distance d and offset e, as `conchoid_points`
    draws it; contains zero for true points."""
    d, e = _to_rational(pole_distance), _to_rational(offset)
    x, y = point.x, point.y
    yd = (y + d).square()
    return (x.square() + yd) * y.square() - e * e * yd


def _intercept_defect(
    cuts: tuple[tuple[int, int, int], ...], L: Fraction
) -> Callable[[int, int], int]:
    """An integer polynomial with the sign of |q1 - q2|**2 - L**2 as a
    function of t, where q1, q2 are the cuts of the ray
    z + lam * (1 - t**2, 2t) with the two lines of ``cuts``; positive
    when the direction is parallel to either line, since the cut is then
    unbounded.  Per line, ``cuts`` holds its direction v = (vx, vy) and
    the numerator n = (p0 - z) x v (p0 on the line) of the ray parameter
    lam = n / (d x v) at which the ray z + lam * d meets it, scaled to
    integers; scaling a line's triple by a positive number leaves its lam
    unchanged.

    Both cuts lie on the ray and (1 - t**2)**2 + (2t)**2 = (1 + t**2)**2,
    so |q1 - q2| = |lam1 - lam2| * (1 + t**2) and no point is built.
    With t = P/Q, lam_i = n_i * Q**2 / d_i where
    d_i = (Q**2 - P**2) * vy_i - 2PQ * vx_i, so the sign is that of
    |n1*d2 - n2*d1| * (P**2 + Q**2) * Lq - Lp * |d1*d2| for L = Lp/Lq,
    which is the value.  Where d1*d2 = 0 that is |n1*d2 - n2*d1| *
    (P**2 + Q**2) * Lq >= 0, and the value is Q**4 where it is 0 too (the
    pole on the parallel line).  Each d_i is homogeneous of degree 2 in
    (P, Q) and the value of degree 4: ``value_at(P, Q)`` (Q > 0) is Q**4
    times a function of P/Q, so its sign, and the test d1*d2 == 0, do
    not depend on whether P/Q is reduced."""
    (vx1, vy1, n1), (vx2, vy2, n2) = cuts
    Lp, Lq = L.numerator, L.denominator

    def value_at(P: int, Q: int) -> int:
        dx, dy = Q * Q - P * P, 2 * P * Q  # Q**2 times the direction
        d1 = dx * vy1 - dy * vx1
        d2 = dx * vy2 - dy * vx2
        dd = d1 * d2
        v = abs(n1 * d2 - n2 * d1) * (P * P + Q * Q) * Lq - Lp * abs(dd)
        return v if dd else v or Q ** 4

    return value_at


def _neusis_figure(prob: MeanPropProblem) -> tuple[tuple[tuple[int, int, int], ...], Ends]:
    """Nicomedes' figure for ``prob`` (ab > bc), on integers: the cut
    constants (see ``_intercept_defect``) of the line through C parallel
    to GZ and of the base line, and the band [(L - e)**2, (L + e)**2]
    that the squared cut must lie in, with L = AB/2 and
    e = 10**-(d + 4) * max(1, L) (d: the decimal digits of the width
    target), as its ends' numerators and denominators.

    The pole is Z = (c/2, -z), z the midpoint of the directed bounds on
    sqrt((a**2 - c**2)/4) at 2*d + 12 digits, reduced by one gcd.
    G = (-c, 0) always (the line through the far corner and the midpoint
    of AB meets the base line there), so the line through C parallel to
    GZ runs along (3c/2, -z) with (C - Z) x v = -2cz, and the base line
    along (c, 0) with (B - Z) x v = -cz, whose triple gives z back as
    -n/vx.  With c = cn/cd and z = zn/zd, the triples are those times
    2*cd*zd and times zd/c: (3*cn*zd, -2*cd*zn, -4*cn*zn) and
    (zd, 0, -zn).  With a = A/D and E = 10**(d + 4), L is AE and e is
    max(2D, A) over 2DE, so the band's ends are (AE -+ max(2D, A))**2
    over (2DE)**2, its low end 0 when AE <= max(2D, A)."""
    A, C, D = prob._lines
    cn, cd = prob.bc.numerator, prob.bc.denominator
    digits = 2 * prob._digits + 12
    n, d = A * A - C * C, 4 * D * D  # z**2 = (a**2 - c**2)/4 = n/d
    ln, ld = _isqrt_quotient(n, d, digits, up=False)
    hn, hd = _isqrt_quotient(n, d, digits, up=True)
    zn, zd = ln * hd + hn * ld, 2 * ld * hd
    g = math.gcd(zn, zd)
    zn, zd = zn // g, zd // g
    cuts = ((3 * cn * zd, -2 * cd * zn, -4 * cn * zn), (zd, 0, -zn))
    E = 10 ** (prob._digits + 4)
    L, e, den = A * E, max(2 * D, A), (2 * D * E) ** 2
    return cuts, ((L - e) ** 2 if L > e else 0, den, (L + e) ** 2, den)


def _square_ends(
    u: int, p2: int, v: int, r2: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The ends of [u/p, v/r]**2 (p, r > 0; p2 = p**2, r2 = r**2) as
    (numerator, denominator) pairs, with the three cases of
    ``Interval.square``."""
    if u >= 0:
        return (u * u, p2), (v * v, r2)
    if v <= 0:
        return (v * v, r2), (u * u, p2)
    uu, vv = u * u, v * v
    return (0, 1), ((uu, p2) if uu * r2 >= vv * p2 else (vv, r2))


def _pair_sum(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x + y for (numerator, denominator) pairs with positive denominators."""
    (xn, xd), (yn, yd) = x, y
    if xd == yd:
        return xn + yn, xd
    return xn * yd + yn * xd, xd * yd


def _neusis_means(
    prob: MeanPropProblem, cuts: tuple[tuple[int, int, int], ...], band: Ends
) -> Callable[[int, int, int], tuple[Ends, Ends] | int | None]:
    """Nicomedes' ``evaluate`` for brackets [L/Q, H/Q] inside [0, 1], from
    the figure of ``_neusis_figure`` (the pole's abscissa is c/2): its
    cut constants and the band, any positive-width [bln/bld, bhn/bhd]
    given as the four integers (bln, bld, bhn, bhd), bld and bhd > 0.

    It is interval evaluation of the cut over the bracket, done on
    integers: every quantity below is the value that the ``Interval``
    operators give.  For a > c the cut constants have fixed signs
    (vx1 > 0, vy1 < 0, n1 < 0 for the line through C; vx_k > 0,
    vy_k = 0, n_k < 0 for the base line), and on [0, 1] the direction
    (1 - t**2, 2t) has both coordinates >= 0, so the signs fix which
    two of each product's or quotient's four endpoint values are its
    min and max.  The kernel hands the bracket over one denominator Q,
    so the direction's ends are integers over Q**2, and so are the cut
    denominators: -Q**2 * den1 runs over [e1h, e1l] and -Q**2 * den_k
    over [ekh, ekl], all >= 0, so each denominator excludes 0 unless its
    smaller end is 0.  The low ends of both cut coordinates are then
    integers over e1l * ekh, the high ends over e1h * ekl; only their
    squares need a sign case.  It refuses a bracket, in this order,
    unless both denominators exclude 0 (None), the squared cut lies in
    the band (the halvings estimate, cross-multiplied) and K lies beyond
    C (None).  Otherwise it reads the means on integers: x = CK runs
    over [p, q] with K = c/2 + lam_k * dx, and y = a*K/x - a over
    [a(c - w)/q, a(c + w)/p], w = q - p."""
    a, c = prob.ab, prob.bc
    an, ad, cn, cd = a.numerator, a.denominator, c.numerator, c.denominator
    cd2, acd = 2 * cd, ad * cd
    # the line through C, then the base line
    (vx1, vy1, n1), (vx_k, vy_k, n_k) = cuts
    N1, Nk = -n1, -n_k
    bln, bld, bhn, bhd = band
    bwn, bwd = bhn * bld - bln * bhd, bhd * bld  # the band's width

    def evaluate(L: int, H: int, Q: int) -> tuple[Ends, Ends] | int | None:
        QQ = Q * Q
        dxl, dxh = QQ - H * H, QQ - L * L  # Q**2 (1 - t**2) at th, at tl
        dyl, dyh = 2 * L * Q, 2 * H * Q  # Q**2 * 2t at tl, at th
        e1l, e1h = dyh * vx1 - dxh * vy1, dyl * vx1 - dxl * vy1
        ekl, ekh = dyh * vx_k - dxh * vy_k, dyl * vx_k - dxl * vy_k
        if e1h == 0 or ekh == 0:
            return None
        # cut_x = lam1 * dx - lam_k * dx over [lo/(e1l*ekh), hi/(e1h*ekl)],
        # with lam1 = n1/den1 = N1*Q**2/E1 and lam_k = Nk*Q**2/Ek; likewise cut_y.
        p2, r2 = (e1l * ekh) ** 2, (e1h * ekl) ** 2
        x_lo, x_hi = _square_ends(
            N1 * dxl * ekh - Nk * dxh * e1l, p2, N1 * dxh * ekl - Nk * dxl * e1h, r2
        )
        y_lo, y_hi = _square_ends(
            N1 * dyl * ekh - Nk * dyh * e1l, p2, N1 * dyh * ekl - Nk * dyl * e1h, r2
        )
        (lo_n, lo_d), (hi_n, hi_d) = _pair_sum(x_lo, y_lo), _pair_sum(x_hi, y_hi)
        if not (bln * lo_d <= lo_n * bld and hi_n * bhd <= bhn * hi_d):
            # _halvings(cut_sq.width, the band's width), cross-multiplied
            return _halvings((hi_n * lo_d - lo_n * hi_d) * bwd, hi_d * lo_d * bwn)
        # x = K - c over [pn/pd, qn/qd]: Nk*dx/ek - c/2 at th, at tl
        pn, pd = cd2 * Nk * dxl - cn * ekl, cd2 * ekl
        if pn <= 0:
            return None  # K may still lie beyond C: narrow until it is decided
        qn, qd = cd2 * Nk * dxh - cn * ekh, cd2 * ekh
        # MA, with M = (0, K * a / x); K > c > 0 and a > 0, so the quotient
        # pairs each end of K * a with the far end of x: [a(c - w)/q,
        # a(c + w)/p], c and w over cd*pd*qd
        cw, wc = cn * pd * qd, (qn * pd - pn * qd) * cd
        return (pn, pd, qn, qd), (an * (cw - wc), acd * pd * qn, an * (cw + wc), acd * qd * pn)

    return evaluate


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
    with t in [0, 1], from the base line's direction (t = 0) to the
    vertical (t = 1), and bisection with no step budget narrows that
    range on the exact sign of |cut|**2 - L**2 (L = AB/2), which builds
    no point (see ``_intercept_defect``).  Over it K runs from infinity
    down to (c/2, 0), and with x = CK the cut is x/(2c + x) * |ZK|, with
    |ZK|**2 = x**2 + cx + a**2/4; so (2c + x)**2 times the defect is
    (x + c)(x**3 - a**2 c), and the range holds one root, the one beyond
    C.  Both cut denominators are nonzero for t > 0; at t = 0 the line
    is parallel to the base line and the cut is unbounded (sign +1), and
    at t = 1 it is a third of Z's depth below the base line, less than
    a/2 (sign -1).  ``_neusis_means`` reads a bracket's means off the
    interval expressions of the cut, computed on integers, once the cut
    lies within 10**-(d + 4) * max(1, L) of L (d the decimal digits of
    the width target) and K lies beyond C; the kernel judges their
    widths as it does every route's.  Its refusals are monotone along
    nested brackets, so the kernel reads only O(log n) of a chain's n
    brackets (see ``_bisect``).  The figure (see ``_neusis_figure``) is
    built on integers and takes Z's depth z from two integer square
    roots.

    The root is t = z/(|ZK| + c/2 + x), the half-angle tangent of Z -> K,
    estimated at the true x = cbrt(a**2 c).  The rounded z moves the
    figure's root by about a*dz/(3x), which can carry the means off the
    true ones at ratios near 1e34; the result is checked to enclose both
    on integers, and PrecisionError names the cause."""
    a = prob.ab
    if a == prob.bc:
        return _trivial(NICOMEDES, prob)
    cuts, band = _neusis_figure(prob)
    A, C, D = prob._lines
    A2C, D3, (_, (vx_k, _, n_k)) = A * A * C, D ** 3, cuts

    def floor_root(M: int) -> int:
        S = M << 8  # x + c/2, z and |ZK| over S
        h = int_nth_root_floor(A2C * S ** 3 // D3, 3) + C * S // (2 * D)
        z = -n_k * S // vx_k
        # h = z = 0 at shallow levels on tiny lines: estimate 0 and gallop
        return z * M // (math.isqrt(h * h + z * z) + h or 1)

    x, y = _bisect(
        _intercept_defect(cuts, a / 2), Fraction(0), Fraction(1), floor_root,
        _neusis_means(prob, cuts, band), prob.width_target,
    )
    if not (_cube_encloses(x, A2C, D3) and _cube_encloses(y, A * C * C, D3)):
        raise PrecisionError("the rounded pole depth moves the neusis off the means")
    return MeanPropResult(NICOMEDES, x, y, prob)


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
    edge, ratio = _to_rational(edge), _to_rational(ratio)
    if edge <= 0 or ratio <= 0:
        raise ValueError("edge and ratio must be positive")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if ratio == 1:
        return Interval.point(edge)
    prob = MeanPropProblem(ab=ratio * edge, bc=edge, tol=tol)
    res = METHODS[method](prob)
    return res.x if prob.swapped else res.y

