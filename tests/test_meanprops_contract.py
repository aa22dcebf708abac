"""The contract every mean-proportional route meets, on the public API only.

Whatever kernel solves a problem, each route returns intervals that
enclose both true means exactly (checked by cubes on integers), no wider
than the problem's public ``width_target``, with both residuals
containing 0; ``swapped`` reads the means in the caller's order; equal
lines give the point shortcut.  The one accepted failure is nicomedes'
documented refusal when its rounded pole depth moves the figure's root.
"""

from fractions import Fraction

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from practica import (
    DIOCLES,
    HERON_APOLLONIUS,
    NICOMEDES,
    PHILO,
    MeanPropProblem,
    PrecisionError,
    scale_solid_ratio,
    solve_diocles,
    solve_heron_apollonius,
    solve_nicomedes,
    solve_philo,
)

#: Every route by name, the apollonius variant included, with the
#: ``scale_solid_ratio`` method that reads the same solver (None: none does).
_ROUTES = {
    "heron": (solve_heron_apollonius, HERON_APOLLONIUS),
    "apollonius": (lambda prob: solve_heron_apollonius(prob, variant="apollonius"), None),
    "philo": (solve_philo, PHILO),
    "diocles": (solve_diocles, DIOCLES),
    "nicomedes": (solve_nicomedes, NICOMEDES),
}

#: The documented nicomedes refusal, the only failure the contract accepts.
_POLE_REFUSAL = "the rounded pole depth moves the neusis off the means"

#: Lines with large denominators, from 1/1000 to 1000.
_lines = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=10 ** 30)

#: Ratios ab/bc in [1, 1e30]: equal lines, 1 + 10**-k up to 1 + 1e-15,
#: ratios up to 1e4 with large denominators, and every decade up to 1e30.
_ratios = st.one_of(
    st.just(Fraction(1)),
    st.integers(min_value=1, max_value=15).map(lambda k: 1 + Fraction(1, 10 ** k)),
    st.fractions(min_value=1, max_value=10 ** 4, max_denominator=10 ** 20),
    st.builds(
        lambda m, k: m * 10 ** k,
        st.fractions(min_value=1, max_value=10, max_denominator=10 ** 12),
        st.integers(min_value=0, max_value=29),
    ),
)

#: tol from 1/2 down to 9e-61; the deep end is in the examples.
_tols = st.builds(
    lambda m, k: Fraction(m, 10 ** k),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=60),
).filter(lambda tol: tol <= Fraction(1, 2))


def _encloses_cube(iv, cube):
    """Whether iv.lo**3 <= cube <= iv.hi**3."""
    return iv.lo ** 3 <= cube <= iv.hi ** 3


@given(_lines, _ratios, st.booleans(), _tols)
@example(Fraction(1), Fraction(2), True, Fraction(1, 10 ** 600))
@example(Fraction(5, 11), Fraction(77, 15), False, Fraction(1, 10 ** 160))
@example(Fraction(1), 1 + Fraction(1, 10 ** 15), True, Fraction(1, 10 ** 300))
@example(Fraction(1), Fraction(10 ** 30), False, Fraction(1, 10 ** 200))
@example(Fraction(10 ** 29 + 7, 3 ** 61), Fraction(355, 113), True, Fraction(1, 10 ** 400))
@example(Fraction(7, 10 ** 25 + 3), Fraction(1), False, Fraction(1, 2))
@example(Fraction(1), Fraction(10 ** 24), True, Fraction(1, 10))  # nicomedes refuses
@settings(max_examples=300, deadline=None)
def test_every_route_meets_the_contract(bc, ratio, swap, tol):
    ab = bc * ratio
    first, second = (bc, ab) if swap else (ab, bc)  # the caller's order
    prob = MeanPropProblem(first, second, tol)
    assert prob.swapped == (first < second)
    a, c = prob.ab, prob.bc
    assert (a, c) == (max(first, second), min(first, second))
    target = prob.width_target
    for route, (solve, method) in _ROUTES.items():
        try:
            res = solve(prob)
        except PrecisionError as exc:
            assert route == "nicomedes" and str(exc) == _POLE_REFUSAL, (route, exc)
            event("nicomedes refused: the rounded pole depth")
            continue
        assert res.problem is prob, route
        if a == c:  # the point shortcut
            for iv in (res.x, res.y, res.residual1, res.residual2):
                assert iv.lo == iv.hi, route
            assert (res.x.lo, res.y.lo, res.residual1.lo, res.residual2.lo) == (a, a, 0, 0), route
            continue
        # both means, exactly: a : x :: x : y :: y : c
        assert _encloses_cube(res.x, a * a * c) and _encloses_cube(res.y, a * c * c), route
        assert res.x.width <= target and res.y.width <= target, route
        assert res.residual1.contains(0) and res.residual2.contains(0), route
        # read in the caller's order, the mean next to ``first`` comes first
        near, far = (res.y, res.x) if prob.swapped else (res.x, res.y)
        assert _encloses_cube(near, first * first * second), route
        assert _encloses_cube(far, first * second * second), route
        if method is not None:
            # the edge bc scaled in volume by ab/bc is the mean next to bc
            edge = scale_solid_ratio(second, first / second, method=method, tol=tol)
            assert _encloses_cube(edge, first * second * second), route
