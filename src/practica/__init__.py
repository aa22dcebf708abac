"""Exact-arithmetic reconstructions of classical geometry algorithms.

Everything here runs on rationals: results that would be irrational are
returned as `Interval` enclosures whose endpoints are exact fractions,
so any claimed bound is a theorem about integers rather than a float
artifact.  The four corners of the library are triangle areas from side
lengths, polygon-doubling bounds on the circle ratio, two mean
proportionals by four classical constructions, and digit-by-digit root
extraction with full working traces.
"""

from .circle_measurement import (
    ExhaustionStep,
    PiBounds,
    PolygonBounds,
    RatioVerdict,
    archimedes_window,
    circle_area_bounds,
    double_polygon,
    exhaustion_report,
    fibonacci_identity_check,
    pi_bounds,
    polygon_seed,
    prop2_ratio_check,
)
from .geometry import Point2, PointBounds, dist_sq, orient
from .heron import (
    HeronIdentityReport,
    TriangleSides,
    TriangleVertices,
    heron_area_bounds,
    heron_area_sq_from_vertices,
    heron_product,
    verify_heron_identity,
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
    cissoid_arc_defect,
    cissoid_points,
    conchoid_points,
    conchoid_quartic_residual,
    scale_solid_ratio,
    solve_diocles,
    solve_heron_apollonius,
    solve_nicomedes,
    solve_philo,
)
from .numerics import (
    DEFAULT_PRECISION,
    Interval,
    Precision,
    PrecisionError,
    int_nth_root_floor,
    rat_sqrt_bounds,
)
from .root_extraction import (
    FULL,
    SIMPLIFIED,
    RootExtraction,
    SpecialNumbers,
    TraceStep,
    extract_root,
    group_points,
    render_trace,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRECISION",
    "DEFAULT_TOL",
    "DIOCLES",
    "FULL",
    "HERON_APOLLONIUS",
    "METHODS",
    "NICOMEDES",
    "PHILO",
    "SIMPLIFIED",
    "BracketNotFoundError",
    "ExhaustionStep",
    "HeronIdentityReport",
    "Interval",
    "MeanPropProblem",
    "MeanPropResult",
    "PiBounds",
    "Point2",
    "PointBounds",
    "PolygonBounds",
    "Precision",
    "PrecisionError",
    "RatioVerdict",
    "RootExtraction",
    "SpecialNumbers",
    "TraceStep",
    "TriangleSides",
    "TriangleVertices",
    "archimedes_window",
    "circle_area_bounds",
    "cissoid_arc_defect",
    "cissoid_points",
    "conchoid_points",
    "conchoid_quartic_residual",
    "dist_sq",
    "double_polygon",
    "exhaustion_report",
    "extract_root",
    "fibonacci_identity_check",
    "group_points",
    "heron_area_bounds",
    "heron_area_sq_from_vertices",
    "heron_product",
    "int_nth_root_floor",
    "orient",
    "pi_bounds",
    "polygon_seed",
    "prop2_ratio_check",
    "rat_sqrt_bounds",
    "render_trace",
    "scale_solid_ratio",
    "solve_diocles",
    "solve_heron_apollonius",
    "solve_nicomedes",
    "solve_philo",
    "verify_heron_identity",
]
