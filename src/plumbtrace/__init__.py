"""Exact holonomy trace polynomials of curves on plumbed surfaces.

Given a pants decomposition and the Dehn-Thurston coordinates of a simple
closed curve, this package reconstructs the curve, compiles its holonomy
word under the plumbing construction, evaluates the word exactly over
Gaussian-integer polynomials in the gluing parameters, and verifies the
closed-form description of the polynomial's two top graded orders.
"""

from .dtcoords import (
    ArcCounts,
    CoordError,
    DTCoords,
    NegativeTwistOnZeroLength,
    ParityViolation,
    arc_counts,
    window_twists,
    validate,
)
from .gausspoly import GaussPoly, Mat2
from .holonomy import (
    annulus_from_gluing_parameter,
    evaluate_word,
    gluing_parameter_from_annulus,
    trace_of_curve,
)
from .standardpos import (
    Component,
    Word,
    extract_components,
    layout_endpoints,
    match_strands,
    scc_count,
)
from .surface import (
    Gluing,
    InputError,
    PantsDecomposition,
    SurfaceError,
    build_surface,
    load_surface,
    parse_surface,
)
from .verifier import TopTermReport, verify

__version__ = "0.1.0"

__all__ = [
    "ArcCounts",
    "Component",
    "CoordError",
    "DTCoords",
    "GaussPoly",
    "Gluing",
    "InputError",
    "Mat2",
    "NegativeTwistOnZeroLength",
    "PantsDecomposition",
    "ParityViolation",
    "SurfaceError",
    "TopTermReport",
    "Word",
    "annulus_from_gluing_parameter",
    "arc_counts",
    "build_surface",
    "window_twists",
    "evaluate_word",
    "extract_components",
    "gluing_parameter_from_annulus",
    "layout_endpoints",
    "load_surface",
    "match_strands",
    "parse_surface",
    "scc_count",
    "trace_of_curve",
    "validate",
    "verify",
]
