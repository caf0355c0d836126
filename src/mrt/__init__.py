"""Multiscale geometry of discrete measures.

Beta numbers over dyadic cubes and their density-weighted variants, Jones
square functions at atoms, multiscale nets with per-vertex line fits, a
traveling-salesman style curve construction with edge/bridge/phantom
bookkeeping and a length certificate, and tree-based pipelines that draw
curves through mass-carrying cube trees and label atoms as carried by
rectifiable curves or not.
"""

from .beta import VARIANTS, BetaCache, BetaValue, beta_best, beta_fixed_line, beta_multi, beta_sup_set
from .curve import (
    BridgeRecord,
    CertificateReport,
    CurveGraph,
    CurveResult,
    PhantomLedger,
    Segment,
    construct_curve,
    curve_length,
    length_certificate,
    verify_connected,
)
from .dyadic import Box, CubeTree, DyadicCube, chain_of_cubes, cube_at, nearby_cubes, nearby_count
from .errors import (
    AlphaRecheckError,
    CertificateError,
    DegenerateRegion,
    DimensionMismatch,
    EmptyInput,
    ForwardProximityError,
    InputFormatError,
    InvalidWeight,
    MrtError,
    NetValidationError,
    OrderingError,
    TreeStructureError,
    ZeroMassRegion,
    ZeroMassTriple,
)
from .geometry import Line, dist_to_line, fit_line
from .jones import JONES_VARIANTS, JonesReport, SquareSumReport, default_kmax, jones_at, square_sum
from .measure import Ball, DiscreteMeasure
from .nets import (
    AlphaAssignment,
    NetSequence,
    fit_alphas,
    nets_from_points,
    nets_from_tree,
    validate_nets,
)
from .rectify import (
    DecompositionReport,
    DrawResult,
    GrowResult,
    LocalizationResult,
    cover_support,
    decompose_estimate,
    draw_through_tree,
    grow_tree,
    localize,
)

__version__ = "0.1.0"

__all__ = [
    "VARIANTS",
    "JONES_VARIANTS",
    "BetaCache",
    "BetaValue",
    "beta_best",
    "beta_fixed_line",
    "beta_multi",
    "beta_sup_set",
    "BridgeRecord",
    "CertificateReport",
    "CurveGraph",
    "CurveResult",
    "PhantomLedger",
    "Segment",
    "construct_curve",
    "curve_length",
    "length_certificate",
    "verify_connected",
    "Box",
    "CubeTree",
    "DyadicCube",
    "chain_of_cubes",
    "cube_at",
    "nearby_cubes",
    "nearby_count",
    "AlphaRecheckError",
    "CertificateError",
    "DegenerateRegion",
    "DimensionMismatch",
    "EmptyInput",
    "ForwardProximityError",
    "InputFormatError",
    "InvalidWeight",
    "MrtError",
    "NetValidationError",
    "OrderingError",
    "TreeStructureError",
    "ZeroMassRegion",
    "ZeroMassTriple",
    "Line",
    "dist_to_line",
    "fit_line",
    "JonesReport",
    "SquareSumReport",
    "default_kmax",
    "jones_at",
    "square_sum",
    "Ball",
    "DiscreteMeasure",
    "AlphaAssignment",
    "NetSequence",
    "fit_alphas",
    "nets_from_points",
    "nets_from_tree",
    "validate_nets",
    "DecompositionReport",
    "DrawResult",
    "GrowResult",
    "LocalizationResult",
    "cover_support",
    "decompose_estimate",
    "draw_through_tree",
    "grow_tree",
    "localize",
    "__version__",
]
