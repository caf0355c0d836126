"""Multiscale geometry of discrete measures.

Beta numbers over dyadic cubes and their density-weighted variants, Jones
square functions at atoms, multiscale nets with per-vertex line fits, a
traveling-salesman style curve construction with edge/bridge/phantom
bookkeeping and a length certificate, and tree-based pipelines that draw
curves through mass-carrying cube trees and label atoms as carried by
rectifiable curves or not.

Public names resolve on first use (PEP 562): importing `mrt` or one of its
modules loads only the layers that are asked for.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: module -> the public names it defines
_MODULES = {
    "beta": ("VARIANTS", "BetaCache", "BetaValue", "beta_best", "beta_fixed_line", "beta_multi",
             "beta_sup_set"),
    "curve": ("BridgeRecord", "CurveResult", "PhantomLedger", "Segment", "construct_curve",
              "curve_length", "length_certificate", "verify_connected"),
    "dyadic": ("Box", "CubeTree", "DyadicCube", "cube_at"),
    "errors": ("AlphaRecheckError", "CertificateError", "DegenerateRegion", "DimensionMismatch",
               "EmptyInput", "ForwardProximityError", "InputFormatError", "InvalidWeight", "MrtError",
               "NetValidationError", "ScaleOverflow", "TreeStructureError", "ZeroMassRegion",
               "ZeroMassTriple"),
    "geometry": ("Line", "fit_line"),
    "jones": ("JONES_VARIANTS", "jones_at", "square_sum"),
    "measure": ("DiscreteMeasure",),
    "nets": ("AlphaAssignment", "NetSequence", "fit_alphas", "nets_from_points", "nets_from_tree",
             "validate_nets"),
    "rectify": ("DrawResult", "decompose_estimate", "draw_through_tree", "grow_tree", "localize"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
