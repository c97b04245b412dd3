"""Exact combinatorics of torsion pairs in cluster tubes.

Torsion pairs in the rank-n cluster tube are classified by n-periodic
Ptolemy diagrams of the ∞-gon whose arcs have length at most n.  This
package implements that arc model, the wing/polygon structure theory and
the pointed-cycle bijection, three independent enumeration routes (brute
force, the cut/wing grammar, and closed formulas / generating functions),
exact cyclic sieving verification at roots of unity, and a static SVG
renderer -- everything in exact integer arithmetic.

``import clustertubes`` loads no submodule.  Each public name (``__all__``) is
imported from its home submodule on first access (PEP 562), so a command or
script pays only for the modules it uses.
"""

import importlib

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "arcs": (
        "Arc", "PeriodicDiagram", "cross", "ext1_dim", "is_ptolemy", "is_rigid",
        "nc_contains", "nc_enumerate", "normalize_orbit", "orbits_cross",
    ),
    "asymptotics": ("asymptotic_check", "growth_amplitude", "growth_rate", "real_root"),
    "config": ("CapExceeded",),
    "counting": ("refined_table", "torsion_count", "torsion_count_refined"),
    "pieces": (
        "Cell", "cells", "compose_base", "decompose_base", "enumerate_polygon",
        "is_ptolemy_polygon", "random_polygon",
    ),
    "polygons": (
        "CellKind", "DEGENERATE", "MixedFaceError", "PolygonDiagram", "polygon_diagrams",
        "statistics_polygon",
    ),
    "qpolys": ("QPoly", "cyclotomic", "eval_at_primitive_root", "qbinomial", "qmultinomial"),
    "records": ("iter_orbits_json",),
    "series": ("Poly3", "PowerSeries", "series_P", "series_torsion"),
    "sieving": (
        "SieveRecord", "csp_verify", "fixed_histograms", "orbit_count", "orbit_count_direct",
        "orbit_count_refined", "q_torsion_count_refined",
    ),
    "torsion": (
        "PointedCycle", "TorsionPair", "WingDecomposition", "compose", "count_structured",
        "decompose", "enumerate_brute", "enumerate_structured", "from_pointed_cycle",
        "is_finite_half", "iter_structured", "perp_contains", "perp_enumerate",
        "statistics", "to_pointed_cycle",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
