"""Exact combinatorics of torsion pairs in cluster tubes.

Torsion pairs in the rank-n cluster tube are classified by n-periodic
Ptolemy diagrams of the ∞-gon whose arcs have length at most n.  This
package implements that arc model, the wing/polygon structure theory and
the pointed-cycle bijection, three independent enumeration routes (brute
force, the cut/wing grammar, and closed formulas / generating functions),
exact cyclic sieving verification at roots of unity, and a static SVG
renderer -- everything in exact integer arithmetic.
"""

from .arcs import (
    Arc,
    PeriodicDiagram,
    cross,
    ext1_dim,
    is_ptolemy,
    is_rigid,
    nc_contains,
    nc_enumerate,
    normalize_orbit,
    orbits_cross,
)
from .config import CapExceeded
from .counting import (
    asymptotic_check,
    growth_amplitude,
    growth_rate,
    real_root,
    refined_table,
    torsion_count,
    torsion_count_refined,
)
from .polygons import (
    Cell,
    CellKind,
    DEGENERATE,
    MixedFaceError,
    PolygonDiagram,
    cells,
    decompose_base,
    compose_base,
    enumerate_polygon,
    is_ptolemy_polygon,
    polygon_diagrams,
    statistics_polygon,
)
from .qpolys import QPoly, cyclotomic, eval_at_primitive_root, qbinomial, qmultinomial
from .series import Poly3, PowerSeries, series_P, series_torsion
from .sieving import SieveRecord, csp_verify, q_torsion_count_refined
from .torsion import (
    PointedCycle,
    TorsionPair,
    WingDecomposition,
    compose,
    count_structured,
    decompose,
    enumerate_brute,
    enumerate_structured,
    fixed_histograms,
    from_pointed_cycle,
    is_finite_half,
    iter_orbits_json,
    iter_structured,
    orbit_count,
    orbit_count_direct,
    orbit_count_refined,
    perp_contains,
    perp_enumerate,
    statistics,
    to_pointed_cycle,
)

__version__ = "0.1.0"
