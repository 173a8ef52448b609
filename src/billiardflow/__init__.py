"""billiardflow: periodic orbits of symmetric convex planar billiards.

The package finds, verifies and renders periodic billiard trajectories on
dihedrally symmetric strictly convex tables.  Orbits are represented by
monotone periodic lifts; critical points of the total chord length are located
by pseudo-transient continuation of the gradient flow restricted to affine
symmetry classes, and closed-form curvature/chord criteria predict when the
search produces orbits that are not well-ordered (not Birkhoff).
"""

from .geometry import (
    Boundary,
    check_equivariance,
    convexity_margin,
    curvature_at,
    make_boundary,
    make_circle,
    make_ellipse,
    make_limacon,
    reparametrize_constant_speed,
)
from .lagrangian import (
    chord_length,
    gradient_field,
    hessian,
    periodic_action,
)
from .sequences import (
    AffineSystem,
    GroupDescription,
    PeriodicLift,
    SymmetryGenerator,
    aubry_vertices,
    expand_constraints,
    intersection_index,
    is_birkhoff,
    load_lift,
    minimal_period,
    repeat_lift,
    spatiotemporal_group,
    symmetric_birkhoff,
)
from .flow import FlowResult, integrate
from .spectral import (
    CriterionReport,
    SearchClass,
    criterion,
    kappa_chord,
    search_class,
)
from .finder import (
    CriterionInconclusive,
    OrbitReport,
    SearchRequest,
    find_orbit,
    sweep,
)
from .render import render_aubry_diagram, render_orbit_figure

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
