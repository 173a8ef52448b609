"""billiardflow: periodic orbits of symmetric convex planar billiards.

The package finds, verifies and renders periodic billiard trajectories on
dihedrally symmetric strictly convex tables.  Orbits are represented by
monotone periodic lifts; critical points of the total chord length are located
by an adaptive gradient flow restricted to affine symmetry classes, and
closed-form curvature/chord criteria predict when the flow produces orbits
that are not well-ordered (not Birkhoff).
"""

from .geometry import (
    Boundary,
    check_equivariance,
    convexity_margin,
    curvature_at,
    limacon_convexity_threshold,
    make_boundary,
    make_circle,
    make_ellipse,
    make_limacon,
    reparametrize_constant_speed,
)
from .lagrangian import (
    SecondPartials,
    chord_length,
    force_minus,
    force_plus,
    gradient_field,
    periodic_action,
    second_partials,
)
from .sequences import (
    AffineSystem,
    GroupDescription,
    PeriodicLift,
    SymmetryGenerator,
    SymmetrySpec,
    aubry_vertices,
    expand_constraints,
    geometrically_equal,
    intersection_index,
    is_birkhoff,
    load_lift,
    minimal_period,
    repeat_lift,
    save_lift,
    spatiotemporal_group,
    symmetric_birkhoff,
)
from .flow import FlowOptions, FlowResult, comparison_check, integrate
from .spectral import (
    BirkhoffCoefficients,
    CriterionReport,
    birkhoff_coefficients,
    criterion,
    hessian,
    kappa_chord,
    subgroup_mode_parameters,
)
from .finder import (
    CriterionInconclusive,
    OrbitReport,
    SearchRequest,
    find_orbit,
    initial_perturbation,
    sweep,
)
from .render import RenderSpec, render_aubry_diagram, render_orbit_figure

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
