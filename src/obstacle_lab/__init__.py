"""Numerical laboratory for the obstacle problem on structured grids.

Solves Delta u = chi{u > 0} with u >= 0 by monotone multigrid or projected
SOR and measures free-boundary geometry near singular points: blow-up
classification, weighted two-phase monotonicity functionals, cross-section
diameters, direction fields, and reference ellipsoids.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateDirectionError,
    DegenerateFitError,
    FitFailedError,
    InconclusiveError,
    InsufficientDataError,
    NoBalancedScaleError,
    NonFiniteFieldError,
    ObstacleLabError,
    OutOfDomainError,
    ResolutionError,
    ScenarioError,
    SnapshotFormatError,
    UndefinedDistanceError,
)
from .grid import (
    GridSpec,
    Mask,
    ScalarField,
    box_grid,
    gradient_field,
    interpolate_gradient,
    interpolate_many,
    read_snapshot,
    sample,
    unit_ball_volume,
    write_snapshot,
)
from .solver import (
    LcpResidual,
    ObstacleProblem,
    SolveOptions,
    SolveResult,
    discrete_energy,
    lcp_residual,
    optimal_relax,
    solve_psor,
)
from .scenarios import Scenario, make_scenario
from .analysis import (
    AcfReport,
    BlowupPolynomial,
    FitWindow,
    HalfSpaceModel,
    PointClassification,
    acf,
    acf_monotonicity,
    classify_point,
    find_balanced_rescaling,
    fit_halfspace,
    fit_quadratic,
    fit_window,
    quadratic_model,
    reference_ellipsoid,
    refine_boundary_point,
    rescale,
)
from .geometry import (
    CrossSection,
    CrossSectionReport,
    DiameterProfile,
    Ellipsoid,
    coincidence_mask,
    cross_section,
    cross_section_convergence,
    default_eps_u,
    diameter,
    diameter_asymptotics,
    fit_ellipsoid,
    free_boundary,
    hausdorff,
    nu_direction,
    osc_nu,
)
