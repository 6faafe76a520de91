"""Local-time and occupation-time statistics of the upward-biased
nearest-neighbor random walk on the integers.

The package provides closed-form distributions of visit counts
(closedform), their rational generating functions (genfunc), the
admissible joint-growth region and its boundary (boundary), exact
finite-horizon oracles by enumeration and dynamic programming (oracle),
a deterministic parallel Monte Carlo engine (montecarlo), a built-in
cross-validation suite (verify) and a command-line interface (cli).
"""

__version__ = "0.1.0"

from .boundary import (
    BoundaryPoint,
    RegionD,
    WeightLimit,
    boundary_polyline,
    boundary_solve,
    classify_point,
    extremal_points,
    g,
    in_region,
    region,
    weight_limit,
)
from .closedform import (
    ExcursionLaw,
    PmfTable,
    ball_occupation_pmf,
    center_sphere_joint_pmf,
    excursion_law,
    excursion_mean_visits,
    excursion_visits_pmf,
    first_return_pmf,
    gambler_ruin,
    green,
    hitting_prob,
    joint_transform,
    joint_transform_radius,
    local_time_pmf,
    return_tail,
    sphere_occupation_pmf,
    two_point_bases,
    two_point_occupation_pmf,
)
from .errors import BudgetError, DomainError, ValidationError
from .genfunc import RationalGF, ball_gf, series_coeffs, two_point_gf
from .model import (
    Constants,
    WalkParams,
    ball_weight_rate,
    derived_constants,
    make_params,
)
from .montecarlo import (
    EnsembleReport,
    HeavyPointConfig,
    LocalTimeField,
    PathReport,
    SimConfig,
    ensemble,
    path_report,
    simulate_path,
)
from .oracle import (
    Functional,
    JointLaw,
    dp_law,
    enumerate_paths,
    escape_certificate,
    infinite_law,
    local_time,
    set_occupation,
)
from .verify import CriterionResult, run_suite

__all__ = [
    "__version__",
    # model
    "WalkParams", "Constants", "make_params", "derived_constants",
    "ball_weight_rate",
    # errors
    "ValidationError", "DomainError", "BudgetError",
    # closed forms
    "PmfTable", "ExcursionLaw", "first_return_pmf", "return_tail",
    "hitting_prob", "green", "local_time_pmf", "gambler_ruin",
    "excursion_law", "excursion_mean_visits", "excursion_visits_pmf",
    "joint_transform", "joint_transform_radius",
    "two_point_bases", "two_point_occupation_pmf", "center_sphere_joint_pmf",
    "sphere_occupation_pmf", "ball_occupation_pmf",
    # generating functions
    "RationalGF", "series_coeffs", "two_point_gf", "ball_gf",
    # boundary
    "BoundaryPoint", "RegionD", "WeightLimit", "g", "region",
    "boundary_solve", "extremal_points", "classify_point", "in_region",
    "weight_limit", "boundary_polyline",
    # oracle
    "Functional", "JointLaw", "local_time", "set_occupation",
    "enumerate_paths", "dp_law", "escape_certificate", "infinite_law",
    # montecarlo
    "SimConfig", "HeavyPointConfig", "LocalTimeField", "PathReport",
    "EnsembleReport", "simulate_path", "path_report", "ensemble",
    # verify
    "CriterionResult", "run_suite",
]
