"""Symmetrization toolkit for Robin boundary problems on weighted surfaces.

The package solves -div(grad u) = f with the boundary condition
du/dN + beta*u = 0 on meshed two-dimensional domains (flat, warped, or
spherical charts), builds the matched radially symmetric comparison problem
on a geodesic ball of equal weighted measure, and verifies sharp comparison
inequalities between the two: Lorentz-norm bounds on the rearranged
solution, pointwise domination, torsional rigidity, and the first Robin
eigenvalue.

Layout:

- :mod:`~robinsym.model_geometry` -- model spaces of curvature 0 or 1 with a
  conical weight, volume/area profiles and the isoperimetric profile.
- :mod:`~robinsym.mesh` -- triangulated domains carrying a vertex measure
  density, generation, refinement, and JSON persistence.
- :mod:`~robinsym.fem` -- P1 finite elements for the Robin Poisson and
  eigenvalue problems.
- :mod:`~robinsym.radial` -- the symmetrized ODE problems on a geodesic
  ball: the radial twin of a Poisson problem and the Robin ground state.
- :mod:`~robinsym.rearrange` -- exact piecewise-quadratic distribution
  functions of P1 fields, decreasing and Schwarz rearrangements, Lorentz
  norms.
- :mod:`~robinsym.verify` -- the comparison checks, each returning a
  :class:`~robinsym.verify.ComparisonReport`.
- :mod:`~robinsym.cli` -- the ``robinsym`` command line: configured
  experiment runs, check listing, mesh generation and validation.
"""

from .model_geometry import (
    DomainRangeError,
    GeodesicBall,
    ModelSpace,
    isoperimetric_profile,
    profile_convexity_margin,
    radius_for_volume,
    sphere_area,
    unit_ball_volume,
    volume_profile,
)
from .mesh import (
    DegenerateGeometryError,
    MeasuredMesh,
    MeshFormatError,
    MeshInvariantError,
    ScalarField,
    generate_domain,
    load_mesh,
    refine,
    save_mesh,
    warped_profile,
)
from .fem import (
    EigenSignError,
    RobinProblem,
    SingularGeometryError,
    SingularSystemError,
    SolverConvergenceError,
    load_field,
    save_field,
    solve_robin_eigen,
    solve_robin_poisson,
)
from .radial import (
    RadialProfile,
    solve_radial_eigen,
    solve_symmetrized_poisson,
)
from .rearrange import (
    DistributionData,
    LorentzParams,
    decreasing_rearrangement,
    distribution_function,
    hardy_littlewood_check,
    lorentz_norm,
    schwarz_rearrangement,
)
from .verify import (
    AdmissibilityError,
    ComparisonReport,
    HypothesisRangeError,
    MatchMismatchError,
    SolveRecord,
    bossel_functional,
    check_bossel_daners,
    check_isoperimetric,
    check_lemma_31,
    check_lemma_32,
    check_measure_bound,
    check_min_comparison,
    check_profile_monotonicity,
    check_saint_venant,
    check_theorem_main1,
    check_theorem_main2,
    eigen_test_field,
    reports_to_csv,
    reports_to_jsonl,
    solve_level,
    solve_record,
    solve_records,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "ComparisonReport",
    "DegenerateGeometryError",
    "DistributionData",
    "DomainRangeError",
    "EigenSignError",
    "GeodesicBall",
    "HypothesisRangeError",
    "LorentzParams",
    "MatchMismatchError",
    "MeasuredMesh",
    "MeshFormatError",
    "MeshInvariantError",
    "ModelSpace",
    "RadialProfile",
    "RobinProblem",
    "ScalarField",
    "SingularGeometryError",
    "SingularSystemError",
    "SolveRecord",
    "SolverConvergenceError",
    "bossel_functional",
    "check_bossel_daners",
    "check_isoperimetric",
    "check_lemma_31",
    "check_lemma_32",
    "check_measure_bound",
    "check_min_comparison",
    "check_profile_monotonicity",
    "check_saint_venant",
    "check_theorem_main1",
    "check_theorem_main2",
    "decreasing_rearrangement",
    "distribution_function",
    "eigen_test_field",
    "generate_domain",
    "hardy_littlewood_check",
    "isoperimetric_profile",
    "load_field",
    "load_mesh",
    "lorentz_norm",
    "profile_convexity_margin",
    "radius_for_volume",
    "refine",
    "reports_to_csv",
    "reports_to_jsonl",
    "save_field",
    "save_mesh",
    "schwarz_rearrangement",
    "solve_level",
    "solve_radial_eigen",
    "solve_record",
    "solve_records",
    "solve_robin_eigen",
    "solve_robin_poisson",
    "solve_symmetrized_poisson",
    "sphere_area",
    "unit_ball_volume",
    "volume_profile",
    "warped_profile",
]
