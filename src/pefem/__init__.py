"""High-order finite elements on polygonal approximations of curved domains.

Boundary conditions posed on the true curved boundary are enforced by
evaluating each boundary element's polynomial beyond the mesh, at closest
points on the curve, which restores optimal convergence for degrees k >= 2.
"""

from .analysis import (
    ConvergenceReport,
    LevelResult,
    error_norms,
    fit_rate,
    patch_test,
    solve,
)
from .errors import (
    AssemblyError,
    ConfigurationError,
    DegenerateGradientError,
    PefemError,
    ProjectionError,
    SingularElementError,
    SingularSystemError,
    SolverError,
)
from .fem import (
    FeSpace,
    ReferenceElement,
    assemble_load,
    assemble_operator,
    eval_fe,
    reference_element,
    segment_quadrature,
    triangle_quadrature,
)
from .forms import (
    DEFAULT_C_THETA,
    LinearSystem,
    ProblemSpec,
    assemble_pefem_dirichlet,
    assemble_pefem_dirichlet_strong,
    assemble_pefem_neumann,
    assemble_standard_dirichlet,
    assemble_tau_neumann,
    verify_problem_consistency,
)
from .geometry import (
    BoundaryComponent,
    BoundaryGeometry,
    circle_component,
    disk_geometry,
    ellipse_geometry,
    geometric_gap,
    square_component,
    square_geometry,
    square_hole_geometry,
)
from .mesh import (
    Mesh,
    ValidationReport,
    generate_disk_mesh,
    generate_ellipse_mesh,
    generate_square_hole_mesh,
    generate_square_mesh,
    validate,
)
from .problems import (
    Poly2D,
    cosine_problem,
    polynomial_problem,
    preset_problem,
    rational_problem,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "BoundaryComponent",
    "BoundaryGeometry",
    "ConfigurationError",
    "ConvergenceReport",
    "DEFAULT_C_THETA",
    "DegenerateGradientError",
    "FeSpace",
    "LevelResult",
    "LinearSystem",
    "Mesh",
    "PefemError",
    "Poly2D",
    "ProblemSpec",
    "ProjectionError",
    "ReferenceElement",
    "SingularElementError",
    "SingularSystemError",
    "SolverError",
    "ValidationReport",
    "assemble_load",
    "assemble_operator",
    "assemble_pefem_dirichlet",
    "assemble_pefem_dirichlet_strong",
    "assemble_pefem_neumann",
    "assemble_standard_dirichlet",
    "assemble_tau_neumann",
    "circle_component",
    "cosine_problem",
    "disk_geometry",
    "ellipse_geometry",
    "error_norms",
    "eval_fe",
    "fit_rate",
    "generate_disk_mesh",
    "generate_ellipse_mesh",
    "generate_square_hole_mesh",
    "generate_square_mesh",
    "geometric_gap",
    "patch_test",
    "polynomial_problem",
    "preset_problem",
    "rational_problem",
    "reference_element",
    "segment_quadrature",
    "solve",
    "square_component",
    "square_geometry",
    "square_hole_geometry",
    "triangle_quadrature",
    "validate",
    "verify_problem_consistency",
]
