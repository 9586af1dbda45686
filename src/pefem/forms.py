"""Assembly of the extension-based boundary formulations.

Boundary conditions prescribed on the true curved boundary are enforced by
extrapolating each boundary element's polynomial from the polygonal edge to
the curved boundary: Dirichlet data is matched there (weakly via scaled
constraint rows, or strongly at boundary nodes), and the Neumann flux is
corrected by the difference between the extended flux on the true boundary
and the discrete flux on the polygonal one.  A classical nodal-interpolation
variant is included as the suboptimal baseline.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sparse

from .errors import AssemblyError, ConfigurationError
from .fem import _eval_field, assemble_load, assemble_operator, eval_basis
from .geometry import _per_curve

DEFAULT_C_THETA = 10.0


def _one(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


@dataclass
class ProblemSpec:
    """Coefficients, data, and (optionally) the exact solution of a problem.

    All fields are numpy-vectorized callables of physical coordinates; they
    must be evaluable on the polygonal domain as well, including the thin
    region outside the true domain (globally defined formulas do this for
    free).  g_N additionally receives the outward unit normal components.
    The diffusion coefficient p defaults to one.  The reaction coefficient
    q applies to every bc_kind; None means no reaction term, which Neumann
    problems refuse.
    """

    bc_kind: str  # "dirichlet" | "neumann"
    p: Callable = _one
    q: Callable = None
    f: Callable = None
    g_D: Callable = None
    g_N: Callable = None
    exact_u: Callable = None
    exact_grad: Callable = None

    def __post_init__(self):
        if self.bc_kind not in ("dirichlet", "neumann"):
            raise ConfigurationError(f"unknown bc_kind {self.bc_kind!r}")
        if self.bc_kind == "neumann" and self.q is None:
            raise ConfigurationError("Neumann problems need a reaction coefficient q")


def verify_problem_consistency(problem, points, normals=None, tol=1e-10):
    """Check boundary data against the exact solution at boundary points;
    a NaN anywhere in the data fails the check.  Checking g_N needs the
    problem's exact_grad and the unit normals at the points; a missing one
    raises ConfigurationError naming it."""
    if problem.exact_u is None:
        return
    x, y = points[:, 0], points[:, 1]
    if problem.bc_kind == "dirichlet" and problem.g_D is not None:
        err = np.abs(problem.g_D(x, y) - problem.exact_u(x, y)).max()
        if not err <= tol:
            raise ConfigurationError(f"g_D inconsistent with exact_u (err {err:.2e})")
    if problem.bc_kind == "neumann" and problem.g_N is not None:
        if problem.exact_grad is None:
            raise ConfigurationError("checking g_N against exact_u needs the problem's exact_grad")
        if normals is None:
            raise ConfigurationError("checking g_N against exact_u needs the boundary normals")
        ux, uy = problem.exact_grad(x, y)
        flux = problem.p(x, y) * (ux * normals[:, 0] + uy * normals[:, 1])
        err = np.abs(problem.g_N(x, y, normals[:, 0], normals[:, 1]) - flux).max()
        if not err <= tol:
            raise ConfigurationError(f"g_N inconsistent with exact_u (err {err:.2e})")


@dataclass
class LinearSystem:
    """Assembled sparse system A x = F.

    The matrix is nonsymmetric in general: constraint rows couple a
    boundary test function to every dof of the adjacent element.  Every
    assembler stores it in the CSR pattern of `assemble_operator`, with
    explicit zeros where an entry is zero.
    """

    A: sparse.csr_matrix
    F: np.ndarray


def _add_blocks(A, rows, cols, blocks):
    """Add blocks[r, i, j] to A's stored entry (rows[r, i], cols[r, j]) in
    place: rows (R, a), cols (R, b), blocks (R, a, b).  The block entries
    at one position are summed first and their sum then added, as in the
    sparse sum of A and a matrix of the blocks.  A is canonical, so the
    keys row * n + col of the entries stored in the block rows are sorted;
    an entry that A does not store raises AssemblyError."""
    n = A.shape[1]
    n_rows, n_cols = blocks.shape[1:]
    # int64 rows, so the keys do not wrap.
    row = np.repeat(rows, n_cols, axis=1).ravel().astype(np.int64)
    want = row * n + np.tile(cols, (1, n_rows)).ravel()
    in_rows = np.zeros(A.shape[0], dtype=bool)
    in_rows[rows] = True
    lengths = np.diff(A.indptr)
    stored = np.flatnonzero(np.repeat(in_rows, lengths))
    keys = np.repeat(np.flatnonzero(in_rows) * np.int64(n), lengths[in_rows]) + A.indices[stored]
    at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    missing = keys[at] != want
    if np.any(missing):
        row, col = divmod(int(want[np.argmax(missing)]), n)
        raise AssemblyError(f"entry ({row}, {col}) lies outside the element-connectivity pattern")
    A.data[stored] += np.bincount(at, weights=blocks.ravel(), minlength=len(stored))


def _system(space, problem, rows, cols, blocks, rhs, replace):
    """The operator and load of `problem` with the blocks of `_add_blocks`
    at (rows, cols) added, and rhs[r, i] added to the load at rows[r, i].
    With `replace`, the operator's entries and the load in the block rows
    are zeroed first, so the blocks take the place of those rows.  Either
    way the operator's pattern stays."""
    A = assemble_operator(space, p=problem.p, q=problem.q)
    F = assemble_load(space, problem.f)
    if replace:
        replaced = np.zeros(space.n_dofs, dtype=bool)
        replaced[rows] = True
        A.data[np.repeat(replaced, np.diff(A.indptr))] = 0.0
        F[replaced] = 0.0
    _add_blocks(A, rows, cols, blocks)
    F += np.bincount(rows.ravel(), weights=rhs.ravel(), minlength=space.n_dofs)
    return LinearSystem(A, F)


def _edge_quadrature(space, geometry, gradients):
    """The space's boundary-edge quadrature points x (E, n_q, 2), their
    closest points eta on the true boundary, the weights (E, n_q), and,
    from one `eval_basis` call at x and eta together: the test traces at
    x (E, n_q, k + 1), i.e. the adjacent element's basis restricted to
    the edge's own nodes, the basis values at eta (E, n_q, n_basis) and,
    with `gradients`, the basis gradients at x and at eta (E, n_q,
    n_basis, 2), else None for each."""
    x = space.boundary_points
    eta = _per_curve(geometry.closest_point, x, space.boundary_curve)
    n_q = x.shape[1]
    vals, grads = eval_basis(space, space.boundary_tri, np.concatenate([x, eta], axis=1), gradients)
    test = np.take_along_axis(vals[:, :n_q], space.boundary_local[:, None, :], axis=2)
    grads_x, grads_eta = (grads[:, :n_q], grads[:, n_q:]) if gradients else (None, None)
    return x, eta, space.boundary_weights, test, vals[:, n_q:], grads_x, grads_eta


def _boundary_nodes(space, geometry):
    """Each boundary dof, sorted, with the adjacent triangle and curve id
    of the first boundary edge holding it, and its closest point on the
    true boundary (the node itself if geometry is None)."""
    dofs, owner = space.boundary_dofs, space.boundary_dof_edge
    curve = space.boundary_curve[owner]
    eta = space.dof_coords[dofs]
    if geometry is not None:
        eta = _per_curve(geometry.closest_point, eta, curve)
    return dofs, space.boundary_tri[owner], curve, eta


def assemble_pefem_dirichlet(space, problem, geometry, c_theta=DEFAULT_C_THETA):
    """Weak-constraint system: boundary rows tie the extended polynomial
    on the true boundary to the Dirichlet data, scaled by c_theta / h."""
    if problem.bc_kind != "dirichlet":
        raise ConfigurationError("problem is not a Dirichlet problem")
    # The constraint scaling theta = c_theta / h must be positive.
    if not (np.isfinite(c_theta) and c_theta > 0):
        raise ConfigurationError(f"c_theta must be finite and > 0, got {c_theta!r}")
    theta = c_theta / space.mesh.h
    _x, eta, weights, test, vals_eta, _, _ = _edge_quadrature(space, geometry, gradients=False)
    tri, curve = space.boundary_tri, space.boundary_curve
    block = theta * np.einsum("eq,eqi,eqj->eij", weights, test, vals_eta)
    g_vals = _eval_field(problem.g_D, eta, "Dirichlet datum", elements=tri, curves=curve)
    rhs = theta * np.einsum("eq,eqi,eq->ei", weights, test, g_vals)
    rows, cols = space.boundary_edge_dofs, space.cell_dofs[tri]
    return _system(space, problem, rows, cols, block, rhs, replace=True)


def assemble_pefem_dirichlet_strong(space, problem, geometry):
    """Nodal-constraint system: at every boundary node the adjacent
    element's extended polynomial matches the data on the true boundary."""
    if problem.bc_kind != "dirichlet":
        raise ConfigurationError("problem is not a Dirichlet problem")
    # Each boundary dof is constrained through one adjacent boundary edge.
    dofs, tri, curve, eta = _boundary_nodes(space, geometry)
    vals, _ = eval_basis(space, tri, eta[:, None, :], gradients=False)
    g_vals = _eval_field(problem.g_D, eta, "Dirichlet datum", elements=tri, curves=curve)
    cols = space.cell_dofs[tri]
    return _system(space, problem, dofs[:, None], cols, vals, g_vals[:, None], replace=True)


def _neumann_rows(space, problem, geometry, with_datum=True):
    """The Neumann correction tau as the (rows, cols, blocks) of
    `_add_blocks`, from per-edge blocks with the exact normals at eta and
    the test traces at x, and the per-edge load (E, k + 1) of g_N at eta
    against the test traces; the load is None, and g_N not read, unless
    `with_datum`."""
    x, eta, weights, test, _, grads_x, grads_eta = _edge_quadrature(space, geometry, gradients=True)
    tri, curve = space.boundary_tri, space.boundary_curve
    n_true = _per_curve(geometry.unit_normal, eta, curve)
    n_h = space.boundary_normals
    where = dict(elements=tri, curves=curve)
    p_eta = _eval_field(problem.p, eta, "diffusion coefficient", **where)
    p_x = _eval_field(problem.p, x, "diffusion coefficient", **where)
    # Fluxes per quadrature point and trial function.
    flux_ext = p_eta[..., None] * np.einsum("eqjd,eqd->eqj", grads_eta, n_true)
    flux_std = p_x[..., None] * np.einsum("eqjd,ed->eqj", grads_x, n_h)
    block = np.einsum("eq,eqi,eqj->eij", weights, test, flux_ext - flux_std)
    rhs = None
    if with_datum:
        g_vals = _eval_field(
            problem.g_N, eta, "Neumann datum", n_true[..., 0], n_true[..., 1], **where
        )
        rhs = np.einsum("eq,eqi,eq->ei", weights, test, g_vals)
    return space.boundary_edge_dofs, space.cell_dofs[tri], block, rhs


def assemble_pefem_neumann(space, problem, geometry):
    """Natural-condition system with the extended-flux boundary correction.

    The correction integrates, against each boundary test trace, the
    difference between the extended polynomial flux evaluated on the true
    boundary (with the exact normal) and the discrete flux on the polygonal
    boundary (with the facet normal).
    """
    if problem.bc_kind != "neumann":
        raise ConfigurationError("problem is not a Neumann problem")
    return _system(space, problem, *_neumann_rows(space, problem, geometry), replace=False)


def assemble_tau_neumann(space, problem, geometry):
    """The boundary flux-correction matrix alone (diagnostic): its nonzero
    entries, in the operator's pattern."""
    rows, cols, blocks, _ = _neumann_rows(space, problem, geometry, with_datum=False)
    tau = assemble_operator(space)
    tau.data[:] = 0.0
    _add_blocks(tau, rows, cols, blocks)
    tau.eliminate_zeros()
    return tau


def assemble_standard_dirichlet(space, problem, geometry=None):
    """Classical baseline: each boundary dof is pinned to the boundary
    datum taken from the true curve and assigned to the polygonal node.

    Without a geometry, the datum is evaluated at the node itself.  With a
    geometry, the value comes from the closest point on the true boundary,
    which is what a practitioner must do when the datum is only known on
    the curve; the node itself sits up to O(h^2) away, and carrying that
    mismatch into the constraint is the classical variational crime that
    caps high-order convergence at second order.
    """
    if problem.exact_u is None:
        raise ConfigurationError("the baseline needs the exact solution")
    datum = problem.g_D if problem.g_D is not None else problem.exact_u
    dofs, tri, curve, xi = _boundary_nodes(space, geometry)
    g_vals = _eval_field(datum, xi, "Dirichlet datum", elements=tri, curves=curve)
    rows, identity = dofs[:, None], np.ones((len(dofs), 1, 1))
    return _system(space, problem, rows, rows, identity, g_vals[:, None], replace=True)
