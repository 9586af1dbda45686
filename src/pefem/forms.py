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
from .fem import assemble_load, assemble_operator, eval_basis
from .geometry import _per_curve

DEFAULT_C_THETA = 10.0


@dataclass
class ProblemSpec:
    """Coefficients, data, and (optionally) the exact solution of a problem.

    All fields are numpy-vectorized callables of physical coordinates; they
    must be evaluable on the polygonal domain as well, including the thin
    region outside the true domain (globally defined formulas do this for
    free).  g_N additionally receives the outward unit normal components.
    The reaction coefficient q applies to every bc_kind; None means no
    reaction term, which Neumann problems refuse.
    """

    bc_kind: str  # "dirichlet" | "neumann"
    p: Callable = None
    q: Callable = None
    f: Callable = None
    g_D: Callable = None
    g_N: Callable = None
    exact_u: Callable = None
    exact_grad: Callable = None

    def __post_init__(self):
        if self.bc_kind not in ("dirichlet", "neumann"):
            raise ConfigurationError(f"unknown bc_kind {self.bc_kind!r}")
        if self.p is None:
            self.p = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
        if self.bc_kind == "neumann" and self.q is None:
            raise ConfigurationError("Neumann problems need a reaction coefficient q")


def verify_problem_consistency(problem, points, normals=None, tol=1e-10):
    """Check boundary data against the exact solution at boundary points."""
    if problem.exact_u is None:
        return
    x, y = points[:, 0], points[:, 1]
    if problem.bc_kind == "dirichlet" and problem.g_D is not None:
        err = np.abs(problem.g_D(x, y) - problem.exact_u(x, y)).max()
        if err > tol:
            raise ConfigurationError(f"g_D inconsistent with exact_u (err {err:.2e})")
    if problem.bc_kind == "neumann" and problem.g_N is not None:
        ux, uy = problem.exact_grad(x, y)
        flux = problem.p(x, y) * (ux * normals[:, 0] + uy * normals[:, 1])
        err = np.abs(problem.g_N(x, y, normals[:, 0], normals[:, 1]) - flux).max()
        if err > tol:
            raise ConfigurationError(f"g_N inconsistent with exact_u (err {err:.2e})")


@dataclass
class LinearSystem:
    """Assembled sparse system; boundary-constraint rows are recorded.

    The matrix is nonsymmetric in general: constraint rows couple a
    boundary test function to every dof of the adjacent element.
    """

    A: sparse.csr_matrix
    F: np.ndarray
    boundary_rows: np.ndarray
    theta: float = 0.0


class _BoundaryEdges:
    """Every boundary edge at once, in `mesh.boundary_edges` order.

    Holds each edge's adjacent triangle, curve id and cell dofs, the local
    basis indices of the k + 1 nodes on the edge, and their global dofs.
    """

    def __init__(self, space):
        mesh = space.mesh
        ends, tri, self.curve = mesh.boundary_table
        valid = (tri >= 0) & (tri < len(mesh.triangles))
        eid = mesh.edge_table.find(ends[:, 0], ends[:, 1])
        is_local = mesh.edge_table.tri_edges[np.where(valid, tri, 0)] == eid[:, None]
        valid &= is_local.any(axis=1)
        if not np.all(valid):
            v0, v1 = ends[np.argmin(valid)]
            raise AssemblyError(f"boundary edge ({v0},{v1}) lacks a valid adjacent triangle")
        self.n_dofs = space.n_dofs
        self.rule = space.rule
        self.ends = mesh.vertices[ends]
        self.tri = tri
        self.cell_dofs = space.cell_dofs[tri]
        self.local = space.edge_nodes[np.argmax(is_local, axis=1)]
        self.dofs = np.take_along_axis(self.cell_dofs, self.local, axis=1)

    def quadrature(self, geometry):
        """Segment quadrature points x (E, n_q, 2), their closest points
        eta on the true boundary, and the weights (E, n_q)."""
        a, b, rule = self.ends[:, 0], self.ends[:, 1], self.rule
        x = a[:, None, :] + rule.segment_points[None, :, None] * (b - a)[:, None, :]
        weights = rule.segment_weights * np.linalg.norm(b - a, axis=1)[:, None]
        return x, _per_curve(geometry.closest_point, x, self.curve), weights

    def owners(self):
        """The boundary dofs, sorted, and for each the first edge holding it."""
        dofs, first = np.unique(self.dofs, return_index=True)
        return dofs, first // self.dofs.shape[1]

    def trace(self, values):
        """Per-edge basis values (E, n, n_basis) restricted to the edge's
        own nodes, i.e. the test traces (E, n, k + 1)."""
        return np.take_along_axis(values, self.local[:, None, :], axis=2)

    def matrix(self, blocks):
        """Sparse matrix of per-edge blocks (E, k + 1, n_basis): rows are
        the edge's dofs, columns the adjacent triangle's cell dofs."""
        n_edge_nodes, nb = blocks.shape[1:]
        rows = np.repeat(self.dofs, nb, axis=1).ravel()
        cols = np.tile(self.cell_dofs, (1, n_edge_nodes)).ravel()
        shape = (self.n_dofs, self.n_dofs)
        return sparse.coo_matrix((blocks.ravel(), (rows, cols)), shape=shape)

    def load(self, values):
        """Per-edge test integrals (E, k + 1) summed into a dof vector."""
        return np.bincount(self.dofs.ravel(), weights=values.ravel(), minlength=self.n_dofs)


def _replace_rows(K, F, rows, constraint_coo, rhs):
    """Swap rows `rows` of the system (K, F) for constraint rows.

    `constraint_coo` is zero outside `rows`; `rhs` holds the new right-hand
    side, one entry per row in `rows`.  Returns (A, F) with A in CSR form.
    """
    K = K.tocoo()
    replaced = np.zeros(K.shape[0], dtype=bool)
    replaced[rows] = True
    keep = ~replaced[K.row]
    row = np.concatenate([K.row[keep], constraint_coo.row])
    col = np.concatenate([K.col[keep], constraint_coo.col])
    data = np.concatenate([K.data[keep], constraint_coo.data])
    A = sparse.coo_matrix((data, (row, col)), shape=K.shape).tocsr()
    F = F.copy()
    F[rows] = rhs
    return A, F


def assemble_pefem_dirichlet(space, problem, geometry, c_theta=DEFAULT_C_THETA):
    """Weak-constraint system: boundary rows tie the extended polynomial
    on the true boundary to the Dirichlet data, scaled by c_theta / h."""
    if problem.bc_kind != "dirichlet":
        raise ConfigurationError("problem is not a Dirichlet problem")
    theta = c_theta / space.mesh.h
    edges = _BoundaryEdges(space)
    x, eta, weights = edges.quadrature(geometry)

    vals_x, _ = eval_basis(space, edges.tri, x)
    vals_eta, _ = eval_basis(space, edges.tri, eta)
    test = edges.trace(vals_x)  # zero off the edge
    block = theta * np.einsum("eq,eqi,eqj->eij", weights, test, vals_eta)
    g_vals = problem.g_D(eta[..., 0], eta[..., 1])
    rhs = edges.load(theta * np.einsum("eq,eqi,eq->ei", weights, test, g_vals))

    stiffness = assemble_operator(space, p=problem.p, q=problem.q)
    F = assemble_load(space, problem.f)
    rows = space.boundary_dofs
    A, F = _replace_rows(stiffness, F, rows, edges.matrix(block), rhs[rows])
    return LinearSystem(A, F, rows.copy(), theta)


def assemble_pefem_dirichlet_strong(space, problem, geometry):
    """Nodal-constraint system: at every boundary node the adjacent
    element's extended polynomial matches the data on the true boundary."""
    if problem.bc_kind != "dirichlet":
        raise ConfigurationError("problem is not a Dirichlet problem")
    # Each boundary dof is constrained through one adjacent boundary edge.
    edges = _BoundaryEdges(space)
    dofs, owner = edges.owners()
    tri = edges.tri[owner]
    eta = _per_curve(geometry.closest_point, space.dof_coords[dofs], edges.curve[owner])
    vals, _ = eval_basis(space, tri, eta[:, None, :])
    nb = space.ref.n_basis
    constraint = sparse.coo_matrix(
        (vals.ravel(), (np.repeat(dofs, nb), space.cell_dofs[tri].ravel())),
        shape=(space.n_dofs, space.n_dofs),
    )

    stiffness = assemble_operator(space, p=problem.p, q=problem.q)
    F = assemble_load(space, problem.f)
    A, F = _replace_rows(stiffness, F, dofs, constraint, problem.g_D(eta[:, 0], eta[:, 1]))
    return LinearSystem(A, F, space.boundary_dofs.copy())


def _flux_correction(space, problem, geometry, edges, x, eta, weights):
    """Per-edge blocks (E, k + 1, n_basis) of the Neumann correction tau,
    with the exact normals at eta and the test traces at x."""
    vals_x, grads_x = eval_basis(space, edges.tri, x)
    _vals_eta, grads_eta = eval_basis(space, edges.tri, eta)
    n_true = _per_curve(geometry.unit_normal, eta, edges.curve)
    n_h = space.mesh.edge_normals
    p_eta = problem.p(eta[..., 0], eta[..., 1])
    p_x = problem.p(x[..., 0], x[..., 1])
    # Fluxes per quadrature point and trial function.
    flux_ext = p_eta[..., None] * np.einsum("eqjd,eqd->eqj", grads_eta, n_true)
    flux_std = p_x[..., None] * np.einsum("eqjd,ed->eqj", grads_x, n_h)
    test = edges.trace(vals_x)
    block = np.einsum("eq,eqi,eqj->eij", weights, test, flux_ext - flux_std)
    return block, n_true, test


def assemble_pefem_neumann(space, problem, geometry):
    """Natural-condition system with the extended-flux boundary correction.

    The correction integrates, against each boundary test trace, the
    difference between the extended polynomial flux evaluated on the true
    boundary (with the exact normal) and the discrete flux on the polygonal
    boundary (with the facet normal).
    """
    if problem.bc_kind != "neumann":
        raise ConfigurationError("problem is not a Neumann problem")
    edges = _BoundaryEdges(space)
    x, eta, weights = edges.quadrature(geometry)
    block, n_true, test = _flux_correction(space, problem, geometry, edges, x, eta, weights)
    g_vals = problem.g_N(eta[..., 0], eta[..., 1], n_true[..., 0], n_true[..., 1])

    A = assemble_operator(space, p=problem.p, q=problem.q)
    F = assemble_load(space, problem.f)
    F += edges.load(np.einsum("eq,eqi,eq->ei", weights, test, g_vals))
    return LinearSystem((A + edges.matrix(block)).tocsr(), F, space.boundary_dofs.copy())


def assemble_tau_neumann(space, problem, geometry):
    """The boundary flux-correction matrix alone (diagnostic)."""
    edges = _BoundaryEdges(space)
    x, eta, weights = edges.quadrature(geometry)
    block, _n_true, _test = _flux_correction(space, problem, geometry, edges, x, eta, weights)
    return edges.matrix(block).tocsr()


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
    edges = _BoundaryEdges(space)
    dofs, owner = edges.owners()
    xi = space.dof_coords[dofs]
    if geometry is not None:
        xi = _per_curve(geometry.closest_point, xi, edges.curve[owner])
    identity = sparse.coo_matrix(
        (np.ones(len(dofs)), (dofs, dofs)), shape=(space.n_dofs, space.n_dofs)
    )

    stiffness = assemble_operator(space, p=problem.p, q=problem.q)
    F = assemble_load(space, problem.f)
    A, F = _replace_rows(stiffness, F, dofs, identity, datum(xi[:, 0], xi[:, 1]))
    return LinearSystem(A, F, space.boundary_dofs.copy())
