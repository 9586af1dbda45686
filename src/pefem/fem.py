"""Lagrange elements, quadrature, dof management, and standard assembly.

The reference basis is evaluable at arbitrary points of the plane, inside
or outside the reference triangle: extrapolating an element's polynomial
past its own edges is exactly what the boundary terms of the method need.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.special import roots_jacobi

from .errors import AssemblyError, SingularElementError


# ---------------------------------------------------------------------------
# reference element


class ReferenceElement:
    """P_k Lagrange element on the unit reference triangle.

    Nodes are the equispaced lattice {(i/k, j/k) : i, j >= 0, i + j <= k}.
    The basis is stored in monomial form (coefficients solve the Vandermonde
    system), so values and gradients are defined at any point of the plane.
    """

    def __init__(self, degree):
        if not 1 <= degree <= 4:
            raise ValueError("degree must be between 1 and 4")
        self.degree = degree
        self.exponents = [
            (a, total - a) for total in range(degree + 1) for a in range(total, -1, -1)
        ]
        lattice = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
        self.node_lattice = lattice
        self.nodes = np.array(lattice, dtype=float) / degree
        vand = self._monomials(self.nodes)
        self.coeffs = np.linalg.solve(vand, np.eye(len(lattice)))

    @property
    def n_basis(self):
        return len(self.nodes)

    def _monomials(self, points):
        pts = np.atleast_2d(points)
        cols = [pts[:, 0] ** a * pts[:, 1] ** b for a, b in self.exponents]
        return np.column_stack(cols)

    def _monomial_gradients(self, points):
        pts = np.atleast_2d(points)
        gx = np.column_stack(
            [
                a * pts[:, 0] ** max(a - 1, 0) * pts[:, 1] ** b if a else np.zeros(len(pts))
                for a, b in self.exponents
            ]
        )
        gy = np.column_stack(
            [
                b * pts[:, 0] ** a * pts[:, 1] ** max(b - 1, 0) if b else np.zeros(len(pts))
                for a, b in self.exponents
            ]
        )
        return gx, gy

    def eval(self, points):
        """Basis values and gradients at arbitrary reference points.

        Returns (values, gradients) with shapes (n_pts, n_basis) and
        (n_pts, n_basis, 2).  No clamping to the simplex is performed.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        values = self._monomials(pts) @ self.coeffs
        gx, gy = self._monomial_gradients(pts)
        grads = np.stack([gx @ self.coeffs, gy @ self.coeffs], axis=-1)
        return values, grads


@lru_cache(maxsize=8)
def reference_element(degree):
    return ReferenceElement(degree)


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Points/weights on the reference triangle and on the segment [0, 1]."""

    triangle_points: np.ndarray
    triangle_weights: np.ndarray
    segment_points: np.ndarray
    segment_weights: np.ndarray


def triangle_quadrature(exact_degree):
    """Conical-product rule on the reference triangle.

    Exact for all polynomials of total degree <= exact_degree; all weights
    positive.
    """
    n = (exact_degree + 2) // 2 + 1
    # Legendre on [0,1] for the first coordinate.
    x_gl, w_gl = np.polynomial.legendre.leggauss(n)
    x_gl = 0.5 * (x_gl + 1.0)
    w_gl = 0.5 * w_gl
    # Jacobi weight (1 - y) on [0,1] for the collapsed coordinate.
    x_gj, w_gj = roots_jacobi(n, 1.0, 0.0)
    x_gj = 0.5 * (x_gj + 1.0)
    w_gj = 0.25 * w_gj
    (xu, xv), (wu, wv) = np.meshgrid(x_gl, x_gj), np.meshgrid(w_gl, w_gj)
    return np.column_stack([(xu * (1.0 - xv)).ravel(), xv.ravel()]), (wu * wv).ravel()


def segment_quadrature(n_points):
    """Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n_points)
    return 0.5 * (x + 1.0), 0.5 * w


def quadrature_for_degree(k):
    """Default rules: triangle exact to 2k+2, segment with k+2 points."""
    tp, tw = triangle_quadrature(2 * k + 2)
    sp_, sw = segment_quadrature(k + 2)
    return QuadratureRule(tp, tw, sp_, sw)


# ---------------------------------------------------------------------------
# affine maps


def affine_map(vertices):
    """Affine maps from the reference triangle onto physical triangles.

    `vertices` has shape (..., 3, 2).  Returns (B, b, det, Binv), with
    shapes (..., 2, 2), (..., 2), (...) and (..., 2, 2), such that
    x = B xi + b and det = det(B) > 0.  A triangle that is degenerate
    relative to its size, or oriented clockwise, raises
    SingularElementError naming its index in the flattened batch.
    """
    v = np.asarray(vertices, dtype=float)
    e1, e2 = v[..., 1, :] - v[..., 0, :], v[..., 2, :] - v[..., 0, :]
    B = np.stack([e1, e2], axis=-1)
    det = B[..., 0, 0] * B[..., 1, 1] - B[..., 0, 1] * B[..., 1, 0]
    size = np.maximum(np.linalg.norm(e1, axis=-1), np.linalg.norm(e2, axis=-1))
    degenerate = np.abs(det) <= 1e-14 * size**2
    bad = degenerate | (det < 0)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        what = "degenerate" if degenerate.flat[i] else "clockwise"
        raise SingularElementError(
            f"element {i}: {what} triangle with vertices {v.reshape(-1, 3, 2)[i].tolist()}"
        )
    Binv = np.empty_like(B)
    Binv[..., 0, 0], Binv[..., 0, 1] = B[..., 1, 1], -B[..., 0, 1]
    Binv[..., 1, 0], Binv[..., 1, 1] = -B[..., 1, 0], B[..., 0, 0]
    Binv /= det[..., None, None]
    return B, v[..., 0, :], det, Binv


# ---------------------------------------------------------------------------
# finite element space


class FeSpace:
    """Global P_k space on a mesh: dof numbering, boundary dof sets, the
    element maps `origin` and `Binv` from one `affine_map` call, the
    degree's quadrature `rule`, and the volume quadrature every volume
    form reads:

    - `quad_points` (n_elements, n_q, 2): the rule's triangle points in
      each element, mapped by the same x = B xi + b as `dof_coords`;
    - `quad_weights` (n_elements, n_q): the rule's weights times det(B);
    - `quad_values` (n_q, n_b) and `quad_grads` (n_q, n_b, 2): the
      reference basis and its reference gradients at the rule's points.

    Dof order: mesh vertices first, then (k-1) dofs per mesh edge (oriented
    from the lower- to the higher-numbered vertex), then the element-interior
    ("bubble") dofs, (k-1)(k-2)/2 per element, element by element.  These
    form the last block of the numbering: `bubble_dofs` (n_elements,
    (k-1)(k-2)/2) lists element e's bubbles in row e, and its rows are
    consecutive, so `bubble_dofs.ravel()` is the range of the last
    `bubble_dofs.size` dofs.  No boundary node is a bubble, which is what
    lets `solve` condense them element by element.

    `boundary_dofs` are the dofs whose nodes lie on the polygonal boundary;
    `interior_dofs` are all the others (vertex, edge and bubble dofs off the
    boundary), a larger set than the bubbles.
    """

    def __init__(self, mesh, degree):
        self.mesh = mesh
        self.degree = degree
        self.ref = reference_element(degree)
        k = degree
        nv, nt = len(mesh.vertices), len(mesh.triangles)
        table = mesh.edge_table
        ne = len(table.edges)
        n_int = (k - 1) * (k - 2) // 2
        self.n_dofs = nv + (k - 1) * ne + n_int * nt

        # Local basis indices of the k + 1 nodes on each local edge.
        # Local edges: 0 = (v0,v1) [j==0], 1 = (v1,v2) [i+j==k], 2 = (v2,v0) [i==0].
        i, j = np.array(self.ref.node_lattice).T
        self.edge_nodes = np.array(
            [np.flatnonzero(j == 0), np.flatnonzero(i + j == k), np.flatnonzero(i == 0)]
        )
        # k times the barycentric coordinates of each node: node n lies on
        # local edge l at position bary[n, l + 1] from its first vertex.
        bary = np.column_stack([k - i - j, i, j])
        inner = self.edge_nodes[:, 1:-1]
        pos = bary[inner, [[1], [2], [0]]]  # (3, k - 1)

        tris = mesh.triangles
        cell_dofs = np.empty((nt, self.ref.n_basis), dtype=int)
        cell_dofs[:, np.argmax(bary == k, axis=0)] = tris
        # Edge dofs run from the edge's lower-numbered vertex.
        forward = (tris < np.roll(tris, -1, axis=1))[..., None]
        along = np.where(forward, pos, k - pos)
        cell_dofs[:, inner] = nv + table.tri_edges[..., None] * (k - 1) + along - 1
        interior = np.flatnonzero(np.all(bary > 0, axis=1))
        self.bubble_dofs = nv + (k - 1) * ne + np.arange(nt * n_int).reshape(nt, n_int)
        cell_dofs[:, interior] = self.bubble_dofs
        self.cell_dofs = cell_dofs

        self.rule = quadrature_for_degree(k)
        B, self.origin, det, self.Binv = affine_map(mesh.vertices[tris])
        to_physical = lambda ref_pts: ref_pts @ np.swapaxes(B, -1, -2) + self.origin[:, None, :]
        coords = np.empty((self.n_dofs, 2))
        coords[cell_dofs] = to_physical(self.ref.nodes)
        self.dof_coords = coords
        self.quad_points = to_physical(self.rule.triangle_points)
        self.quad_weights = self.rule.triangle_weights * det[:, None]
        self.quad_values, self.quad_grads = self.ref.eval(self.rule.triangle_points)

        ends, _tri, _curve = mesh.boundary_table
        first = self._edge_dof(ends[:, 0], ends[:, 1])
        self.boundary_dofs = np.unique(
            np.concatenate([ends.ravel(), (first[:, None] + np.arange(k - 1)).ravel()])
        )
        self.interior_dofs = np.setdiff1d(np.arange(self.n_dofs), self.boundary_dofs)

    def _edge_dof(self, v0, v1):
        """First interior dof of each mesh edge (v0, v1); KeyError for a
        pair that is not an edge."""
        v0, v1 = np.atleast_1d(v0, v1)
        eid = self.mesh.edge_table.find(v0, v1)
        if np.any(eid < 0):
            bad = np.argmin(eid)
            raise KeyError(f"({v0[bad]}, {v1[bad]}) is not a mesh edge")
        return len(self.mesh.vertices) + eid * (self.degree - 1)

    def edge_dofs(self, v0, v1):
        """Global dofs whose nodes lie on the mesh edge (v0, v1), in order
        from the edge's lower-numbered vertex."""
        first = int(self._edge_dof(v0, v1)[0])
        return [min(v0, v1), *range(first, first + self.degree - 1), max(v0, v1)]


# ---------------------------------------------------------------------------
# evaluation and assembly


def eval_basis(space, elements, points):
    """Basis values and physical gradients of element polynomials anywhere.

    `elements` has shape (E,) and `points` shape (E, n, 2): the polynomials
    of element elements[e] are evaluated at points[e], which may lie
    outside the element.  Returns values (E, n, n_basis) and gradients
    (E, n, n_basis, 2).
    """
    pts = np.asarray(points, dtype=float)
    b0, Binv = space.origin[elements], space.Binv[elements]
    ref_pts = (pts - b0[:, None, :]) @ np.swapaxes(Binv, -1, -2)
    vals, grads = space.ref.eval(ref_pts.reshape(-1, 2))
    n_elem, n_pts = pts.shape[:2]
    nb = space.ref.n_basis
    grads = (grads.reshape(n_elem, n_pts * nb, 2) @ Binv).reshape(n_elem, n_pts, nb, 2)
    return vals.reshape(n_elem, n_pts, nb), grads


def eval_fe(space, coefficients, element, points):
    """Evaluate a finite element function's element polynomial anywhere.

    The element's polynomial is evaluated at the given physical points,
    which may lie outside the element: this is the polynomial extension.
    Returns (values, gradients).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals, grads = eval_basis(space, [element], pts[None])
    local = np.asarray(coefficients)[space.cell_dofs[element]]
    values = vals[0] @ local
    gradients = np.einsum("pbd,b->pd", grads[0], local)
    scalar = np.asarray(points).ndim == 1
    return (values[0], gradients[0]) if scalar else (values, gradients)


def assemble_operator(space, p=None, q=None):
    """Stiffness form of p (default 1), plus the mass form of q if given.

    p and q are vectorized callables (x, y) -> values, evaluated at the
    space's `quad_points`.  Elements are affine, so the stiffness contracts
    w p (Binv Binv^T) per element against the products of the reference
    gradients d_d phi_b d_e phi_c at the quadrature points, and the mass
    contracts w q against the products phi_b phi_c.
    """
    x, w = space.quad_points, space.quad_weights
    vals, grads = space.quad_values, space.quad_grads
    nq, nb = vals.shape
    grad_grad = np.einsum("qbd,qce->qdebc", grads, grads).reshape(nq * 4, nb * nb)
    w_p = w if p is None else w * _eval_field(p, x, "diffusion coefficient")
    metric = np.einsum("mde,mfe->mdf", space.Binv, space.Binv)
    factor = np.einsum("mq,mdf->mqdf", w_p, metric).reshape(len(w), -1)
    local = np.einsum("mk,kn->mn", factor, grad_grad)
    if q is not None:
        w_q = w * _eval_field(q, x, "reaction coefficient")
        val_val = np.einsum("qb,qc->qbc", vals, vals).reshape(nq, nb * nb)
        local += np.einsum("mq,qn->mn", w_q, val_val)

    rows = np.repeat(space.cell_dofs, nb, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, nb)).ravel()
    mat = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(space.n_dofs, space.n_dofs)
    )
    return mat.tocsr()


def _eval_field(fun, x, what):
    vals = np.asarray(fun(x[..., 0], x[..., 1]), dtype=float)
    vals = np.broadcast_to(vals, x.shape[:-1])
    if not np.all(np.isfinite(vals)):
        bad = int(np.nonzero(~np.isfinite(vals).all(axis=-1))[0][0])
        raise AssemblyError(f"non-finite {what} value", element=bad)
    return vals


def assemble_load(space, f):
    """Load vector with entries given by the volume quadrature of f."""
    w_f = space.quad_weights * _eval_field(f, space.quad_points, "source")
    local = np.einsum("mq,qb->mb", w_f, space.quad_values)
    return np.bincount(space.cell_dofs.ravel(), weights=local.ravel(), minlength=space.n_dofs)
