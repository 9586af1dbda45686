"""Lagrange elements, quadrature, dof management, and standard assembly.

The reference basis is evaluable at arbitrary points of the plane, inside
or outside the reference triangle: extrapolating an element's polynomial
past its own edges is exactly what the boundary terms of the method need.
"""

from functools import lru_cache
from itertools import permutations

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, SingularElementError
from .mesh import _row_norms


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
        x, y = np.atleast_2d(points).T
        gx = np.column_stack([a * x ** max(a - 1, 0) * y**b for a, b in self.exponents])
        gy = np.column_stack([b * x**a * y ** max(b - 1, 0) for a, b in self.exponents])
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


# Fully symmetric rules on the reference triangle by exact degree d, with
# 3, 6, 12, 16 and 25 points.  Each row is an orbit: a weight and
# barycentric coordinates (l0, l1, l2), giving the point (l1, l2) for each
# distinct permutation.  The values are roots of the moment equations,
# solved to 50 digits, and `tests/test_fem.py` solves them again.  Where
# several roots have interior points and positive weights (d = 6 and 10),
# the rule is the one whose error on degree d + 1 has the least L2 norm.
_SYMMETRIC_RULES = {
    2: (
        (0.16666666666666666, 0.6666666666666666, 0.16666666666666666, 0.16666666666666666),
    ),
    4: (
        (0.054975871827660935, 0.8168475729804585, 0.09157621350977074, 0.09157621350977074),
        (0.11169079483900574, 0.10810301816807023, 0.4459484909159649, 0.4459484909159649),
    ),
    6: (
        (0.02542245318510341, 0.8738219710169955, 0.06308901449150223, 0.06308901449150223),
        (0.058393137863189684, 0.5014265096581791, 0.24928674517091043, 0.24928674517091043),
        (0.041425537809186785, 0.6365024991213987, 0.3103524510337844, 0.053145049844816945),
    ),
    8: (
        (0.07215780383889359, 0.3333333333333333, 0.3333333333333333, 0.3333333333333333),
        (0.01622924881159904, 0.8989055433659381, 0.05054722831703098, 0.05054722831703098),
        (0.05160868526735912, 0.6588613844964796, 0.1705693077517602, 0.1705693077517602),
        (0.04754581713364231, 0.0814148234145537, 0.4592925882927232, 0.4592925882927232),
        (0.013615157087217496, 0.7284923929554042, 0.2631128296346381, 0.008394777409957605),
    ),
    10: (
        (0.040871664573142986, 0.3333333333333333, 0.3333333333333333, 0.3333333333333333),
        (0.006676484406574783, 0.935889253566113, 0.03205537321694351, 0.03205537321694351),
        (0.022978981802372365, 0.7156777978868712, 0.14216110105656438, 0.14216110105656438),
        (0.012648878853644192, 0.807930600922879, 0.1637017337371825, 0.02836766533993844),
        (0.017092324081479714, 0.6012333286834592, 0.36914678182781097, 0.02961988948872977),
        (0.03195245319821202, 0.530054118927344, 0.32181299528883545, 0.14813288578382056),
    ),
}


def triangle_quadrature(exact_degree):
    """The smallest stored rule exact for all polynomials of total degree
    <= exact_degree, 1 to 10: points (n, 2) inside the reference triangle
    and positive weights (n,) summing to its area 1/2."""
    if not 1 <= exact_degree <= 10:
        raise ValueError(f"no triangle rule exact to degree {exact_degree}; 1 to 10 are stored")
    rule = _SYMMETRIC_RULES[exact_degree + exact_degree % 2]
    orbits = [(w, dict.fromkeys(permutations(bary))) for w, *bary in rule]
    points = np.array([bary[1:] for _, orbit in orbits for bary in orbit])
    return points, np.array([w for w, orbit in orbits for _ in orbit])


def segment_quadrature(n_points):
    """Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n_points)
    return 0.5 * (x + 1.0), 0.5 * w


# ---------------------------------------------------------------------------
# affine maps


def affine_map(vertices):
    """Affine maps from the reference triangle onto physical triangles.

    `vertices` has shape (..., 3, 2).  Returns (B, b, det, Binv), with
    shapes (..., 2, 2), (..., 2), (...) and (..., 2, 2), such that
    x = B xi + b and det = det(B) > 0.  A triangle with a non-finite
    vertex, one that is degenerate relative to its size, or one oriented
    clockwise raises SingularElementError naming its index in the
    flattened batch.
    """
    v = np.asarray(vertices, dtype=float)
    flat = v.reshape(-1, 3, 2)
    # Checked first: a NaN det passes the comparisons below, and inf - inf warns.
    nonfinite = ~np.isfinite(flat).all(axis=(1, 2))
    if np.any(nonfinite):
        i = int(np.flatnonzero(nonfinite)[0])
        raise SingularElementError(f"element {i}: non-finite vertices {flat[i].tolist()}")
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
            f"element {i}: {what} triangle with vertices {flat[i].tolist()}"
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
    element maps `origin` and `Binv` from one `affine_map` call, and the
    quadrature every form reads:

    - `quad_points` (n_elements, n_q, 2): the points of the triangle rule
      exact to degree 2k + 2 in each element, mapped by the same
      x = B xi + b as `dof_coords`;
    - `quad_weights` (n_elements, n_q): the rule's weights times det(B);
    - `quad_values` (n_q, n_b) and `quad_grads` (n_q, n_b, 2): the
      reference basis and its reference gradients at the rule's points;
    - for the E boundary edges, in `mesh.boundary_edges` order: each
      edge's adjacent triangle `boundary_tri` (E,) and curve id
      `boundary_curve` (E,), the local basis indices `boundary_local`
      (E, k + 1) of its k + 1 nodes in that triangle and their global dofs
      `boundary_edge_dofs` (E, k + 1), the points `boundary_points`
      (E, n_s, 2) and weights `boundary_weights` (E, n_s) of the
      (k + 2)-point Gauss rule on it, and its outward unit facet normal
      `boundary_normals` (E, 2).  A tagged edge that is not an edge of its
      adjacent triangle raises AssemblyError.

    Dof order: mesh vertices first, then (k-1) dofs per mesh edge (oriented
    from the lower- to the higher-numbered vertex), then the element-interior
    ("bubble") dofs, (k-1)(k-2)/2 per element, element by element.

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
        cell_dofs[:, interior] = nv + (k - 1) * ne + np.arange(nt * n_int).reshape(nt, n_int)
        self.cell_dofs = cell_dofs

        triangle_points, triangle_weights = triangle_quadrature(2 * k + 2)
        B, self.origin, det, self.Binv = affine_map(mesh.vertices[tris])
        to_physical = lambda ref_pts: ref_pts @ np.swapaxes(B, -1, -2) + self.origin[:, None, :]
        coords = np.empty((self.n_dofs, 2))
        coords[cell_dofs] = to_physical(self.ref.nodes)
        self.dof_coords = coords
        self.quad_points = to_physical(triangle_points)
        self.quad_weights = triangle_weights * det[:, None]
        self.quad_values, self.quad_grads = self.ref.eval(triangle_points)

        ends, tri, self.boundary_curve = mesh.boundary_table
        valid = (tri >= 0) & (tri < nt)
        eid = table.find(ends[:, 0], ends[:, 1])
        is_local = table.tri_edges[np.where(valid, tri, 0)] == eid[:, None]
        valid &= is_local.any(axis=1)
        if not np.all(valid):
            v0, v1 = ends[np.argmin(valid)]
            raise AssemblyError(f"boundary edge ({v0},{v1}) lacks a valid adjacent triangle")
        self.boundary_tri = tri
        local_edge = np.argmax(is_local, axis=1)
        self.boundary_local = self.edge_nodes[local_edge]
        self.boundary_edge_dofs = np.take_along_axis(cell_dofs[tri], self.boundary_local, axis=1)
        a, b = mesh.vertices[ends[:, 0]], mesh.vertices[ends[:, 1]]
        segment_points, segment_weights = segment_quadrature(k + 2)
        self.boundary_points = a[:, None, :] + segment_points[None, :, None] * (b - a)[:, None, :]
        self.boundary_weights = segment_weights * np.linalg.norm(b - a, axis=1)[:, None]
        # The triangle is counter-clockwise (affine_map refuses the others),
        # so local edge l runs from corner l to corner l + 1 with the
        # triangle on its left.
        start, end = tris[tri, local_edge], tris[tri, (local_edge + 1) % 3]
        e = mesh.vertices[end] - mesh.vertices[start]
        self.boundary_normals = np.stack([e[:, 1], -e[:, 0]], axis=1) / _row_norms(e)[:, None]

        self.boundary_dofs = np.unique(self.boundary_edge_dofs)
        self.interior_dofs = np.setdiff1d(np.arange(self.n_dofs), self.boundary_dofs)

    def edge_dofs(self, v0, v1):
        """Global dofs whose nodes lie on the mesh edge (v0, v1), in order
        from the edge's lower-numbered vertex; KeyError for a pair that is
        not an edge."""
        eid = int(self.mesh.edge_table.find(v0, v1))
        if eid < 0:
            raise KeyError(f"({v0}, {v1}) is not a mesh edge")
        first = len(self.mesh.vertices) + eid * (self.degree - 1)
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


# Element rows per block of `_chunked_matmul`.  The memory OpenBLAS packs
# GEMM panels into (Goto & van de Geijn, ACM TOMS 2008) stays resident
# after the call, and grows with the product: one (6,162 x 196) @
# (196 x 225) product, the k = 4 stiffness at disk n = 128, left 9.5 MB
# resident, and blocks of 512 rows about 1 MB (OpenBLAS 0.3.31, one
# thread, x86-64).
_GEMM_ROWS = 512


def _chunked_matmul(a, b):
    """a @ b for a (M, K) and b (K, N), one BLAS product per block of
    `_GEMM_ROWS` rows of a, written into one (M, N) output."""
    out = np.empty((len(a), b.shape[1]))
    for s in range(0, len(a), _GEMM_ROWS):
        np.matmul(a[s : s + _GEMM_ROWS], b, out=out[s : s + _GEMM_ROWS])
    return out


def assemble_operator(space, p=None, q=None):
    """Stiffness form of p (default 1), plus the mass form of q if given.

    p and q are vectorized callables (x, y) -> values, evaluated at the
    space's `quad_points`.  Elements are affine, so every element matrix
    is one row of a single GEMM, `_chunked_matmul(factor, table)`.  Row m
    of `factor` holds the entries of w p (Binv Binv^T) at the quadrature
    points of element m (4 n_q columns) and, with q, w q (n_q more
    columns); the rows of `table` are the matching products of reference
    gradients d_d phi_b d_e phi_c and, with q, of values phi_b phi_c
    (n_b^2 columns).  The product runs over blocks of `_GEMM_ROWS`
    elements, so the packing buffer BLAS keeps after it stays small (see
    `_GEMM_ROWS`).
    """
    x, w = space.quad_points, space.quad_weights
    vals, grads = space.quad_values, space.quad_grads
    nq, nb = vals.shape
    w_p = w if p is None else w * _eval_field(p, x, "diffusion coefficient")
    metric = space.Binv @ np.swapaxes(space.Binv, -1, -2)
    # Entry (d, e) of the metric, then the point: the broadcast's inner
    # axis is the n_q points rather than a 2 x 2 block.
    factor = np.empty((len(w), 4 if q is None else 5, nq))
    np.multiply(metric.reshape(-1, 4, 1), w_p[:, None, :], out=factor[:, :4])
    table = np.einsum("qbd,qce->deqbc", grads, grads).reshape(4 * nq, nb * nb)
    if q is not None:
        factor[:, 4] = w * _eval_field(q, x, "reaction coefficient")
        val_val = np.einsum("qb,qc->qbc", vals, vals).reshape(nq, nb * nb)
        table = np.vstack([table, val_val])
    local = _chunked_matmul(factor.reshape(len(w), -1), table)

    rows = np.repeat(space.cell_dofs, nb, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, nb)).ravel()
    mat = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(space.n_dofs, space.n_dofs)
    )
    return mat.tocsr()


def _eval_field(fun, x, what, *args, elements=None, curves=None):
    """fun(x, y, *args) at the points x (M, ..., 2); a non-finite value
    raises AssemblyError naming the first such row's element, elements[row]
    (default: row), and its curve id curves[row] if given."""
    vals = np.asarray(fun(x[..., 0], x[..., 1], *args), dtype=float)
    vals = np.broadcast_to(vals, x.shape[:-1])
    finite = np.isfinite(vals).all(axis=tuple(range(1, vals.ndim)))
    if not np.all(finite):
        row = int(np.argmin(finite))
        where = "" if curves is None else f" on curve {curves[row]!r}"
        element = row if elements is None else int(elements[row])
        raise AssemblyError(f"non-finite {what} value{where}", element=element)
    return vals


def assemble_load(space, f):
    """Load vector with entries given by the volume quadrature of f: the
    element vectors are the GEMM of w f (n_elements, n_q) with the basis
    values (n_q, n_b), in blocks of `_GEMM_ROWS` elements."""
    w_f = space.quad_weights * _eval_field(f, space.quad_points, "source")
    local = _chunked_matmul(w_f, space.quad_values)
    return np.bincount(space.cell_dofs.ravel(), weights=local.ravel(), minlength=space.n_dofs)
