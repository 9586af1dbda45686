"""Tests for reference elements, quadrature, spaces, and assembly."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from pefem.analysis import error_norms
from pefem.errors import AssemblyError, SingularElementError
from pefem.fem import (
    _GEMM_ROWS,
    _SYMMETRIC_RULES,
    FeSpace,
    ReferenceElement,
    affine_map,
    assemble_load,
    assemble_operator,
    eval_fe,
    segment_quadrature,
    triangle_quadrature,
)
from pefem.mesh import (
    Mesh,
    generate_disk_mesh,
    generate_ellipse_mesh,
    generate_square_hole_mesh,
    generate_square_mesh,
)
from pefem.problems import Poly2D, monomial_sum


THREE_DOMAINS = pytest.mark.parametrize(
    "make_mesh",
    [
        lambda: generate_disk_mesh(16),
        lambda: generate_square_hole_mesh(1),
        lambda: generate_ellipse_mesh(32),
    ],
    ids=["disk", "hole", "ellipse"],
)


class TestReferenceElement:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_kronecker_property(self, k):
        ref = ReferenceElement(k)
        vals, _ = ref.eval(ref.nodes)
        assert np.abs(vals - np.eye(ref.n_basis)).max() <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_partition_of_unity_everywhere(self, k):
        # Including points well outside the reference triangle, where the
        # extended polynomials must still sum to one.
        ref = ReferenceElement(k)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2.0, 3.0, size=(40, 2))
        vals, grads = ref.eval(pts)
        assert np.abs(vals.sum(axis=1) - 1.0).max() <= 1e-10
        assert np.abs(grads.sum(axis=1)).max() <= 1e-9

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gradients_match_finite_differences(self, k):
        ref = ReferenceElement(k)
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.5, 1.5, size=(10, 2))
        _, grads = ref.eval(pts)
        eps = 1e-6
        for d in range(2):
            shift = np.zeros(2)
            shift[d] = eps
            vp, _ = ref.eval(pts + shift)
            vm, _ = ref.eval(pts - shift)
            fd = (vp - vm) / (2 * eps)
            assert np.abs(fd - grads[:, :, d]).max() <= 1e-6

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_exact_rational_basis(self, k):
        # The basis fitted in exact arithmetic: the Vandermonde system of
        # the monomials x^a y^b, a + b <= k, at the nodes, solved in
        # Fractions and evaluated exactly at the (float) points, which are
        # the degree-10 rule's and points 0.05 outside each edge.
        ref = ReferenceElement(k)
        exps = [(a, b) for a in range(k + 1) for b in range(k + 1 - a)]
        monomials = lambda x, y: [x**a * y**b for a, b in exps]
        d_dx = lambda x, y: [a * x ** max(a - 1, 0) * y**b for a, b in exps]
        d_dy = lambda x, y: [b * x**a * y ** max(b - 1, 0) for a, b in exps]
        nodes = [(Fraction(int(i), k), Fraction(int(j), k)) for _, i, j in ref.bary]
        coeffs = _exact_inverse([monomials(*node) for node in nodes])
        t = np.linspace(0.0, 1.0, 9)
        off = 0.05
        outside = np.concatenate([
            np.column_stack([t, np.full_like(t, -off)]),
            np.column_stack([t, 1.0 - t]) + off / math.sqrt(2.0),
            np.column_stack([np.full_like(t, -off), t]),
        ])
        for pts in (triangle_quadrature(10)[0], outside):
            exact = [
                [
                    [float(sum(c[n] * v for c, v in zip(coeffs, row(Fraction(x), Fraction(y)))))
                     for n in range(ref.n_basis)]
                    for x, y in pts
                ]
                for row in (monomials, d_dx, d_dy)
            ]
            vals, grads = ref.eval(pts)
            assert np.abs(vals - exact[0]).max() <= 2e-15
            assert np.abs(grads - np.stack(exact[1:], axis=-1)).max() <= 1.5e-14

    def test_dimension_formula(self):
        for k in (1, 2, 3, 4):
            assert ReferenceElement(k).n_basis == (k + 1) * (k + 2) // 2

    def test_rejects_unsupported_degree(self):
        with pytest.raises(ValueError):
            ReferenceElement(5).eval([[0.0, 0.0]])


def _exact_inverse(rows):
    """The inverse of a square matrix of Fractions, by Gauss-Jordan
    elimination with exact arithmetic."""
    n = len(rows)
    aug = [list(row) + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                aug[r] = [a - aug[r][col] * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class TestMonomialSum:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 5), (5, 5), (4, 2)])
    def test_matches_polyval2d(self, shape):
        rng = np.random.default_rng(sum(shape))
        coeffs = rng.uniform(-1.0, 1.0, size=shape)
        x, y = rng.uniform(-2.0, 2.0, size=(2, 50))
        want = np.polynomial.polynomial.polyval2d(x, y, coeffs)
        scale = np.polynomial.polynomial.polyval2d(np.abs(x), np.abs(y), np.abs(coeffs))
        assert np.all(np.abs(monomial_sum(x, y, coeffs) - want) <= 1e-15 * scale)

    # Fewer polynomials than powers of y, then more: the one contraction
    # order (sum over y, then weight by x) serves both.
    @pytest.mark.parametrize("shape", [(5, 5, 2), (4, 3, 2, 5)])
    def test_trailing_axes_are_separate_polynomials(self, shape):
        rng = np.random.default_rng(3)
        coeffs = rng.uniform(-1.0, 1.0, size=shape)
        x, y = rng.uniform(-1.0, 1.0, size=(2, 6, 7))
        got = monomial_sum(x, y, coeffs)
        assert got.shape == (6, 7) + shape[2:]
        for i in np.ndindex(shape[2:]):
            want = np.polynomial.polynomial.polyval2d(x, y, coeffs[(..., *i)])
            assert np.abs(got[(..., *i)] - want).max() <= 1e-14

    def test_broadcasts_the_points(self):
        coeffs = np.arange(9.0).reshape(3, 3)
        x, y = np.linspace(-1.0, 1.0, 4)[:, None], np.linspace(0.0, 2.0, 5)
        got = monomial_sum(x, y, coeffs)
        assert got.shape == (4, 5)
        want = np.polynomial.polynomial.polyval2d(*np.broadcast_arrays(x, y), coeffs)
        assert np.abs(got - want).max() <= 1e-13
        assert monomial_sum(np.zeros((0, 3)), 1.0, np.ones((2, 2, 2))).shape == (0, 3, 2)

    def test_zero_dimensional_points(self):
        coeffs = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = monomial_sum(-0.5, -0.5, coeffs)
        assert np.ndim(got) == 0
        assert got == np.polynomial.polynomial.polyval2d(-0.5, -0.5, coeffs) == -0.5
        assert monomial_sum(2.0, 1.0, np.ones((2, 2, 3))).shape == (3,)
        assert Poly2D(coeffs)(-0.5, -0.5) == -0.5

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_reference_element_matches_vandermonde_form(self, k):
        # The basis as the Vandermonde solve of the monomials x^a y^b,
        # a + b <= k, with values and gradients from their columns.
        ref = ReferenceElement(k)
        exps = [(a, b) for a in range(k + 1) for b in range(k + 1 - a)]
        mono = lambda pts, da, db: np.column_stack([
            math.perm(a, da) * math.perm(b, db) * pts[:, 0] ** max(a - da, 0) * pts[:, 1] ** max(b - db, 0)
            for a, b in exps
        ])
        coeffs = np.linalg.solve(mono(ref.nodes, 0, 0), np.eye(ref.n_basis))
        pts = np.random.default_rng(k).uniform(-1.0, 2.0, size=(30, 2))
        vals, grads = ref.eval(pts)
        assert np.abs(vals - mono(pts, 0, 0) @ coeffs).max() <= 1e-11
        assert np.abs(grads[..., 0] - mono(pts, 1, 0) @ coeffs).max() <= 1e-10
        assert np.abs(grads[..., 1] - mono(pts, 0, 1) @ coeffs).max() <= 1e-10


def _free_parameters(orbit):
    """An orbit's weight, then the barycentric coordinates that are free:
    none for the centroid, a for (a, a, 1 - 2a), a and b for the stored
    (a, b, 1 - a - b)."""
    w, *bary = orbit
    distinct = len(set(bary))
    if distinct == 1:
        return [w]
    return [w, max(bary, key=bary.count)] if distinct == 2 else [w, *bary[:2]]


def _shifted_legendre_integral(a, b):
    """Exact integral of P_a(2x - 1) P_b(2y - 1) over the reference
    triangle, from the monomial integrals i! j! / (i + j + 2)!."""
    coeff = lambda n, i: (-1) ** (n + i) * math.comb(n, i) * math.comb(n + i, i)
    total = sum(
        Fraction(coeff(a, i) * coeff(b, j) * math.factorial(i) * math.factorial(j),
                 math.factorial(i + j + 2))
        for i in range(a + 1)
        for j in range(b + 1)
    )
    return float(total)


def _moment_residuals(sizes, params, degree):
    """Rule minus exact integral of P_a(2x - 1) P_b(2y - 1), a + b <= degree,
    for the orbits with these numbers of free parameters.  The shifted
    Legendre products are bounded by one on the triangle, which keeps the
    equations far better conditioned than monomials.  Complex parameters
    are allowed."""
    points, weights, i = [], [], 0
    for n in sizes:
        w, free = params[i], params[i + 1 : i + n]
        i += n
        a, b = (1 / 3, 1 / 3) if n == 1 else (free[0], free[0]) if n == 2 else free
        orbit = [(a, a, a)] if n == 1 else dict.fromkeys(itertools.permutations((a, b, 1 - a - b)))
        points += [bary[1:] for bary in orbit]
        weights += [w] * len(orbit)
    points, weights = np.array(points), np.array(weights)
    px = np.polynomial.legendre.legvander(2 * points[:, 0] - 1, degree)
    py = np.polynomial.legendre.legvander(2 * points[:, 1] - 1, degree)
    return np.array(
        [
            weights @ (px[:, a] * py[:, b]) - _shifted_legendre_integral(a, b)
            for a in range(degree + 1)
            for b in range(degree + 1 - a)
        ]
    )


class TestQuadrature:
    @pytest.mark.parametrize("deg", [2, 4, 6, 8, 10])
    def test_exact_on_monomials(self, deg):
        # Reference-triangle integral of x^a y^b is a! b! / (a + b + 2)!.
        pts, wts = triangle_quadrature(deg)
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                got = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b)
                want = (
                    math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                )
                assert got == pytest.approx(want, abs=1e-15, rel=1e-13)

    def test_weights_positive_and_sum_to_area(self):
        for deg in (2, 4, 6, 8, 10):
            pts, wts = triangle_quadrature(deg)
            assert np.all(wts > 0)
            assert np.sum(wts) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize(
        "deg, count", [(1, 3), (2, 3), (3, 6), (4, 6), (6, 12), (7, 16), (8, 16), (10, 25)]
    )
    def test_point_counts(self, deg, count):
        pts, wts = triangle_quadrature(deg)
        assert pts.shape == (count, 2) and wts.shape == (count,)

    @pytest.mark.parametrize("deg", [2, 4, 6, 8, 10])
    def test_points_strictly_inside(self, deg):
        pts, _ = triangle_quadrature(deg)
        assert np.all(pts > 0) and np.all(pts.sum(axis=1) < 1)

    @pytest.mark.parametrize("deg", [2, 4, 6, 8, 10])
    def test_invariant_under_barycentric_permutations(self, deg):
        pts, wts = triangle_quadrature(deg)
        bary = np.column_stack([1.0 - pts.sum(axis=1), pts])
        for perm in itertools.permutations(range(3)):
            moved = bary[:, perm][:, 1:]
            dist = np.linalg.norm(moved[:, None, :] - pts[None, :, :], axis=2)
            match = dist.argmin(axis=1)
            assert dist.min(axis=1).max() <= 1e-15
            assert sorted(match) == list(range(len(pts)))
            assert np.array_equal(wts[match], wts)

    @pytest.mark.parametrize("deg", [0, 11])
    def test_refuses_degrees_without_a_rule(self, deg):
        with pytest.raises(ValueError, match="1 to 10"):
            triangle_quadrature(deg)

    @pytest.mark.parametrize("deg", sorted(_SYMMETRIC_RULES))
    def test_each_rule_is_an_isolated_root_of_the_moment_equations(self, deg):
        # Gauss-Newton on the orbit parameters, from the stored values
        # rounded to 4 digits, must return to them: the rule is a root of
        # the moment equations and no other root lies near it.
        rule = _SYMMETRIC_RULES[deg]
        sizes = [len(_free_parameters(orbit)) for orbit in rule]
        stored = np.concatenate([_free_parameters(orbit) for orbit in rule])
        x = np.round(stored, 4)
        step = 1e-30  # complex-step derivatives, exact to rounding
        for _ in range(8):
            jac = np.column_stack(
                [_moment_residuals(sizes, x + 1j * step * e, deg).imag / step for e in np.eye(len(x))]
            )
            residual = _moment_residuals(sizes, x, deg).real
            x = x - np.linalg.lstsq(jac, residual, rcond=None)[0]
        assert np.abs(x - stored).max() <= 1e-14

    def test_segment_rule(self):
        x, w = segment_quadrature(4)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-14)
        # 4-point Gauss is exact through degree 7.
        for d in range(8):
            assert np.sum(w * x**d) == pytest.approx(1.0 / (d + 1), rel=1e-13)


class TestAffineMap:
    def test_reference_triangle_is_identity(self):
        B, b, det, Binv = affine_map([[0, 0], [1, 0], [0, 1]])
        assert np.allclose(B, np.eye(2))
        assert det == pytest.approx(1.0)
        assert np.allclose(Binv, np.eye(2))

    def test_scaled_triangle(self):
        B, b, det, Binv = affine_map([[1, 1], [3, 1], [1, 5]])
        assert det == pytest.approx(8.0)
        assert np.allclose(b, [1, 1])
        assert np.allclose(B @ Binv, np.eye(2))

    def test_degenerate_triangle(self):
        with pytest.raises(SingularElementError):
            affine_map([[0, 0], [1, 1], [2, 2]])

    def test_clockwise_triangle_names_element(self):
        with pytest.raises(SingularElementError, match="element 0: clockwise"):
            affine_map([[0, 0], [0, 1], [1, 0]])
        mesh = generate_square_mesh(2)
        triangles = mesh.triangles.copy()
        triangles[3] = triangles[3, [0, 2, 1]]
        with pytest.raises(SingularElementError, match="element 3: clockwise"):
            FeSpace(Mesh(mesh.vertices, triangles, mesh.boundary_edges), 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_vertex_names_element(self, value):
        # Vertex 4 is the centre of generate_square_mesh(2); element 0 is
        # the first triangle that holds it.
        mesh = generate_square_mesh(2)
        vertices = mesh.vertices.copy()
        vertices[4, 0] = value
        first = int(np.flatnonzero((mesh.triangles == 4).any(axis=1))[0])
        with pytest.raises(SingularElementError, match=f"element {first}: non-finite"):
            FeSpace(Mesh(vertices, mesh.triangles, mesh.boundary_edges), 1)
        with pytest.raises(SingularElementError, match="element 0: non-finite"):
            affine_map([[0, 0], [1, 0], [value, 1]])


class TestFeSpace:
    def test_refuses_boundary_edge_off_its_triangle(self):
        mesh = generate_square_mesh(2)
        v0, v1, tri, cid = mesh.boundary_edges[3]
        far = int(np.argmax(np.linalg.norm(mesh.vertices - mesh.vertices[v0], axis=1)))
        assert mesh.edge_table.find(v0, far) == -1
        out_of_range = (v0, v1, len(mesh.triangles), cid)
        absent = (v0, far, tri, cid)
        for bad in (out_of_range, absent):
            edges = list(mesh.boundary_edges)
            edges[3] = bad
            with pytest.raises(AssemblyError, match=f"boundary edge \\({v0},{bad[1]}\\) lacks"):
                FeSpace(Mesh(mesh.vertices, mesh.triangles, edges), 2)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_dof_count(self, k):
        mesh = generate_square_mesh(3)
        space = FeSpace(mesh, k)
        nv, ne, nt = 16, 33, 18  # Euler: V - E + T = 1 for a disk-like mesh
        expected = nv + (k - 1) * ne + (k - 1) * (k - 2) // 2 * nt
        assert space.n_dofs == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_element_interior_dofs_come_last(self, k):
        # The nodes strictly inside each element are numbered after every
        # vertex and edge dof, element by element.
        mesh = generate_disk_mesh(16)
        space = FeSpace(mesh, k)
        i, j = space.ref.bary[:, 1:].T
        inside = (i > 0) & (j > 0) & (i + j < k)
        n_inside = len(mesh.triangles) * int(inside.sum())
        first = space.n_dofs - n_inside
        assert np.array_equal(space.cell_dofs[:, inside].ravel(), np.arange(first, space.n_dofs))
        assert np.all(space.cell_dofs[:, ~inside] < first)

    def test_neighbors_share_edge_dofs(self):
        # Across every interior edge, the two triangles list the same
        # global dofs in opposite order (each walks the edge from its own
        # local vertex l to l + 1), at the k + 1 equispaced edge points.
        for mesh in (generate_square_mesh(2), generate_disk_mesh(16)):
            sides = {}
            for t, tri in enumerate(mesh.triangles):
                for l in range(3):
                    key = tuple(sorted((tri[l], tri[(l + 1) % 3])))
                    sides.setdefault(key, []).append((t, l))
            interior = [pair for pair in sides.values() if len(pair) == 2]
            assert interior
            for k in (1, 2, 3, 4):
                space = FeSpace(mesh, k)
                ref_vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

                def walk(t, l):
                    local = space.edge_nodes[l]
                    dist = np.linalg.norm(space.ref.nodes[local] - ref_vertices[l], axis=1)
                    return space.cell_dofs[t, local[np.argsort(dist)]]

                s = np.linspace(0.0, 1.0, k + 1)[:, None]
                for (ta, la), (tb, lb) in interior:
                    dofs = walk(ta, la)
                    assert np.array_equal(dofs, walk(tb, lb)[::-1])
                    a = mesh.vertices[mesh.triangles[ta, la]]
                    b = mesh.vertices[mesh.triangles[ta, (la + 1) % 3]]
                    assert np.abs(space.dof_coords[dofs] - (a + s * (b - a))).max() <= 1e-14
                # Every dof coordinate appears once: no duplicated physical nodes.
                rounded = {tuple(np.round(c, 12)) for c in space.dof_coords}
                assert len(rounded) == space.n_dofs

    def test_boundary_dofs_on_boundary(self):
        mesh = generate_disk_mesh(16)
        space = FeSpace(mesh, 2)
        coords = space.dof_coords[space.boundary_dofs]
        # Boundary dof nodes sit on the polygon: radius between the
        # inradius of the polygon and 1.
        r = np.linalg.norm(coords, axis=1)
        assert np.all(r >= math.cos(math.pi / 16) - 1e-12)
        assert np.all(r <= 1.0 + 1e-12)

    def test_interior_and_boundary_partition(self):
        mesh = generate_disk_mesh(16)
        space = FeSpace(mesh, 3)
        both = np.concatenate([space.boundary_dofs, space.interior_dofs])
        assert np.array_equal(np.sort(both), np.arange(space.n_dofs))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@THREE_DOMAINS
def test_volume_quadrature_arrays(make_mesh, k):
    mesh = make_mesh()
    space = FeSpace(mesh, k)
    xi = triangle_quadrature(2 * k + 2)[0]
    for e, tri in enumerate(mesh.triangles):
        B, b, _det, _Binv = affine_map(mesh.vertices[tri])
        assert np.abs(space.quad_points[e] - (xi @ B.T + b)).max() <= 1e-15
    _B, _b, det, _Binv = affine_map(mesh.vertices[mesh.triangles])
    area = det.sum() / 2
    assert space.quad_weights.shape == space.quad_points.shape[:2]
    assert space.quad_weights.sum() == pytest.approx(area, rel=1e-14)
    vals, grads = space.ref.eval(xi)
    assert np.array_equal(space.quad_values, vals)
    assert np.array_equal(space.quad_grads, grads)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@THREE_DOMAINS
def test_boundary_quadrature_arrays(make_mesh, k):
    mesh = make_mesh()
    space = FeSpace(mesh, k)
    t, w = segment_quadrature(k + 2)
    assert len(space.boundary_tri) == len(mesh.boundary_edges)
    for e, (v0, v1, tri, cid) in enumerate(mesh.boundary_edges):
        assert space.boundary_tri[e] == tri and space.boundary_curve[e] == cid
        dofs = space.boundary_edge_dofs[e].tolist()
        assert dofs == space.cell_dofs[tri, space.boundary_local[e]].tolist()
        assert dofs in (space.edge_dofs(v0, v1), space.edge_dofs(v0, v1)[::-1])
        a, b = mesh.vertices[v0], mesh.vertices[v1]
        assert np.abs(space.boundary_points[e] - (a + np.outer(t, b - a))).max() <= 1e-15
        assert np.abs(space.boundary_weights[e] - w * np.linalg.norm(b - a)).max() <= 1e-15


class TestEvalFe:
    @pytest.mark.parametrize("k", [2, 4])
    def test_reproduces_polynomial_at_external_points(self, k):
        # Interpolate a degree-k polynomial and evaluate the element
        # polynomial far outside the element: must match exactly.
        mesh = generate_square_mesh(2)
        space = FeSpace(mesh, k)
        poly = lambda x, y: (x + 0.3) ** k + (y - 0.2) ** min(k, 2)
        coeffs = poly(space.dof_coords[:, 0], space.dof_coords[:, 1])
        pts = np.array([[2.0, 1.5], [-1.0, 3.0], [0.6, 0.6]])
        vals, _ = eval_fe(space, coeffs, 0, pts)
        assert np.abs(vals - poly(pts[:, 0], pts[:, 1])).max() <= 1e-9

    def test_independent_monomial_oracle(self):
        # Compare against direct monomial evaluation of the element
        # polynomial fitted to its own nodes, in exact rational arithmetic:
        # the physical-coordinate Vandermonde of a boundary element can be
        # too ill-conditioned for a double-precision fit (cond 2.9e6 here).
        mesh = generate_disk_mesh(16)
        space = FeSpace(mesh, 4)
        rng = np.random.default_rng(17)
        coeffs = rng.uniform(-1, 1, size=space.n_dofs)
        elem = mesh.boundary_edges[0][2]
        nodes = space.dof_coords[space.cell_dofs[elem]]
        pts = nodes.mean(axis=0) + rng.uniform(-0.3, 0.3, size=(5, 2))
        # Fit the 15 monomials x^a y^b, a + b <= 4, to the nodal values.
        exps = [(a, b) for a in range(5) for b in range(5 - a)]

        def monomials(x, y):
            x, y = Fraction(float(x)), Fraction(float(y))
            return [x**a * y**b for a, b in exps]

        inverse = _exact_inverse([monomials(x, y) for x, y in nodes])
        values = [Fraction(float(c)) for c in coeffs[space.cell_dofs[elem]]]
        mono = [sum(a * v for a, v in zip(row, values)) for row in inverse]
        want = np.array([float(sum(c * m for c, m in zip(mono, monomials(x, y)))) for x, y in pts])
        got, _ = eval_fe(space, coeffs, elem, pts)
        assert np.abs(got - want).max() <= 1e-9

    def test_scalar_point(self):
        mesh = generate_square_mesh(1)
        space = FeSpace(mesh, 1)
        coeffs = space.dof_coords[:, 0]  # the function u = x
        val, grad = eval_fe(space, coeffs, 0, np.array([0.1, 0.2]))
        assert val == pytest.approx(0.1, abs=1e-14)
        assert np.allclose(grad, [1.0, 0.0], atol=1e-13)


class TestAssembly:
    def test_p1_element_stiffness(self):
        # One unit right triangle: the P1 stiffness matrix is known in
        # closed form.
        mesh = generate_square_mesh(1)
        space = FeSpace(mesh, 1)
        A = assemble_operator(space).toarray()
        # Restrict to one element's dofs and compare with the classic
        # [[1, -1/2, -1/2], [-1/2, 1/2, 0], [-1/2, 0, 1/2]] pattern up to
        # vertex ordering: check the invariants instead of the layout.
        assert np.allclose(A, A.T, atol=1e-14)
        assert np.abs(A.sum(axis=1)).max() <= 1e-13  # constants in kernel

    def test_p1_reference_stiffness_values(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2]])
        edges = [(0, 1, 0, "square"), (1, 2, 0, "square"), (0, 2, 0, "square")]
        from pefem.mesh import Mesh

        space = FeSpace(Mesh(verts, tris, edges), 1)
        A = assemble_operator(space).toarray()
        want = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.abs(A - want).max() <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stiffness_annihilates_constants(self, k):
        mesh = generate_disk_mesh(16)
        space = FeSpace(mesh, k)
        A = assemble_operator(space)
        ones = np.ones(space.n_dofs)
        assert np.abs(A @ ones).max() <= 1e-11

    def test_mass_row_sums_give_area(self):
        # With q = 1 and p = 0-like trick unavailable, use N - D.
        mesh = generate_square_mesh(4)
        space = FeSpace(mesh, 2)
        D = assemble_operator(space)
        N = assemble_operator(space, q=lambda x, y: np.ones_like(x))
        M = (N - D).toarray()
        assert np.sum(M) == pytest.approx(1.0, rel=1e-12)  # area of the square
        assert np.abs(M - M.T).max() <= 1e-14

    def test_load_of_constant_integrates_to_area(self):
        mesh = generate_square_mesh(3)
        space = FeSpace(mesh, 3)
        F = assemble_load(space, lambda x, y: np.ones_like(x))
        assert np.sum(F) == pytest.approx(1.0, rel=1e-12)

    def test_load_linear_source_exact(self):
        # Integral of x * v over the square is reproduced by quadrature:
        # summing the load vector gives the integral of x.
        mesh = generate_square_mesh(2, center=(0.5, 0.5), half_width=0.5)
        space = FeSpace(mesh, 2)
        F = assemble_load(space, lambda x, y: x)
        assert np.sum(F) == pytest.approx(0.5, rel=1e-12)

    def test_galerkin_projection_of_polynomial(self):
        # Solving D u = D r with matching boundary values returns r for
        # polynomial r of the space's degree.
        import scipy.sparse.linalg as spla

        mesh = generate_square_mesh(3)
        space = FeSpace(mesh, 2)
        r = lambda x, y: x**2 + 0.5 * x * y - y**2 + x - 2
        target = r(space.dof_coords[:, 0], space.dof_coords[:, 1])
        A = assemble_operator(space, q=lambda x, y: np.ones_like(x)).tocsc()
        M_rhs = A @ target
        sol = spla.spsolve(A, M_rhs)
        assert np.abs(sol - target).max() <= 1e-10

    def test_variable_coefficient_symmetry(self):
        mesh = generate_disk_mesh(16)
        space = FeSpace(mesh, 2)
        A = assemble_operator(space, p=lambda x, y: 1.0 + x**2 + y**2)
        assert np.abs((A - A.T).toarray()).max() <= 1e-13


def _per_point_volume(space, p, q, f, u_h, exact_u, exact_grad):
    """Stiffness (+ mass if q is given), load and (L2, H1) errors summed
    point by point from physical gradients: the reference the
    contractions must equal."""
    points, weights = triangle_quadrature(2 * space.degree + 2)
    ref_vals, ref_grads = space.ref.eval(points)
    B, origin, det, Binv = affine_map(space.mesh.vertices[space.mesh.triangles])
    x = np.einsum("qd,med->mqe", points, B) + origin[:, None, :]
    xx, yy = x[..., 0], x[..., 1]
    w = weights[None, :] * det[:, None]
    gphys = np.einsum("qbd,mde->mqbe", ref_grads, Binv)

    local = np.einsum("mq,mq,mqbe,mqce->mbc", w, p(xx, yy), gphys, gphys)
    if q is not None:
        local += np.einsum("mq,mq,qb,qc->mbc", w, q(xx, yy), ref_vals, ref_vals)
    nb = space.ref.n_basis
    rows = np.repeat(space.cell_dofs, nb, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, nb)).ravel()
    A = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(space.n_dofs,) * 2).tocsr()
    F = np.zeros(space.n_dofs)
    np.add.at(F, space.cell_dofs, np.einsum("mq,mq,qb->mb", w, f(xx, yy), ref_vals))

    coeffs = u_h[space.cell_dofs]
    uh_vals = np.einsum("qb,mb->mq", ref_vals, coeffs)
    uh_grads = np.einsum("mqbe,mb->mqe", gphys, coeffs)
    gx, gy = exact_grad(xx, yy)
    l2_sq = np.sum(w * (exact_u(xx, yy) - uh_vals) ** 2)
    grad_sq = np.sum(w * ((gx - uh_grads[..., 0]) ** 2 + (gy - uh_grads[..., 1]) ** 2))
    return A, F, np.sqrt(l2_sq), np.sqrt(l2_sq + grad_sq)


VOLUME_MESHES = {
    "disk": lambda: generate_disk_mesh(16),
    "hole": lambda: generate_square_hole_mesh(1),
    # 1,528 triangles: more than one block of _GEMM_ROWS, and not a
    # whole number of blocks.
    "disk64": lambda: generate_disk_mesh(64),
}
VOLUME_CASES = [(name, k) for name in ("disk", "hole") for k in (1, 2, 3, 4)]
VOLUME_CASES += [("disk64", 2), ("disk64", 4)]


@pytest.mark.parametrize(
    "mesh_name, k", VOLUME_CASES, ids=[f"{name}-{k}" for name, k in VOLUME_CASES]
)
def test_volume_contractions_match_per_point_sums(mesh_name, k):
    space = FeSpace(VOLUME_MESHES[mesh_name](), k)
    if mesh_name == "disk64":
        n_elements = len(space.mesh.triangles)
        assert n_elements > _GEMM_ROWS and n_elements % _GEMM_ROWS
    p = lambda x, y: 1.0 + x**2 + 0.5 * np.sin(y)
    q = lambda x, y: 2.0 + x * y
    f = lambda x, y: np.exp(x) * np.cos(2.0 * y)
    exact_u = lambda x, y: np.cos(x) * np.sin(y)
    exact_grad = lambda x, y: (-np.sin(x) * np.sin(y), np.cos(x) * np.cos(y))
    u_h = np.random.default_rng(k).uniform(-1.0, 1.0, space.n_dofs)
    A_ref, F_ref, l2_ref, h1_ref = _per_point_volume(space, p, q, f, u_h, exact_u, exact_grad)

    A = assemble_operator(space, p=p, q=q)
    assert abs(A - A_ref).max() <= 1e-13 * np.abs(A_ref.data).max()
    F = assemble_load(space, f)
    assert np.abs(F - F_ref).max() <= 1e-13 * np.abs(F_ref).max()
    l2, h1 = error_norms(space, u_h, exact_u, exact_grad)
    assert l2 == pytest.approx(l2_ref, rel=1e-13)
    assert h1 == pytest.approx(h1_ref, rel=1e-13)

    # The stiffness-only branch (p = 1, no q), which no Neumann problem takes.
    one = lambda x, y: np.ones_like(x)
    K_ref = _per_point_volume(space, one, None, f, u_h, exact_u, exact_grad)[0]
    K = assemble_operator(space)
    assert abs(K - K_ref).max() <= 1e-13 * np.abs(K_ref.data).max()
