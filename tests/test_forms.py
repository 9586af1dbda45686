"""Tests for the boundary-extension assemblers and the baseline."""

import numpy as np
import pytest

from pefem.analysis import error_norms, patch_test, solve
from pefem.errors import AssemblyError, ConfigurationError
from pefem.fem import FeSpace, eval_fe, segment_quadrature
from pefem.forms import (
    ProblemSpec,
    assemble_pefem_dirichlet,
    assemble_pefem_dirichlet_strong,
    assemble_pefem_neumann,
    assemble_standard_dirichlet,
    assemble_tau_neumann,
    verify_problem_consistency,
)
from pefem.geometry import disk_geometry, square_geometry, square_hole_geometry
from pefem.mesh import (
    Mesh,
    generate_disk_mesh,
    generate_square_hole_mesh,
    generate_square_mesh,
)
from pefem.problems import (
    Poly2D,
    cosine_problem,
    polynomial_problem,
    rational_problem,
)


DOMAINS = {
    "square": lambda: (generate_square_mesh(2), square_geometry(), 2),
    "disk-k3": lambda: (generate_disk_mesh(16), disk_geometry(), 3),
    "hole-k2": lambda: (generate_square_hole_mesh(1), square_hole_geometry(), 2),
}


def _edge_quadrature(space, v0, v1):
    """Segment quadrature points and weights on the mesh edge (v0, v1)."""
    a, b = space.mesh.vertices[v0], space.mesh.vertices[v1]
    t, w = segment_quadrature(space.degree + 2)
    return a + np.outer(t, b - a), w * np.linalg.norm(b - a)


def _basis_by_unit_vectors(space, tri, points):
    """Values (n, n_basis) and gradients (n, n_basis, 2) of triangle
    `tri`'s basis at points, one eval_fe call per cell dof."""
    out = []
    for d in space.cell_dofs[tri]:
        unit = np.zeros(space.n_dofs)
        unit[d] = 1.0
        out.append(eval_fe(space, unit, tri, points))
    return np.stack([v for v, _ in out], axis=1), np.stack([g for _, g in out], axis=1)


class TestProblemSpec:
    def test_rejects_unknown_bc(self):
        with pytest.raises(ConfigurationError):
            ProblemSpec(bc_kind="robin")

    def test_neumann_requires_reaction(self):
        with pytest.raises(ConfigurationError):
            ProblemSpec(bc_kind="neumann")

    def test_default_diffusion_is_one(self):
        spec = ProblemSpec(bc_kind="dirichlet")
        assert np.all(spec.p(np.zeros(3), np.zeros(3)) == 1.0)

    def test_consistency_check_passes_for_presets(self):
        geo = disk_geometry()
        theta = np.linspace(0, 2 * np.pi, 50, endpoint=False)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        normals = geo.unit_normal(pts, "circle")
        verify_problem_consistency(cosine_problem("dirichlet"), pts, normals)
        verify_problem_consistency(cosine_problem("neumann"), pts, normals)

    def test_consistency_check_catches_wrong_data(self):
        problem = cosine_problem("dirichlet")
        problem.g_D = lambda x, y: np.cos(x) * np.cos(y) + 0.01
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ConfigurationError):
            verify_problem_consistency(problem, pts)


class TestWeakDirichlet:
    def test_rejects_neumann_problem(self):
        mesh = generate_disk_mesh(16)
        space = FeSpace(mesh, 2)
        with pytest.raises(ConfigurationError):
            assemble_pefem_dirichlet(space, cosine_problem("neumann"), disk_geometry())

    @pytest.mark.parametrize("case", ["square", "disk-k3", "hole-k2"])
    def test_constraint_rows_match_per_edge_quadrature(self, case):
        # The boundary rows are theta times the boundary mass between the
        # edge traces at x and the element basis at eta(x), summed over the
        # edges holding each dof; on the square eta is the identity.
        mesh, geo, k = DOMAINS[case]()
        space = FeSpace(mesh, k)
        problem = cosine_problem("dirichlet")
        system = assemble_pefem_dirichlet(space, problem, geo)
        theta = system.theta
        assert theta > 0

        want_A = np.zeros((space.n_dofs, space.n_dofs))
        want_F = np.zeros(space.n_dofs)
        for v0, v1, tri, cid in mesh.boundary_edges:
            x, weights = _edge_quadrature(space, v0, v1)
            eta = geo.closest_point(x, cid)
            cell = list(space.cell_dofs[tri])
            vals_x, _ = _basis_by_unit_vectors(space, tri, x)
            vals_eta, _ = _basis_by_unit_vectors(space, tri, eta)
            g = problem.g_D(eta[:, 0], eta[:, 1])
            for d in space.edge_dofs(v0, v1):
                test = weights * vals_x[:, cell.index(d)]
                want_A[d, cell] += theta * test @ vals_eta
                want_F[d] += theta * test @ g
        rows = space.boundary_dofs
        got = system.A[rows].toarray()
        assert np.abs(got - want_A[rows]).max() <= 1e-12 * np.abs(want_A).max()
        assert np.abs(system.F[rows] - want_F[rows]).max() <= 1e-12 * np.abs(want_F).max()

    def test_theta_invariance(self):
        mesh = generate_disk_mesh(16)
        space = FeSpace(mesh, 3)
        problem = cosine_problem("dirichlet")
        geo = disk_geometry()
        u10 = solve(assemble_pefem_dirichlet(space, problem, geo, c_theta=10.0))
        u20 = solve(assemble_pefem_dirichlet(space, problem, geo, c_theta=20.0))
        rel = np.linalg.norm(u10 - u20) / np.linalg.norm(u10)
        assert rel <= 1e-8

    def test_interior_block_symmetric(self):
        mesh = generate_disk_mesh(16)
        space = FeSpace(mesh, 2)
        system = assemble_pefem_dirichlet(space, cosine_problem("dirichlet"), disk_geometry())
        sub = system.A[np.ix_(space.interior_dofs, space.interior_dofs)]
        diff = np.abs((sub - sub.T).toarray()).max()
        assert diff <= 1e-12 * np.abs(sub.toarray()).max()


class TestStrongDirichlet:
    def test_constraint_rows_interpolate_on_straight_mesh(self):
        # With the identity projection the constraint is plain nodal
        # interpolation: row = unit vector, rhs = data at the node.
        mesh = generate_square_mesh(2)
        space = FeSpace(mesh, 2)
        problem = polynomial_problem(Poly2D([[0.0, 1.0], [2.0, 0.0]]), "dirichlet")
        system = assemble_pefem_dirichlet_strong(space, problem, square_geometry())
        for dof in space.boundary_dofs:
            row = system.A[dof].toarray().ravel()
            unit = np.zeros(space.n_dofs)
            unit[dof] = 1.0
            assert np.abs(row - unit).max() <= 1e-12
            x, y = space.dof_coords[dof]
            assert system.F[dof] == pytest.approx(problem.g_D(x, y), abs=1e-13)

    def test_weak_strong_consistency(self):
        # Both variants converge to the same solution; on one mesh their
        # difference is bounded by the discretization error scale.
        mesh = generate_disk_mesh(32)
        geo = disk_geometry()
        problem = cosine_problem("dirichlet")
        space = FeSpace(mesh, 2)
        u_w = solve(assemble_pefem_dirichlet(space, problem, geo))
        u_s = solve(assemble_pefem_dirichlet_strong(space, problem, geo))
        l2_w, _ = error_norms(space, u_w, problem.exact_u, problem.exact_grad)
        l2_s, _ = error_norms(space, u_s, problem.exact_u, problem.exact_grad)
        assert l2_s <= 10 * l2_w or l2_w <= 10 * l2_s
        diff, _ = error_norms(
            space,
            u_w - u_s,
            lambda x, y: np.zeros_like(x),
            lambda x, y: (np.zeros_like(x), np.zeros_like(y)),
        )
        assert diff <= 10 * max(l2_w, l2_s)


class TestNeumann:
    def test_rejects_dirichlet_problem(self):
        mesh = generate_disk_mesh(16)
        space = FeSpace(mesh, 2)
        with pytest.raises(ConfigurationError):
            assemble_pefem_neumann(space, cosine_problem("dirichlet"), disk_geometry())

    def test_correction_vanishes_on_straight_boundary(self):
        # When the mesh boundary coincides with the true boundary the
        # extended and discrete fluxes cancel identically.
        mesh = generate_square_mesh(4)
        space = FeSpace(mesh, 3)
        problem = cosine_problem("neumann")
        tau = assemble_tau_neumann(space, problem, square_geometry())
        assert tau.nnz == 0 or np.abs(tau.data).max() <= 1e-15

    def test_correction_edge_block_matches_per_edge_quadrature(self):
        # tau's rows for one edge's interior dofs hold that edge's block
        # alone: the extended flux at eta minus the discrete flux at x,
        # against the edge traces.
        mesh = generate_disk_mesh(16)
        space = FeSpace(mesh, 3)
        problem = cosine_problem("neumann")
        geo = disk_geometry()
        tau = assemble_tau_neumann(space, problem, geo).toarray()

        v0, v1, tri, cid = mesh.boundary_edges[0]
        x, weights = _edge_quadrature(space, v0, v1)
        eta = geo.closest_point(x, cid)
        vals_x, grads_x = _basis_by_unit_vectors(space, tri, x)
        _, grads_eta = _basis_by_unit_vectors(space, tri, eta)
        flux_ext = problem.p(eta[:, 0], eta[:, 1])[:, None] * np.einsum(
            "qjd,qd->qj", grads_eta, geo.unit_normal(eta, cid)
        )
        flux_std = problem.p(x[:, 0], x[:, 1])[:, None] * (grads_x @ mesh.edge_normals[0])
        cell = list(space.cell_dofs[tri])
        edge_interior = space.edge_dofs(v0, v1)[1:-1]
        assert edge_interior
        for d in edge_interior:
            want = (weights * vals_x[:, cell.index(d)]) @ (flux_ext - flux_std)
            assert np.abs(tau[d, cell] - want).max() <= 1e-12 * np.abs(want).max()

    def test_system_matches_operator_plus_correction(self):
        from pefem.fem import assemble_operator

        mesh = generate_disk_mesh(16)
        space = FeSpace(mesh, 2)
        problem = cosine_problem("neumann")
        geo = disk_geometry()
        system = assemble_pefem_neumann(space, problem, geo)
        N = assemble_operator(space, p=problem.p, q=problem.q)
        tau = assemble_tau_neumann(space, problem, geo)
        diff = np.abs((system.A - N - tau).toarray()).max()
        assert diff <= 1e-12 * np.abs(N.toarray()).max()


class TestBoundaryErrors:
    @pytest.mark.parametrize(
        "assemble",
        [
            lambda s, g: assemble_pefem_dirichlet(s, cosine_problem("dirichlet"), g),
            lambda s, g: assemble_pefem_dirichlet_strong(s, cosine_problem("dirichlet"), g),
            lambda s, g: assemble_pefem_neumann(s, cosine_problem("neumann"), g),
            lambda s, g: assemble_tau_neumann(s, cosine_problem("neumann"), g),
            lambda s, g: assemble_standard_dirichlet(s, cosine_problem("dirichlet"), g),
        ],
        ids=["weak", "strong", "neumann", "tau", "standard"],
    )
    def test_out_of_range_adjacent_triangle(self, assemble):
        mesh = generate_square_mesh(2)
        edges = list(mesh.boundary_edges)
        v0, v1, _tri, cid = edges[3]
        edges[3] = (v0, v1, len(mesh.triangles), cid)
        space = FeSpace(Mesh(mesh.vertices, mesh.triangles, edges), 2)
        with pytest.raises(AssemblyError, match="lacks a valid adjacent triangle"):
            assemble(space, square_geometry())


class TestStandardBaseline:
    def test_boundary_rows_are_identity(self):
        mesh = generate_disk_mesh(16)
        space = FeSpace(mesh, 2)
        system = assemble_standard_dirichlet(space, cosine_problem("dirichlet"), disk_geometry())
        for dof in space.boundary_dofs[:5]:
            row = system.A[dof].toarray().ravel()
            unit = np.zeros(space.n_dofs)
            unit[dof] = 1.0
            assert np.abs(row - unit).max() == 0.0

    def test_requires_exact_solution(self):
        mesh = generate_disk_mesh(16)
        space = FeSpace(mesh, 2)
        problem = cosine_problem("dirichlet")
        problem.exact_u = None
        with pytest.raises(ConfigurationError):
            assemble_standard_dirichlet(space, problem)

    def test_linear_elements_second_order(self):
        # Degree 1 is unaffected by the boundary transfer: vertices lie on
        # the true boundary, so the classical rate ~2 survives.
        geo = disk_geometry()
        problem = cosine_problem("dirichlet")
        errs = []
        for n in (16, 32, 64):
            mesh = generate_disk_mesh(n)
            space = FeSpace(mesh, 1)
            u = solve(assemble_standard_dirichlet(space, problem, geo))
            l2, _ = error_norms(space, u, problem.exact_u, problem.exact_grad)
            errs.append((mesh.h, l2))
        slope = np.polyfit(np.log([e[0] for e in errs]), np.log([e[1] for e in errs]), 1)[0]
        assert 1.7 <= slope <= 2.4


class TestPatchTests:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_weak_dirichlet_disk(self, k):
        mesh = generate_disk_mesh(16)
        space = FeSpace(mesh, k)
        ok, h1 = patch_test(
            space,
            disk_geometry(),
            assemble_pefem_dirichlet,
            lambda poly: polynomial_problem(poly, "dirichlet"),
            k,
            np.random.default_rng(100 + k),
        )
        assert ok, f"H1 error {h1:.3e}"

    @pytest.mark.parametrize("k", [1, 3])
    def test_neumann_square_hole(self, k):
        mesh = generate_square_hole_mesh(1)
        space = FeSpace(mesh, k)
        ok, h1 = patch_test(
            space,
            square_hole_geometry(),
            assemble_pefem_neumann,
            lambda poly: polynomial_problem(poly, "neumann"),
            k,
            np.random.default_rng(200 + k),
        )
        assert ok, f"H1 error {h1:.3e}"

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "assemble",
        [
            assemble_pefem_dirichlet,
            assemble_pefem_dirichlet_strong,
            lambda space, problem, _geometry: assemble_standard_dirichlet(space, problem),
        ],
        ids=["weak", "strong", "standard"],
    )
    def test_dirichlet_reaction_term(self, assemble, k):
        # -lap u + q u = f with q = 1 + x^2: dropping q leaves an O(1) error.
        def make_problem(poly):
            q = lambda x, y: 1.0 + x**2
            lap, px, py = poly.laplacian(), poly.dx(), poly.dy()
            return ProblemSpec(
                bc_kind="dirichlet",
                q=q,
                f=lambda x, y: q(x, y) * poly(x, y) - lap(x, y),
                g_D=poly,
                exact_u=poly,
                exact_grad=lambda x, y: (px(x, y), py(x, y)),
            )

        space = FeSpace(generate_disk_mesh(16), k)
        rng = np.random.default_rng(300 + k)
        ok, h1 = patch_test(space, disk_geometry(), assemble, make_problem, k, rng)
        assert ok, f"H1 error {h1:.3e}"

    def test_linear_preserved_by_baseline(self):
        # u = x + y survives even the suboptimal transfer: the datum is
        # reproduced exactly by linear interpolation along the normal only
        # up to the gap, but interpolation at the true boundary is exact
        # for the projected values of an affine function restricted there.
        mesh = generate_square_mesh(3)
        space = FeSpace(mesh, 1)
        problem = polynomial_problem(Poly2D([[0.0, 1.0], [1.0, 0.0]]), "dirichlet")
        u = solve(assemble_standard_dirichlet(space, problem, square_geometry()))
        _, h1 = error_norms(space, u, problem.exact_u, problem.exact_grad)
        assert h1 <= 1e-10


class TestRationalProblem:
    def test_solution_is_harmonic(self):
        problem = rational_problem("dirichlet")
        # Finite-difference Laplacian of the exact solution is zero away
        # from the singularity at the origin.
        x, y = 0.37, -0.21
        eps = 1e-4
        u = problem.exact_u
        lap = (
            u(x + eps, y) + u(x - eps, y) + u(x, y + eps) + u(x, y - eps) - 4 * u(x, y)
        ) / eps**2
        assert abs(lap) <= 1e-5

    def test_gradient_formula(self):
        problem = rational_problem("neumann")
        x = np.array([0.3, -0.4, 0.5])
        y = np.array([0.2, 0.3, -0.1])
        eps = 1e-6
        gx, gy = problem.exact_grad(x, y)
        fdx = (problem.exact_u(x + eps, y) - problem.exact_u(x - eps, y)) / (2 * eps)
        fdy = (problem.exact_u(x, y + eps) - problem.exact_u(x, y - eps)) / (2 * eps)
        assert np.abs(gx - fdx).max() <= 1e-6
        assert np.abs(gy - fdy).max() <= 1e-6
