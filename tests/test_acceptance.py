"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run) in addition to its pytest verdict.
"""

import math
import time

import numpy as np
import pytest

from pefem.analysis import error_norms, fit_rate, patch_test, solve
from pefem.fem import FeSpace, ReferenceElement, assemble_operator, triangle_quadrature
from pefem.forms import (
    assemble_pefem_dirichlet,
    assemble_pefem_dirichlet_strong,
    assemble_pefem_neumann,
    assemble_standard_dirichlet,
    assemble_tau_neumann,
)
from pefem.geometry import (
    disk_geometry,
    geometric_gap,
    square_geometry,
    square_hole_geometry,
)
from pefem.mesh import (
    generate_disk_mesh,
    generate_square_hole_mesh,
    generate_square_mesh,
    validate,
)
from pefem.problems import cosine_problem, polynomial_problem, rational_problem

DISK_GEO = disk_geometry()
HOLE_GEO = square_hole_geometry()


def _report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _convergence(meshes, geometry, problem, assemble, degree):
    errs = []
    for mesh in meshes:
        space = FeSpace(mesh, degree)
        u_h = solve(assemble(space, problem, geometry))
        errs.append((mesh.h,) + error_norms(space, u_h, problem.exact_u, problem.exact_grad))
    l2_slope, _ = fit_rate([(h, e) for h, e, _ in errs[-3:]])
    h1_slope, _ = fit_rate([(h, e) for h, _, e in errs[-3:]])
    return l2_slope, h1_slope


def test_criterion_1_patch_tests():
    """Every method/domain/degree reproduces random degree-k solutions."""
    start = time.time()
    cases = []
    rng = np.random.default_rng(2024)
    for domain, mesh, geo in (
        ("disk", generate_disk_mesh(16), DISK_GEO),
        ("square-hole", generate_square_hole_mesh(1), HOLE_GEO),
    ):
        for k in (1, 2, 3, 4):
            space = FeSpace(mesh, k)
            for method, assemble, bc in (
                ("weak-dirichlet", assemble_pefem_dirichlet, "dirichlet"),
                ("strong-dirichlet", assemble_pefem_dirichlet_strong, "dirichlet"),
                ("neumann", assemble_pefem_neumann, "neumann"),
            ):
                ok, h1 = patch_test(
                    space, geo, assemble, lambda p: polynomial_problem(p, bc), rng
                )
                cases.append((domain, method, k, ok, h1))
    elapsed = time.time() - start
    failures = [c for c in cases if not c[3]]
    worst = max(c[4] for c in cases)
    _report(
        1,
        not failures and elapsed < 60.0,
        f"24/24 patch tests, worst H1 error {worst:.2e}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_convex_optimal_rates():
    """Disk, u = cos(x)cos(y): optimal rates for k = 2, 3, 4, both BCs."""
    start = time.time()
    meshes = [generate_disk_mesh(n) for n in (16, 32, 64, 128)]
    results = []
    for k in (2, 3, 4):
        for bc, assemble in (
            ("dirichlet", assemble_pefem_dirichlet),
            ("neumann", assemble_pefem_neumann),
        ):
            problem = cosine_problem(bc)
            l2, h1 = _convergence(meshes, DISK_GEO, problem, assemble, k)
            results.append((k, bc, l2, h1, l2 >= k + 0.75 and h1 >= k - 0.25))
    elapsed = time.time() - start
    detail = "; ".join(f"k={k} {bc}: L2 {l2:.2f}, H1 {h1:.2f}" for k, bc, l2, h1, _ in results)
    _report(
        2,
        all(r[4] for r in results) and elapsed < 600.0,
        f"{detail}; {elapsed:.0f}s (< 600s)",
    )


def test_criterion_3_nonconvex_optimal_rates():
    """Square-with-hole, u = -(17/16) x / (x^2 + y^2): optimal rates."""
    start = time.time()
    coarse = [generate_square_hole_mesh(l) for l in (0, 1, 2, 3)]
    fine = coarse[1:] + [generate_square_hole_mesh(4)]
    results = []
    for k in (2, 3, 4):
        # Quartic elements resolve the coarsest level to near round-off,
        # so their window starts one level finer.
        meshes = fine if k == 4 else coarse
        for bc, assemble in (
            ("dirichlet", assemble_pefem_dirichlet),
            ("neumann", assemble_pefem_neumann),
        ):
            problem = rational_problem(bc)
            l2, h1 = _convergence(meshes, HOLE_GEO, problem, assemble, k)
            results.append((k, bc, l2, h1, l2 >= k + 0.75 and h1 >= k - 0.25))
    elapsed = time.time() - start
    detail = "; ".join(f"k={k} {bc}: L2 {l2:.2f}, H1 {h1:.2f}" for k, bc, l2, h1, _ in results)
    _report(
        3,
        all(r[4] for r in results) and elapsed < 600.0,
        f"{detail}; {elapsed:.0f}s (< 600s)",
    )


def test_criterion_4_standard_method_capped():
    """The nodal-transfer baseline stays near second order for k >= 2."""
    start = time.time()
    meshes = [generate_disk_mesh(n) for n in (16, 32, 64, 128)]
    problem = cosine_problem("dirichlet")
    results = []
    for k in (2, 3, 4):
        l2, h1 = _convergence(meshes, DISK_GEO, problem, assemble_standard_dirichlet, k)
        results.append((k, l2, h1, 1.8 <= l2 <= 2.5 and 1.3 <= h1 <= 1.9))
    elapsed = time.time() - start
    detail = "; ".join(f"k={k}: L2 {l2:.2f}, H1 {h1:.2f}" for k, l2, h1, _ in results)
    _report(
        4,
        all(r[3] for r in results) and elapsed < 300.0,
        f"{detail}; {elapsed:.0f}s (< 300s)",
    )


def test_criterion_5_geometric_gap_scaling():
    """The boundary gap scales like h^2 and obeys the sagitta bound."""
    data = []
    bound_ok = True
    for n in (64, 128, 256, 512):
        mesh = generate_disk_mesh(n)
        gap = geometric_gap(mesh, DISK_GEO)
        data.append((mesh.h, gap))
        bound_ok = bound_ok and gap <= mesh.h**2 / 8.0 * 1.001
    slope, _ = fit_rate(data)
    _report(
        5,
        1.8 <= slope <= 2.2 and bound_ok,
        f"gap slope {slope:.3f} in [1.8, 2.2], sagitta bound holds on all 4 levels",
    )


def test_criterion_6_theta_invariance():
    """Doubling the constraint scaling leaves the solution unchanged."""
    mesh = generate_disk_mesh(32)
    space = FeSpace(mesh, 3)
    problem = cosine_problem("dirichlet")
    u_a = solve(assemble_pefem_dirichlet(space, problem, DISK_GEO, c_theta=10.0))
    u_b = solve(assemble_pefem_dirichlet(space, problem, DISK_GEO, c_theta=20.0))
    rel = np.linalg.norm(u_a - u_b) / np.linalg.norm(u_a)
    _report(6, rel <= 1e-8, f"relative coefficient change {rel:.2e} <= 1e-8")


def test_criterion_7_tau_vanishes_on_straight_boundary():
    """The Neumann correction is identically zero when the boundaries match."""
    mesh = generate_square_mesh(4)
    space = FeSpace(mesh, 3)
    problem = cosine_problem("neumann")
    tau = assemble_tau_neumann(space, problem, square_geometry())
    N = assemble_operator(space, p=problem.p, q=problem.q)
    tau_max = np.abs(tau.data).max() if tau.nnz else 0.0
    n_max = np.abs(N.data).max()
    _report(7, tau_max <= 1e-12 * n_max, f"max|tau| {tau_max:.2e} <= 1e-12 * max|N| ({n_max:.2e})")


def test_criterion_8_oracle_equivalences():
    """Rate fitter, quadrature, and the P1 stiffness match known values."""
    # Published quadratic-element convergence history and its stated rate.
    h = [0.583095, 0.315543, 0.165152, 0.080322, 0.045221]
    l2 = [6.83996e-04, 8.71107e-05, 1.07759e-05, 1.28123e-06, 1.59731e-07]
    slope, _ = fit_rate(list(zip(h, l2)))
    rate_ok = abs(slope - 3.2283) <= 0.05

    quad_ok = True
    for k in (1, 2, 3, 4):
        deg = 2 * k + 2
        pts, wts = triangle_quadrature(deg)
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                got = float(np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b))
                want = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                quad_ok = quad_ok and abs(got - want) <= 1e-14 + 1e-13 * want

    from pefem.mesh import Mesh

    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    edges = [(0, 1, 0, "square"), (1, 2, 0, "square"), (0, 2, 0, "square")]
    space = FeSpace(Mesh(verts, tris, edges), 1)
    A = assemble_operator(space).toarray()
    want = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    stiff_ok = np.abs(A - want).max() <= 1e-12

    _report(
        8,
        rate_ok and quad_ok and stiff_ok,
        f"fitted rate {slope:.4f} vs 3.2283; quadrature exact to 2k+2; P1 stiffness exact",
    )


def test_criterion_9_property_suite():
    """Basis, mesh, solver, and matrix-structure properties."""
    rng = np.random.default_rng(7)

    # Partition of unity at extrapolated points, gradients vs differences.
    basis_ok = True
    for k in (1, 2, 3, 4):
        ref = ReferenceElement(k)
        pts = rng.uniform(-1.5, 2.5, size=(30, 2))
        vals, grads = ref.eval(pts)
        basis_ok = basis_ok and np.abs(vals.sum(axis=1) - 1.0).max() <= 1e-10
        eps = 1e-6
        vp, _ = ref.eval(pts + [eps, 0.0])
        vm, _ = ref.eval(pts - [eps, 0.0])
        fd = (vp - vm) / (2 * eps)
        # Far outside the triangle the polynomials and their higher
        # derivatives are large, so compare relative to the gradient scale.
        scale = max(1.0, np.abs(grads).max())
        basis_ok = basis_ok and np.abs(fd - grads[:, :, 0]).max() <= 1e-7 * scale

    # Mesh validation across all generated families.
    mesh_ok = all(
        validate(mesh, geo).ok
        for mesh, geo in (
            (generate_disk_mesh(16), DISK_GEO),
            (generate_disk_mesh(64), DISK_GEO),
            (generate_square_hole_mesh(0), HOLE_GEO),
            (generate_square_hole_mesh(2), HOLE_GEO),
            (generate_square_mesh(4), square_geometry()),
        )
    )

    # Residual contract and interior-block symmetry on experimental systems.
    solver_ok = True
    symmetry_ok = True
    systems = [
        (FeSpace(generate_disk_mesh(32), 2), cosine_problem("dirichlet"), assemble_pefem_dirichlet, DISK_GEO),
        (FeSpace(generate_disk_mesh(32), 3), cosine_problem("neumann"), assemble_pefem_neumann, DISK_GEO),
        (FeSpace(generate_square_hole_mesh(2), 2), rational_problem("dirichlet"), assemble_pefem_dirichlet_strong, HOLE_GEO),
        (FeSpace(generate_disk_mesh(32), 2), cosine_problem("dirichlet"), assemble_standard_dirichlet, DISK_GEO),
    ]
    for space, problem, assemble, geo in systems:
        system = assemble(space, problem, geo)
        x = solve(system)
        residual = np.linalg.norm(system.A @ x - system.F) / np.linalg.norm(system.F)
        solver_ok = solver_ok and residual <= 1e-12
        sub = system.A[np.ix_(space.interior_dofs, space.interior_dofs)]
        asym = np.abs((sub - sub.T).toarray()).max()
        symmetry_ok = symmetry_ok and asym <= 1e-12 * np.abs(sub.toarray()).max()

    _report(
        9,
        basis_ok and mesh_ok and solver_ok and symmetry_ok,
        "partition of unity, gradient differences, mesh validation, "
        "solver residuals, interior symmetry all hold",
    )
