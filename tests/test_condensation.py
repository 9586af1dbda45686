"""Static condensation of the bubble dofs in `solve`.

Every condensed solution is compared with a plain SuperLU solve of the
full assembled matrix, and its residual is taken against that full matrix.
"""

import logging

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

from pefem.analysis import _factorize, compensated_residual, solve
from pefem.fem import FeSpace
from pefem.forms import (
    assemble_pefem_dirichlet,
    assemble_pefem_dirichlet_strong,
    assemble_pefem_neumann,
    assemble_standard_dirichlet,
)
from pefem.geometry import disk_geometry, square_hole_geometry
from pefem.mesh import generate_disk_mesh, generate_square_hole_mesh
from pefem.problems import cosine_problem, rational_problem
from test_edge_table import PROPERTY, perturbed_disk_meshes

ASSEMBLERS = {
    "weak": (assemble_pefem_dirichlet, "dirichlet"),
    "strong": (assemble_pefem_dirichlet_strong, "dirichlet"),
    "neumann": (assemble_pefem_neumann, "neumann"),
    "standard": (assemble_standard_dirichlet, "dirichlet"),
}
DOMAINS = {
    "disk16": (lambda: generate_disk_mesh(16), disk_geometry, cosine_problem),
    "hole1": (lambda: generate_square_hole_mesh(1), square_hole_geometry, rational_problem),
}


def _assemble(mesh, geometry, make_problem, k, assembler):
    assemble, bc_kind = ASSEMBLERS[assembler]
    return assemble(FeSpace(mesh, k), make_problem(bc_kind), geometry)


def _check_against_full_solve(system):
    full = spla.splu(system.A.tocsc()).solve(system.F)
    condensed, n_factored, _ = _factorize(system.A, system.bubble_dofs)
    assert n_factored == system.A.shape[0] - system.bubble_dofs.size
    # One condensed solve, before any refinement, and the refined solution.
    x = solve(system)
    for y in (condensed(system.F), x):
        assert np.linalg.norm(y - full) <= 1e-10 * np.linalg.norm(full)
    r = compensated_residual(system.A, x, system.F)
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(system.F)


@pytest.mark.parametrize("assembler", sorted(ASSEMBLERS))
@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_condensed_solve_matches_full_solve(domain, k, assembler):
    make_mesh, make_geometry, make_problem = DOMAINS[domain]
    _check_against_full_solve(_assemble(make_mesh(), make_geometry(), make_problem, k, assembler))


@pytest.mark.parametrize("assembler", sorted(ASSEMBLERS))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_systems_carry_the_space_bubble_table(k, assembler):
    mesh = generate_square_hole_mesh(1)
    space = FeSpace(mesh, k)
    assemble, bc_kind = ASSEMBLERS[assembler]
    system = assemble(space, rational_problem(bc_kind), square_hole_geometry())
    n_int = (k - 1) * (k - 2) // 2
    if k <= 2:
        assert system.bubble_dofs.size == 0
    assert system.bubble_dofs.shape == (len(mesh.triangles), n_int)
    # The bubbles are the last dofs, element by element, at the nodes
    # strictly inside each element.
    assert np.array_equal(
        system.bubble_dofs.ravel(), np.arange(space.n_dofs - system.bubble_dofs.size, space.n_dofs)
    )
    i, j = np.array(space.ref.node_lattice).T
    inside = (i > 0) & (j > 0) & (i + j < k)
    assert np.array_equal(space.cell_dofs[:, inside], system.bubble_dofs)
    assert not np.isin(system.bubble_dofs, space.boundary_dofs).any()


@PROPERTY
@given(
    perturbed_disk_meshes(),
    st.sampled_from([3, 4]),
    st.sampled_from(sorted(ASSEMBLERS)),
)
def test_condensed_solve_on_perturbed_meshes(mesh, k, assembler):
    _check_against_full_solve(_assemble(mesh, disk_geometry(), cosine_problem, k, assembler))


@pytest.mark.parametrize(
    "make_mesh, make_geometry, make_problem, k, ratio",
    [
        # 197,780 entries in L + U against 305,038 with scipy's defaults.
        (lambda: generate_disk_mesh(64), disk_geometry, cosine_problem, 2, 0.75),
        # 84,994 against 175,122; relaxed supernodes of 4 or 10 columns
        # (SuperLU's default) would be padded to 97,156 or 102,160.
        (lambda: generate_square_hole_mesh(1), square_hole_geometry, rational_problem, 4, 0.52),
    ],
    ids=["disk64-k2", "hole1-k4"],
)
def test_factorization_fills_less_than_scipy_default(make_mesh, make_geometry, make_problem, k, ratio):
    system = _assemble(make_mesh(), make_geometry(), make_problem, k, "neumann")
    _, _, lu_nnz = _factorize(system.A.tocsr(), system.bubble_dofs)
    assert lu_nnz <= ratio * spla.splu(system.A.tocsc()).nnz


def test_large_weak_penalty_needs_no_refinement(caplog):
    # The constraint rows are scaled by theta = c_theta / h, here 1000
    # times the default; the diagonal pivots still meet the contract at
    # once, as partial pivoting did.
    space = FeSpace(generate_disk_mesh(32), 4)
    problem = cosine_problem("dirichlet")
    system = assemble_pefem_dirichlet(space, problem, disk_geometry(), c_theta=1e4)
    with caplog.at_level(logging.DEBUG, logger="pefem.analysis"):
        x = solve(system)
    (record,) = [r for r in caplog.records if r.name == "pefem.analysis"]
    assert record.args[3] == 0
    r = compensated_residual(system.A, x, system.F)
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(system.F)
