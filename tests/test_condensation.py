"""`solve` on assembled finite-element systems.

`solve` factorizes the whole assembled matrix; the element-interior
("bubble") dofs are no longer condensed out first.  These tests check that
factorization on real systems: the residual contract for every assembler
at k = 3 and 4, its fill against SuperLU's defaults, that SuperLU reads
the assembled arrays without a copy, and large weak penalties.
"""

import logging

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

from pefem.analysis import BACKWARD_ERROR_TOL, _splu, compensated_residual, solve
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
from test_analysis import exact_backward_error, solve_with_record
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


def _check_contract(system):
    x = solve(system)
    r = compensated_residual(system.A, x, system.F)
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(system.F)


@pytest.mark.parametrize("assembler", sorted(ASSEMBLERS))
@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_assembled_systems_meet_the_contract(domain, k, assembler):
    make_mesh, make_geometry, make_problem = DOMAINS[domain]
    _check_contract(_assemble(make_mesh(), make_geometry(), make_problem, k, assembler))


@PROPERTY
@given(
    perturbed_disk_meshes(),
    st.sampled_from([3, 4]),
    st.sampled_from(sorted(ASSEMBLERS)),
)
def test_assembled_systems_meet_the_contract_on_perturbed_meshes(mesh, k, assembler):
    _check_contract(_assemble(mesh, disk_geometry(), cosine_problem, k, assembler))


@PROPERTY
@given(perturbed_disk_meshes(), st.integers(1, 4), st.sampled_from(sorted(ASSEMBLERS)))
def test_proven_bound_holds_on_perturbed_meshes(mesh, k, assembler):
    # The exact normwise backward error of the x returned is within the
    # bound `solve` proved, on every assembler's matrix.
    system = _assemble(mesh, disk_geometry(), cosine_problem, k, assembler)
    x, record = solve_with_record(system)
    assert exact_backward_error(system.A, x, system.F) <= record.bound <= BACKWARD_ERROR_TOL


@pytest.mark.parametrize(
    "make_mesh, make_geometry, make_problem, k, ratio",
    [
        # 169,572 entries in L + U against 305,038 with scipy's defaults;
        # relaxed supernodes of up to 3 columns would be padded to 197,780.
        (lambda: generate_disk_mesh(64), disk_geometry, cosine_problem, 2, 0.6),
        # 105,418 against 175,122; relaxed supernodes of 4 or 10 columns
        # (SuperLU's default) would be padded to 105,664 or 112,900.
        (lambda: generate_square_hole_mesh(1), square_hole_geometry, rational_problem, 4, 0.62),
        # 246,242 against 507,778; relaxed supernodes of up to 3 columns
        # would be padded to 555,868, more than the default stores.
        (lambda: generate_square_hole_mesh(2), square_hole_geometry, rational_problem, 3, 0.55),
    ],
    ids=["disk64-k2", "hole1-k4", "hole2-k3"],
)
def test_factorization_fills_less_than_scipy_default(make_mesh, make_geometry, make_problem, k, ratio):
    system = _assemble(make_mesh(), make_geometry(), make_problem, k, "neumann")
    assert _splu(system.A).nnz <= ratio * spla.splu(system.A.tocsc()).nnz


def test_superlu_reads_the_assembled_arrays(monkeypatch):
    # `solve` hands SuperLU the CSC view A.T of the CSR matrix, not a copy,
    # with the settings `solve` documents.
    system = _assemble(generate_disk_mesh(16), disk_geometry(), cosine_problem, 3, "neumann")
    factor, seen = spla.splu, []

    def spy(M, **options):
        seen.append((M, options))
        return factor(M, **options)

    monkeypatch.setattr(spla, "splu", spy)
    _check_contract(system)
    [(M, options)] = seen
    assert M.format == "csc"
    assert np.shares_memory(M.data, system.A.data)
    assert np.shares_memory(M.indices, system.A.indices)
    assert options == dict(
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.1,
        relax=1,
        panel_size=1,
        options=dict(SymmetricMode=True),
    )


def test_large_weak_penalty_needs_no_refinement(caplog):
    # The constraint rows are scaled by theta = c_theta / h, here 1000
    # times the default; the diagonal pivots still meet the contract at
    # once, as partial pivoting did.
    space = FeSpace(generate_disk_mesh(32), 4)
    problem = cosine_problem("dirichlet")
    system = assemble_pefem_dirichlet(space, problem, disk_geometry(), c_theta=1e4)
    with caplog.at_level(logging.DEBUG, logger="pefem.analysis"):
        x = solve(system)
    records = [r for r in caplog.records if r.name == "pefem.analysis"]
    assert records[0].args[2] == 0
    r = compensated_residual(system.A, x, system.F)
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(system.F)
