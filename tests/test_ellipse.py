"""The ellipse domain: a curve with no closed-form projection, so every
closest point of a solve comes from the Newton iteration."""

import numpy as np
import pytest

from pefem.forms import (
    assemble_pefem_dirichlet,
    assemble_pefem_dirichlet_strong,
    assemble_pefem_neumann,
)
from pefem.geometry import ellipse_geometry
from pefem.mesh import generate_disk_mesh, generate_ellipse_mesh, validate
from pefem.problems import cosine_problem
from test_acceptance import _convergence

GEO = ellipse_geometry()
ASSEMBLERS = {
    "weak": (assemble_pefem_dirichlet, "dirichlet"),
    "strong": (assemble_pefem_dirichlet_strong, "dirichlet"),
    "neumann": (assemble_pefem_neumann, "neumann"),
}


class TestEllipseMesh:
    def test_is_the_scaled_disk_mesh(self):
        disk, mesh = generate_disk_mesh(32), generate_ellipse_mesh(32, 1.5, 0.5)
        assert np.array_equal(mesh.vertices, disk.vertices * [1.5, 0.5])
        assert np.array_equal(mesh.triangles, disk.triangles)
        assert [e[:3] for e in mesh.boundary_edges] == [e[:3] for e in disk.boundary_edges]
        assert {e[3] for e in mesh.boundary_edges} == {"ellipse"}

    # From 32 to 300, n = 51 and 70 have the smallest angles, 20.81 and
    # 21.04 deg.
    @pytest.mark.parametrize("n", [32, 51, 64, 70, 128])
    def test_validates_from_32_on(self, n):
        assert validate(generate_ellipse_mesh(n), GEO).violations == []

    def test_coarsest_disk_level_is_too_flat(self):
        # The disk's n = 16 scaled by diag(1, 0.6) falls below 20 degrees,
        # which is why the ellipse family starts at n = 32.
        assert validate(generate_ellipse_mesh(16), GEO).violations == [
            "minimum angle 19.12 deg below 20.0 deg"
        ]

    def test_rejects_nonpositive_axes(self):
        with pytest.raises(ValueError):
            generate_ellipse_mesh(32, 1.0, 0.0)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("method", list(ASSEMBLERS))
def test_optimal_rates_through_newton_projection(method, k):
    # The thresholds of acceptance criterion 2 on the disk.
    assemble, bc_kind = ASSEMBLERS[method]
    meshes = [generate_ellipse_mesh(n) for n in (32, 64, 128)]
    l2, h1 = _convergence(meshes, GEO, cosine_problem(bc_kind), assemble, k)
    assert l2 >= k + 0.75 and h1 >= k - 0.25, f"L2 {l2:.2f}, H1 {h1:.2f}"
