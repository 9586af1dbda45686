"""Optimal rates with non-constant coefficients on the disk.

The extended flux then evaluates p at the closest points on the true
curve, off the polygonal domain, which the unit-coefficient presets never
exercise.
"""

import numpy as np
import pytest

from pefem.forms import ProblemSpec
from pefem.geometry import disk_geometry
from pefem.mesh import generate_disk_mesh
from test_acceptance import _convergence
from test_ellipse import ASSEMBLERS


def _variable_coefficient_problem(bc_kind):
    """u = cos x cos y with p = 1 + x^2/2 + y^2/4 and q = 1 + sin(x + y)/2:
    f = -div(p grad u) + q u, g_D = u, g_N = p grad u . n."""

    def u(x, y):
        return np.cos(x) * np.cos(y)

    def grad(x, y):
        return -np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)

    def p(x, y):
        return 1.0 + x**2 / 2.0 + y**2 / 4.0

    def q(x, y):
        return 1.0 + np.sin(x + y) / 2.0

    def f(x, y):
        # grad p = (x, y/2) and laplacian u = -2u.
        ux, uy = grad(x, y)
        return -(x * ux + y / 2.0 * uy) + (2.0 * p(x, y) + q(x, y)) * u(x, y)

    def g_N(x, y, nx, ny):
        ux, uy = grad(x, y)
        return p(x, y) * (ux * nx + uy * ny)

    return ProblemSpec(bc_kind=bc_kind, p=p, q=q, f=f, g_D=u, g_N=g_N, exact_u=u, exact_grad=grad)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("method", list(ASSEMBLERS))
def test_optimal_rates_with_variable_coefficients(method, k):
    # The thresholds of acceptance criterion 2, on its meshes.
    assemble, bc_kind = ASSEMBLERS[method]
    meshes = [generate_disk_mesh(n) for n in (16, 32, 64, 128)]
    problem = _variable_coefficient_problem(bc_kind)
    l2, h1 = _convergence(meshes, disk_geometry(), problem, assemble, k)
    assert l2 >= k + 0.75 and h1 >= k - 0.25, f"L2 {l2:.2f}, H1 {h1:.2f}"
