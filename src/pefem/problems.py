"""Manufactured-solution presets for the experiment domains.

Each preset builds a ProblemSpec whose source term is derived analytically
from the exact solution, so errors measure only the discretization.
"""

import numpy as np

from .errors import ConfigurationError
from .forms import ProblemSpec


class Poly2D:
    """Bivariate polynomial sum c[i, j] x^i y^j with analytic derivatives."""

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)

    def __call__(self, x, y):
        return np.polynomial.polynomial.polyval2d(x, y, self.coeffs)

    def dx(self):
        c = self.coeffs
        if c.shape[0] == 1:
            return Poly2D(np.zeros((1, c.shape[1])))
        return Poly2D(c[1:] * np.arange(1, c.shape[0])[:, None])

    def dy(self):
        c = self.coeffs
        if c.shape[1] == 1:
            return Poly2D(np.zeros((c.shape[0], 1)))
        return Poly2D(c[:, 1:] * np.arange(1, c.shape[1])[None, :])

    def laplacian(self):
        return Poly2D(self.dx().dx().coeffs) + Poly2D(self.dy().dy().coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        rows = max(a.shape[0], b.shape[0])
        cols = max(a.shape[1], b.shape[1])
        out = np.zeros((rows, cols))
        out[: a.shape[0], : a.shape[1]] += a
        out[: b.shape[0], : b.shape[1]] += b
        return Poly2D(out)


def random_polynomial(degree, rng):
    """Random coefficients in [-1, 1] for total degree <= `degree`."""
    coeffs = rng.uniform(-1.0, 1.0, size=(degree + 1, degree + 1))
    for i in range(degree + 1):
        for j in range(degree + 1):
            if i + j > degree:
                coeffs[i, j] = 0.0
    return Poly2D(coeffs)


def _one(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def cosine_problem(bc_kind):
    """Smooth manufactured solution cos(x)cos(y) with unit coefficients."""
    u = lambda x, y: np.cos(x) * np.cos(y)
    grad = lambda x, y: (-np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y))
    if bc_kind == "dirichlet":
        f = lambda x, y: 2.0 * np.cos(x) * np.cos(y)
        return ProblemSpec(
            bc_kind="dirichlet", p=_one, f=f, g_D=u, exact_u=u, exact_grad=grad
        )
    f = lambda x, y: 3.0 * np.cos(x) * np.cos(y)

    def g_N(x, y, nx, ny):
        gx, gy = grad(x, y)
        return gx * nx + gy * ny

    return ProblemSpec(
        bc_kind="neumann", p=_one, q=_one, f=f, g_N=g_N, exact_u=u, exact_grad=grad
    )


def rational_problem(bc_kind):
    """Harmonic solution -(17/16) x / (x^2 + y^2), singular inside the hole."""
    c = -17.0 / 16.0

    def u(x, y):
        return c * x / (x**2 + y**2)

    def grad(x, y):
        r2 = x**2 + y**2
        return c * (y**2 - x**2) / r2**2, -2.0 * c * x * y / r2**2

    if bc_kind == "dirichlet":
        f = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
        return ProblemSpec(
            bc_kind="dirichlet", p=_one, f=f, g_D=u, exact_u=u, exact_grad=grad
        )
    # With q = 1 and the solution harmonic, the source is the solution.
    f = u

    def g_N(x, y, nx, ny):
        gx, gy = grad(x, y)
        return gx * nx + gy * ny

    return ProblemSpec(
        bc_kind="neumann", p=_one, q=_one, f=f, g_N=g_N, exact_u=u, exact_grad=grad
    )


def polynomial_problem(poly, bc_kind):
    """ProblemSpec for a polynomial exact solution with p = q = 1."""
    px, py = poly.dx(), poly.dy()
    lap = poly.laplacian()
    grad = lambda x, y: (px(x, y), py(x, y))
    if bc_kind == "dirichlet":
        f = lambda x, y: -lap(x, y)
        return ProblemSpec(
            bc_kind="dirichlet", p=_one, f=f, g_D=poly, exact_u=poly, exact_grad=grad
        )
    f = lambda x, y: -lap(x, y) + poly(x, y)

    def g_N(x, y, nx, ny):
        return px(x, y) * nx + py(x, y) * ny

    return ProblemSpec(
        bc_kind="neumann", p=_one, q=_one, f=f, g_N=g_N, exact_u=poly, exact_grad=grad
    )


def preset_problem(name, bc_kind):
    if name == "convex-cos":
        return cosine_problem(bc_kind)
    if name == "nonconvex-rational":
        return rational_problem(bc_kind)
    raise ConfigurationError(f"unknown problem preset {name!r}")
