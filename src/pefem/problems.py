"""Manufactured-solution presets for the experiment domains.

Each preset builds a ProblemSpec whose source term is derived analytically
from the exact solution, so errors measure only the discretization.
"""

import numpy as np

from .errors import ConfigurationError
from .forms import ProblemSpec, _one


def monomial_sum(x, y, coeffs):
    """The sum over a, b of coeffs[a, b, ...] x^a y^b at the points (x, y).

    x and y broadcast against each other.  Trailing axes of coeffs hold
    m polynomials, evaluated together: the result has shape
    broadcast(x, y).shape + coeffs.shape[2:].  The powers of x and of y
    are tables built by repeated products; one GEMM sums the powers of y
    for each a and each polynomial, and the powers of x then weight those
    sums.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    c = np.asarray(coeffs, dtype=float)
    n_a, n_b = c.shape[:2]
    m = c[0, 0].size
    x_powers, y_powers = _powers(x.ravel(), n_a), _powers(y.ravel(), n_b)
    over_b = np.swapaxes(c.reshape(n_a, n_b, m), 1, 2).reshape(-1, n_b) @ y_powers
    over_b = over_b.reshape(n_a, m, x.size)
    out = over_b[0]
    for a in range(1, n_a):
        out = out + x_powers[a] * over_b[a]
    return out.T.reshape(x.shape + c.shape[2:])[()]


def _powers(t, n):
    """t^0, ..., t^(n-1) as the rows of an (n, len(t)) array."""
    out = np.empty((n, len(t)))
    out[0] = 1.0
    for a in range(1, n):
        np.multiply(out[a - 1], t, out=out[a])
    return out


class Poly2D:
    """Bivariate polynomial sum c[i, j] x^i y^j with analytic derivatives.

    Trailing axes of c hold several polynomials, which a call evaluates
    together (see `monomial_sum`); the derivatives and sums take 2-D c.
    """

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)

    def __call__(self, x, y):
        return monomial_sum(x, y, self.coeffs)

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
        shape = np.maximum(a.shape, b.shape)
        return Poly2D(_padded(a, shape) + _padded(b, shape))


def _padded(coeffs, shape):
    """2-D coefficients zero-padded to `shape`."""
    out = np.zeros(shape)
    out[: coeffs.shape[0], : coeffs.shape[1]] = coeffs
    return out


def random_polynomial(degree, rng):
    """Random coefficients in [-1, 1] for total degree <= `degree`."""
    coeffs = rng.uniform(-1.0, 1.0, size=(degree + 1, degree + 1))
    powers = np.arange(degree + 1)
    coeffs[np.add.outer(powers, powers) > degree] = 0.0
    return Poly2D(coeffs)


def _problem(bc_kind, u, grad, f_dirichlet, f_neumann):
    """ProblemSpec with exact solution u, gradient grad and p = 1: for
    Dirichlet, the source f_dirichlet and g_D = u; for Neumann, q = 1, the
    source f_neumann and g_N = grad u . n."""
    if bc_kind == "dirichlet":
        return ProblemSpec(bc_kind=bc_kind, f=f_dirichlet, g_D=u, exact_u=u, exact_grad=grad)

    def g_N(x, y, nx, ny):
        gx, gy = grad(x, y)
        return gx * nx + gy * ny

    return ProblemSpec(bc_kind=bc_kind, q=_one, f=f_neumann, g_N=g_N, exact_u=u, exact_grad=grad)


def cosine_problem(bc_kind):
    """Smooth manufactured solution cos(x)cos(y) with unit coefficients."""
    return _problem(
        bc_kind,
        lambda x, y: np.cos(x) * np.cos(y),
        lambda x, y: (-np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)),
        f_dirichlet=lambda x, y: 2.0 * np.cos(x) * np.cos(y),
        f_neumann=lambda x, y: 3.0 * np.cos(x) * np.cos(y),
    )


def rational_problem(bc_kind):
    """Harmonic solution -(17/16) x / (x^2 + y^2), singular inside the hole."""
    c = -17.0 / 16.0

    def u(x, y):
        return c * x / (x**2 + y**2)

    def grad(x, y):
        r2 = x**2 + y**2
        return c * (y**2 - x**2) / r2**2, -2.0 * c * x * y / r2**2

    # With q = 1 and the solution harmonic, the Neumann source is the solution.
    f_zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    return _problem(bc_kind, u, grad, f_dirichlet=f_zero, f_neumann=u)


def polynomial_problem(poly, bc_kind):
    """ProblemSpec for a polynomial exact solution with p = q = 1.  The
    source is one Poly2D and the gradient one Poly2D with a trailing axis
    (d/dx, d/dy), so each is a single evaluation."""
    shape = poly.coeffs.shape
    grad = Poly2D(np.stack([_padded(poly.dx().coeffs, shape), _padded(poly.dy().coeffs, shape)], -1))
    minus_lap = Poly2D(-poly.laplacian().coeffs)
    return _problem(
        bc_kind,
        poly,
        lambda x, y: np.moveaxis(grad(x, y), -1, 0),
        f_dirichlet=minus_lap,
        f_neumann=minus_lap + poly,
    )


def preset_problem(name, bc_kind):
    if name == "convex-cos":
        return cosine_problem(bc_kind)
    if name == "nonconvex-rational":
        return rational_problem(bc_kind)
    raise ConfigurationError(f"unknown problem preset {name!r}")
