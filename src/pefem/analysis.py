"""Linear solves, error norms, convergence-rate fitting, patch tests."""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, SingularSystemError, SolverError
from .fem import _reference_tables, _volume_quadrature

RESIDUAL_TOL = 1e-12


def solve(system):
    """Sparse direct solve meeting a relative-residual contract of 1e-12."""
    A = system.A.tocsc()
    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc
    x = lu.solve(system.F)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite entries")
    fn = np.linalg.norm(system.F)
    residual = np.linalg.norm(A @ x - system.F) / (fn if fn > 0 else 1.0)
    if residual > RESIDUAL_TOL:
        # Iterative refinement with the same factorization and
        # extended-precision residuals: plain double-precision refinement
        # stalls once the residual reaches the rounding floor of A @ x.
        A_ext = A.astype(np.longdouble)
        F_ext = system.F.astype(np.longdouble)
        x_ext = x.astype(np.longdouble)
        for _ in range(10):
            r = F_ext - A_ext @ x_ext
            residual = float(np.linalg.norm(r.astype(float)) / (fn if fn > 0 else 1.0))
            if residual <= RESIDUAL_TOL:
                break
            x_ext = x_ext + lu.solve(r.astype(float)).astype(np.longdouble)
        else:
            raise SolverError(f"relative residual {residual:.3e} exceeds 1e-12")
        x = x_ext.astype(float)
    return x


def error_norms(space, u_h, exact_u, exact_grad):
    """Broken L2 and H1 errors against a globally defined exact solution.

    Both are element-wise quadratures over the polygonal domain; the H1
    norm includes the L2 part.
    """
    if exact_u is None or exact_grad is None:
        raise ConfigurationError("error norms need the exact solution and gradient")
    x, w = _volume_quadrature(space)
    vals, grads, _grad_grad, _val_val = _reference_tables(space.degree)
    local = np.asarray(u_h)[space.cell_dofs]  # (m, nb)
    uh_vals = np.einsum("mb,qb->mq", local, vals)
    uh_ref_grads = np.einsum("mb,qbd->mqd", local, grads)
    uh_grads = np.einsum("mqd,mde->mqe", uh_ref_grads, space.Binv)

    u_vals = exact_u(x[..., 0], x[..., 1])
    gx, gy = exact_grad(x[..., 0], x[..., 1])
    l2_sq = float(np.sum(w * (u_vals - uh_vals) ** 2))
    grad_sq = float(
        np.sum(w * ((gx - uh_grads[..., 0]) ** 2 + (gy - uh_grads[..., 1]) ** 2))
    )
    return np.sqrt(l2_sq), np.sqrt(l2_sq + grad_sq)


def fit_rate(points):
    """Least-squares slope of log(error) vs log(h), plus pairwise rates."""
    pts = [(float(h), float(e)) for h, e in points]
    if len(pts) < 2:
        raise ValueError("need at least two (h, error) points")
    h = np.array([p[0] for p in pts])
    e = np.array([p[1] for p in pts])
    if np.any(h <= 0) or np.any(e <= 0):
        raise ValueError("h and error values must be positive")
    if len(np.unique(h)) != len(h):
        raise ValueError("h values must be distinct")
    slope = float(np.polyfit(np.log(h), np.log(e), 1)[0])
    pairwise = [
        float(np.log(e[i] / e[i + 1]) / np.log(h[i] / h[i + 1]))
        for i in range(len(h) - 1)
    ]
    return slope, pairwise


@dataclass
class LevelResult:
    level: int
    h: float
    delta_h: float
    dofs: int
    l2_error: float
    h1_error: float


@dataclass
class ConvergenceReport:
    """Per-refinement errors for one method/degree, with fitted slopes."""

    method: str
    degree: int
    levels: list = field(default_factory=list)

    def add(self, result):
        if self.levels and result.h >= self.levels[-1].h:
            raise ValueError("mesh size must decrease across levels")
        self.levels.append(result)

    def _slope(self, errors, last=None):
        lv = self.levels if last is None else self.levels[-last:]
        er = errors[-len(lv):]
        return fit_rate([(l.h, e) for l, e in zip(lv, er)])[0]

    def l2_slope(self, last=None):
        return self._slope([l.l2_error for l in self.levels], last)

    def h1_slope(self, last=None):
        return self._slope([l.h1_error for l in self.levels], last)

    def pairwise_rates(self):
        """Per-level (l2, h1) rates; None for the coarsest level."""
        out = [(None, None)]
        for prev, cur in zip(self.levels, self.levels[1:]):
            ratio = np.log(prev.h / cur.h)
            out.append(
                (
                    float(np.log(prev.l2_error / cur.l2_error) / ratio),
                    float(np.log(prev.h1_error / cur.h1_error) / ratio),
                )
            )
        return out


def patch_test(space, geometry, assemble, make_problem, degree, rng):
    """Solve for a random polynomial of the discretization degree and
    report whether it is reproduced to solver accuracy.

    `assemble` maps (space, problem, geometry) to a linear system;
    `make_problem` maps a random polynomial to a ProblemSpec.
    """
    from .problems import random_polynomial

    poly = random_polynomial(degree, rng)
    problem = make_problem(poly)
    system = assemble(space, problem, geometry)
    u_h = solve(system)
    l2, h1 = error_norms(space, u_h, problem.exact_u, problem.exact_grad)
    scale = max(1.0, np.abs(poly.coeffs).sum())
    return h1 <= 1e-8 * scale, h1
