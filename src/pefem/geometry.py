"""Curved-boundary description: level sets, closest-point maps, normals.

The true boundary of the computational domain is represented as a set of
components, each given by a level set that is negative inside the domain,
zero on the boundary and positive outside.  Components may additionally
carry an exact closest-point formula (circles, straight segments); a damped
Newton iteration on the projection optimality system is used otherwise.
"""

import logging

import numpy as np

from .errors import DegenerateGradientError, ProjectionError

log = logging.getLogger(__name__)

#: |step| threshold at which the Newton projection is declared converged.
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 50

#: tolerance for "the point lies on the boundary".
ON_BOUNDARY_TOL = 1e-12

#: samples per boundary edge, endpoints included, in geometric_gap.
GAP_SAMPLES_PER_EDGE = 33


class BoundaryComponent:
    """One connected piece of the true boundary.

    Parameters
    ----------
    level_set : callable(x, y) -> phi
        Vectorized; negative inside the domain, zero on the component.
    gradient : callable(x, y) -> (dphi_dx, dphi_dy)
        Vectorized gradient of the level set.
    project : callable(points) -> points, optional
        Exact closest-point formula, applied to an (n, 2) array.  When
        absent, projection falls back to Newton iteration.
    """

    def __init__(self, level_set, gradient, project=None):
        self.level_set = level_set
        self.gradient = gradient
        self.project = project


def circle_component(center, radius, domain_side="inside"):
    """Circular boundary component with exact radial projection.

    ``domain_side`` says where the computational domain lies relative to
    the circle: "inside" (e.g. a disk) or "outside" (e.g. a circular hole),
    which fixes the sign of the level set so it is negative in the domain.
    """
    cx, cy = float(center[0]), float(center[1])
    r = float(radius)
    sign = 1.0 if domain_side == "inside" else -1.0

    def level_set(x, y):
        return sign * (np.hypot(x - cx, y - cy) - r)

    def gradient(x, y):
        d = np.hypot(x - cx, y - cy)
        return sign * (x - cx) / d, sign * (y - cy) / d

    def project(points):
        points = np.asarray(points, dtype=float)
        rel = points - [cx, cy]
        d = np.linalg.norm(rel, axis=-1, keepdims=True)
        return [cx, cy] + r * rel / d

    return BoundaryComponent(level_set, gradient, project)


def square_component(center, half_width):
    """Axis-aligned square boundary, domain inside; identity projection.

    The level set is the max-norm distance to the center minus the half
    width.  Its gradient is undefined at corners, where the normal of the
    vertical side is returned; the assemblers request normals only at
    edge-interior quadrature points.
    """
    cx, cy = float(center[0]), float(center[1])
    a = float(half_width)

    def level_set(x, y):
        return np.maximum(np.abs(x - cx), np.abs(y - cy)) - a

    def gradient(x, y):
        dx = np.asarray(x, dtype=float) - cx
        dy = np.asarray(y, dtype=float) - cy
        on_x = np.abs(dx) >= np.abs(dy)
        gx = np.where(on_x, np.sign(dx), 0.0)
        gy = np.where(on_x, 0.0, np.sign(dy))
        return gx, gy

    def project(points):
        # Points handed in already sit on the square's straight edges.
        return np.array(points, dtype=float, copy=True)

    return BoundaryComponent(level_set, gradient, project)


class BoundaryGeometry:
    """Collection of boundary components keyed by curve id."""

    def __init__(self, components):
        self.components = dict(components)

    def component(self, curve_id):
        try:
            return self.components[curve_id]
        except KeyError:
            raise KeyError(f"unknown boundary component {curve_id!r}") from None

    def closest_point(self, xi, curve_id):
        """Project points on or near the polygonal boundary onto the true one.

        Accepts a single point or an (n, 2) array; uses the component's
        exact formula when available and damped Newton otherwise.
        """
        comp = self.component(curve_id)
        pts = np.atleast_2d(np.asarray(xi, dtype=float))
        if comp.project is not None:
            out = comp.project(pts)
        else:
            out = np.array([self._newton_project(p, comp, curve_id) for p in pts])
        phi = np.abs(comp.level_set(out[:, 0], out[:, 1]))
        if np.any(phi > ON_BOUNDARY_TOL):
            bad = int(np.argmax(phi))
            raise ProjectionError(
                pts[bad],
                curve_id,
                f"projected point {tuple(out[bad])} is off the boundary "
                f"(|phi| = {phi[bad]:.3e})",
            )
        return out[0] if np.asarray(xi).ndim == 1 else out

    def _newton_project(self, xi, comp, curve_id):
        # Lagrange-Newton on the optimality system of
        # min |x - xi|^2  s.t.  phi(x) = 0,
        # i.e. x - xi + lam * grad phi(x) = 0, phi(x) = 0, with the
        # Hessian of phi approximated by zero (Gauss-Newton flavor).
        x = np.array(xi, dtype=float)
        lam = 0.0
        for _ in range(NEWTON_MAX_ITER):
            gx, gy = comp.gradient(x[0], x[1])
            g = np.array([float(gx), float(gy)])
            phi = float(comp.level_set(x[0], x[1]))
            jac = np.array(
                [
                    [1.0, 0.0, g[0]],
                    [0.0, 1.0, g[1]],
                    [g[0], g[1], 0.0],
                ]
            )
            res = np.array([x[0] - xi[0] + lam * g[0], x[1] - xi[1] + lam * g[1], phi])
            try:
                step = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError:
                raise ProjectionError(xi, curve_id, "singular projection Jacobian")
            # Damp steps so the iterate cannot overshoot far from the seed.
            step_len = np.linalg.norm(step[:2])
            scale = 1.0 if step_len <= 1.0 else 1.0 / step_len
            x += scale * step[:2]
            lam += scale * step[2]
            if step_len <= NEWTON_TOL:
                return x
        raise ProjectionError(xi, curve_id, "no convergence in 50 iterations")

    def unit_normal(self, x, curve_id):
        """Outward unit normal of the domain at points on the true boundary."""
        comp = self.component(curve_id)
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        phi = np.abs(comp.level_set(pts[:, 0], pts[:, 1]))
        if np.any(phi > 1e-10):
            raise ValueError(
                f"normal requested off the boundary (|phi| = {phi.max():.3e})"
            )
        gx, gy = comp.gradient(pts[:, 0], pts[:, 1])
        g = np.stack([np.broadcast_to(gx, len(pts)), np.broadcast_to(gy, len(pts))], axis=-1)
        norm = np.linalg.norm(g, axis=-1, keepdims=True)
        if np.any(norm < 1e-10):
            raise DegenerateGradientError(
                f"level-set gradient below 1e-10 on component {curve_id!r}"
            )
        n = g / norm
        return n[0] if np.asarray(x).ndim == 1 else n


def geometric_gap(mesh, geometry):
    """Largest distance between the polygonal and true boundaries.

    Samples each boundary edge uniformly (endpoints and midpoint included)
    and maximizes |eta(xi) - xi| over all samples.
    """
    ends, _tri, curve = mesh.boundary_table
    a, b = mesh.vertices[ends[:, 0]], mesh.vertices[ends[:, 1]]
    t = np.linspace(0.0, 1.0, GAP_SAMPLES_PER_EDGE)
    pts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
    eta = _per_curve(geometry.closest_point, pts, curve)
    return float(np.max(np.linalg.norm(eta - pts, axis=-1), initial=0.0))


def _per_curve(fn, points, curve):
    """Apply fn(points, curve_id) once per boundary component: points
    (N, ..., 2) on curves (N,) map to one point or scalar each."""
    out = None
    for cid in np.unique(curve):
        on = curve == cid
        values = np.asarray(fn(points[on].reshape(-1, 2), cid))
        if out is None:
            out = np.empty(points.shape[:-1] + values.shape[1:], dtype=values.dtype)
        out[on] = values.reshape(out[on].shape)
    return np.empty_like(points) if out is None else out


def disk_geometry(radius=1.0, center=(0.0, 0.0)):
    """Unit-disk style domain: one circular component, id ``circle``."""
    return BoundaryGeometry({"circle": circle_component(center, radius)})


def square_hole_geometry(half_width=0.5, hole_radius=0.25, center=(0.0, 0.0)):
    """Square with a circular hole: straight outer square, inner circle."""
    return BoundaryGeometry(
        {
            "square": square_component(center, half_width),
            "hole": circle_component(center, hole_radius, domain_side="outside"),
        }
    )


def square_geometry(center=(0.0, 0.0), half_width=0.5):
    """Plain square domain; its polygonal mesh boundary is exact."""
    return BoundaryGeometry({"square": square_component(center, half_width)})
