"""Curved-boundary description: level sets, closest-point maps, normals.

The true boundary of the computational domain is represented as a set of
components, each given by a level set that is negative inside the domain,
zero on the boundary and positive outside.  Components may additionally
carry an exact closest-point formula (circles, straight segments).  The
others, such as the ellipse, are projected by a damped Gauss-Newton
iteration on the projection optimality system, run over all the points of
a `closest_point` call at once: each point carries its own iterate,
damping and stopping test, and the loop runs until the slowest point has
converged.
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

        Accepts a single point or an (n, 2) array.  Uses the component's
        exact formula when it has one, else one damped Gauss-Newton
        iteration over all the points at once (see `_newton_project`),
        which logs one DEBUG record: the curve id, the number of points,
        the iterations of the slowest point, the worst |phi| and the worst
        |eta - xi|.  ProjectionError names the first point whose result is
        off the curve (|phi| above 1e-12, or NaN).
        """
        comp = self.component(curve_id)
        pts = np.atleast_2d(np.asarray(xi, dtype=float))
        if comp.project is not None:
            out = comp.project(pts)
        else:
            out, iterations = _newton_project(comp, pts, curve_id)
        phi = np.abs(comp.level_set(out[:, 0], out[:, 1]))
        off = ~(phi <= ON_BOUNDARY_TOL)
        if np.any(off):
            bad = int(np.argmax(off))
            raise ProjectionError(
                pts[bad],
                curve_id,
                f"projected point {tuple(out[bad].tolist())} is off the boundary "
                f"(|phi| = {phi[bad]:.3e})",
            )
        if comp.project is None:
            moved = np.hypot(*(out - pts).T)
            log.debug(
                "newton: component %r, %d points, %d iterations, max |phi| %.3e, "
                "max |eta - xi| %.3e",
                curve_id,
                len(pts),
                iterations,
                np.max(phi, initial=0.0),
                np.max(moved, initial=0.0),
            )
        return out[0] if np.asarray(xi).ndim == 1 else out

    def unit_normal(self, x, curve_id):
        """Outward unit normal of the domain at points on the true boundary."""
        comp = self.component(curve_id)
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        phi = np.abs(comp.level_set(pts[:, 0], pts[:, 1]))
        off = ~(phi <= 1e-10)
        if np.any(off):
            bad = int(np.argmax(off))
            raise ValueError(
                f"normal requested off the boundary at {tuple(pts[bad].tolist())} "
                f"(|phi| = {phi[bad]:.3e})"
            )
        gx, gy = comp.gradient(pts[:, 0], pts[:, 1])
        g = np.stack([np.broadcast_to(gx, len(pts)), np.broadcast_to(gy, len(pts))], axis=-1)
        norm = np.linalg.norm(g, axis=-1, keepdims=True)
        flat = ~(norm[:, 0] >= 1e-10)
        if np.any(flat):
            raise DegenerateGradientError(
                f"level-set gradient below 1e-10 at {tuple(pts[np.argmax(flat)].tolist())} "
                f"on component {curve_id!r}"
            )
        n = g / norm
        return n[0] if np.asarray(x).ndim == 1 else n


def _newton_project(comp, xi, curve_id):
    """Closest points of xi (n, 2) on a level set, all points at once.

    Lagrange-Newton on the optimality system of
    min |x - xi|^2  s.t.  phi(x) = 0, i.e. x - xi + lam grad phi(x) = 0 and
    phi(x) = 0, with the Hessian of phi taken as zero (Gauss-Newton).  With
    g = grad phi and r = x - xi + lam g, the step solves
    [[1, 0, gx], [0, 1, gy], [gx, gy, 0]] (dx, dlam) = -(r, phi), in closed
    form dlam = (phi - g.r) / |g|^2, dx = -r - g dlam.  Each point's step
    is damped to length at most 1, and a point stops after a step of
    length at most NEWTON_TOL; the others iterate on.  A NaN step never
    counts as converged.  ProjectionError names a point where |g| = 0, or
    the first point still unconverged after NEWTON_MAX_ITER iterations.
    Returns the points and the iteration count of the slowest one.
    """
    x = xi.copy()
    lam = np.zeros(len(xi))
    active = np.arange(len(xi))
    iterations = 0
    while active.size:
        if iterations == NEWTON_MAX_ITER:
            raise ProjectionError(
                xi[active[0]], curve_id, f"no convergence in {NEWTON_MAX_ITER} iterations"
            )
        iterations += 1
        xa, la = x[active], lam[active]
        gx, gy = comp.gradient(xa[:, 0], xa[:, 1])
        g = np.column_stack([np.broadcast_to(gx, la.shape), np.broadcast_to(gy, la.shape)])
        phi = comp.level_set(xa[:, 0], xa[:, 1])
        r = xa - xi[active] + la[:, None] * g
        gg = np.einsum("ij,ij->i", g, g)
        singular = gg == 0.0
        if np.any(singular):
            raise ProjectionError(
                xi[active[np.argmax(singular)]], curve_id, "singular projection Jacobian"
            )
        dlam = (phi - np.einsum("ij,ij->i", g, r)) / gg
        dx = -r - g * dlam[:, None]
        step = np.hypot(dx[:, 0], dx[:, 1])
        # Damp steps so an iterate cannot overshoot far from its seed.
        scale = 1.0 / np.maximum(step, 1.0)
        x[active] = xa + scale[:, None] * dx
        lam[active] = la + scale * dlam
        active = active[~(step <= NEWTON_TOL)]
    return x, iterations


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


def ellipse_geometry(a=1.0, b=0.6):
    """Ellipse (x/a)^2 + (y/b)^2 <= 1, one component ``ellipse``.

    Its level set is (x/a)^2 + (y/b)^2 - 1.  It has no closed-form
    projection, so `closest_point` projects onto it by Newton iteration.
    """
    a, b = float(a), float(b)

    def level_set(x, y):
        return (np.asarray(x) / a) ** 2 + (np.asarray(y) / b) ** 2 - 1.0

    def gradient(x, y):
        return 2.0 * np.asarray(x) / a**2, 2.0 * np.asarray(y) / b**2

    return BoundaryGeometry({"ellipse": BoundaryComponent(level_set, gradient)})


def square_geometry(center=(0.0, 0.0), half_width=0.5):
    """Plain square domain; its polygonal mesh boundary is exact."""
    return BoundaryGeometry({"square": square_component(center, half_width)})
