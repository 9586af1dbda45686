"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

A pass is the full set of solves of one workload.  An operation is one
level solve (the two convergence studies) or one patch problem.  Every
check is made after the pass's clock has stopped, with the
instrumentation paused, and compares pefem's output with a property the
method must have or with a computation made apart from pefem.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

import pefem
import pefem.cli
from pefem.cli import ExperimentConfig

RESIDUAL_TOL = 1e-12
PATCH_TOL = 1e-8
PROJECTION_TOL = 1e-10
ELLIPSE_AXES = (1.0, 0.6)


@dataclass
class PassResult:
    """Wall time of one pass without the benchmark's own work, and checks."""

    seconds: float
    attempted: int
    failed: set = field(default_factory=set)
    messages: list = field(default_factory=list)
    wrong: bool = False

    def fail(self, ops, message, wrong=True):
        """Count `ops` as failed; `wrong` unless pefem refused with an error."""
        self.failed.update(ops)
        self.messages.append(message)
        self.wrong = self.wrong or wrong


def slope(h, err):
    """Least-squares slope of log(err) against log(h)."""
    return float(np.polyfit(np.log(h), np.log(err), 1)[0])


def check_convergence(result, h, l2, h1, residuals, l2_min, h1_min):
    """Rates over the finest three levels and the residual of every solve."""
    levels = list(range(len(h)))
    finest = levels[-3:]
    errors = np.array([l2, h1], dtype=float)
    if not np.all(np.isfinite(errors) & (errors > 0)):
        result.fail(levels, f"non-finite or zero error norms: L2 {l2}, H1 {h1}")
        return
    s2 = slope(h[-3:], l2[-3:])
    s1 = slope(h[-3:], h1[-3:])
    if s2 < l2_min or s1 < h1_min:
        result.fail(finest, f"rates L2 {s2:.3f} (>= {l2_min}), H1 {s1:.3f} (>= {h1_min})")
    if len(residuals) != len(levels):
        result.fail(levels, f"{len(residuals)} solves observed for {len(levels)} levels")
        return
    for level, r in zip(levels, residuals):
        if not r <= RESIDUAL_TOL:
            result.fail([level], f"level {level}: relative residual {r:.3e} > {RESIDUAL_TOL}")


class DiskNeumann:
    """`run_study` for the disk, Neumann method, k = 4, levels n = 16..128."""

    name = "disk-neumann-k4"
    levels = 4

    def __init__(self, seed):
        self.config = ExperimentConfig(
            domain="disk", method="pefem-neumann", k=4, levels=self.levels, seed=seed
        )

    def warm_up(self):
        pefem.cli.run_study(ExperimentConfig(domain="disk", method="pefem-neumann", k=4, levels=2))

    def run_pass(self, inst):
        result = PassResult(0.0, self.levels)
        t0, o0 = time.perf_counter(), inst.observer_s
        try:
            report = pefem.cli.run_study(self.config)
        except pefem.PefemError as exc:
            report = None
            result.fail(range(self.levels), f"run_study raised: {exc}", wrong=False)
        result.seconds = time.perf_counter() - t0 - (inst.observer_s - o0)
        if report is not None:
            self.check(result, report, inst.residuals)
        return result

    def check(self, result, report, residuals):
        lv = report.levels
        if len(lv) != self.levels:
            result.fail(range(self.levels), f"{len(lv)} levels reported")
            return
        check_convergence(
            result,
            [x.h for x in lv],
            [x.l2_error for x in lv],
            [x.h1_error for x in lv],
            residuals,
            l2_min=4.75,
            h1_min=3.75,
        )


def ellipse_geometry(project=None):
    """The ellipse (x/a)^2 + (y/b)^2 = 1 as a level set, domain inside.

    Without `project` pefem has no closed form and runs its Newton
    projection; tests pass a wrong one to see the check reject it.
    """
    a, b = ELLIPSE_AXES

    def level_set(x, y):
        return (x / a) ** 2 + (y / b) ** 2 - 1.0

    def gradient(x, y):
        return 2.0 * np.asarray(x) / a**2, 2.0 * np.asarray(y) / b**2

    return pefem.BoundaryGeometry({"ellipse": pefem.BoundaryComponent(level_set, gradient, project)})


def ellipse_mesh(n_boundary):
    """The disk mesh scaled by diag(a, b): boundary vertices on the ellipse."""
    disk = pefem.generate_disk_mesh(n_boundary)
    edges = [(v0, v1, t, "ellipse") for v0, v1, t, _ in disk.boundary_edges]
    return pefem.Mesh(disk.vertices * np.array(ELLIPSE_AXES), disk.triangles, edges)


def nearest_on_ellipse(points, grid=4096, bisections=60):
    """Closest points on the ellipse by dense parametric search.

    The parameter t of (a cos t, b sin t) is first located on a uniform
    grid, then the sign change of d/dt |E(t) - p|^2 / 2 around the grid
    minimum is bisected.
    """
    a, b = ELLIPSE_AXES
    p = np.atleast_2d(points)
    t = 2.0 * np.pi * np.arange(grid) / grid
    d2 = (a * np.cos(t)[None, :] - p[:, :1]) ** 2 + (b * np.sin(t)[None, :] - p[:, 1:]) ** 2
    best = t[np.argmin(d2, axis=1)]
    step = 2.0 * np.pi / grid

    def dist_rate(s):
        return (a * np.cos(s) - p[:, 0]) * (-a * np.sin(s)) + (b * np.sin(s) - p[:, 1]) * (
            b * np.cos(s)
        )

    lo, hi = best - step, best + step
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        up = dist_rate(mid) > 0
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    s = 0.5 * (lo + hi)
    return np.column_stack([a * np.cos(s), b * np.sin(s)])


def boundary_samples(mesh, per_edge=9):
    t = np.linspace(0.0, 1.0, per_edge)
    edges = np.array([(v0, v1) for v0, v1, _t, _c in mesh.boundary_edges])
    a, b = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
    return (a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]).reshape(-1, 2)


def check_projection(result, op, mesh, geometry):
    """pefem's closest points against the benchmark's parametric search."""
    pts = boundary_samples(mesh)
    try:
        eta = geometry.closest_point(pts, "ellipse")
    except pefem.PefemError as exc:
        result.fail([op], f"closest_point raised: {exc}")
        return
    err = float(np.max(np.linalg.norm(eta - nearest_on_ellipse(pts), axis=1)))
    if not err <= PROJECTION_TOL:
        result.fail([op], f"closest points off the parametric search by {err:.3e}")


class EllipseNewtonStrong:
    """Strong Dirichlet, k = 2, u = cos x cos y on the ellipse, n = 16..128."""

    name = "ellipse-newton-strong-k2"
    levels = 4
    degree = 2

    def __init__(self, seed):
        self.geometry = ellipse_geometry()
        self.problem = pefem.cosine_problem("dirichlet")

    def solve_level(self, level):
        mesh = ellipse_mesh(16 * 2**level)
        space = pefem.FeSpace(mesh, self.degree)
        system = pefem.assemble_pefem_dirichlet_strong(space, self.problem, self.geometry)
        u_h = pefem.solve(system)
        l2, h1 = pefem.error_norms(space, u_h, self.problem.exact_u, self.problem.exact_grad)
        pefem.geometric_gap(mesh, self.geometry)
        return mesh, l2, h1

    def warm_up(self):
        self.solve_level(0)

    def run_pass(self, inst):
        result = PassResult(0.0, self.levels)
        h, l2, h1 = [], [], []
        mesh = None
        t0, o0 = time.perf_counter(), inst.observer_s
        for level in range(self.levels):
            try:
                mesh, e2, e1 = self.solve_level(level)
            except pefem.PefemError as exc:
                result.fail([level], f"level {level} raised: {exc}", wrong=False)
                mesh, e2, e1 = None, math.nan, math.nan
            h.append(mesh.h if mesh is not None else math.nan)
            l2.append(e2)
            h1.append(e1)
        result.seconds = time.perf_counter() - t0 - (inst.observer_s - o0)
        with inst.pause():
            self.check(result, h, l2, h1, inst.residuals, mesh)
        return result

    def check(self, result, h, l2, h1, residuals, finest_mesh):
        if result.failed:
            return
        check_convergence(result, h, l2, h1, residuals, l2_min=2.75, h1_min=1.75)
        check_projection(result, self.levels - 1, finest_mesh, self.geometry)


def random_polynomial(degree, rng):
    """Coefficients uniform in [-1, 1] for total degree <= `degree`."""
    coeffs = rng.uniform(-1.0, 1.0, size=(degree + 1, degree + 1))
    total = np.add.outer(np.arange(degree + 1), np.arange(degree + 1))
    coeffs[total > degree] = 0.0
    return pefem.Poly2D(coeffs)


@dataclass
class PatchProblem:
    space: object
    geometry: object
    assembler: str
    bc_kind: str
    poly: object


class PatchSweep:
    """Degree-k polynomial reproduction, k = 1..4, three assemblers, two
    coarse meshes: the disk (n = 16) and the square with a hole (level 1)."""

    name = "patch-sweep"
    assemblers = (
        ("assemble_pefem_dirichlet", "dirichlet"),
        ("assemble_pefem_dirichlet_strong", "dirichlet"),
        ("assemble_pefem_neumann", "neumann"),
    )

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        domains = (
            (pefem.generate_disk_mesh(16), pefem.disk_geometry()),
            (pefem.generate_square_hole_mesh(1), pefem.square_hole_geometry()),
        )
        self.problems = []
        for mesh, geometry in domains:
            for k in range(1, 5):
                space = pefem.FeSpace(mesh, k)
                for assembler, bc_kind in self.assemblers:
                    poly = random_polynomial(k, rng)
                    self.problems.append(PatchProblem(space, geometry, assembler, bc_kind, poly))

    @staticmethod
    def solve_problem(p):
        problem = pefem.polynomial_problem(p.poly, p.bc_kind)
        system = getattr(pefem, p.assembler)(p.space, problem, p.geometry)
        u_h = pefem.solve(system)
        _, h1 = pefem.error_norms(p.space, u_h, problem.exact_u, problem.exact_grad)
        return u_h, h1

    def warm_up(self):
        # The first three problems: k = 1 on the disk, one per assembler.
        for p in self.problems[:3]:
            self.solve_problem(p)

    def run_pass(self, inst):
        result = PassResult(0.0, len(self.problems))
        outputs = []
        t0, o0 = time.perf_counter(), inst.observer_s
        for op, p in enumerate(self.problems):
            try:
                outputs.append(self.solve_problem(p))
            except pefem.PefemError as exc:
                result.fail([op], f"problem {op} raised: {exc}", wrong=False)
                outputs.append(None)
        result.seconds = time.perf_counter() - t0 - (inst.observer_s - o0)
        with inst.pause():
            self.check(result, outputs, inst.residuals)
        return result

    def check(self, result, outputs, residuals):
        solved = [op for op, out in enumerate(outputs) if out is not None]
        if len(residuals) != len(solved):
            result.fail(solved, f"{len(residuals)} solves observed for {len(solved)} problems")
            residuals = [math.nan] * len(solved)
        for op, r in zip(solved, residuals):
            p = self.problems[op]
            u_h, h1 = outputs[op]
            check_patch(result, op, p, u_h, h1, r)


def check_patch(result, op, p, u_h, h1, residual):
    """Reproduction of the polynomial: H1 error, nodal values, residual."""
    scale = max(1.0, float(np.abs(p.poly.coeffs).sum()))
    tol = PATCH_TOL * scale
    nodal = float(np.max(np.abs(u_h - p.poly(p.space.dof_coords[:, 0], p.space.dof_coords[:, 1]))))
    label = f"problem {op} ({p.assembler}, k={p.space.degree})"
    if not h1 <= tol:
        result.fail([op], f"{label}: H1 error {h1:.3e} > {tol:.3e}")
    elif not nodal <= tol:
        result.fail([op], f"{label}: nodal error {nodal:.3e} > {tol:.3e}")
    elif not residual <= RESIDUAL_TOL:
        result.fail([op], f"{label}: relative residual {residual:.3e} > {RESIDUAL_TOL}")


WORKLOADS = {w.name: w for w in (DiskNeumann, EllipseNewtonStrong, PatchSweep)}
