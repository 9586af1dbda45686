"""Batch experiment runner.

Subcommands:
  run    convergence study over a refinement family, CSV/markdown output
  patch  single polynomial-reproduction test

Configuration is a line-oriented ``key=value`` file; command-line flags
override file values.
"""

import argparse
import inspect
import os
import sys

import numpy as np

from .analysis import PATCH_TOL, ConvergenceReport, LevelResult, error_norms, patch_test, solve
from .errors import ConfigurationError, PefemError
from .fem import FeSpace
from .forms import (
    DEFAULT_C_THETA,
    _check_c_theta,
    assemble_pefem_dirichlet,
    assemble_pefem_dirichlet_strong,
    assemble_pefem_neumann,
    assemble_standard_dirichlet,
    verify_problem_consistency,
)
from .geometry import (
    _per_curve,
    disk_geometry,
    ellipse_geometry,
    geometric_gap,
    square_hole_geometry,
)
from .mesh import (
    generate_disk_mesh,
    generate_ellipse_mesh,
    generate_square_hole_mesh,
)
from .problems import polynomial_problem, preset_problem, random_polynomial

METHODS = (
    "pefem-dirichlet-weak",
    "pefem-dirichlet-strong",
    "pefem-neumann",
    "standard",
)
# Each domain: its mesh at refinement level l, its geometry and its default
# problem preset.  The lambdas look the generators up when called, so that
# rebinding a module name (monkeypatch, perfbench's tracing) reaches them.
_DOMAINS = {
    "disk": (
        lambda level: generate_disk_mesh(16 * 2**level), lambda: disk_geometry(), "convex-cos"
    ),
    "square_hole": (
        lambda level: generate_square_hole_mesh(level),
        lambda: square_hole_geometry(),
        "nonconvex-rational",
    ),
    # n = 16 scaled to the ellipse fails validate's minimum angle.
    "ellipse": (
        lambda level: generate_ellipse_mesh(32 * 2**level), lambda: ellipse_geometry(), "convex-cos"
    ),
}
DOMAINS = tuple(_DOMAINS)
PROBLEMS = ("convex-cos", "nonconvex-rational", "patch-k")


def _integer(key, value):
    """An int, or a string of one, as an int; ConfigurationError naming
    the key for anything else, so that 2.7 is not truncated to 2."""
    if isinstance(value, (int, np.integer, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigurationError(f"{key} must be an integer, got {value!r}")


class ExperimentConfig:
    """Validated settings for one convergence study."""

    def __init__(
        self,
        domain="disk",
        method="pefem-dirichlet-weak",
        k=2,
        levels=4,
        c_theta=DEFAULT_C_THETA,
        problem=None,
        out=None,
        seed=0,
    ):
        if domain not in DOMAINS:
            raise ConfigurationError(f"unknown domain {domain!r}")
        if method not in METHODS:
            raise ConfigurationError(f"unknown method {method!r}")
        k = _integer("k", k)
        if not 1 <= k <= 4:
            raise ConfigurationError(f"degree k must be in 1..4, got {k}")
        levels = _integer("levels", levels)
        if levels < 2:
            raise ConfigurationError(f"need at least 2 levels, got {levels}")
        if problem is None:
            problem = _DOMAINS[domain][2]
        if problem not in PROBLEMS:
            raise ConfigurationError(f"unknown problem preset {problem!r}")
        seed = _integer("seed", seed)
        if seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {seed}")
        try:
            c_theta = float(c_theta)
        except (TypeError, ValueError):
            raise ConfigurationError(f"c_theta must be a number, got {c_theta!r}") from None
        _check_c_theta(c_theta)
        self.domain = domain
        self.method = method
        self.k = k
        self.levels = levels
        self.c_theta = c_theta
        self.problem = problem
        self.out = out
        self.seed = seed

    @property
    def bc_kind(self):
        return "neumann" if self.method == "pefem-neumann" else "dirichlet"


CONFIG_KEYS = tuple(inspect.signature(ExperimentConfig).parameters)


def parse_config_file(path):
    """Read a ``key=value`` file with ``#`` comments into a dict."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
    return values


def build_config(file_values, overrides):
    merged = dict(file_values)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return ExperimentConfig(**merged)


def _assembler(config):
    if config.method == "pefem-dirichlet-weak":
        return lambda s, p, g: assemble_pefem_dirichlet(s, p, g, c_theta=config.c_theta)
    if config.method == "pefem-dirichlet-strong":
        return assemble_pefem_dirichlet_strong
    if config.method == "pefem-neumann":
        return assemble_pefem_neumann
    return assemble_standard_dirichlet


def _preflight(problem, mesh, geometry):
    """Check the boundary data against the exact solution at the boundary
    vertices, which lie on the true curve (with its normals for Neumann)."""
    ends, _tri, curve = mesh.boundary_table
    points = mesh.vertices[ends]
    normals = None
    if problem.bc_kind == "neumann":
        normals = _per_curve(geometry.unit_normal, points, curve).reshape(-1, 2)
    verify_problem_consistency(problem, points.reshape(-1, 2), normals)


def run_study(config):
    """Solve the configured problem on every refinement level.

    Returns a ConvergenceReport; raises PefemError subclasses (annotated
    with the failing level) on any assembly or solver failure.
    """
    mesh_for_level, make_geometry, _problem = _DOMAINS[config.domain]
    geometry = make_geometry()
    assemble = _assembler(config)
    rng = np.random.default_rng(config.seed)
    report = ConvergenceReport(method=config.method, degree=config.k)
    for level in range(config.levels):
        try:
            mesh = mesh_for_level(level)
            space = FeSpace(mesh, config.k)
            if config.problem == "patch-k":
                problem = polynomial_problem(random_polynomial(config.k, rng), config.bc_kind)
            else:
                problem = preset_problem(config.problem, config.bc_kind)
            _preflight(problem, mesh, geometry)
            u_h = solve(assemble(space, problem, geometry))
            l2, h1 = error_norms(space, u_h, problem.exact_u, problem.exact_grad)
            delta = geometric_gap(mesh, geometry)
        except PefemError as exc:
            # Prefix the level in place: the error keeps its type and its
            # context (a ProjectionError's point and curve id, an element).
            exc.args = (f"level {level}: {exc}",)
            raise
        report.add(
            LevelResult(
                level=level,
                h=mesh.h,
                delta_h=delta,
                dofs=space.n_dofs,
                l2_error=l2,
                h1_error=h1,
            )
        )
    return report


def gates_pass(config, report):
    """Per-config acceptance gates on the fitted convergence rates."""
    if config.problem == "patch-k":
        return all(lv.h1_error <= PATCH_TOL for lv in report.levels)
    last = min(3, len(report.levels))
    l2 = report.l2_slope(last=last)
    h1 = report.h1_slope(last=last)
    if config.method == "standard":
        if config.k == 1:
            return 1.7 <= l2 <= 2.4
        return l2 <= 2.5 and h1 <= 1.9
    return l2 >= config.k + 0.75 and h1 >= config.k - 0.25


def _fmt(x):
    return f"{x:.12e}"


def render_csv(report):
    lines = ["level,h,delta_h,dofs,l2_error,h1_error,l2_rate_pairwise,h1_rate_pairwise"]
    for lv, (r2, r1) in zip(report.levels, report.pairwise_rates()):
        rate2 = "" if r2 is None else f"{r2:.4f}"
        rate1 = "" if r1 is None else f"{r1:.4f}"
        lines.append(
            f"{lv.level},{_fmt(lv.h)},{_fmt(lv.delta_h)},{lv.dofs},"
            f"{_fmt(lv.l2_error)},{_fmt(lv.h1_error)},{rate2},{rate1}"
        )
    return "\n".join(lines) + "\n"


def render_markdown(config, report):
    lines = [
        f"# {config.method}, degree {config.k}, {config.domain}, {config.problem}",
        "",
        "| h | L2 error | Rate | H1 error | Rate |",
        "| --- | --- | --- | --- | --- |",
    ]
    for lv, (r2, r1) in zip(report.levels, report.pairwise_rates()):
        rate2 = "--" if r2 is None else f"{r2:.4f}"
        rate1 = "--" if r1 is None else f"{r1:.4f}"
        lines.append(
            f"| {lv.h:.6f} | {lv.l2_error:.5e} | {rate2} | {lv.h1_error:.5e} | {rate1} |"
        )
    last = min(3, len(report.levels))
    lines += [
        "",
        f"Fitted slopes over the finest {last} levels: "
        f"L2 {report.l2_slope(last=last):.4f}, H1 {report.h1_slope(last=last):.4f}.",
        "",
    ]
    return "\n".join(lines)


def emit_outputs(config, report, out_dir):
    """Write results.csv, results.md, and log-log data files."""
    if not report.levels:
        raise ConfigurationError("refusing to write outputs for an empty report")
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "csv": os.path.join(out_dir, "results.csv"),
        "markdown": os.path.join(out_dir, "results.md"),
        "loglog_l2": os.path.join(out_dir, "loglog_l2.dat"),
        "loglog_h1": os.path.join(out_dir, "loglog_h1.dat"),
    }
    with open(paths["csv"], "w", encoding="utf-8") as fh:
        fh.write(render_csv(report))
    with open(paths["markdown"], "w", encoding="utf-8") as fh:
        fh.write(render_markdown(config, report))
    with open(paths["loglog_l2"], "w", encoding="utf-8") as fh:
        for lv in report.levels:
            fh.write(f"{_fmt(lv.h)} {_fmt(lv.l2_error)}\n")
    with open(paths["loglog_h1"], "w", encoding="utf-8") as fh:
        for lv in report.levels:
            fh.write(f"{_fmt(lv.h)} {_fmt(lv.h1_error)}\n")
    return paths


def cmd_run(args):
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {key: getattr(args, key) for key in CONFIG_KEYS}
    config = build_config(file_values, overrides)
    report = run_study(config)
    print(render_markdown(config, report))
    if config.out:
        paths = emit_outputs(config, report, config.out)
        print(f"wrote {paths['csv']}")
        print(f"wrote {paths['markdown']}")
    ok = gates_pass(config, report)
    print("rate gates:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_patch(args):
    config = ExperimentConfig(
        domain=args.domain,
        method=args.method,
        k=args.k,
        levels=2,
        problem="patch-k",
        seed=args.seed,
    )
    mesh_for_level, make_geometry, _problem = _DOMAINS[config.domain]
    space = FeSpace(mesh_for_level(1), config.k)
    ok, h1 = patch_test(
        space,
        make_geometry(),
        _assembler(config),
        lambda poly: polynomial_problem(poly, config.bc_kind),
        np.random.default_rng(config.seed),
    )
    print(
        f"patch test: method={config.method} domain={config.domain} k={config.k} "
        f"seed={config.seed} h1_error={h1:.3e} -> {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="pefem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a convergence study")
    run.add_argument("--config", help="key=value configuration file")
    run.add_argument("--k", type=int, help="polynomial degree 1..4")
    run.add_argument("--levels", type=int, help="number of refinement levels")
    run.add_argument("--method", choices=METHODS)
    run.add_argument("--domain", choices=DOMAINS)
    run.add_argument("--out", help="output directory for CSV/markdown")
    run.add_argument("--problem", choices=PROBLEMS, help="problem preset")
    run.add_argument("--seed", type=int, help="rng seed for patch-k studies")
    run.add_argument("--c-theta", dest="c_theta", type=float, help="constraint scaling constant")
    run.set_defaults(func=cmd_run)

    patch = sub.add_parser("patch", help="run a single patch test")
    patch.add_argument("--k", type=int, required=True)
    patch.add_argument("--method", choices=METHODS, required=True)
    patch.add_argument("--domain", choices=DOMAINS, required=True)
    patch.add_argument("--seed", type=int, default=0)
    patch.set_defaults(func=cmd_patch)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PefemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
