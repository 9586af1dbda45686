"""Tests of the benchmark itself: normalisation, spans, wrappers and checks.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibration  # noqa: E402
import pefem  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3].
    rec = tracing.SpanRecorder(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    a = rec.open("a")
    b = rec.open("b")
    rec.close(rec.open("c"))
    rec.close(b)
    rec.close(rec.open("d"))
    rec.close(a)
    assert rec.names == ["a", "b", "c", "d"]
    assert rec.parents == [-1, 0, 1, 0]
    assert rec.durations() == [10, 3, 1, 4]
    assert rec.self_times() == [3, 2, 1, 4]
    table = {row[0]: row[1:] for row in tracing.span_table(rec)}
    assert table["a"] == (1, 10, 3)


def test_normalised_pass_is_scaled_to_the_nominal_calibration():
    assert calibration.normalised(2.0, calibration.NOMINAL_S) == 2.0
    # A host twice as slow doubles both the pass and its calibration.
    assert calibration.normalised(4.0, 2 * calibration.NOMINAL_S) == 2.0


def test_spans_must_close_innermost_first():
    rec = tracing.SpanRecorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_instrumentation_records_layers_and_restores_bindings():
    original = (pefem.solve, pefem.analysis.solve, pefem.cli.solve, pefem.FeSpace.__init__)
    rec = tracing.SpanRecorder()
    space = pefem.FeSpace(pefem.generate_disk_mesh(16), 2)
    problem = pefem.cosine_problem("neumann")
    with tracing.Instrumentation(rec) as inst:
        pefem.solve(pefem.assemble_pefem_neumann(space, problem, pefem.disk_geometry()))
    assert (pefem.solve, pefem.analysis.solve, pefem.cli.solve, pefem.FeSpace.__init__) == original
    metrics = tracing.layer_metrics(rec, inst)
    assert metrics["fem.operator_calls"] == 1
    assert metrics["geometry.closest_point_calls"] == 16
    assert metrics["forms.nnz"] > 0
    assert 0 < metrics["analysis.residual"] <= workloads.RESIDUAL_TOL
    assert set(rec.names) >= {"forms.assemble_pefem_neumann", "analysis.solve", "scipy.spsolve"}
    own = dict(zip(rec.names, rec.self_times()))
    dur = dict(zip(rec.names, rec.durations()))
    assert own["forms.assemble_pefem_neumann"] < dur["forms.assemble_pefem_neumann"]


def convergence(l2_rate, h1_rate, residual=1e-14):
    result = workloads.PassResult(0.0, 4)
    h = np.array([0.4, 0.2, 0.1, 0.05])
    workloads.check_convergence(
        result, h, 3.0 * h**l2_rate, 2.0 * h**h1_rate, [residual] * 4, l2_min=4.75, h1_min=3.75
    )
    return result


def test_convergence_check_rejects_low_rates_and_residuals():
    assert not convergence(5.0, 4.0).failed
    assert convergence(4.5, 4.0).failed == {1, 2, 3}
    assert convergence(5.0, 3.5).failed == {1, 2, 3}
    bad = convergence(5.0, 4.0, residual=1e-11)
    assert bad.failed == {0, 1, 2, 3} and bad.wrong


def test_patch_check_rejects_perturbed_solution():
    sweep = workloads.PatchSweep(seed=3)
    for op, p in enumerate(sweep.problems[:3]):
        u_h, h1 = sweep.solve_problem(p)
        residual = 1e-14
        good = workloads.PassResult(0.0, 1)
        workloads.check_patch(good, op, p, u_h, h1, residual)
        assert not good.failed
        bad = workloads.PassResult(0.0, 1)
        problem = pefem.polynomial_problem(p.poly, p.bc_kind)
        u_bad = u_h + 1e-6
        _, h1_bad = pefem.error_norms(p.space, u_bad, problem.exact_u, problem.exact_grad)
        workloads.check_patch(bad, op, p, u_bad, h1_bad, residual)
        assert bad.failed == {op}


def radial_projection(points):
    a, b = workloads.ELLIPSE_AXES
    p = np.atleast_2d(points)
    return p / np.sqrt((p[:, :1] / a) ** 2 + (p[:, 1:] / b) ** 2)


def test_ellipse_check_rejects_radial_projection():
    mesh = workloads.ellipse_mesh(32)
    good = workloads.PassResult(0.0, 1)
    workloads.check_projection(good, 0, mesh, workloads.ellipse_geometry())
    assert not good.failed
    bad = workloads.PassResult(0.0, 1)
    workloads.check_projection(bad, 0, mesh, workloads.ellipse_geometry(radial_projection))
    assert bad.failed == {0}


def test_parametric_search_finds_nearest_points():
    a, b = workloads.ELLIPSE_AXES
    t = np.linspace(0.1, 6.0, 7)
    on_curve = np.column_stack([a * np.cos(t), b * np.sin(t)])
    normal = np.column_stack([np.cos(t) / a, np.sin(t) / b])
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    off = on_curve + 1e-3 * normal
    assert np.max(np.abs(workloads.nearest_on_ellipse(off) - on_curve)) < 1e-13
