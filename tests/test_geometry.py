"""Tests for level sets, closest-point projection, normals, and the gap."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pefem.errors import DegenerateGradientError, ProjectionError
from pefem.geometry import (
    BoundaryComponent,
    BoundaryGeometry,
    circle_component,
    disk_geometry,
    ellipse_geometry,
    geometric_gap,
    square_geometry,
    square_hole_geometry,
)
from pefem.mesh import generate_disk_mesh, generate_square_hole_mesh
from test_edge_table import PROPERTY


def _with_gradient(gradient):
    """The default ellipse's level set with another gradient."""
    level_set = ellipse_geometry().component("ellipse").level_set
    return BoundaryGeometry({"e": BoundaryComponent(level_set, gradient)})


def _nan_pair(x, y):
    nan = np.full(np.shape(x), np.nan)
    return nan, nan


class TestClosestPoint:
    def test_radial_projection_from_inside(self):
        geo = disk_geometry()
        eta = geo.closest_point(np.array([0.5, 0.0]), "circle")
        assert np.allclose(eta, [1.0, 0.0], atol=1e-14)

    def test_radial_projection_direction(self):
        geo = disk_geometry()
        eta = geo.closest_point(np.array([0.3, 0.4]), "circle")
        assert np.allclose(eta, [0.6, 0.8], atol=1e-14)

    def test_hole_projection(self):
        geo = square_hole_geometry()
        eta = geo.closest_point(np.array([0.2, 0.0]), "hole")
        assert np.allclose(eta, [0.25, 0.0], atol=1e-14)

    def test_square_projection_is_identity(self):
        geo = square_geometry()
        pts = np.array([[0.5, 0.1], [-0.25, -0.5], [0.5, 0.5]])
        eta = geo.closest_point(pts, "square")
        assert np.array_equal(eta, pts)

    def test_idempotent(self):
        geo = disk_geometry()
        pts = np.column_stack(
            [np.cos(np.linspace(0, 2, 7)), np.sin(np.linspace(0, 2, 7))]
        ) * 0.97
        eta = geo.closest_point(pts, "circle")
        eta2 = geo.closest_point(eta, "circle")
        assert np.abs(eta2 - eta).max() <= 1e-12

    def test_projection_vector_orthogonal_to_boundary(self):
        # eta(xi) - xi must align with the boundary normal at eta.
        geo = disk_geometry()
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.6, 0.6, size=(20, 2))
        eta = geo.closest_point(pts, "circle")
        n = geo.unit_normal(eta, "circle")
        d = eta - pts
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        cross = np.abs(d[:, 0] * n[:, 1] - d[:, 1] * n[:, 0])
        assert cross.max() <= 1e-10

    def test_unknown_component(self):
        geo = disk_geometry()
        with pytest.raises(KeyError):
            geo.closest_point(np.array([0.5, 0.0]), "nope")

    def test_nan_projection_is_refused(self):
        # A closed-form projection that yields NaN for one point: the
        # on-curve check must name that point, not return the NaN.
        circle = circle_component((0.0, 0.0), 1.0)

        def project(points):
            out = circle.project(points)
            out[1] = np.nan
            return out

        geo = BoundaryGeometry({"c": BoundaryComponent(circle.level_set, circle.gradient, project)})
        with pytest.raises(ProjectionError, match="off the boundary") as info:
            geo.closest_point(np.array([[0.5, 0.0], [0.0, 0.3], [0.2, 0.2]]), "c")
        assert info.value.point == (0.0, 0.3)


class TestNewtonProjection:
    """A component with no closed-form projection exercises the iteration."""

    def test_converges_onto_level_set(self):
        geo = ellipse_geometry()
        pts = np.array([[0.9, 0.0], [0.0, 0.5], [0.5, 0.3], [-0.6, -0.2]])
        eta = geo.closest_point(pts, "ellipse")
        comp = geo.component("ellipse")
        assert np.abs(comp.level_set(eta[:, 0], eta[:, 1])).max() <= 1e-12

    def test_axis_points_project_to_vertices(self):
        geo = ellipse_geometry()
        eta = geo.closest_point(np.array([0.9, 0.0]), "ellipse")
        assert np.allclose(eta, [1.0, 0.0], atol=1e-10)
        eta = geo.closest_point(np.array([0.0, 0.5]), "ellipse")
        assert np.allclose(eta, [0.0, 0.6], atol=1e-10)

    def test_matches_circle_formula(self):
        # On a circle the Newton path must agree with radial projection.
        def level_set(x, y):
            return np.hypot(x, y) - 1.0

        def gradient(x, y):
            d = np.hypot(x, y)
            return np.asarray(x) / d, np.asarray(y) / d

        geo = BoundaryGeometry({"c": BoundaryComponent(level_set, gradient)})
        rng = np.random.default_rng(11)
        pts = rng.uniform(-0.7, 0.7, size=(10, 2)) + [0.2, 0.0]
        eta = geo.closest_point(pts, "c")
        exact = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        assert np.abs(eta - exact).max() <= 1e-10

    def test_projection_failure_reported(self):
        # A gradient of zero everywhere leaves Newton nowhere to go.
        geo = BoundaryGeometry(
            {
                "bad": BoundaryComponent(
                    lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
                    lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),) * 2,
                )
            }
        )
        with pytest.raises(ProjectionError):
            geo.closest_point(np.array([0.1, 0.2]), "bad")

    def test_batch_equals_each_point_alone(self):
        # Points inside and outside, near and far, with different
        # iteration counts: a point's result does not depend on its batch.
        geo = ellipse_geometry()
        rng = np.random.default_rng(5)
        t = rng.uniform(0.0, 2.0 * math.pi, 40)
        pts = np.column_stack([np.cos(t), 0.6 * np.sin(t)]) * rng.uniform(0.85, 1.15, (40, 1))
        pts = np.concatenate([pts, [[0.9, 0.0], [0.0, 0.5], [1.0, 0.0]]])
        batch = geo.closest_point(pts, "ellipse")
        alone = np.array([geo.closest_point(p, "ellipse") for p in pts])
        assert np.abs(batch - alone).max() <= 1e-15

    @PROPERTY
    @given(
        st.floats(0.3, 2.0),
        st.floats(0.3, 2.0),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(-0.499, 0.499),
    )
    def test_offset_along_the_normal_projects_back(self, a, b, t, fraction):
        # Inside, a point within the ellipse's smallest radius of curvature
        # min(a, b)^2 / max(a, b) of the curve has a unique closest point;
        # outside, every point has.  Half that radius is used both ways.
        geo = ellipse_geometry(a, b)
        on = np.array([a * math.cos(t), b * math.sin(t)])
        normal = np.array([math.cos(t) / a, math.sin(t) / b])
        normal /= np.linalg.norm(normal)
        offset = fraction * min(a, b) ** 2 / max(a, b)
        eta = geo.closest_point(on + offset * normal, "ellipse")
        assert np.abs(eta - on).max() <= 1e-10
        assert abs(geo.component("ellipse").level_set(*eta)) <= 1e-12

    def test_zero_gradient_names_its_point(self):
        # The centre of the ellipse has grad phi = 0 among good points.
        geo = ellipse_geometry()
        pts = np.array([[0.9, 0.0], [0.5, 0.3], [0.0, 0.0], [-0.6, -0.2]])
        with pytest.raises(ProjectionError, match="singular projection Jacobian") as info:
            geo.closest_point(pts, "ellipse")
        assert info.value.point == (0.0, 0.0)
        assert info.value.curve_id == "ellipse"

    def test_nan_gradient_is_refused(self):
        # A NaN step must never count as converged.
        geo = _with_gradient(_nan_pair)
        with pytest.raises(ProjectionError, match="no convergence in 50 iterations"):
            geo.closest_point(np.array([0.9, 0.1]), "e")

    def test_nan_gradient_in_a_batch_names_its_point(self):
        good = ellipse_geometry().component("ellipse").gradient

        def gradient(x, y):
            gx, gy = good(x, y)
            bad = np.asarray(y) < 0.0
            return np.where(bad, np.nan, gx), np.where(bad, np.nan, gy)

        geo = _with_gradient(gradient)
        pts = np.array([[0.9, 0.1], [0.5, 0.3], [0.4, -0.3], [-0.6, -0.2]])
        with pytest.raises(ProjectionError) as info:
            geo.closest_point(pts, "e")
        assert info.value.point == (0.4, -0.3)

    def test_logs_one_record_per_batch(self, caplog):
        geo = ellipse_geometry()
        pts = np.array([[0.9, 0.0], [0.5, 0.3], [-0.6, -0.2], [1.0, 0.0]])
        with caplog.at_level(logging.DEBUG, logger="pefem.geometry"):
            eta = geo.closest_point(pts, "ellipse")
            disk_geometry().closest_point(pts, "circle")
        records = [r for r in caplog.records if r.name == "pefem.geometry"]
        assert len(records) == 1
        curve_id, n, iterations, phi, moved = records[0].args
        assert records[0].levelno == logging.DEBUG
        assert (curve_id, n) == ("ellipse", 4)
        assert 2 <= iterations <= 50
        level_set = geo.component("ellipse").level_set
        assert phi == np.abs(level_set(eta[:, 0], eta[:, 1])).max() <= 1e-12
        assert moved == pytest.approx(np.linalg.norm(eta - pts, axis=1).max(), rel=1e-15)
        # The same numbers as structured fields.
        fields = ("curve_id", "points", "iterations", "max_phi", "max_moved")
        assert tuple(getattr(records[0], f) for f in fields) == records[0].args
        # Points already on the curve stop after one zero step.
        with caplog.at_level(logging.DEBUG, logger="pefem.geometry"):
            geo.closest_point(np.array([[1.0, 0.0], [-1.0, 0.0]]), "ellipse")
        assert caplog.records[-1].args[2] == 1


class TestUnitNormal:
    def test_circle_normal_is_radial(self):
        geo = disk_geometry()
        n = geo.unit_normal(np.array([0.6, 0.8]), "circle")
        assert np.allclose(n, [0.6, 0.8], atol=1e-14)

    def test_hole_normal_points_into_hole(self):
        geo = square_hole_geometry()
        n = geo.unit_normal(np.array([0.25, 0.0]), "hole")
        assert np.allclose(n, [-1.0, 0.0], atol=1e-14)

    def test_square_normals(self):
        geo = square_hole_geometry()
        n = geo.unit_normal(np.array([0.5, 0.1]), "square")
        assert np.allclose(n, [1.0, 0.0], atol=1e-14)
        n = geo.unit_normal(np.array([-0.2, -0.5]), "square")
        assert np.allclose(n, [0.0, -1.0], atol=1e-14)

    def test_rejects_off_boundary_points(self):
        geo = disk_geometry()
        with pytest.raises(ValueError):
            geo.unit_normal(np.array([0.5, 0.0]), "circle")

    def test_rejects_nan_points(self):
        geo = disk_geometry()
        with pytest.raises(ValueError, match=r"at \(nan, 0.0\)"):
            geo.unit_normal(np.array([[1.0, 0.0], [np.nan, 0.0]]), "circle")

    def test_rejects_nan_gradient(self):
        geo = _with_gradient(_nan_pair)
        with pytest.raises(DegenerateGradientError, match=r"at \(1.0, 0.0\)"):
            geo.unit_normal(np.array([[1.0, 0.0]]), "e")


class TestGeometricGap:
    def test_matches_sagitta_formula(self):
        # For a regular inscribed polygon the gap is 1 - sqrt(1 - (h/2)^2).
        for n in (16, 32, 64):
            mesh = generate_disk_mesh(n)
            geo = disk_geometry()
            gap = geometric_gap(mesh, geo)
            chord = 2.0 * math.sin(math.pi / n)
            sagitta = 1.0 - math.sqrt(1.0 - (chord / 2.0) ** 2)
            assert abs(gap - sagitta) <= 1e-12

    def test_second_order_in_h(self):
        geo = disk_geometry()
        data = []
        for n in (32, 64, 128, 256):
            mesh = generate_disk_mesh(n)
            data.append((mesh.h, geometric_gap(mesh, geo)))
        h = np.log([d[0] for d in data])
        g = np.log([d[1] for d in data])
        slope = np.polyfit(h, g, 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_bounded_by_h_squared_over_eight(self):
        geo = disk_geometry()
        for n in (32, 64, 128):
            mesh = generate_disk_mesh(n)
            assert geometric_gap(mesh, geo) <= mesh.h**2 / 8.0 * 1.001

    @pytest.mark.parametrize("domain", ["disk", "square_hole"])
    def test_one_projection_per_component(self, domain):
        # Same value as projecting 33 samples edge by edge, from one
        # closest_point call per boundary component.
        if domain == "disk":
            mesh, geo = generate_disk_mesh(32), disk_geometry()
        else:
            mesh, geo = generate_square_hole_mesh(1), square_hole_geometry()
        t = np.linspace(0.0, 1.0, 33)
        want = 0.0
        for v0, v1, _tri, cid in mesh.boundary_edges:
            a, b = mesh.vertices[v0], mesh.vertices[v1]
            pts = a + np.outer(t, b - a)
            dist = np.linalg.norm(geo.closest_point(pts, cid) - pts, axis=1)
            want = max(want, float(dist.max()))
        calls = []
        project = geo.closest_point
        geo.closest_point = lambda pts, cid: calls.append(cid) or project(pts, cid)
        assert geometric_gap(mesh, geo) == want
        assert sorted(calls) == sorted(geo.components)
