"""Tests for level sets, closest-point projection, normals, and the gap."""

import math

import numpy as np
import pytest

from pefem.errors import ProjectionError
from pefem.geometry import (
    BoundaryComponent,
    BoundaryGeometry,
    disk_geometry,
    geometric_gap,
    square_geometry,
    square_hole_geometry,
)
from pefem.mesh import generate_disk_mesh, generate_square_hole_mesh


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


class TestNewtonProjection:
    """A component with no closed-form projection exercises the iteration."""

    @staticmethod
    def _ellipse(a=1.0, b=0.6):
        def level_set(x, y):
            return (np.asarray(x) / a) ** 2 + (np.asarray(y) / b) ** 2 - 1.0

        def gradient(x, y):
            return 2.0 * np.asarray(x) / a**2, 2.0 * np.asarray(y) / b**2

        return BoundaryGeometry({"ellipse": BoundaryComponent(level_set, gradient)})

    def test_converges_onto_level_set(self):
        geo = self._ellipse()
        pts = np.array([[0.9, 0.0], [0.0, 0.5], [0.5, 0.3], [-0.6, -0.2]])
        eta = geo.closest_point(pts, "ellipse")
        comp = geo.component("ellipse")
        assert np.abs(comp.level_set(eta[:, 0], eta[:, 1])).max() <= 1e-12

    def test_axis_points_project_to_vertices(self):
        geo = self._ellipse()
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
