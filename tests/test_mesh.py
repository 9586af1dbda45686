"""Tests for mesh generation and validation.

`validate` is the guard on meshes built outside pefem, so it must report
malformed input (bad indices, non-finite coordinates) rather than raise.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from pefem.fem import FeSpace
from pefem.geometry import (
    BoundaryComponent,
    BoundaryGeometry,
    disk_geometry,
    geometric_gap,
    square_hole_geometry,
)
from pefem.mesh import (
    Mesh,
    generate_disk_mesh,
    generate_square_hole_mesh,
    generate_square_mesh,
    validate,
)


def boundary_vertex_ids(mesh, curve_id=None):
    out = set()
    for v0, v1, _tri, cid in mesh.boundary_edges:
        if curve_id is None or cid == curve_id:
            out.update((v0, v1))
    return sorted(out)


class TestDiskMesh:
    def test_boundary_vertex_count_and_radius(self):
        mesh = generate_disk_mesh(8)
        bverts = boundary_vertex_ids(mesh)
        assert len(bverts) == 8
        radii = np.linalg.norm(mesh.vertices[bverts], axis=1)
        assert np.abs(radii - 1.0).max() <= 1e-14

    def test_h_tracks_boundary_chord(self):
        # The longest edge is the boundary chord or an interior edge at
        # most a few percent longer.
        for n in (8, 16, 64):
            mesh = generate_disk_mesh(n)
            chord = 2.0 * math.sin(math.pi / n)
            assert chord - 1e-12 <= mesh.h <= 1.08 * chord

    def test_validates_against_geometry(self):
        geo = disk_geometry()
        for n in (8, 16, 32, 64):
            report = validate(generate_disk_mesh(n), geo)
            assert report.ok, report.violations

    def test_h_halves_per_level(self):
        hs = [generate_disk_mesh(n).h for n in (16, 32, 64, 128)]
        for coarse, fine in zip(hs, hs[1:]):
            assert 0.45 <= fine / coarse <= 0.55

    def test_gap_fraction_of_h_squared(self):
        # delta_h ~ h^2/8; the generators keep the ratio in a narrow band.
        geo = disk_geometry()
        for n in (16, 32, 64):
            mesh = generate_disk_mesh(n)
            ratio = geometric_gap(mesh, geo) / mesh.h**2
            assert 0.10 <= ratio <= 0.15

    def test_rejects_tiny_boundary_count(self):
        with pytest.raises(ValueError):
            generate_disk_mesh(4)


class TestSquareHoleMesh:
    def test_hole_vertices_on_circle(self):
        for level in (0, 1, 2):
            mesh = generate_square_hole_mesh(level)
            hole = boundary_vertex_ids(mesh, "hole")
            radii = np.linalg.norm(mesh.vertices[hole], axis=1)
            assert np.abs(radii - 0.25).max() <= 1e-12

    def test_square_vertices_on_square(self):
        mesh = generate_square_hole_mesh(1)
        outer = boundary_vertex_ids(mesh, "square")
        norms = np.abs(mesh.vertices[outer]).max(axis=1)
        assert np.abs(norms - 0.5).max() <= 1e-12

    def test_refinement_quadruples_triangles(self):
        counts = [len(generate_square_hole_mesh(l).triangles) for l in (0, 1, 2)]
        assert counts[1] == 4 * counts[0]
        assert counts[2] == 4 * counts[1]

    def test_h_halves_over_three_levels(self):
        h0 = generate_square_hole_mesh(0).h
        h3 = generate_square_hole_mesh(3).h
        assert 7.5 <= h0 / h3 <= 8.5

    def test_validates_against_geometry(self):
        geo = square_hole_geometry()
        for level in (0, 1, 2):
            report = validate(generate_square_hole_mesh(level), geo)
            assert report.ok, report.violations

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            generate_square_hole_mesh(-1)


class TestSquareMesh:
    def test_structured_counts(self):
        mesh = generate_square_mesh(4)
        assert len(mesh.vertices) == 25
        assert len(mesh.triangles) == 32
        assert validate(mesh).ok

    def test_boundary_is_straight(self):
        mesh = generate_square_mesh(3)
        for v0, v1, _tri, cid in mesh.boundary_edges:
            assert cid == "square"
            assert np.abs(mesh.vertices[[v0, v1]]).max() == pytest.approx(0.5)


class TestValidate:
    def test_detects_flipped_triangle(self):
        mesh = generate_square_mesh(2)
        tris = mesh.triangles.copy()
        tris[0] = tris[0][[0, 2, 1]]
        broken = Mesh(mesh.vertices, tris, mesh.boundary_edges)
        report = validate(broken)
        assert any("nonpositive signed area" in v for v in report.violations)

    def test_detects_missing_boundary_tag(self):
        mesh = generate_square_mesh(2)
        broken = Mesh(mesh.vertices, mesh.triangles, mesh.boundary_edges[1:])
        report = validate(broken)
        assert any("missing a tag" in v for v in report.violations)
        assert any("open boundary loop" in v for v in report.violations)

    def test_detects_wrong_adjacent_triangle(self):
        mesh = generate_square_mesh(2)
        v0, v1, tri, cid = mesh.boundary_edges[0]
        edges = [(v0, v1, tri + 1, cid)] + mesh.boundary_edges[1:]
        report = validate(Mesh(mesh.vertices, mesh.triangles, edges))
        assert any("wrong adjacent triangle" in v for v in report.violations)

    def test_detects_off_boundary_vertex(self):
        # Each moved vertex ends two boundary edges, and is reported once.
        mesh = generate_disk_mesh(16)
        verts = mesh.vertices.copy()
        moved = boundary_vertex_ids(mesh)[:2]
        verts[moved] *= 1.01
        report = validate(Mesh(verts, mesh.triangles, mesh.boundary_edges), disk_geometry())
        off = [v for v in report.violations if "off true boundary" in v]
        assert off == [f"vertex {vid}: off true boundary 'circle' (phi = 1.000e-02)" for vid in moved]

    def test_detects_nan_level_set(self):
        # A level set that is NaN at one boundary vertex flags that vertex.
        mesh = generate_disk_mesh(16)
        circle = disk_geometry().component("circle")
        vid = boundary_vertex_ids(mesh)[0]
        x0, y0 = mesh.vertices[vid]

        def level_set(x, y):
            at = (np.asarray(x) == x0) & (np.asarray(y) == y0)
            return np.where(at, np.nan, circle.level_set(x, y))

        geo = BoundaryGeometry({"circle": BoundaryComponent(level_set, circle.gradient)})
        off = [v for v in validate(mesh, geo).violations if "off true boundary" in v]
        assert off == [f"vertex {vid}: off true boundary 'circle' (phi = nan)"]

    def test_detects_poor_angles(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.01]])
        tris = np.array([[0, 1, 2]])
        edges = [(0, 1, 0, "square"), (1, 2, 0, "square"), (0, 2, 0, "square")]
        report = validate(Mesh(verts, tris, edges))
        assert any("minimum angle" in v for v in report.violations)

    def test_reports_out_of_range_boundary_edge(self):
        mesh = generate_square_mesh(1)
        edges = list(mesh.boundary_edges)
        edges[1] = (0, 9, 1, "square")
        edges[3] = (0, -1, 0, "square")
        edges.append((0, 1, 7, "square"))
        report = validate(Mesh(mesh.vertices, mesh.triangles, edges))
        for i in (1, 3, 4):
            assert f"boundary edge {i}: index out of range" in report.violations
        assert not any("boundary edge 0" in v or "boundary edge 2" in v for v in report.violations)

    @pytest.mark.parametrize("index", [7, -1, 3])
    def test_reports_out_of_range_triangle_vertex(self, index):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        report = validate(Mesh(verts, np.array([[0, 1, index]]), []))
        assert report.violations == ["triangle 0: vertex index out of range"]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_reports_non_finite_vertex(self, value):
        mesh = generate_square_mesh(2)
        verts = mesh.vertices.copy()
        verts[4, 1] = value
        report = validate(Mesh(verts, mesh.triangles, mesh.boundary_edges))
        assert report.violations == ["vertex 4: non-finite coordinates"]

    def test_zero_length_boundary_edge(self):
        mesh = generate_square_mesh(2)
        edges = list(mesh.boundary_edges) + [(3, 3, 0, "square")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate(Mesh(mesh.vertices, mesh.triangles, edges))
        assert report.violations == [
            "edge (3,3): tagged edge absent from triangulation",
            "component 'square': open boundary loop at vertices [3]",
        ]

    def test_outward_normals(self):
        # The space's facet normals, against the outward direction of each
        # boundary at the edge midpoints: radially out of the disk, toward
        # the centre on the hole, along an axis on the outer square.
        for mesh in (generate_disk_mesh(16), generate_square_hole_mesh(1)):
            normals = FeSpace(mesh, 1).boundary_normals
            ends, _tri, curve = mesh.boundary_table
            mid = mesh.vertices[ends].mean(axis=1)
            radial = mid / np.linalg.norm(mid, axis=1)[:, None]
            rows = np.arange(len(mid))
            axis = np.argmax(np.abs(mid), axis=1)
            axial = np.zeros_like(mid)
            axial[rows, axis] = np.sign(mid[rows, axis])
            want = {"circle": radial, "hole": -radial, "square": axial}
            for cid in np.unique(curve):
                on = curve == cid
                assert np.abs(normals[on] - want[cid][on]).max() <= 1e-15, cid


def test_mesh_holds_only_its_inputs():
    assert [f.name for f in dataclasses.fields(Mesh)] == ["vertices", "triangles", "boundary_edges"]
