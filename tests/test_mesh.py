"""Tests for mesh generation and validation.

`validate` is the guard on meshes built outside pefem, so it must report
malformed input (bad indices, non-finite coordinates) rather than raise.
"""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import Delaunay

import pefem
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


def cross(p, q):
    return p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]


def qhull_disk(n_boundary):
    """The rings of generate_disk_mesh, built point by point, and their
    Delaunay triangulation by qhull, oriented CCW."""
    chord = 2.0 * math.sin(math.pi / n_boundary)
    n_rings = max(2, math.ceil(2.0 / (math.sqrt(3.0) * 0.7 * chord)))
    pts = [(0.0, 0.0)]
    for j in range(1, n_rings + 1):
        r = j / n_rings
        n_j = n_boundary if j == n_rings else max(4, round(n_boundary * r / 0.7))
        offset = 0.0 if j % 2 == 0 else math.pi / n_j
        theta = 2.0 * math.pi * np.arange(n_j) / n_j + offset
        pts.extend(zip(r * np.cos(theta), r * np.sin(theta)))
    vertices = np.array(pts)
    tris = Delaunay(vertices).simplices
    a, b, c = (vertices[tris[:, i]] for i in range(3))
    cw = cross(b - a, c - a) < 0
    tris[cw] = tris[cw][:, [0, 2, 1]]
    return vertices, tris


def interior_quads(tris):
    """(a, b, c, d) for each edge ab shared by two triangles: abc is CCW
    and d is the far vertex of the triangle on the other side."""
    half = np.stack([tris, np.roll(tris, -1, axis=1), np.roll(tris, -2, axis=1)], axis=-1)
    half = half.reshape(-1, 3)
    n = int(tris.max()) + 1
    keys = half[:, 0] * n + half[:, 1]
    order = np.argsort(keys)
    pos = np.minimum(np.searchsorted(keys[order], half[:, 1] * n + half[:, 0]), len(keys) - 1)
    twin = order[pos]
    own = (keys[twin] == half[:, 1] * n + half[:, 0]) & (half[:, 0] < half[:, 1])
    return np.column_stack([half[own], half[twin[own], 2]])


def incircle(vertices, quads):
    """The in-circle determinant of each quad (a, b, c, d), positive when d
    lies inside the circle through the CCW triangle abc, divided by the sum
    of the absolute values of its terms."""
    a, b, c = (vertices[quads[:, i]] - vertices[quads[:, 3]] for i in range(3))
    det, bound = 0.0, 0.0
    for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
        lift = np.einsum("ij,ij->i", p, p)
        det = det + lift * cross(q, r)
        bound = bound + lift * (np.abs(q[:, 0] * r[:, 1]) + np.abs(q[:, 1] * r[:, 0]))
    return det / bound


# |incircle| of a cocircular quad on these rings is below 1.5e-13; of any
# other interior edge above 1.8e-4 (n = 8..300, 512, 1024).
TIE_TOL = 1e-10


def triangle_keys(tris, n):
    """One integer per triangle, whatever the order of its vertices."""
    s = np.sort(tris, axis=1).astype(np.int64)
    return (s[:, 0] * n + s[:, 1]) * n + s[:, 2]


@pytest.mark.parametrize("n", [*range(8, 301), 512, 1024])
def test_disk_rings_are_a_delaunay_triangulation(n):
    # The rings stitched pairwise against qhull's triangulation of the same
    # points: they may differ only inside cocircular quads, whose two
    # diagonals mirror each other, so the minimum angle is the same.
    mesh = generate_disk_mesh(n)
    vertices, ref = qhull_disk(n)
    assert mesh.vertices.tobytes() == vertices.tobytes()
    tris = mesh.triangles
    assert len(tris) == len(ref)
    a, b, c = (vertices[tris[:, i]] for i in range(3))
    assert np.all(cross(b - a, c - a) > 0)

    quads = interior_quads(tris)
    assert len(quads) == (3 * len(tris) - n) // 2
    rel = incircle(vertices, quads)
    assert np.all(rel <= TIE_TOL), rel.max()
    # Flip the cocircular quads whose triangle abc qhull lacks.
    ties = quads[np.abs(rel) <= TIE_TOL]
    nv = len(vertices)
    theirs = np.sort(triangle_keys(ref, nv))
    flip = ties[~np.isin(triangle_keys(ties[:, :3], nv), theirs)]
    removed = triangle_keys(np.vstack([flip[:, [0, 1, 2]], flip[:, [0, 1, 3]]]), nv)
    added = triangle_keys(np.vstack([flip[:, [0, 2, 3]], flip[:, [1, 2, 3]]]), nv)
    ours = triangle_keys(tris, nv)
    assert np.array_equal(np.sort(np.concatenate([np.setdiff1d(ours, removed), added])), theirs)

    assert mesh.min_angle_deg() == pytest.approx(Mesh(vertices, ref, []).min_angle_deg(), rel=1e-12)


def test_meshing_loads_no_scipy_spatial():
    code = (
        "import sys, pefem\n"
        "pefem.generate_disk_mesh(64)\n"
        "pefem.generate_ellipse_mesh(64)\n"
        "pefem.generate_square_hole_mesh(1)\n"
        "assert 'scipy.spatial' not in sys.modules, 'scipy.spatial was imported'\n"
    )
    src = str(Path(pefem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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

    def test_reports_curve_id_unknown_to_the_geometry(self):
        # With every vertex moved off its curve, the known component's
        # vertices are still reported and the unknown one's are skipped.
        mesh = generate_square_hole_mesh(0)
        edges = [(*e[:3], "bogus" if e[3] == "hole" else e[3]) for e in mesh.boundary_edges]
        moved = Mesh(mesh.vertices * 1.01, mesh.triangles, edges)
        first, *rest = validate(moved, square_hole_geometry()).violations
        assert first == "component 'bogus': unknown to the geometry"
        assert len(rest) == len(boundary_vertex_ids(mesh, "square"))
        assert all("off true boundary 'square'" in v for v in rest)

    def test_accepts_nested_lists(self):
        edges = [(0, 1, 0, "square"), (1, 2, 0, "square"), (2, 0, 0, "square")]
        mesh = Mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], edges)
        assert mesh.vertices.dtype == np.float64
        assert validate(mesh).ok
        report = validate(Mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 7]], []))
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
