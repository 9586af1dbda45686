"""Affine triangular meshes of the experimental domains.

Generators produce meshes whose boundary vertices lie exactly on the true
curved boundary, so the gap between the polygonal and true boundaries
shrinks like the square of the mesh size.  A mesh built elsewhere enters
as ``Mesh(vertices, triangles, boundary_edges)`` and is checked by
`validate`.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import Delaunay

from .geometry import _per_curve

MIN_ANGLE_DEG = 20.0


@dataclass
class Mesh:
    """Conforming triangulation with tagged boundary edges.

    boundary_edges holds (v0, v1, adjacent_triangle, curve_id) tuples; the
    adjacent triangle is the unique element whose closure contains the edge.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: list

    @cached_property
    def h(self):
        """Largest triangle diameter (= longest edge)."""
        ends = self.vertices[self.edge_table.edges]
        return float(np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1).max())

    @cached_property
    def edge_table(self):
        """The EdgeTable of the triangulation."""
        return EdgeTable(self.triangles)

    @cached_property
    def boundary_table(self):
        """boundary_edges as arrays: end vertices (E, 2), adjacent
        triangles (E,) and curve ids (E,)."""
        table = np.array(self.boundary_edges, dtype=object).reshape(-1, 4)
        return table[:, :2].astype(np.int64), table[:, 2].astype(np.int64), table[:, 3]

    def min_angle_deg(self):
        """Smallest interior angle over all triangles, in degrees."""
        pts = self.vertices[self.triangles]
        worst = 180.0
        for i in range(3):
            a = pts[:, (i + 1) % 3] - pts[:, i]
            b = pts[:, (i + 2) % 3] - pts[:, i]
            cosang = np.einsum("ij,ij->i", a, b) / (
                np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
            )
            ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
            worst = min(worst, float(ang.min()))
        return worst


def _row_norms(x):
    """Euclidean norms of the rows of x (n, 2), each rounded exactly as
    np.linalg.norm rounds that row alone (a dot product, not a sum)."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


class EdgeTable:
    """Every edge of a triangulation, found at once and numbered by first
    appearance.

    Triangles are read in order and each one's local edges as (v0,v1),
    (v1,v2), (v2,v0).  edges (ne, 2) holds the sorted vertex pairs,
    tri_edges (m, 3) the id of each local edge, counts (ne,) the number of
    adjacent triangles and first_tri (ne,) the first of them.
    """

    def __init__(self, triangles):
        tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
        pairs = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        # int64 keys: u * n + v overflows int32 above about 46k vertices.
        self._n = int(tris.max(initial=0)) + 1
        keys, first, inverse, counts = np.unique(
            pairs[:, 0] * self._n + pairs[:, 1],
            return_index=True, return_inverse=True, return_counts=True,
        )
        order = np.argsort(first)
        ids = np.empty_like(order)
        ids[order] = np.arange(len(order))
        self.edges = pairs[first[order]]
        self.tri_edges = ids[inverse].reshape(-1, 3)
        self.counts = counts[order]
        self.first_tri = first[order] // 3
        # A sentinel past every key keeps find's searchsorted in bounds.
        self._keys = np.append(keys, np.iinfo(np.int64).max)
        self._ids = np.append(ids, -1)

    def find(self, v0, v1):
        """Edge ids of the vertex pairs (v0, v1), either way round; -1 for
        a pair that is not an edge."""
        lo = np.minimum(v0, v1).astype(np.int64)
        hi = np.maximum(v0, v1)
        pos = np.searchsorted(self._keys, lo * self._n + hi)
        found = (lo >= 0) & (hi < self._n) & (self._keys[pos] == lo * self._n + hi)
        return np.where(found, self._ids[pos], -1)


def _tagged_mesh(vertices, triangles, classify):
    """Mesh whose boundary edges, the single-triangle edges, are tagged by
    `classify`, which maps (E, 2) edge midpoints to E curve ids."""
    table = EdgeTable(triangles)
    single = table.counts == 1
    u, v = table.edges[single].T
    cid = np.asarray(classify(0.5 * (vertices[u] + vertices[v])))
    order = np.lexsort((v, u, cid))
    columns = (u[order], v[order], table.first_tri[single][order], cid[order])
    mesh = Mesh(vertices, triangles, list(zip(*(c.tolist() for c in columns))))
    mesh.edge_table = table
    return mesh


def _doubled_areas(vertices, triangles):
    """Twice the signed area of each triangle (positive if CCW)."""
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )


def _orient_ccw(vertices, triangles):
    flipped = triangles.copy()
    cw = _doubled_areas(vertices, triangles) < 0
    flipped[cw] = flipped[cw][:, [0, 2, 1]]
    return flipped


def generate_disk_mesh(n_boundary):
    """Mesh the unit disk with boundary vertices on the unit circle.

    Vertices are laid out on concentric rings whose point counts grow in
    proportion to the radius; the ring point cloud is then triangulated.
    """
    vertices, triangles = _disk_triangulation(n_boundary)
    return _tagged_mesh(vertices, triangles, lambda mid: np.full(len(mid), "circle"))


def generate_ellipse_mesh(n_boundary, a=1.0, b=0.6):
    """Mesh the ellipse (x/a)^2 + (y/b)^2 <= 1: the disk mesh scaled by
    diag(a, b), its boundary edges tagged ``ellipse``.

    Scaling flattens the triangles; at a = 1, b = 0.6 the minimum angle
    passes `validate`'s 20 degrees from n_boundary = 32 on (19.1 degrees
    at 16).
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"ellipse axes must be positive, got a={a}, b={b}")
    vertices, triangles = _disk_triangulation(n_boundary)
    vertices = vertices * np.array([a, b], dtype=float)
    return _tagged_mesh(vertices, triangles, lambda mid: np.full(len(mid), "ellipse"))


def _disk_triangulation(n_boundary):
    """Vertices and CCW triangles of the unit-disk mesh."""
    if n_boundary < 8:
        raise ValueError("n_boundary must be at least 8")
    chord = 2.0 * math.sin(math.pi / n_boundary)
    # Interior point spacing slightly below the boundary chord keeps the
    # boundary chords the longest edges, and sqrt(3)/2 radial-to-angular
    # spacing gives near-equilateral triangles.
    fine = 0.7
    n_rings = max(2, math.ceil(2.0 / (math.sqrt(3.0) * fine * chord)))
    pts = [(0.0, 0.0)]
    for j in range(1, n_rings + 1):
        r = j / n_rings
        n_j = n_boundary if j == n_rings else max(4, round(n_boundary * r / fine))
        # Stagger alternate rings for better element shapes.
        offset = 0.0 if j % 2 == 0 else math.pi / n_j
        theta = 2.0 * math.pi * np.arange(n_j) / n_j + offset
        pts.extend(zip(r * np.cos(theta), r * np.sin(theta)))
    vertices = np.array(pts)
    return vertices, _orient_ccw(vertices, Delaunay(vertices).simplices)


def generate_square_hole_mesh(n_refine):
    """Mesh the unit square minus the radius-1/4 concentric disk.

    The coarse mesh places sixteen vertices on the circle and sixteen on
    the square and joins them radially; refinement splits every triangle at
    the edge midpoints, reprojecting new inner-boundary vertices to the
    circle so every refinement level keeps its boundary vertices exact.
    """
    if n_refine < 0:
        raise ValueError("n_refine must be nonnegative")
    # Three rings of 16 directions each: the circle, an intermediate ring,
    # and the square (corners sit at odd multiples of 22.5 degrees).
    angles = np.pi / 8.0 * np.arange(16)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    inner = 0.25 * dirs
    middle = 0.375 * dirs
    outer = 0.5 * dirs / np.max(np.abs(dirs), axis=1, keepdims=True)
    vertices = np.vstack([inner, middle, outer])
    ring, step = np.array([[0], [16]]), np.arange(16)
    i, j = ring + step, ring + (step + 1) % 16
    triangles = np.stack([i, i + 16, j + 16, i, j + 16, j], axis=-1).reshape(-1, 3)
    triangles = _orient_ccw(vertices, triangles)

    for _ in range(n_refine):
        vertices, triangles = _refine_once(vertices, triangles)
    return _tagged_mesh(
        vertices,
        triangles,
        lambda mid: np.where(np.linalg.norm(mid, axis=1) < 0.375, "hole", "square"),
    )


def _refine_once(vertices, triangles):
    """Uniform midpoint subdivision; hole-boundary midpoints reprojected."""
    table = EdgeTable(triangles)
    mid = 0.5 * (vertices[table.edges[:, 0]] + vertices[table.edges[:, 1]])
    r = _row_norms(mid)
    hole = (table.counts == 1) & (r < 0.375)
    mid[hole] = 0.25 * mid[hole] / r[hole, None]
    # Edge e's midpoint becomes vertex nv + e.
    a, b, c = triangles.T
    mab, mbc, mca = (len(vertices) + table.tri_edges).T
    children = [[a, mab, mca], [mab, b, mbc], [mca, mbc, c], [mab, mbc, mca]]
    return np.vstack([vertices, mid]), np.transpose(children, (2, 0, 1)).reshape(-1, 3)


def generate_square_mesh(n, center=(0.0, 0.0), half_width=0.5):
    """Structured triangulation of a square; its boundary is exactly straight.

    Useful as the degenerate-geometry case where the polygonal and true
    boundaries coincide.
    """
    if n < 1:
        raise ValueError("n must be positive")
    cx, cy = center
    coords = np.linspace(-half_width, half_width, n + 1)
    xx, yy = np.meshgrid(coords + cx, coords + cy, indexing="ij")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10 = v00 + n + 1
    triangles = np.stack([v00, v10, v10 + 1, v00, v10 + 1, v00 + 1], axis=1).reshape(-1, 3)
    triangles = _orient_ccw(vertices, triangles)
    return _tagged_mesh(vertices, triangles, lambda mid: np.full(len(mid), "square"))


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self):
        return not self.violations


def validate(mesh, geometry=None):
    """Check the invariants the pipeline relies on; the report lists each
    violation with its indices.  In order: triangle vertex indices in range
    and finite vertex coordinates (either failure ends the check), positive
    triangle areas, boundary edge indices in range (failure ends the check),
    boundary tags on exactly the single-triangle edges, each with its
    triangle, closed boundary loops, boundary vertices on the true curve
    (given a geometry), and no angle below MIN_ANGLE_DEG.
    """
    v = []
    verts, tris = mesh.vertices, mesh.triangles

    in_range = np.all((tris >= 0) & (tris < len(verts)), axis=1)
    if not np.all(in_range):
        v.extend(f"triangle {t}: vertex index out of range" for t in np.flatnonzero(~in_range))
        return ValidationReport(v)
    finite = np.all(np.isfinite(verts), axis=1)
    if not np.all(finite):
        v.extend(f"vertex {i}: non-finite coordinates" for i in np.flatnonzero(~finite))
        return ValidationReport(v)

    areas = 0.5 * _doubled_areas(verts, tris)
    for t in np.flatnonzero(~(areas > 0)):
        v.append(f"triangle {t}: nonpositive signed area {areas[t]:.3e}")

    ends, tri, curve = mesh.boundary_table
    in_range = np.all((ends >= 0) & (ends < len(verts)), axis=1) & (tri >= 0) & (tri < len(tris))
    if not np.all(in_range):
        v.extend(f"boundary edge {i}: index out of range" for i in np.flatnonzero(~in_range))
        return ValidationReport(v)

    table = mesh.edge_table
    eid = table.find(ends[:, 0], ends[:, 1])
    tagged = np.zeros(len(table.edges), dtype=bool)
    tagged[eid[eid >= 0]] = True
    n_adj = table.counts
    for e in np.flatnonzero((n_adj > 2) | ((n_adj == 1) != tagged)):
        (u, w), adj = table.edges[e], n_adj[e]
        what = "boundary edge missing a tag" if adj == 1 else "interior edge tagged as boundary"
        v.append(f"edge ({u},{w}): " + (f"shared by {adj} triangles" if adj > 2 else what))
    first = table.first_tri[eid]
    wrong = (eid >= 0) & (n_adj[eid] == 1) & (tri != first)
    for i in np.flatnonzero((eid < 0) | wrong):
        what = "tagged edge absent from triangulation"
        what = f"wrong adjacent triangle {tri[i]} != {first[i]}" if wrong[i] else what
        v.append(f"edge ({min(ends[i])},{max(ends[i])}): {what}")

    for cid in curve[np.sort(np.unique(curve, return_index=True)[1])]:
        vids = ends[curve == cid].ravel()
        _ids, seen, degree = np.unique(vids, return_index=True, return_counts=True)
        bad = vids[np.sort(seen[degree != 2])].tolist()
        if bad:
            v.append(f"component {cid!r}: open boundary loop at vertices {bad}")

    if geometry is not None:
        level = lambda p, cid: geometry.component(cid).level_set(p[:, 0], p[:, 1])
        vids, at = np.unique(ends, return_index=True)
        cids = np.repeat(curve, 2)[at]
        phi = _per_curve(level, verts[vids], cids)
        for i in np.flatnonzero(~(np.abs(phi) <= 1e-10)):
            v.append(f"vertex {vids[i]}: off true boundary {cids[i]!r} (phi = {phi[i]:.3e})")

    worst = mesh.min_angle_deg()
    if worst < MIN_ANGLE_DEG:
        v.append(f"minimum angle {worst:.2f} deg below {MIN_ANGLE_DEG} deg")
    return ValidationReport(v)
