"""Property tests of the edge table and the numbering built on it.

The reference below numbers edges with a per-triangle dict, one insertion
at a time; the vectorised `EdgeTable` must reproduce it exactly.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from pefem.fem import FeSpace
from pefem.mesh import (
    EdgeTable,
    Mesh,
    _orient_ccw,
    _tagged_mesh,
    generate_disk_mesh,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def reference_edges(triangles):
    """Map sorted vertex pair -> adjacent triangles, in insertion order."""
    edges = {}
    for t, (a, b, c) in enumerate(triangles.tolist()):
        for u, v in ((a, b), (b, c), (c, a)):
            edges.setdefault((min(u, v), max(u, v)), []).append(t)
    return edges


@st.composite
def point_cloud_meshes(draw):
    """Delaunay triangulations of distinct lattice points, oriented CCW."""
    ij = draw(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)),
            min_size=3,
            max_size=30,
            unique=True,
        )
    )
    vertices = np.array(ij, dtype=float) / 40.0
    assume(np.linalg.matrix_rank(vertices - vertices[0]) == 2)
    triangles = _orient_ccw(vertices, Delaunay(vertices).simplices)
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    assume(np.all(cross > 0))
    return _tagged_mesh(vertices, triangles, lambda mid: np.full(len(mid), "square"))


@st.composite
def perturbed_disk_meshes(draw):
    """Disk meshes with every interior vertex moved by a drawn offset, far
    less than the smallest triangle altitude so no triangle flips."""
    mesh = generate_disk_mesh(draw(st.sampled_from([8, 12, 16])))
    on_boundary = np.zeros(len(mesh.vertices), dtype=bool)
    on_boundary[[e[0] for e in mesh.boundary_edges]] = True
    n_interior = int(np.sum(~on_boundary))
    offsets = draw(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False),
            min_size=2 * n_interior,
            max_size=2 * n_interior,
        )
    )
    p = mesh.vertices[mesh.triangles]
    e = [p[:, (i + 1) % 3] - p[:, i] for i in range(3)]
    area2 = np.abs(e[0][:, 0] * e[1][:, 1] - e[0][:, 1] * e[1][:, 0])
    altitude = (area2 / np.max([np.linalg.norm(x, axis=1) for x in e], axis=0)).min()
    vertices = mesh.vertices.copy()
    vertices[~on_boundary] += 0.15 * altitude * np.reshape(offsets, (-1, 2))
    return Mesh(vertices, mesh.triangles, mesh.boundary_edges)


meshes = st.one_of(point_cloud_meshes(), perturbed_disk_meshes())

# Arbitrary index triples: edges shared by any number of triangles.
triangle_soups = st.lists(
    st.lists(st.integers(0, 11), min_size=3, max_size=3, unique=True),
    min_size=1,
    max_size=40,
).map(np.array)


def check_against_reference(triangles):
    table = EdgeTable(triangles)
    ref = reference_edges(triangles)
    keys = list(ref)
    assert table.edges.tolist() == [list(k) for k in keys]
    assert table.counts.tolist() == [len(t) for t in ref.values()]
    assert table.first_tri.tolist() == [t[0] for t in ref.values()]
    ids = {key: i for i, key in enumerate(keys)}
    want = [
        [ids[(min(u, v), max(u, v))] for u, v in ((a, b), (b, c), (c, a))]
        for a, b, c in triangles.tolist()
    ]
    assert table.tri_edges.tolist() == want
    u, v = table.edges.T
    assert np.array_equal(table.find(v, u), np.arange(len(keys)))
    pairs = [(u, v) for u in range(-1, 13) for v in range(-1, 13)]
    absent = [(u, v) for u, v in pairs if (min(u, v), max(u, v)) not in ref]
    assert np.all(table.find(*np.array(absent).T) == -1)


@PROPERTY
@given(meshes)
def test_edge_table_matches_reference_on_meshes(mesh):
    check_against_reference(mesh.triangles)


@PROPERTY
@given(triangle_soups)
def test_edge_table_matches_reference_on_triangle_soups(triangles):
    check_against_reference(triangles)


@PROPERTY
@given(meshes, st.integers(1, 4))
def test_dof_count(mesh, k):
    nv, ne, nt = len(mesh.vertices), len(reference_edges(mesh.triangles)), len(mesh.triangles)
    assert FeSpace(mesh, k).n_dofs == nv + (k - 1) * ne + (k - 1) * (k - 2) // 2 * nt


@PROPERTY
@given(meshes, st.integers(1, 4))
def test_boundary_and_interior_dofs_partition(mesh, k):
    space = FeSpace(mesh, k)
    both = np.concatenate([space.boundary_dofs, space.interior_dofs])
    assert np.array_equal(np.sort(both), np.arange(space.n_dofs))
    # The boundary dofs are the vertices and edge dofs of single-triangle edges.
    nv = len(mesh.vertices)
    want = set()
    for eid, ((u, v), tris) in enumerate(reference_edges(mesh.triangles).items()):
        if len(tris) == 1:
            want.update([u, v, *range(nv + eid * (k - 1), nv + (eid + 1) * (k - 1))])
    assert space.boundary_dofs.tolist() == sorted(want)


@PROPERTY
@given(meshes, st.integers(1, 4))
def test_boundary_dofs_are_the_tagged_edges_dofs(mesh, k):
    space = FeSpace(mesh, k)
    want = set()
    for v0, v1, _tri, _cid in mesh.boundary_edges:
        want.update(space.edge_dofs(v0, v1))
    assert space.boundary_dofs.tolist() == sorted(want)
