import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from pdecont.mesh import (MeshError, SEG_BOTTOM, SEG_LEFT, SEG_RIGHT, SEG_TOP,
                          build_rect_mesh, node_to_triangle, pattern_slots)


def test_counts_and_extent():
    m = build_rect_mesh(1.0, 0.9, 6, 5)
    assert m.npoints == 7 * 6
    assert m.ntri == 2 * 6 * 5
    assert m.points[:, 0].min() == -1.0 and m.points[:, 0].max() == 1.0
    assert m.points[:, 1].min() == -0.9 and m.points[:, 1].max() == 0.9


def test_positive_orientation_and_area():
    m = build_rect_mesh(2.0, 1.0, 7, 3)
    areas = m.tri_areas()
    assert np.all(areas > 0)
    assert np.isclose(areas.sum(), 4.0 * 2.0, rtol=0, atol=1e-12)


def test_hat_gradients_partition_of_unity():
    m = build_rect_mesh(1.0, 1.0, 4, 4)
    g = m.tri_grads()
    # gradients of the three hat functions sum to zero on every triangle
    assert np.allclose(g.sum(axis=1), 0.0, atol=1e-13)
    # each hat is linear with value 1 at its vertex, 0 at the others
    p = m.points[m.triangles]           # (nt, 3, 2)
    for i in range(3):
        for j in range(3):
            vals = np.einsum("td,td->t", g[:, i], p[:, j] - p[:, i]) + 1.0
            assert np.allclose(vals, 1.0 if i == j else 0.0, atol=1e-12)


def test_boundary_edges_ccw_and_arclength():
    m = build_rect_mesh(1.0, 0.5, 4, 2)
    assert len(m.edges) == 2 * (4 + 2)
    # counterclockwise: bottom, right, top, left
    segs = list(m.edge_seg)
    expected = [SEG_BOTTOM] * 4 + [SEG_RIGHT] * 2 + [SEG_TOP] * 4 + [SEG_LEFT] * 2
    assert segs == expected
    # arclength positions start at 0 on each side and are increasing
    for seg in (SEG_BOTTOM, SEG_RIGHT, SEG_TOP, SEG_LEFT):
        s = m.edge_s[m.edge_seg == seg]
        assert s[0, 0] == 0.0
        assert np.all(s[:, 1] > s[:, 0])
    # edges chain: each edge ends where the next starts
    assert np.all(m.edges[:-1, 1] == m.edges[1:, 0])
    assert m.edges[-1, 1] == m.edges[0, 0]


def test_two_by_one_mesh_written_out():
    # node ids 0 1 2 on the bottom row, 3 4 5 on the top row
    m = build_rect_mesh(1.0, 0.5, 2, 1)
    assert m.triangles.tolist() == [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4]]
    assert m.edges.tolist() == [[0, 1], [1, 2], [2, 5], [5, 4], [4, 3], [3, 0]]
    assert m.edge_seg.tolist() == [SEG_BOTTOM, SEG_BOTTOM, SEG_RIGHT,
                                   SEG_TOP, SEG_TOP, SEG_LEFT]
    assert m.edge_s.tolist() == [[0, 1], [1, 2], [0, 1], [0, 1], [1, 2],
                                 [0, 1]]
    assert m.triangles.dtype == m.edges.dtype == m.edge_seg.dtype == np.int64


def _loop_mesh(lx, ly, nx, ny):
    """triangles, edges, edge_seg and edge_s cell by cell and side by side:
    the reference for build_rect_mesh's index arrays."""
    xs, ys = np.linspace(-lx, lx, nx + 1), np.linspace(-ly, ly, ny + 1)

    def nid(ix, iy):
        return iy * (nx + 1) + ix
    tris = []
    for iy in range(ny):
        for ix in range(nx):
            n00, n10 = nid(ix, iy), nid(ix + 1, iy)
            n01, n11 = nid(ix, iy + 1), nid(ix + 1, iy + 1)
            tris += [(n00, n10, n11), (n00, n11, n01)]
    sides = (
        [(nid(ix, 0), nid(ix + 1, 0), SEG_BOTTOM, xs[ix] + lx, xs[ix + 1] + lx)
         for ix in range(nx)]
        + [(nid(nx, iy), nid(nx, iy + 1), SEG_RIGHT, ys[iy] + ly,
            ys[iy + 1] + ly) for iy in range(ny)]
        + [(nid(ix, ny), nid(ix - 1, ny), SEG_TOP, lx - xs[ix],
            lx - xs[ix - 1]) for ix in range(nx, 0, -1)]
        + [(nid(0, iy), nid(0, iy - 1), SEG_LEFT, ly - ys[iy],
            ly - ys[iy - 1]) for iy in range(ny, 0, -1)])
    return {"triangles": np.array(tris, dtype=np.int64),
            "edges": np.array([e[:2] for e in sides], dtype=np.int64),
            "edge_seg": np.array([e[2] for e in sides], dtype=np.int64),
            "edge_s": np.array([e[3:] for e in sides])}


@pytest.mark.parametrize("nx,ny", [(1, 1), (4, 2), (6, 5), (2, 40), (250, 1),
                                   (60, 54)])
def test_index_arrays_equal_the_loops(nx, ny):
    m = build_rect_mesh(np.pi / 2, 0.3, nx, ny)
    for name, want in _loop_mesh(np.pi / 2, 0.3, nx, ny).items():
        got = getattr(m, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), name


def test_invalid_arguments():
    with pytest.raises(MeshError):
        build_rect_mesh(-1.0, 1.0, 4, 4)
    with pytest.raises(MeshError):
        build_rect_mesh(1.0, 1.0, 0, 4)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3), c=st.floats(-3, 3))
def test_node_to_triangle_exact_for_linear_fields(a, b, c):
    m = build_rect_mesh(1.0, 1.0, 5, 4)
    v = a * m.points[:, 0] + b * m.points[:, 1] + c
    tv = node_to_triangle(m, v)
    cent = m.points[m.triangles].mean(axis=1)
    assert np.allclose(tv, a * cent[:, 0] + b * cent[:, 1] + c, atol=1e-12)


def test_node_to_triangle_systems_and_errors():
    m = build_rect_mesh(1.0, 1.0, 3, 3)
    v = np.arange(2 * m.npoints, dtype=float)
    tv = node_to_triangle(m, v, neq=2)
    assert tv.shape == (2, m.ntri)
    with pytest.raises(MeshError):
        node_to_triangle(m, v[:-1], neq=2)


@pytest.mark.parametrize("neq", [1, 2, 3])
def test_node_to_triangle_equals_the_per_component_means(neq):
    m = build_rect_mesh(1.0, 0.6, 5, 4)
    n = m.npoints
    v = np.random.default_rng(neq).standard_normal(neq * n)
    want = np.array([v[k * n:(k + 1) * n][m.triangles].mean(axis=1)
                     for k in range(neq)])
    got = node_to_triangle(m, v, neq)
    assert np.array_equal(got, want[0] if neq == 1 else want)


def test_pattern_slots_find_each_stored_entry():
    rng = np.random.default_rng(3)
    A = sp.random(40, 40, density=0.1, format="csc", random_state=rng)
    A.sort_indices()
    want = np.full((40, 40), -1)
    want[A.indices, np.repeat(np.arange(40), np.diff(A.indptr))] = np.arange(
        A.nnz)
    rows, cols = np.divmod(np.arange(40 * 40), 40)
    got = pattern_slots(A.indptr, A.indices, rows, cols)
    assert np.array_equal(got, want[rows, cols])
    assert np.array_equal(pattern_slots(np.zeros(4, dtype=int),
                                        np.zeros(0, dtype=int), 1, 2), -1)


def test_pattern_slots_answer_a_broadcast_query_in_its_shape():
    # the (ne, neq, neq, 2, 2) query of a boundary edge's block entries:
    # end nodes i, j of each edge, offset by component; some not stored
    rng = np.random.default_rng(5)
    n, neq = 30, 2
    A = sp.random(n * neq, n * neq, density=0.15, format="csc",
                  random_state=rng)
    A.sort_indices()
    want = np.full(A.shape, -1)
    want[A.indices, np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))] = (
        np.arange(A.nnz))
    ends = rng.integers(0, n, size=(17, 2))
    off = n * np.arange(neq)
    i = ends[:, None, None, :, None] + off[:, None, None, None]
    j = ends[:, None, None, None, :] + off[:, None, None]
    got = pattern_slots(A.indptr, A.indices, i, j)
    assert got.shape == (17, neq, neq, 2, 2) and got.dtype == np.intp
    assert np.array_equal(got, want[i, j])
    assert (got < 0).any() and (got >= 0).any()
