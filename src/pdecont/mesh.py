"""Structured triangulations of axis-aligned rectangles.

Nodes live on a uniform (nx+1) x (ny+1) grid over (-lx,lx) x (-ly,ly),
stored row-major by y then x.  Every grid cell is split along the
lower-left -> upper-right diagonal so that opposite boundary sides carry
identical node layouts (needed for periodic identification).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# boundary segment labels
SEG_BOTTOM, SEG_RIGHT, SEG_TOP, SEG_LEFT = 1, 2, 3, 4


class MeshError(ValueError):
    pass


@dataclass
class Mesh:
    points: np.ndarray       # (np, 2) node coordinates
    triangles: np.ndarray    # (nt, 3) node indices, positively oriented
    edges: np.ndarray        # (ne, 2) boundary node pairs, ccw
    edge_seg: np.ndarray     # (ne,) segment id in {1,2,3,4}
    edge_s: np.ndarray       # (ne, 2) arclength positions of endpoints on the side
    lx: float
    ly: float
    nx: int
    ny: int

    @property
    def npoints(self) -> int:
        return self.points.shape[0]

    @property
    def ntri(self) -> int:
        return self.triangles.shape[0]

    _areas: np.ndarray | None = field(default=None, repr=False, compare=False)
    _grads: np.ndarray | None = field(default=None, repr=False, compare=False)
    _pattern: tuple | None = field(default=None, repr=False, compare=False)

    def tri_areas(self) -> np.ndarray:
        """Signed triangle areas (positive for valid meshes)."""
        if self._areas is None:
            p = self.points
            a, b, c = (p[self.triangles[:, k]] for k in range(3))
            u, v = b - a, c - a
            self._areas = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
        return self._areas

    def tri_grads(self) -> np.ndarray:
        """Gradients of the three P1 hat functions per triangle, shape (nt, 3, 2)."""
        if self._grads is None:
            p = self.points
            a, b, c = (p[self.triangles[:, k]] for k in range(3))
            area2 = 2.0 * self.tri_areas()[:, None]
            g = np.empty((self.ntri, 3, 2))
            # grad of hat at vertex i is perpendicular to the opposite edge
            for i, (q, r) in enumerate(((b, c), (c, a), (a, b))):
                e = r - q
                g[:, i, 0] = -e[:, 1]
                g[:, i, 1] = e[:, 0]
            g /= area2[:, :, None] if area2.ndim == 3 else area2[:, None]
            self._grads = g
        return self._grads

    def p1_pattern(self) -> tuple:
        """The mesh's p1_pattern(triangles, npoints), computed once."""
        if self._pattern is None:
            self._pattern = p1_pattern(self.triangles, self.npoints)
        return self._pattern


def p1_pattern(triangles: np.ndarray, n: int, neq: int = 1) -> tuple:
    """CSC pattern of the P1 graph of triangles on n nodes, with neq x neq
    component blocks, (indptr, indices, slot): entry (i, j) of block (r, s)
    of triangle t's element matrix, which couples component r of node
    triangles[t, i] with component s of node triangles[t, j], sums into
    data[slot[t, r, s, i, j]].  Unknown k n + i is component k of node i."""
    N, comp = neq * n, n * np.arange(neq)
    rows = triangles[:, None, None, :, None] + comp[:, None, None, None]
    cols = triangles[:, None, None, None, :] + comp[:, None, None]
    keys, slot = np.unique(cols * N + rows, return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(N + 1) * N)
    # 32-bit where it fits, as scipy.sparse stores its indices
    idx = np.int32 if len(keys) <= np.iinfo(np.int32).max else np.int64
    return (indptr.astype(idx), (keys % N).astype(idx),
            slot.astype(idx).reshape(len(triangles), neq, neq, 3, 3))


def pattern_slots(indptr: np.ndarray, indices: np.ndarray, rows,
                  cols) -> np.ndarray:
    """The data index of entry (rows, cols) of the square canonical CSC
    pattern (indptr, indices), -1 where it is not stored; rows and cols
    broadcast to the shape of the result."""
    N = len(indptr) - 1
    # keys col N + row, ascending for a canonical CSC pattern; 32-bit where
    # they fit, which halves the lookup's temporaries
    key = np.int32 if N * N <= np.iinfo(np.int32).max else np.int64
    keys = np.repeat(np.arange(N, dtype=key), np.diff(indptr)) * N + indices
    want = np.asarray(cols, dtype=key) * N + rows
    if not len(keys):
        return np.full(want.shape, -1, dtype=np.intp)
    pos = np.searchsorted(keys, want)
    pos[keys[np.minimum(pos, len(keys) - 1)] != want] = -1
    return pos


def build_rect_mesh(lx: float, ly: float, nx: int, ny: int) -> Mesh:
    """Uniform triangulation of (-lx,lx) x (-ly,ly) with nx x ny cells."""
    if lx <= 0 or ly <= 0:
        raise MeshError(f"rectangle half-widths must be positive, got {lx}, {ly}")
    if nx < 1 or ny < 1:
        raise MeshError(f"grid subdivisions must be >= 1, got {nx}, {ny}")

    xs = np.linspace(-lx, lx, nx + 1)
    ys = np.linspace(-ly, ly, ny + 1)
    X, Y = np.meshgrid(xs, ys)           # row-major by y then x
    points = np.column_stack([X.ravel(), Y.ravel()])

    ids = np.arange(points.shape[0], dtype=np.int64).reshape(ny + 1, nx + 1)
    n00, n10 = ids[:-1, :-1].ravel(), ids[:-1, 1:].ravel()
    n01, n11 = ids[1:, :-1].ravel(), ids[1:, 1:].ravel()
    # two triangles per cell, cells row-major by y then x
    triangles = np.column_stack([n00, n10, n11, n00, n11, n01]).reshape(-1, 3)

    # one counterclockwise ring from the bottom-left corner: the bottom
    # left to right, the right side up, the top right to left, the left down
    ring = np.concatenate([ids[0, :-1], ids[:-1, -1], ids[-1, :0:-1],
                           ids[:0:-1, 0]])
    edges = np.column_stack([ring, np.roll(ring, -1)])
    edge_seg = np.repeat(np.array([SEG_BOTTOM, SEG_RIGHT, SEG_TOP, SEG_LEFT],
                                  dtype=np.int64), [nx, ny, nx, ny])
    edge_s = np.concatenate([
        np.column_stack([xs[:-1] + lx, xs[1:] + lx]),
        np.column_stack([ys[:-1] + ly, ys[1:] + ly]),
        np.column_stack([lx - xs[:0:-1], lx - xs[-2::-1]]),
        np.column_stack([ly - ys[:0:-1], ly - ys[-2::-1]])])

    return Mesh(
        points=points,
        triangles=triangles,
        edges=edges,
        edge_seg=edge_seg,
        edge_s=edge_s,
        lx=float(lx), ly=float(ly), nx=int(nx), ny=int(ny),
    )


def node_to_triangle(mesh: Mesh, v: np.ndarray, neq: int = 1) -> np.ndarray:
    """Interpolate a component-blocked nodal field to triangle values.

    Returns shape (ntri,) for neq=1, else (neq, ntri); the triangle value is
    the arithmetic mean of the three vertex values.
    """
    v = np.asarray(v, dtype=float)
    n = mesh.npoints
    if v.shape != (neq * n,):
        raise MeshError(f"field has length {v.size}, expected {neq * n}")
    out = v.reshape(neq, n)[:, mesh.triangles].mean(axis=2)
    return out[0] if neq == 1 else out
