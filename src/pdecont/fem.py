"""P1 finite element assembly for systems

    -div(c grad u) + a u - b . grad u - f = 0

with generalized Neumann boundary terms  n.(c grad u) + q u = g.

Coefficients c, a, b, f are piecewise constant per triangle (evaluated at
centroids); boundary coefficients q, g are evaluated at edge midpoints.
The load and advection integrals are then exact, the reaction integral
uses the exact phi_i*phi_j element matrix.

Every matrix term is assembled from one unit element per kind (element):
the isotropic Laplacian, the four components of an anisotropic c, the mass
and the two advection directions, each scaled per triangle by one
coefficient of one component block.  On the full mesh, assemble_interior
and assemble_boundary return sparse matrices.  Given a target Assembly (the
reduced pattern of problem.ReducedPattern), they return the data vector on
its pattern instead: each kind and block is then one sparse mat-vec of a
per-triangle (per-edge) coefficient vector by an operator the Assembly
builds at its first use, and periodization comes with the pattern's slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, pattern_slots


class AssemblyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# coefficient containers

@dataclass
class CoeffTensors:
    """Per-triangle coefficients; scalars broadcast to all triangles.

    Normalized shapes (nt = number of triangles, N = neq):
      c: (nt, N, N, 2, 2), a: (nt, N, N), b: (nt, N, N, 2), f: (nt, N).
    fu is the linearization of the load term f with respect to the triangle
    solution values, shape (nt, N, N); Jacobian assembly turns it into
    -Mtl·diag(fu)·C so that it is the exact derivative of the load vector.
    """
    c: np.ndarray | float = 0.0
    a: np.ndarray | float = 0.0
    b: np.ndarray | float = 0.0
    f: np.ndarray | float = 0.0
    fu: np.ndarray | float = 0.0

    def compact(self, name: str, ntri: int, neq: int) -> np.ndarray:
        """Coefficient name ("c", "a", "b", "f" or "fu") in its normalized
        shape, except that the triangle axis has length 1 where the value is
        given for all triangles at once (a scalar or a per-component array)."""
        return _compact(getattr(self, name), _shape(name, ntri, neq), name)

    def normalized(self, ntri: int, neq: int) -> "CoeffTensors":
        """Every coefficient in its normalized shape; one given for all
        triangles at once is a read-only view broadcast over them."""
        full = {}
        for name in _FIELDS:
            shape = _shape(name, ntri, neq)
            arr = self.compact(name, ntri, neq)
            full[name] = arr if arr.shape == shape else np.broadcast_to(arr,
                                                                        shape)
        return CoeffTensors(**full)


def _shape(name, ntri, neq):
    """The normalized shape of coefficient name."""
    return (ntri,) + {"c": (neq, neq, 2, 2), "a": (neq, neq),
                      "b": (neq, neq, 2), "f": (neq,),
                      "fu": (neq, neq)}[name]


_FIELDS = ("c", "a", "b", "f", "fu")


def _compact(val, shape, name):
    """val in shape, with a triangle axis of length 1 where it is the same
    on every triangle."""
    ntri, neq = shape[0], shape[1]
    arr = np.asarray(val, dtype=float)
    if arr.ndim == 0:
        out = np.zeros((1,) + shape[1:])
        if name in ("c", "a", "fu"):
            # scalar c means c * (identity in components and space)
            idx = np.arange(neq)
            if len(shape) == 5:
                out[:, idx, idx, 0, 0] = arr
                out[:, idx, idx, 1, 1] = arr
            else:
                out[:, idx, idx] = arr
        elif len(shape) == 2:
            out[:] = arr
        # scalar b = 0 is the only sensible broadcast for the advection tensor
        elif float(arr) != 0.0:
            raise AssemblyError(f"scalar broadcast undefined for nonzero {name}")
        return out
    if arr.shape == shape:
        return arr
    if arr.shape == shape[1:]:
        return arr[None]
    if neq == 1:
        # scalar problems may omit the component axes
        reduced = (ntri,) + shape[3:] if len(shape) > 2 else (ntri,)
        if arr.shape == reduced:
            return arr.reshape(shape)
    raise AssemblyError(f"coefficient {name} has shape {arr.shape}, expected {shape}")


@dataclass
class BCSpec:
    """Boundary coefficient providers, evaluated at edge midpoints.

    q(x, u_mid, pars, seg) -> (ne, neq, neq); g(x, u_mid, pars, seg) -> (ne, neq).
    x is (ne, 2), u_mid is (ne, neq), seg the (ne,) segment ids.
    """
    q: Callable
    g: Callable


def neumann_bc(neq: int) -> BCSpec:
    """Homogeneous Neumann (zero flux) on the whole boundary."""
    def q(x, u, pars, seg):
        return np.zeros((len(x), neq, neq))

    def g(x, u, pars, seg):
        return np.zeros((len(x), neq))
    return BCSpec(q, g)


def dirichlet_bc(neq: int, value: float = 0.0, stiff: float = 1e3) -> BCSpec:
    """Stiff-spring approximation of Dirichlet BC u = value."""
    def q(x, u, pars, seg):
        out = np.zeros((len(x), neq, neq))
        idx = np.arange(neq)
        out[:, idx, idx] = stiff
        return out

    def g(x, u, pars, seg):
        return np.full((len(x), neq), stiff * value)
    return BCSpec(q, g)


# ---------------------------------------------------------------------------
# interior assembly

_MASS_ELEM = np.array([[2., 1., 1.], [1., 2., 1.], [1., 1., 2.]]) / 12.0


def element(mesh: Mesh, kind: str) -> np.ndarray:
    """The unit element matrices of one kind, (nt, 3, 3): entry (i, j) of
    triangle t couples test function i with trial function j for a
    coefficient 1 on t.  Kinds: "lap", area grad_i . grad_j (isotropic
    diffusion); "cde" (d, e in 0, 1), area d_d phi_i d_e phi_j (component
    (d, e) of a diffusion tensor); "mass", the exact phi_i phi_j integral
    (reaction); "b0", "b1", -area/3 d_x phi_j and -area/3 d_y phi_j
    (advection, the minus sign of the advection term folded in).  "edge" is
    the boundary term's, (ne, 2, 2) over the end nodes (a, b) of each
    boundary edge of length L: L/4 everywhere, by the midpoint rule."""
    if kind == "edge":
        L = _edge_lengths(mesh)
        return np.repeat(0.25 * L, 4).reshape(-1, 2, 2)
    area, g = mesh.tri_areas()[:, None, None], mesh.tri_grads()
    if kind == "mass":
        return area * _MASS_ELEM
    if kind == "lap":
        return area * (g @ g.transpose(0, 2, 1))
    if kind in ("b0", "b1"):
        return np.repeat(-area / 3.0 * g[:, None, :, int(kind[1])], 3, axis=1)
    d, e = int(kind[1]), int(kind[2])
    return area * g[:, :, None, d] * g[:, None, :, e]


def _interior_terms(coeffs: CoeffTensors, ntri: int, neq: int):
    """(matrix, kind, r, s, coefficient) for each element kind and component
    block (r, s) whose coefficient is not all zero; matrix is the term's,
    "K", "Ma" or "Kadv", and the coefficient has length 1 or ntri.  A
    diffusion block that is a multiple of the 2 x 2 identity on every
    triangle is one "lap" term, any other one "cde" term per nonzero
    component."""
    c, a, b = (coeffs.compact(name, ntri, neq) for name in ("c", "a", "b"))
    for r in range(neq):
        for s in range(neq):
            crs = c[:, r, s]
            if (not crs[:, 0, 1].any() and not crs[:, 1, 0].any()
                    and np.array_equal(crs[:, 0, 0], crs[:, 1, 1])):
                if crs[:, 0, 0].any():
                    yield "K", "lap", r, s, crs[:, 0, 0]
            else:
                for d in range(2):
                    for e in range(2):
                        if crs[:, d, e].any():
                            yield "K", f"c{d}{e}", r, s, crs[:, d, e]
            if a[:, r, s].any():
                yield "Ma", "mass", r, s, a[:, r, s]
            for d in range(2):
                if b[:, r, s, d].any():
                    yield "Kadv", f"b{d}", r, s, b[:, r, s, d]


class Assembly:
    """Assembly onto the data of one canonical CSC pattern of P1 operators
    in neq x neq component blocks, as p1_pattern gives it (indptr, indices,
    slot), whose nodes are node[i] for the mesh nodes i: a periodization's
    kept representatives, the identity on the full mesh.

    For each element kind and component block (r, s) it builds at the first
    use, and keeps, the sparse operator that takes the kind's coefficients,
    one per triangle (per boundary edge for "edge"), to the pattern's data:
    column t holds the unit element of triangle t at its slots in block
    (r, s).  Element matrices of one kind are shared by its blocks.  A copy
    or pickle carries no operators."""

    def __init__(self, mesh: Mesh, indptr, indices, slot, node):
        self.mesh, self.indptr, self.indices = mesh, indptr, indices
        self.slot, self.node = slot, node
        self.nnz = len(indices)
        self.npoints = (len(indptr) - 1) // slot.shape[1]
        self._built = {}

    def __getstate__(self):
        return dict(self.__dict__, _built={})

    def apply(self, kind: str, r: int, s: int, coef) -> np.ndarray:
        """The data of the kind's term in block (r, s) for coefficients coef
        of length 1 (the same everywhere) or one per triangle (edge)."""
        op = self.operator(kind, r, s)
        return op @ np.broadcast_to(coef, op.shape[1])

    def operator(self, kind: str, r: int, s: int) -> sp.csc_matrix:
        """The kind's operator in block (r, s), nnz x nt (x ne for "edge")."""
        if (kind, r, s) not in self._built:
            if kind not in self._built:
                self._built[kind] = element(self.mesh, kind)
            rows = (self._edge_slot() if kind == "edge" else self.slot)[:, r, s]
            values = self._built[kind]
            if rows.shape != values.shape or rows.max(initial=0) >= self.nnz:
                # the sparse mat-vec does not check its row indices
                raise AssemblyError(f"slots of {kind} do not fit the pattern")
            # column k: the m entries of element k at their slots
            m = values[0].size
            self._built[kind, r, s] = sp.csc_matrix(
                (values.reshape(-1), rows.reshape(-1),
                 np.arange(0, values.size + 1, m, dtype=rows.dtype)),
                shape=(self.nnz, len(values)))
        return self._built[kind, r, s]

    def _edge_slot(self) -> np.ndarray:
        """(ne, N, N, 2, 2): the slot of (i, j) of block (r, s) for the end
        nodes i, j in (a, b) of each boundary edge."""
        if "edge slot" not in self._built:
            n, neq = self.npoints, self.slot.shape[1]
            ends = self.node[self.mesh.edges]                    # (ne, 2)
            off = n * np.arange(neq)
            i = ends[:, None, None, :, None] + off[:, None, None, None]
            j = ends[:, None, None, None, :] + off[:, None, None]
            pos = pattern_slots(self.indptr, self.indices, i, j)
            if (pos < 0).any():
                raise AssemblyError("a boundary edge is not in the pattern")
            self._built["edge slot"] = pos.astype(self.indices.dtype)
        return self._built["edge slot"]


def assemble_mass(mesh: Mesh, neq: int = 1) -> sp.csc_matrix:
    """Consistent P1 mass matrix, block-diagonal over components."""
    return assemble_interior(mesh, CoeffTensors(a=1.0), neq)["Ma"]


def assemble_interior(mesh: Mesh, coeffs: CoeffTensors, neq: int = 1,
                      target: Assembly | None = None):
    """Assemble K (diffusion), Ma (reaction) and Kadv (advection, minus sign
    of the advection term folded in) so the residual contribution is
    (K + Ma + Kadv) u: a dict of the three full-mesh matrices, each holding
    the component blocks whose coefficient is not all zero.  With a target,
    the data of K + Ma + Kadv on its pattern instead."""
    terms = _interior_terms(coeffs, mesh.ntri, neq)
    if target is not None:
        data = np.zeros(target.nnz)
        for _, kind, r, s, coef in terms:
            data += target.apply(kind, r, s, coef)
        return data
    # each block on the mesh's scalar pattern, by one scatter: an operator
    # would cost more to build than it saves on one use
    _, indices, slot = mesh.p1_pattern()
    blocks = {"K": {}, "Ma": {}, "Kadv": {}}
    for name, kind, r, s, coef in terms:
        vals = element(mesh, kind) * coef[:, None, None]
        data = np.bincount(slot.ravel(), vals.ravel(), len(indices))
        blocks[name][r, s] = blocks[name].get((r, s), 0.0) + data
    return {name: _stack(mesh, b, neq) for name, b in blocks.items()}


def _stack(mesh: Mesh, blocks: dict, neq: int) -> sp.csc_matrix:
    """The canonical CSC neq n x neq n matrix of the blocks {(r, s): data on
    the mesh's P1 pattern}, one COO over the present blocks in row-major
    order: a block row or column without a block keeps its place in the
    shape."""
    n = mesh.npoints
    if not blocks:
        return sp.csc_matrix((neq * n, neq * n))
    indptr, indices, _ = mesh.p1_pattern()
    if neq == 1:
        # copied: the pattern arrays belong to the mesh
        return sp.csc_matrix((blocks[0, 0], indices.copy(), indptr.copy()),
                             shape=(n, n))
    cols = np.repeat(np.arange(n), np.diff(indptr))
    r, s = np.array(list(blocks)).T
    vals = np.concatenate(list(blocks.values()))
    return sp.coo_matrix(
        (vals, ((indices + n * r[:, None]).ravel(),
                (cols + n * s[:, None]).ravel())),
        shape=(neq * n, neq * n)).tocsc()


def assemble_load(mesh: Mesh, f, neq: int = 1) -> np.ndarray:
    """Load vector F_i = int f phi_i for per-triangle f (shape (neq, nt) or (nt,))."""
    f = np.asarray(f, dtype=float)
    if neq == 1 and f.ndim == 1:
        f = f[None, :]
    if f.shape != (neq, mesh.ntri):
        raise AssemblyError(f"load has shape {f.shape}, expected ({neq}, {mesh.ntri})")
    return load_operator(mesh, neq) @ f.ravel()


def load_operator(mesh: Mesh, neq: int = 1) -> sp.csc_matrix:
    """Sparse Mtl with (Mtl f_tri)_i = int f phi_i; shape (neq*np, neq*nt)."""
    n, nt = mesh.npoints, mesh.ntri
    w = np.repeat(mesh.tri_areas() / 3.0, 3)
    rows = mesh.triangles.ravel()
    cols = np.repeat(np.arange(nt), 3)
    M1 = sp.coo_matrix((w, (rows, cols)), shape=(n, nt)).tocsc()
    return _blockdiag(M1, neq)


def interp_operator(mesh: Mesh, neq: int = 1) -> sp.csc_matrix:
    """Sparse C with (C v)_t = mean of nodal v over the vertices of t."""
    n, nt = mesh.npoints, mesh.ntri
    rows = np.repeat(np.arange(nt), 3)
    cols = mesh.triangles.ravel()
    C1 = sp.coo_matrix((np.full(3 * nt, 1.0 / 3.0), (rows, cols)),
                       shape=(nt, n)).tocsc()
    return _blockdiag(C1, neq)


# ---------------------------------------------------------------------------
# boundary assembly

def assemble_boundary(mesh: Mesh, bc: BCSpec, u: np.ndarray, pars,
                      neq: int = 1, target: Assembly | None = None) -> dict:
    """1D boundary contributions of int (q u - g) phi ds by the midpoint rule.

    u is the full-length nodal field used to evaluate u-dependent q, g.
    Returns Q (sparse, neq n x neq n, with entries only in the component
    blocks whose q is not all zero) and Gb (vector); the residual adds
    Q u - Gb.  With a target, Q is the data on its pattern and Gb is
    summed onto its nodes.
    """
    n = mesh.npoints
    u = np.asarray(u, dtype=float)
    if u.size < neq * n:
        raise AssemblyError(f"nodal field too short: {u.size} < {neq * n}")
    a, b = mesh.edges[:, 0], mesh.edges[:, 1]
    xm = 0.5 * (mesh.points[a] + mesh.points[b])
    L = _edge_lengths(mesh)
    comps = u[:neq * n].reshape(neq, n)
    um = (0.5 * (comps[:, a] + comps[:, b])).T

    qv = np.asarray(bc.q(xm, um, pars, mesh.edge_seg), dtype=float)
    gv = np.asarray(bc.g(xm, um, pars, mesh.edge_seg), dtype=float)
    if qv.shape != (len(a), neq, neq) or gv.shape != (len(a), neq):
        raise AssemblyError("boundary provider returned wrong shape")

    # edge (a, b) adds w to (a, a), (a, b), (b, a), (b, b) of each block
    # (r, s) whose w is not all zero; unknown k n + i is component k of
    # node i, of the target's node i with a target
    h = 0.5 * L[:, None] * gv
    ends = np.concatenate([a, b])
    if target is not None:
        ends, n = target.node[ends], target.npoints
    ends = ends + n * np.arange(neq)[:, None]
    Gb = np.bincount(ends.ravel(), np.concatenate([h, h]).T.ravel(),
                     minlength=neq * n)
    r, s = np.nonzero(np.any(qv, axis=0))
    if target is not None:
        Q = np.zeros(target.nnz)
        for i, j in zip(r.tolist(), s.tolist()):
            Q += target.apply("edge", i, j, qv[:, i, j])
        return {"Q": Q, "Gb": Gb}
    w = element(mesh, "edge")[:, :1, :1] * qv
    rows = (n * r[:, None] + np.concatenate([a, a, b, b])).ravel()
    cols = (n * s[:, None] + np.concatenate([a, b, a, b])).ravel()
    vals = np.tile(w[:, r, s].T, 4).ravel()
    Q = sp.coo_matrix((vals, (rows, cols)), shape=(neq * n, neq * n)).tocsc()
    return {"Q": Q, "Gb": Gb}


def _edge_lengths(mesh: Mesh) -> np.ndarray:
    a, b = mesh.edges[:, 0], mesh.edges[:, 1]
    return np.linalg.norm(mesh.points[b] - mesh.points[a], axis=1)


# ---------------------------------------------------------------------------
# Jacobian check

def jaccheck(state, u=None) -> dict:
    """Compare the analytic PDE Jacobian with forward differences.

    Returns the analytic and numeric du-blocks and their max entry difference.
    """
    from . import problem as _problem

    U = np.array(state.u if u is None else u, dtype=float)
    nu = state.nu
    Ja = _problem.jacobian_active(state, U)[:, :nu].tocsc()
    Jn = sp.csc_matrix(_problem.fd_columns(
        lambda V: _problem.residual(state, V), U, range(nu),
        state.controls.del_))
    maxdiff = abs(Ja - Jn).max() if nu else 0.0
    return {"analytic": Ja, "numeric": Jn, "maxdiff": float(maxdiff)}


# ---------------------------------------------------------------------------
# helpers

def _blockdiag(A: sp.spmatrix, neq: int) -> sp.csc_matrix:
    if neq == 1:
        return A.tocsc()
    return sp.block_diag([A] * neq, format="csc")
