"""P1 finite element assembly for systems

    -div(c grad u) + a u - b . grad u - f = 0

with generalized Neumann boundary terms  n.(c grad u) + q u = g.

Coefficients c, a, b, f are piecewise constant per triangle (evaluated at
centroids); boundary coefficients q, g are evaluated at edge midpoints.
The load and advection integrals are then exact, the reaction integral
uses the exact phi_i*phi_j element matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh


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

    def normalized(self, ntri: int, neq: int) -> "CoeffTensors":
        return CoeffTensors(
            c=_expand(self.c, (ntri, neq, neq, 2, 2), "c", diag_iso=True),
            a=_expand(self.a, (ntri, neq, neq), "a", diag_iso=True),
            b=_expand(self.b, (ntri, neq, neq, 2), "b"),
            f=_expand(self.f, (ntri, neq), "f"),
            fu=_expand(self.fu, (ntri, neq, neq), "fu", diag_iso=True),
        )


def _expand(val, shape, name, diag_iso=False):
    """Broadcast a scalar / partial array to the full per-triangle shape."""
    ntri, neq = shape[0], shape[1]
    arr = np.asarray(val, dtype=float)
    if arr.ndim == 0:
        out = np.zeros(shape)
        if diag_iso:
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
        return np.broadcast_to(arr, shape).copy()
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


def assemble_mass(mesh: Mesh, neq: int = 1) -> sp.csc_matrix:
    """Consistent P1 mass matrix, block-diagonal over components."""
    area = mesh.tri_areas()
    vals = area[:, None, None] * _MASS_ELEM[None, :, :]
    return _blockdiag(_scatter(mesh, vals), neq)


def assemble_interior(mesh: Mesh, coeffs: CoeffTensors, neq: int = 1) -> dict:
    """Assemble K (diffusion), Ma (reaction) and Kadv (advection, minus sign
    of the advection term folded in) so the residual contribution is
    (K + Ma + Kadv) u."""
    ct = coeffs.normalized(mesh.ntri, neq)
    n = mesh.npoints
    area = mesh.tri_areas()
    grads = mesh.tri_grads()

    Kb, Mb, Ab = {}, {}, {}
    for r in range(neq):
        for s in range(neq):
            # diffusion: area * grad_i^T c[r,s] grad_j
            crs = ct.c[:, r, s]                       # (nt, 2, 2)
            if np.any(crs):
                gc = (grads @ crs) * area[:, None, None]
                kv = (gc[:, :, None, 0] * grads[:, None, :, 0]
                      + gc[:, :, None, 1] * grads[:, None, :, 1])
                Kb[(r, s)] = _scatter(mesh, kv)
            ars = ct.a[:, r, s]
            if np.any(ars):
                mv = (area * ars)[:, None, None] * _MASS_ELEM[None, :, :]
                Mb[(r, s)] = _scatter(mesh, mv)
            brs = ct.b[:, r, s]                       # (nt, 2)
            if np.any(brs):
                # -int (b . grad u) phi_i = -(b . grad_j) * area / 3 per vertex
                av = -np.einsum("t,td,tjd->tj", area / 3.0, brs, grads)
                av = np.repeat(av[:, None, :], 3, axis=1)
                Ab[(r, s)] = _scatter(mesh, av)

    def build(blocks):
        if not blocks:
            return sp.csc_matrix((neq * n, neq * n))
        if neq == 1:
            return blocks[(0, 0)]
        # one COO over the present blocks (r, s), in row-major order: a block
        # row or column without a block keeps its place in the shape
        indptr, indices, _ = mesh.p1_pattern()
        cols = np.repeat(np.arange(n), np.diff(indptr))
        r, s = np.array(list(blocks)).T
        vals = np.concatenate([blk.data for blk in blocks.values()])
        return sp.coo_matrix(
            (vals, ((indices + n * r[:, None]).ravel(),
                    (cols + n * s[:, None]).ravel())),
            shape=(neq * n, neq * n)).tocsc()

    return {"K": build(Kb), "Ma": build(Mb), "Kadv": build(Ab)}


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
                      neq: int = 1) -> dict:
    """1D boundary contributions of int (q u - g) phi ds by the midpoint rule.

    u is the full-length nodal field used to evaluate u-dependent q, g.
    Returns Q (sparse, neq n x neq n, with entries only in the component
    blocks whose q is not all zero) and Gb (vector); the residual adds
    Q u - Gb.
    """
    n = mesh.npoints
    u = np.asarray(u, dtype=float)
    if u.size < neq * n:
        raise AssemblyError(f"nodal field too short: {u.size} < {neq * n}")
    a, b = mesh.edges[:, 0], mesh.edges[:, 1]
    xm = 0.5 * (mesh.points[a] + mesh.points[b])
    L = np.linalg.norm(mesh.points[b] - mesh.points[a], axis=1)
    comps = u[:neq * n].reshape(neq, n)
    um = (0.5 * (comps[:, a] + comps[:, b])).T

    qv = np.asarray(bc.q(xm, um, pars, mesh.edge_seg), dtype=float)
    gv = np.asarray(bc.g(xm, um, pars, mesh.edge_seg), dtype=float)
    if qv.shape != (len(a), neq, neq) or gv.shape != (len(a), neq):
        raise AssemblyError("boundary provider returned wrong shape")

    # unknown k n + i is component k of node i; edge (a, b) adds w to (a, a),
    # (a, b), (b, a), (b, b) of each block (r, s) whose w is not all zero
    w = 0.25 * L[:, None, None] * qv
    r, s = np.nonzero(np.any(w, axis=0))
    rows = (n * r[:, None] + np.concatenate([a, a, b, b])).ravel()
    cols = (n * s[:, None] + np.concatenate([a, b, a, b])).ravel()
    vals = np.tile(w[:, r, s].T, 4).ravel()
    Q = sp.coo_matrix((vals, (rows, cols)), shape=(neq * n, neq * n)).tocsc()
    h = 0.5 * L[:, None] * gv
    ends = np.concatenate([a, b]) + n * np.arange(neq)[:, None]
    Gb = np.bincount(ends.ravel(), np.concatenate([h, h]).T.ravel(),
                     minlength=neq * n)
    return {"Q": Q, "Gb": Gb}


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

def _scatter(mesh: Mesh, vals: np.ndarray) -> sp.csc_matrix:
    """Sum per-triangle 3x3 element matrices onto the mesh's cached P1
    pattern: canonical CSC, npoints x npoints."""
    indptr, indices, slot = mesh.p1_pattern()
    data = np.bincount(slot.ravel(), weights=vals.ravel(),
                       minlength=len(indices))
    n = mesh.npoints
    # copied: the pattern arrays belong to the mesh
    return sp.csc_matrix((data, indices, indptr), shape=(n, n), copy=True)


def _blockdiag(A: sp.spmatrix, neq: int) -> sp.csc_matrix:
    if neq == 1:
        return A.tocsc()
    return sp.block_diag([A] * neq, format="csc")
