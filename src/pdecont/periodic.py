"""Fill/drop identification matrices for cylinder and torus geometries, and
the only code that maps between the full mesh space and the reduced space.

Nodes on one of two identified sides are mapped onto their partners on the
opposite side; the reduced problem keeps the bottom/left representatives.
The sides are the first and last rows and columns of the grid of node ids,
and the map is resolved on integer index arrays.
Operators assembled with Neumann BC on the full mesh transform as
fill' * A * fill, vectors and matrix rows as fill' * F;
fill * u_reduced extends a reduced solution, drop * u restricts a full one.
Without a periodization (bcper 0) the maps skip the identity products.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh


class PeriodicityError(ValueError):
    pass


class BCPer(IntEnum):
    NONE = 0
    TOP_BOTTOM = 1
    LEFT_RIGHT = 2
    TORUS = 3


@dataclass
class Periodization:
    bcper: int
    fill: sp.csc_matrix    # (neq*np_full, neq*np_per)
    drop: sp.csc_matrix    # (neq*np_per, neq*np_full)
    nu_per: int
    np_per: int


def build_fill_drop(n_full: int, partner: dict[int, int]) -> tuple:
    """0/1 fill and drop matrices from a node identification map.

    partner maps each dropped node to its retained representative; chains (a
    torus corner mapped through two sides) are followed by pointer jumping,
    and a cycle raises PeriodicityError.
    """
    dropped = np.array(list(partner), dtype=int)
    rep = np.arange(n_full)
    rep[dropped] = list(partner.values())
    for _ in range(int(n_full).bit_length() + 1):   # each doubles the steps
        rep = rep[rep]
    # a cycle leaves no fixed point, or a dropped node its own representative
    if np.any(rep[rep] != rep) or np.any(rep[dropped] == dropped):
        raise PeriodicityError("cyclic node identification")
    kept, cols = np.unique(rep, return_inverse=True)
    n_per = len(kept)
    fill = sp.coo_matrix((np.ones(n_full), (np.arange(n_full), cols)),
                         shape=(n_full, n_per)).tocsc()
    drop = sp.coo_matrix((np.ones(n_per), (np.arange(n_per), kept)),
                         shape=(n_per, n_full)).tocsc()
    return fill, drop


def build_periodization(mesh: Mesh, neq: int, bcper: int) -> Periodization:
    """Identify opposite rectangle sides: 1 top=bottom, 2 left=right, 3 torus."""
    bcper = int(bcper)
    n = mesh.npoints
    if bcper == BCPer.NONE:
        eye = sp.identity(neq * n, format="csc")
        return Periodization(bcper, eye, eye.copy(), neq * n, n)

    if bcper not in (BCPer.TOP_BOTTOM, BCPer.LEFT_RIGHT, BCPer.TORUS):
        raise PeriodicityError(f"unknown bcper code {bcper}")
    # node ids are row-major by y then x; top/bottom share x, left/right y,
    # and come last, so that they map the torus corner
    ids = np.arange(n).reshape(mesh.ny + 1, mesh.nx + 1)
    partner: dict[int, int] = {}
    for code, dropped, kept, axis, name in (
            (BCPer.TOP_BOTTOM, ids[-1], ids[0], 0, "top/bottom"),
            (BCPer.LEFT_RIGHT, ids[:, -1], ids[:, 0], 1, "left/right")):
        if bcper in (code, BCPer.TORUS):
            if np.any(mesh.points[dropped, axis] != mesh.points[kept, axis]):
                raise PeriodicityError(f"{name} node layouts do not match")
            partner.update(zip(dropped.tolist(), kept.tolist()))

    fill1, drop1 = build_fill_drop(n, partner)
    np_per = fill1.shape[1]
    fill = sp.block_diag([fill1] * neq, format="csc") if neq > 1 else fill1
    drop = sp.block_diag([drop1] * neq, format="csc") if neq > 1 else drop1
    return Periodization(bcper, fill, drop, neq * np_per, np_per)


def _check(n: int, expected: int):
    if n != expected:
        raise PeriodicityError(f"length {n} does not match {expected}")


def periodize_operator(A: sp.spmatrix, per: Periodization) -> sp.csc_matrix:
    """fill' A fill as CSC: a full-mesh operator on the reduced space."""
    _check(A.shape[1], per.fill.shape[0])
    if not per.bcper:
        return A.tocsc()
    return (per.fill.T @ A @ per.fill).tocsc()


def periodize_vector(F, per: Periodization):
    """fill' F: a full-mesh load vector, or the rows of a sparse matrix (as
    CSC), summed onto the reduced space."""
    _check(F.shape[0], per.fill.shape[0])
    R = per.fill.T @ F if per.bcper else F
    return R.tocsc() if sp.issparse(R) else R


def extend_vector(u_per: np.ndarray, per: Periodization) -> np.ndarray:
    """fill u: a reduced nodal field on the full mesh."""
    _check(len(u_per), per.nu_per)
    return per.fill @ u_per if per.bcper else u_per


def restrict_vector(u: np.ndarray, per: Periodization) -> np.ndarray:
    """drop u: a full-mesh nodal field at the kept representatives."""
    _check(len(u), per.fill.shape[0])
    return per.drop @ u if per.bcper else u
