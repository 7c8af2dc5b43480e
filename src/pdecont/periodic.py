"""Fill/drop identification matrices for cylinder and torus geometries, and
the only code that maps between the full mesh space and the reduced space.

Nodes on one of two identified sides are mapped onto their partners on the
opposite side; the reduced problem keeps the bottom/left representatives.
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

    partner maps each dropped node to its retained representative (chains are
    followed, e.g. a torus corner mapping through two sides).
    """
    rep = {}
    for i in range(n_full):
        j = i
        seen = set()
        while j in partner:
            if j in seen:
                raise PeriodicityError("cyclic node identification")
            seen.add(j)
            j = partner[j]
        rep[i] = j
    kept = sorted(set(rep.values()))
    col = {j: k for k, j in enumerate(kept)}
    n_per = len(kept)
    rows = np.arange(n_full)
    cols = np.array([col[rep[i]] for i in range(n_full)])
    fill = sp.coo_matrix((np.ones(n_full), (rows, cols)),
                         shape=(n_full, n_per)).tocsc()
    drop = sp.coo_matrix((np.ones(n_per), (np.arange(n_per), np.array(kept))),
                         shape=(n_per, n_full)).tocsc()
    return fill, drop


def build_periodization(mesh: Mesh, neq: int, bcper: int) -> Periodization:
    """Identify opposite rectangle sides: 1 top=bottom, 2 left=right, 3 torus."""
    bcper = int(bcper)
    n = mesh.npoints
    if bcper == BCPer.NONE:
        eye = sp.identity(neq * n, format="csc")
        return Periodization(bcper, eye, eye.copy(), neq * n, n)

    nx, ny = mesh.nx, mesh.ny

    def nid(ix, iy):
        return iy * (nx + 1) + ix

    partner: dict[int, int] = {}
    if bcper in (BCPer.TOP_BOTTOM, BCPer.TORUS):
        for ix in range(nx + 1):
            top, bot = nid(ix, ny), nid(ix, 0)
            if mesh.points[top, 0] != mesh.points[bot, 0]:
                raise PeriodicityError("top/bottom node layouts do not match")
            partner[top] = bot
    if bcper in (BCPer.LEFT_RIGHT, BCPer.TORUS):
        for iy in range(ny + 1):
            right, left = nid(nx, iy), nid(0, iy)
            if mesh.points[right, 1] != mesh.points[left, 1]:
                raise PeriodicityError("left/right node layouts do not match")
            partner[right] = left
    if bcper not in (BCPer.TOP_BOTTOM, BCPer.LEFT_RIGHT, BCPer.TORUS):
        raise PeriodicityError(f"unknown bcper code {bcper}")

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
