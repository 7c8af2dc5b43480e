"""Fold and branch-point continuation in two parameters.

The extended system couples the PDE residual G(u,w), the kernel condition
(d_u G) phi = 0 and the normalization phi' M phi = 1; the kernel vector phi
is appended to the unknown vector, the normalization acts as the auxiliary
equation paired with the second freed parameter, and the generic arclength
machinery closes the system.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import linsolve, problem


class SpcontError(RuntimeError):
    pass


@contextmanager
def base_view(state):
    """Temporarily expose the state as its normal (non-extended) problem so
    the base residual/Jacobian callbacks can be evaluated."""
    flavor = state.switches.spcont
    state.switches.spcont = 0
    try:
        yield
    finally:
        state.switches.spcont = flavor


def split(state, U):
    """(u, phi, w) slices of an extended unknown vector."""
    nb = state.ops.per.nu_per
    return U[:nb], U[nb:2 * nb], U[2 * nb:]


def base_vector(state, U):
    u, _, w = split(state, U)
    return np.concatenate([u, w])


# ---------------------------------------------------------------------------
# extended residual / Jacobian blocks (dispatched to from the problem module)

def extended_pde_residual(state, U):
    u, phi, w = split(state, U)
    Ub = np.concatenate([u, w])
    with base_view(state):
        G = problem.pde_residual(state, Ub)
        Gphi = problem.jacobian_u_times(state, Ub, phi)
    return np.concatenate([G, Gphi])


def extended_aux_residual(state, U):
    _, phi, _ = split(state, U)
    return np.array([float(phi @ (state.ops.M @ phi)) - 1.0])


def extended_pde_jacobian_u(state, U):
    u, phi, w = split(state, U)
    Ub = np.concatenate([u, w])
    with base_view(state):
        Gu = problem.pde_jacobian_u(state, Ub)
    if state.switches.spjac and state.callbacks.semilinear is not None:
        S = problem.semilinear_second_block(state, u, phi, w)
    else:
        S = _fd_second_block(state, U, Gu)
    return problem.blocks_matrix(state, "fold block", [[Gu, None], [S, Gu]])


def _fd_second_block(state, U, Gu):
    """d_u((d_u G) phi) from one shifted Jacobian: (G_u(u + del phi, w) - Gu)
    / del, with Gu the base Jacobian at (u, w) and del = controls.del_.

    Premise: Gu is G's exact Jacobian (fem.jaccheck checks it; the kernel
    condition Gu phi = 0 rests on it too).  The second derivatives of G are
    then symmetric, so d_u(Gu phi) equals the derivative of Gu in the
    direction phi, and one assembly gives the whole block.  With
    switches.jac = 0 Gu is itself a forward difference, and this is a
    difference of differences.
    """
    u, phi, w = split(state, U)
    with base_view(state):
        Gd = problem.pde_jacobian_u(
            state, np.concatenate([u + state.controls.del_ * phi, w]))
    return ((Gd - Gu) / state.controls.del_).tocsc()


def extended_aux_rows(state, U):
    """d(phi' M phi - 1)/d(u, phi) as one dense row."""
    _, phi, _ = split(state, U)
    nb = len(phi)
    return np.concatenate([np.zeros(nb), 2.0 * (state.ops.M @ phi)])[None, :]


def base_pde_block(state, U):
    """PDE-block Jacobian Gu and mass matrix of the underlying problem at an
    extended point U: the pencil whose spectrum decides stability along a
    fold/branch-point curve."""
    with base_view(state):
        Gu = problem.pde_jacobian_u(state, base_vector(state, U))
    return Gu, state.ops.M


# ---------------------------------------------------------------------------
# entry / exit

def spcontini(state, extra_param_index, kerneltol=1e-2):
    """Enter fold (ptype=2) or branch-point (ptype=1) continuation.

    phi is initialized as the normalized near-zero eigenvector of the
    PDE-block Jacobian; the extra parameter becomes the new primary, the old
    primary stays active paired with the normalization equation.
    """
    if state.mode == "spcont":
        raise SpcontError("already in fold/branch-point continuation")
    if state.nq != 0:
        raise SpcontError("fold/branch-point continuation requires a base "
                          "problem without auxiliary equations")
    extra = int(extra_param_index)
    if not 1 <= extra <= state.naux:
        raise SpcontError(f"parameter index {extra} out of range")
    if extra == state.ilam[0]:
        raise SpcontError(f"parameter {extra} is already the primary; the "
                          "extra parameter must be another one")

    Gu = problem.pde_jacobian_u(state, state.u)
    spec = linsolve.spectrum_near_zero(Gu, state.ops.M,
                                       min(state.controls.neig, 10))
    mu = spec["eigenvalues"]
    if abs(mu[0]) > kerneltol:
        raise SpcontError(f"no near-zero eigenvalue (|mu|={abs(mu[0]):.2e}); "
                          "point is not a fold/branch point")
    phi = np.real(spec["eigenvectors"][:, 0])
    phi /= np.sqrt(abs(phi @ (state.ops.M @ phi)))
    i = int(np.argmax(np.abs(phi)))
    if phi[i] < 0:
        phi = -phi

    nb = state.nu
    old_primary = state.ilam[0]
    state.u = np.concatenate([state.u[:nb], phi, state.u[nb:]])
    state.nq = 1
    state.ilam = [extra, old_primary]
    state.switches.spcont = 2 if state.ptype == 2 else 1
    problem.restart_branch(state, ptype=-1)
    return state


def spcontexit(state, primary_param_index=None):
    """Leave the extended system: strip phi, restore the normal layout with a
    single primary parameter, invalidate the tangent."""
    if state.mode != "spcont":
        raise SpcontError("state is not in fold/branch-point continuation")
    nb = state.ops.per.nu_per
    primary = int(primary_param_index) if primary_param_index else state.ilam[1]
    state.u = np.concatenate([state.u[:nb], state.u[2 * nb:]])
    state.nq = 0
    state.ilam = [primary]
    state.switches.spcont = 0
    problem.restart_branch(state, ptype=0)
    return state


# ---------------------------------------------------------------------------
# verification helper

def spjac_check(state, u=None, phi=None):
    """Max-entry difference between the second-derivative block derived from
    the semilinear declaration and _fd_second_block, the forward difference
    fold continuation falls back on, on a normal-mode state at u (default
    state.u) in the direction phi (default M 1, M-normalized)."""
    if state.callbacks.semilinear is None:
        raise SpcontError("no semilinear declaration to derive the "
                          "second-derivative block from")
    nb = state.nu
    U = np.array(state.u, dtype=float)
    if u is not None:
        U[:nb] = u
    if phi is None:
        x = state.ops.M @ np.ones(nb)
        phi = x / np.sqrt(abs(x @ (state.ops.M @ x)))
    S = problem.semilinear_second_block(state, U[:nb], phi, U[nb:])
    Gu = problem.pde_jacobian_u(state, U)
    Sn = _fd_second_block(state, np.concatenate([U[:nb], phi, U[nb:]]), Gu)
    return float(abs(S - Sn).max())
