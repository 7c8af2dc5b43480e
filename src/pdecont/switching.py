"""Tangent initialization, branch switching at bifurcation points, and
stability-index-driven bifurcation search.  getinitau takes the tangent
with border e_alpha; swibra takes the kernel of the Jacobian bordered with
w*tau.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

from . import continuation, linsolve, problem


class SwitchingError(RuntimeError):
    pass


def getinitau(state):
    """Initial tangent (continuation.unit_tangent, the border row the unit
    vector in the primary-parameter slot); weighted-normalized, primary
    component nonnegative.  A stability index the run needs and lacks
    (spcalc, sol.ineg < 0) comes from the same Jacobian."""
    problem.init_weights(state)
    e = np.zeros(state.nu + state.nq + 1)
    e[-1] = 1.0
    need_index = bool(state.switches.spcalc) and state.sol.ineg < 0
    tau, ineg = continuation.unit_tangent(state, state.u, e,
                                         index=need_index)[:2]
    if tau[-1] < 0:
        tau = -tau
    state.tau = tau
    if need_index:
        state.sol.ineg = ineg
    return state


def swibra(state, ds_new, kerneltol=1e-6):
    """Switch to the branch crossing at a bifurcation point.

    Computes the kernel direction of the Jacobian bordered with the stored
    tangent, removes the old-tangent component in the weighted product,
    normalizes with a deterministic sign, and restarts branch bookkeeping
    with ptype=-2; the two branch directions are selected by the sign of
    ds_new.
    """
    problem.init_weights(state)
    if state.tau is None:
        # fresh-guess entry (e.g. right after fold/branch-point exit):
        # no stored tangent, fall back to plain tangent initialization
        state.sol.ds = float(ds_new)
        problem.restart_branch(state, ptype=-2)
        getinitau(state)
        return state

    n = state.nu + state.nq
    tau_old = state.tau
    w = problem.weights_vector(state)
    A = problem.jacobian_active(state, state.u)
    B = linsolve.bordered(A, w * tau_old)
    spec = linsolve.spectrum_near_zero(B, sp.identity(n + 1, format="csc"),
                                       neig=min(6, n))
    mu = spec["eigenvalues"]
    scale = linsolve._infnorm(B)
    if abs(mu[0]) > kerneltol * scale:
        raise SwitchingError(
            f"no near-zero eigenvalue at this point (|mu|={abs(mu[0]):.2e}, "
            f"scale={scale:.2e}); not a bifurcation point")
    if len(mu) > 1 and abs(mu[1]) <= kerneltol * scale:
        warnings.warn("numerically double kernel; taking the eigenvector of "
                      "the smallest-magnitude eigenvalue")
    z = np.real(spec["eigenvectors"][:, 0])
    if np.linalg.norm(z) < 1e-12:
        z = np.imag(spec["eigenvectors"][:, 0])
    z = z - problem.weighted_dot(state, z, tau_old) * tau_old
    nz = np.sqrt(problem.weighted_dot(state, z, z))
    if nz < 1e-12:
        raise SwitchingError("kernel direction parallel to the branch tangent")
    z /= nz
    i = int(np.argmax(np.abs(z)))
    if z[i] < 0:
        z = -z
    state.sol.ds = float(ds_new)
    problem.restart_branch(state, ptype=-2, tau=z)
    return state


def findbif(state, nbif=1):
    """Continue along the current branch until nbif bifurcation points have
    been detected by the stability index and localized (or the run stops)."""
    sw = state.switches
    old = (sw.bifcheck, sw.spcalc)
    sw.bifcheck, sw.spcalc = 1, 1
    target = state.file.bcount + nbif
    try:
        while state.file.bcount < target:
            before = state.total_steps
            continuation.cont(state, 1)
            lam = state.primary_value
            stalled = state.total_steps == before or state.sol.restart
            if stalled or not (state.controls.lammin <= lam
                               <= state.controls.lammax):
                break
    finally:
        sw.bifcheck, sw.spcalc = old
    return state
