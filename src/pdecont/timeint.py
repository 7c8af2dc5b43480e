"""Linearly implicit time integration of  d_t u = -G(u).

The two integrators differ only in their step.  tint assembles the general
path afresh at every step, as data on the reduced P1 pattern
(problem.general_data: one sparse mat-vec per nonzero coefficient), forms
M + dt A(u^n) as a data axpy on that pattern and solves
(M + dt A(u^n)) u^{n+1} = M u^n + dt F(u^n) by a fresh factorization.  tints
keeps the stiff operator K fixed, factorizes Lambda = M + dt K once per call
and takes the explicit forcing from the problem's semilinear declaration
unless the caller passes a splitting, so each step is a pair of triangular
solves.  Both ask for the band Cholesky (FactorCache.factorize with spd),
which serves a symmetric positive definite operator (diffusion, mass and
boundary springs, as on acfold and bratu); a nonsymmetric one (advection,
cross-diffusion or a reaction in the implicit part, as on schnak and
acfront) or one the Cholesky refuses takes SuperLU's LU.
One loop (_march) keeps u, the model time demo_config["time"], the records
and the step failures for both.  Neither has error or stepsize control.
"""

from __future__ import annotations

import os

import numpy as np

from . import io, linsolve, problem


class TimeintError(RuntimeError):
    pass


def tint(state, dt, nt, pmod=10):
    """nt linearly implicit steps with full reassembly at each u^n:
    (M + dt*A(u^n)) u^{n+1} = M u^n + dt*F(u^n), where A collects every
    assembled matrix term (diffusion, reaction, advection, boundary) and F
    the load and boundary-source terms.  M + dt*A is summed as data on the
    ReducedPattern (M's own data where M is stored on it) and factorized
    with the zeros of the sum dropped, as a sparse sum would store it.
    Records the residual time series every pmod steps and writes snapshots
    when an output directory is set.  Each step's factorization is counted
    in state.ops.cache; once one step has fallen back from the band
    Cholesky to the LU, the rest of the call goes straight to the LU.
    """
    M, w, cache = state.ops.M, state.pars(), state.ops.cache
    P = problem.reduced_pattern(state)
    m = P.op("M")
    spd = True

    def step(u):
        nonlocal spd
        U = np.concatenate([u, w])
        a, F = problem.general_data(state, U, state.callbacks.G(state, U),
                                    state.callbacks.bc)
        lu = cache.factorize(P.matrix(m + dt * a), spd=spd)
        spd = cache.banded
        return linsolve.solve(lu, M @ u + dt * F)
    return _march(state, dt, nt, pmod, step)


def tints(state, dt, nt, pmod, forcing=None, K=None, diagnostics=True):
    """Semilinear fast path: Lambda = M + dt*K factorized once, then
    u^{n+1} = Lambda^{-1} (M u^n + dt*f_n) with f_n = forcing(state, u^n).

    By default the splitting is derived from callbacks.semilinear at the
    state's parameters: K = d K - bx Kdx - by Kdy + Q implicit and the load
    Fload f + Gb explicit (problem.semilinear_splitting).  A problem without
    that declaration must pass both forcing and K; its boundary operator may
    depend on u, so no cached matrix is taken for it.  Lambda is factorized
    afresh on every call (counted in state.ops.cache), so a K changed
    between calls is always the one integrated.
    """
    if forcing is None or K is None:
        if state.callbacks.semilinear is None:
            raise TimeintError(f"{state.name} declares no semilinear "
                               "operator; tints needs forcing and K")
        K0, forcing0 = problem.semilinear_splitting(state)
        forcing = forcing or forcing0
        K = K0 if K is None else K
    M = state.ops.M
    try:
        lu = state.ops.cache.factorize((M + dt * K).tocsc(), spd=True)
    except linsolve.SingularMatrixError as exc:
        raise TimeintError("stiff operator factorization failed") from exc

    def step(u):
        return linsolve.solve(lu, M @ u + dt * forcing(state, u))
    return _march(state, dt, nt, pmod, step, diagnostics)


def _march(state, dt, nt, pmod, step, diagnostics=True):
    """nt steps u <- step(u) from the state's u, written back into state.u
    after each; the model time advances by dt.  Records at the start, every
    pmod steps and at the end, numbered from 0 within the call; a failed or
    non-finite solve is a TimeintError."""
    u = np.array(state.u[:state.nu], dtype=float)
    t = float(state.demo_config.get("time", 0.0))
    k = 0
    _record(state, t, k, diagnostics)
    for n in range(1, nt + 1):
        try:
            u = step(u)
        except linsolve.SingularMatrixError as exc:
            raise TimeintError(f"step {n} failed: {exc}") from exc
        t += dt
        state.u[:state.nu] = u
        state.demo_config["time"] = t
        if n % pmod == 0 or n == nt:
            k += 1
            _record(state, t, k, diagnostics)
    return state


def _record(state, t, k, diagnostics):
    """Append (t, ||G||_inf) to state.timeseries when diagnostics are on, and
    write snapshot k to pre/pt{k} when an output directory is set."""
    if diagnostics:
        res = float(np.linalg.norm(problem.residual(state, state.u), np.inf))
        state.timeseries.append((t, res))
    if state.file.dir:
        io.save_point(state, os.path.join("pre", f"pt{k}"))
