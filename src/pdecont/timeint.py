"""Linearly implicit time integration of  d_t u = -G(u).

tint reassembles all operators at every step (general path); tints keeps
the stiff operator fixed and LU-factorizes Lambda = M + dt*K once per call,
so each step is a pair of sparse triangular solves.  The tints splitting
comes from the problem's semilinear declaration unless the caller passes
one.  Neither variant has error or stepsize control.
"""

from __future__ import annotations

import numpy as np

from . import fem, linsolve, problem


class TimeintError(RuntimeError):
    pass


def tint(state, dt, nt, pmod=10):
    """nt linearly implicit steps with full reassembly at each u^n:
    (M + dt*A(u^n)) u^{n+1} = M u^n + dt*F(u^n), where A collects every
    assembled matrix term (diffusion, reaction, advection, boundary) and F
    the load and boundary-source terms.  Records the residual time series
    every pmod steps and writes snapshots when an output directory is set.
    """
    mesh, neq, per = state.mesh, state.neq, state.ops.per
    M = state.ops.M
    u = np.array(state.u[:state.nu], dtype=float)
    w = state.u[state.nu:]
    t = float(state.demo_config.get("time", 0.0))
    _record(state, t, first=True)
    for n in range(1, nt + 1):
        U = np.concatenate([u, w])
        ct = state.callbacks.G(state, U).normalized(mesh.ntri, neq)
        ops = fem.assemble_interior(mesh, fem.CoeffTensors(ct.c, ct.a, ct.b),
                                    neq)
        A = ops["K"] + ops["Ma"] + ops["Kadv"]
        F = fem.assemble_load(mesh, ct.f.T, neq)
        if state.callbacks.bc is not None:
            bdry = fem.assemble_boundary(mesh, state.callbacks.bc(state, U),
                                         per.fill @ u, w, neq)
            A = A + bdry["Q"]
            F = F + bdry["Gb"]
        Ar = (per.fill.T @ A @ per.fill).tocsc()
        Fr = per.fill.T @ F
        try:
            u = linsolve.lss(M + dt * Ar, M @ u + dt * Fr)
        except linsolve.SingularMatrixError as exc:
            raise TimeintError(f"linear solve failed at step {n}") from exc
        t += dt
        state.u[:state.nu] = u
        state.demo_config["time"] = t
        if n % pmod == 0 or n == nt:
            _record(state, t)
    return state


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
    Lam = (M + dt * K).tocsc()
    try:
        lu = state.ops.cache.factorize(Lam)
    except linsolve.SingularMatrixError as exc:
        raise TimeintError("stiff operator factorization failed") from exc

    u = np.array(state.u[:state.nu], dtype=float)
    t = float(state.demo_config.get("time", 0.0))
    _record(state, t, first=True, diagnostics=diagnostics)
    for n in range(1, nt + 1):
        u = lu.solve(M @ u + dt * forcing(state, u))
        if not np.all(np.isfinite(u)):
            raise TimeintError(f"non-finite solution at step {n}")
        t += dt
        state.u[:state.nu] = u
        state.demo_config["time"] = t
        if n % pmod == 0 or n == nt:
            _record(state, t, diagnostics=diagnostics)
    return state


def _record(state, t, first=False, diagnostics=True):
    if diagnostics:
        res = float(np.linalg.norm(problem.residual(state, state.u), np.inf))
        state.timeseries.append((t, res))
    if state.file.dir:
        from . import io as _io
        import os
        sub = os.path.join(state.file.dir, "pre")
        old = state.file.dir
        state.file.dir = sub
        try:
            _io.save_point(state, f"pt{len(state.timeseries) - 1}")
        finally:
            state.file.dir = old
