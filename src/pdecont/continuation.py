"""Predictor-corrector continuation with stepsize control, automatic
parametrization switching, detection and localization of bifurcation and
fold points, and user-target parameter output.

Both correctors are one Newton loop: the natural one on (G, q) = 0 in
(u, wtilde) at fixed alpha, with the square block A0 = d(G, q)/d(u, wtilde)
alone, the arclength one on the system bordered by <w*tau, y - y_base> =
ds.  The tangent at a point comes from one factorization of A0 by block
elimination, and the stability index from the same Jacobian: where A0 is
Gu, from the same factorization.  cont holds the tangent's LU of a plain
step's point for the next natural corrector's first iterate.

A change of the stability index (bifurcation) or of the sign of the
tangent's parameter component (fold) between two points is localized at
the root of a smooth test function by regula falsi in arclength; the
branch-point test function comes from the same factorization.  A step that
changes the index by one and that sign as well crossed a fold only
(_is_branch_point).  Localizing falls back to halving the bracket where
that test function does not serve.

A failure the run survives (a corrector failure inside a localization, a
missed user target, a stop on ds < dsmin) is a RuntimeWarning naming the
point, and is listed in state.sol.failures.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import io as _io
from . import linsolve, problem
from .linsolve import SingularMatrixError


# The elimination tangent (-z, 1) gives way to the stacked bordered solve
# when ||z||_inf >= 1 / FOLD_RTOL: at a fold the square block is singular,
# the bordered matrix is not
FOLD_RTOL = 1e-6


@dataclass
class BranchRecord:
    count: int
    ptype: int
    pars: list          # active parameter values, primary first
    ineg: int
    l2norm: float = 0.0
    usr: int = 0        # 1 when the point is a user-target parameter hit
    user: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# correctors

def nloop(state, U):
    """Newton at fixed primary parameter on A0 delta = -r in (u, wtilde),
    A0 = d(G, q)/d(u, wtilde), first on cont's held LU (_newton); returns
    {"U", "r", "res", "iter", "converged"}, r the residual (G, q) at U."""
    return _newton(state, U, None, None, 0.0)


def nloopext(state, U_pred, ds, U_base=None, tau=None):
    """Newton in arclength (border w*tau) from U_base/tau, by default the
    state's current point/tangent."""
    U_base = state.u if U_base is None else U_base
    tau = state.tau if tau is None else tau
    return _newton(state, U_pred, problem.weights_vector(state) * tau,
                   problem.pack_active(state, U_base), ds)


def _newton(state, U, border, y_base, ds):
    """Newton on (G, q) = 0 in (u, wtilde) at fixed alpha (border None), or
    on (G, q, <border, y - y_base> - ds) = 0 in y = (u, wtilde, alpha): one
    LU per iteration, or per call for chord (switches.newt=1).  Every call
    empties cont's slot.  A natural call at the point the held LU belongs
    to takes its first iterate on it, a chord step (Allgower and Georg
    1990), and chord every iterate, while checked_solve accepts it."""
    U = np.array(U, dtype=float)
    tol, imax = state.controls.tol, state.controls.imax
    chord = state.switches.newt == 1
    held, state.ops.cache.held = state.ops.cache.held, None
    if held is not None:
        (u, ilam, nq), held = held
        if (border is not None or (nq, ilam) != (state.nq, state.ilam)
                or not np.array_equal(u, state.u)):
            held = None

    def F(Uc):
        r = problem.residual(state, Uc)
        if border is None:
            return r, r
        y = problem.pack_active(state, Uc)
        return r, np.append(r, border @ (y - y_base) - ds)

    r, f = F(U)
    res = _norm(f)
    it = 0
    lu = None
    while res > tol and it < imax:
        try:
            dy = linsolve.checked_solve(held[1], held[0], -f) if held else None
        except SingularMatrixError:
            dy = None
        if dy is None or not chord:
            held = None         # freed before the next factorization
        if dy is None:
            try:
                if lu is None or not chord:
                    lu = None
                    A = problem.jacobian_active(state, U, f0=r)
                    A = (linsolve.split_last_column(A)[0] if border is None
                         else linsolve.bordered(A, border))
                    lu = state.ops.cache.factorize(A)
                dy = linsolve.solve(lu, -f)
            except SingularMatrixError:
                return {"U": U, "r": r, "res": res, "iter": it,
                        "converged": False}
        y = problem.pack_active(state, U)
        y[:len(dy)] += dy       # natural: alpha stays
        U = problem.apply_active(state, U, y)
        r, f = F(U)
        res = _norm(f)
        it += 1
    return {"U": U, "r": r, "res": res, "iter": it,
            "converged": bool(res <= tol)}


# ---------------------------------------------------------------------------
# tangents and stability

def compute_tangent(state, U, tau_old):
    """New unit tangent at U (unit_tangent, border w tau_old) with
    continuity of direction: <tau, tau_old>_w > 0."""
    return tangent_and_index(state, U, tau_old, index=False)[0]


def tangent_and_index(state, U, tau_old, f0=None, index=True):
    """(tau, ineg, square): unit_tangent's with border w tau_old, tau turned
    to compute_tangent's direction.  f0 is the residual at U when the caller
    holds it.  A caller that does not use square drops it in the same
    expression, so that no LU outlives its use."""
    tau, ineg, square = unit_tangent(
        state, U, problem.weights_vector(state) * tau_old, f0, index)
    if problem.weighted_dot(state, tau, tau_old) < 0:
        tau = -tau
    return tau, ineg, square


def unit_tangent(state, U, border, f0=None, index=False):
    """(tau, ineg, square): the solution of J tau = 0, <border, tau> = 1 at U
    scaled to unit length in the weighted product; with index the stability
    index at U (else None); and square = (A0, lu) when the LU of A0 below
    passed its solve check, else None.

    J = [A0, a] with A0 = d(G, q)/d(u, wtilde) square and a = d(G, q)/dalpha,
    so tau is (-A0^{-1} a, 1) up to scale, from one LU of A0
    (linsolve.factorize_square); the border only sets the scale.  A singular
    A0, a solve that fails checked_solve's residual test, or a fold
    (||A0^{-1} a||_inf >= 1 / FOLD_RTOL) take the stacked bordered solve
    linsolve.blss instead.

    The index counts the unstable eigenvalues of (Gu, M): the inertia of
    that LU where A0 is Gu (nq = 0) and its LDL^T is accepted, else
    linsolve.stability_index of J's leading nu_per x nu_per block, which is
    Gu in every mode (jacobian_active stacks Gu first; fold continuation's
    PDE block is [[Gu, 0], [S, Gu]]).  Where nq > 0 that index is taken
    before A0 is factorized, so that its LU (or ARPACK's) is freed first.
    """
    J = problem.jacobian_active(state, U, f0)
    n, nb = J.shape[0], state.ops.per.nu_per
    A0, a = linsolve.split_last_column(J)

    def block_index():
        return linsolve.stability_index(J[:nb, :nb], state.ops.M,
                                        state.controls.neig, state.ops.cache)

    ineg = block_index() if index and state.nq else None
    z = None
    try:
        lu, inertia = linsolve.factorize_square(A0, state.ops.cache)
        if index and not state.nq:
            ineg = inertia      # A0 is Gu
        z = linsolve.checked_solve(lu, A0, a)
    except SingularMatrixError:
        pass
    if z is None or np.abs(z).max(initial=0.0) * FOLD_RTOL >= 1.0:
        tau = linsolve.blss(J, border, 1.0, np.zeros(n), state.ops.cache)
    else:
        tau = np.append(-z, 1.0)
    tau = tau / np.sqrt(problem.weighted_dot(state, tau, tau))
    if index and ineg is None:
        ineg = block_index()
    return tau, ineg, None if z is None else (A0, lu)


def _l2norm(state, U):
    u = U[:state.ops.per.nu_per]      # the base PDE field, in both modes
    return float(np.sqrt(abs(u @ (state.ops.M @ u))))


def make_record(state, U, ptype, ineg, usr=0):
    pars = [float(U[state.nu + i - 1]) for i in state.ilam]
    user, out = [], state.callbacks.outfu
    if out is not None:
        user = [float(v) for v in np.atleast_1d(out(state, U))]
    return BranchRecord(count=state.file.count, ptype=ptype, pars=pars,
                        ineg=ineg, l2norm=_l2norm(state, U), usr=usr, user=user)


# ---------------------------------------------------------------------------
# stepsize control

def stepsize_update(state, it, failed):
    """Halve on failure (floor dsmin); grow by dsincfac after fast convergence,
    capped by dsmax and by the primary-parameter move dlammax."""
    nc = state.controls
    ds = state.sol.ds
    if failed:
        state.sol.ds = ds / 2.0
        return state.sol.ds
    if it < nc.dsinciter:
        ds = np.sign(ds) * min(abs(ds) * nc.dsincfac, nc.dsmax)
    lamd = abs(state.tau[-1]) if state.tau is not None else 0.0
    if lamd > 0 and abs(ds) * lamd > nc.dlammax:
        ds = np.sign(ds) * nc.dlammax / lamd
    state.sol.ds = ds
    return ds


# ---------------------------------------------------------------------------
# localization

def _predict(state, y_l, tau_l, y_r, ds_br, s):
    """Predictor inside a bracket of arclength ds_br at position s from the
    left point: 0 tangent, 1 secant, 2 quadratic (default)."""
    mode = state.switches.bifloc
    if mode == 0:
        return y_l + s * tau_l
    if mode == 1:
        return y_l + (s / ds_br) * (y_r - y_l)
    quad = (y_r - y_l - ds_br * tau_l) / ds_br**2
    return y_l + s * tau_l + s**2 * quad


def bisect_special_point(state, left, right, kind):
    """Locate the special point in a bracket [left, right]: dicts with U,
    tau, ineg and ds, the arclength to the right point.  kind "bifurcation"
    brackets an ineg change, "fold" a sign change of tau's alpha component.

    Each iterate is a corrector solve at arclength s from the left point,
    predicted by switches.bifloc.  s is the root of a smooth test function g
    (_test_function) by the Illinois variant of regula falsi, kept at least
    half the final width from either end so that the bracket closes from
    both sides.  The bracket is halved instead where g is unavailable, has
    no sign change across it, disagrees with ineg on an iterate, or has
    not closed after bisecmax iterates.  It stops at |ds| / 2**bisecmax
    wide, which halving reaches in at most bisecmax more iterates, or below
    2 dsminbis; its ends always differ in ineg (at a fold, in the sign of
    tau's alpha component).  Returns the right end, past the crossing, with
    "warn" set on corrector failure.
    """
    nc = state.controls
    # first: the test function takes right["square"] out of the caller's dict
    g, gs = _test_function(state, left, right, kind)
    left, right = dict(left), dict(right)
    final = abs(left["ds"]) / 2 ** nc.bisecmax
    warn = False

    def indicator(pt):
        if kind == "fold":
            return pt["tau"][-1] > 0
        return pt["ineg"]

    last = None         # the end the previous iterate replaced: 0 or 1
    for it in range(2 * nc.bisecmax):
        ds_br = left["ds"]
        if abs(ds_br) <= final or abs(ds_br) / 2.0 < nc.dsminbis:
            break
        if it == nc.bisecmax:
            g = None
        t = 0.5
        if g is not None:
            edge = final / (2.0 * abs(ds_br))
            t = min(max(gs[0] / (gs[0] - gs[1]), edge), 1.0 - edge)
        s = t * ds_br
        y_l = problem.pack_active(state, left["U"])
        y_r = problem.pack_active(state, right["U"])
        y_pred = _predict(state, y_l, left["tau"], y_r, ds_br, s)
        U_pred = problem.apply_active(state, left["U"], y_pred)
        res = nloopext(state, U_pred, s, U_base=left["U"], tau=left["tau"])
        if not res["converged"]:
            warn = True
            break
        tau_mid, ineg_mid, square = tangent_and_index(
            state, res["U"], left["tau"], res["r"])
        mid = {"U": res["U"], "tau": tau_mid, "ineg": ineg_mid,
               "ds": ds_br - s}
        g_mid = None if g is None else g(mid, square)
        del square          # free this LU before the next iterate makes one
        past = indicator(mid) != indicator(left)
        new = int(past)     # the end mid replaces: 0 left, 1 right
        if g is not None:
            # the left end's g keeps its sign; a g of 0 counts as past
            if g_mid is None or (g_mid * gs[0] <= 0) != past:
                g = None
            else:
                gs[new] = g_mid
                if new == last:
                    # Illinois: the other end stays a second time; halve its g
                    gs[1 - new] /= 2.0
        last = new
        if past:
            right = mid
            left["ds"] = s
        else:
            left = mid
    out = dict(right)
    out["warn"] = warn
    return out


def _test_function(state, left, right, kind):
    """(g, [g(left), g(right)]) for bisect_special_point, g(pt, square) a
    test function that is smooth across the bracket and changes sign where
    its indicator does; (None, None) where the bracket is to be halved.

    At a fold g is tau's alpha component, which every iterate computes.  At
    a bifurcation it is _branch_test's, built on the right end's
    factorization: right["square"] where cont passed it (popped, so that
    the caller's dict no longer holds it), else a new one.  The left end's
    g costs one factorization, and only one LU is held at a time.  An ineg
    jump by more than 1 (a complex pair or a double crossing) is halved.
    """
    square = right.pop("square", None)
    if kind == "fold":
        def g(pt, _square):
            return pt["tau"][-1]
        gs = [g(left, None), g(right, None)]
    elif abs(right["ineg"] - left["ineg"]) != 1:
        return None, None
    else:
        square = square or _square(state, right)
        if square is None:
            return None, None
        g = _branch_test(*square)
        g_right = g(right, square)
        del square
        gs = [g(left, _square(state, left)), g_right]
    if None in gs or not gs[0] * gs[1] < 0:
        return None, None
    return g, gs


def _branch_test(A0, lu):
    """g(pt, square) = -1 / (c^T A0^{-1} b) from the point's factorization
    square = (A0, lu), or None where it is missing or its solve fails.

    g is the last entry of the solution of [[A0, b], [c^T, 0]] (v, g) =
    (0, 1) and crosses zero where A0 turns singular (Govaerts 2000, ch.
    3-4).  b and c come from two steps of inverse iteration from a fixed
    start with the given LU of A0 and with its transpose: near the crossing
    they are nearly its null vectors, so that g has no pole in the bracket.
    """
    b = c = np.random.default_rng(0).standard_normal(A0.shape[0])
    for _ in range(2):
        b = linsolve.solve(lu, b)
        c = linsolve.solve(lu, c, trans="T")
        b, c = b / np.linalg.norm(b), c / np.linalg.norm(c)

    def g(pt, square):
        if square is None:
            return None
        try:
            d = c @ linsolve.checked_solve(square[1], square[0], b)
        except SingularMatrixError:
            return None
        return -1.0 / d if d else None
    return g


def _square(state, pt):
    """unit_tangent's factorization of the square block at the point pt."""
    return tangent_and_index(state, pt["U"], pt["tau"], index=False)[2]


# ---------------------------------------------------------------------------
# main driver

def cont(state, nsteps=None):
    """Continue the branch: predictor -> corrector -> stability index ->
    detection -> record/save -> stepsize update -> user-target interception."""
    nc, sw = state.controls, state.switches
    nsteps = nc.nsteps if nsteps is None else nsteps
    state.sol.restart = False       # until this call stops on ds < dsmin
    problem.init_weights(state)
    if state.uold is None:
        state.uold = state.u.copy()
    if state.tau is None:
        from . import switching as _switching
        _switching.getinitau(state)
    elif state.sol.ineg < 0 and sw.spcalc:
        state.sol.ineg = tangent_and_index(state, state.u, state.tau)[1]
    if not state.branch:
        _record(state, state.u, state.ptype, state.sol.ineg,
                f"pt{state.file.count}")

    steps = 0
    while steps < nsteps and state.total_steps < nc.ntot:
        lam0 = state.primary_value
        tau0 = state.tau
        # predictor + corrector, with stepsize halving on failure
        while True:
            ds = state.sol.ds
            y_pred = problem.pack_active(state, state.u) + ds * tau0
            U_pred = problem.apply_active(state, state.u, y_pred)
            natural = sw.para == 0 or (sw.para == 1
                                       and abs(tau0[-1]) > nc.lamdtol)
            if natural:
                result = nloop(state, U_pred)
            else:
                result = nloopext(state, U_pred, ds)
            if result["converged"]:
                state.sol.meth = "nat" if natural else "arc"
                break
            if abs(ds) / 2.0 < nc.dsmin:
                state.sol.restart = True
                _record(state, None, 0, state.sol.ineg,
                        f"step from {_primary_name(state)} = {lam0:.10g}",
                        failure=f"the corrector failed down to ds = {ds:.3g}"
                                f" (dsmin = {nc.dsmin:.3g}); the "
                                f"continuation stops")
                return state
            stepsize_update(state, result["iter"], failed=True)

        U_new = result["U"]
        state.sol.iter = result["iter"]
        tau_new, ineg_new, square = tangent_and_index(
            state, U_new, tau0, result["r"], index=bool(sw.spcalc))
        if ineg_new is None:
            ineg_new = state.sol.ineg

        # detection + localization between the previous and the new point,
        # and the user-target parameter values crossed in this step
        old_pt = {"U": state.u.copy(), "tau": tau0, "ineg": state.sol.ineg,
                  "ds": ds}
        new_pt = {"U": U_new, "tau": tau_new, "ineg": ineg_new, "ds": ds}
        fold = _lam_sign(tau_new) * _lam_sign(tau0) < 0
        bif = (sw.bifcheck and state.sol.ineg >= 0
               and _is_branch_point(ineg_new - state.sol.ineg, fold))
        lam1 = float(U_new[state.nu + state.ilam[0] - 1])
        targets = [t for t in sorted(state.usrlam, key=lambda t: abs(t - lam0))
                   if min(lam0, lam1) < t <= max(lam0, lam1) and t != lam0]
        if (square is not None and state.mode == "normal"
                and not (bif or sw.foldcheck and fold or targets)):
            # a plain step: the next natural corrector starts on this LU
            key = (U_new.copy(), list(state.ilam), state.nq)
            state.ops.cache.held = (key, square)
        elif bif:
            new_pt["square"] = square   # for the localization's test function
        del square          # no LU is held through another solve
        if bif:
            loc = bisect_special_point(state, old_pt, new_pt, "bifurcation")
            state.file.bcount += 1
            _record_special(state, loc, 1, f"bpt{state.file.bcount}")
        if sw.foldcheck and fold:
            loc = bisect_special_point(state, old_pt, new_pt, "fold")
            state.file.fcount += 1
            _record_special(state, loc, 2, f"fpt{state.file.fcount}")
        for target in targets:
            _converge_at_lambda(state, old_pt["U"], U_new, target)

        # accept
        state.uold = state.u.copy()
        state.u = U_new
        state.tau = tau_new
        state.sol.ineg = ineg_new
        state.ptype = 0
        state.file.count += 1
        state.total_steps += 1
        steps += 1
        _record(state, state.u, 0, ineg_new, f"pt{state.file.count}")
        stepsize_update(state, result["iter"], failed=False)

        if not (nc.lammin <= state.primary_value <= nc.lammax):
            return state
    return state


def _is_branch_point(jump, fold):
    """Whether a step whose index changed by jump crossed a branch point.

    The bordered determinant det[[Gu, G_alpha], [tau^T]] changes sign at a
    branch point but not at a fold (Keller 1977).  It is det(Gu) times the
    Schur complement, whose sign is that of tau's alpha component, and
    sign det(Gu) = (-1)^ineg: so a jump of 1 together with a sign change of
    tau's alpha component is a fold alone.  A jump of 2 or more (a complex
    pair, or a fold and a branch point in one step) is still localized as
    a branch point.
    """
    return jump != 0 and not (abs(jump) == 1 and fold)


def _lam_sign(tau):
    """Sign of a tangent's primary-parameter component, 0 where that is zero
    to rounding (the kernel direction swibra takes at a pitchfork): a fold
    is a change between two nonzero signs."""
    if abs(tau[-1]) <= 1e-10 * np.abs(tau).max():
        return 0.0
    return float(np.sign(tau[-1]))


def _converge_at_lambda(state, U_a, U_b, target):
    """Natural-parametrization solve at exactly the requested primary value,
    started from the linear interpolant between the bracketing points."""
    slot = state.nu + state.ilam[0] - 1
    lam_a, lam_b = U_a[slot], U_b[slot]
    t = (target - lam_a) / (lam_b - lam_a)
    U0 = (1 - t) * U_a + t * U_b
    U0[slot] = target
    res = nloop(state, U0)
    if not res["converged"]:
        _record(state, None, 0, state.sol.ineg,
                f"user target {_primary_name(state)} = {target:.10g}",
                failure=f"corrector did not converge (residual "
                        f"{res['res']:.2e}); no point recorded")
        return
    state.file.count += 1
    _record(state, res["U"], 0, state.sol.ineg, f"pt{state.file.count}",
            usr=1)


def _record_special(state, loc, ptype, name):
    state.file.count += 1
    failure = None
    if loc["warn"]:
        lam = loc["U"][state.nu + state.ilam[0] - 1]
        failure = (f"the corrector failed inside the localization; the "
                   f"point at {_primary_name(state)} = {lam:.10g} is not "
                   f"localized")
    _record(state, loc["U"], ptype, loc["ineg"], name, tau=loc["tau"],
            failure=failure)


def _record(state, U, ptype, ineg, name, tau=None, usr=0, failure=None):
    """Append the branch record of U and save it as point file `name`; a
    failure is a RuntimeWarning naming the point, also listed in
    state.sol.failures (U None: nothing saved)."""
    if failure is not None:
        state.sol.failures.append(f"{name}: {failure}")
        warnings.warn(state.sol.failures[-1], RuntimeWarning, stacklevel=3)
    if U is None:
        return
    state.branch.append(make_record(state, U, ptype, ineg, usr=usr))
    if state.file.dir:
        snap = copy.copy(state)
        snap.u = np.array(U, dtype=float)
        snap.tau = state.tau if tau is None else tau
        snap.ptype = ptype
        _io.save_point(snap, name)


def _primary_name(state):
    return state.parnames[state.ilam[0] - 1]


def _norm(r):
    return float(np.linalg.norm(r, np.inf)) if len(r) else 0.0
