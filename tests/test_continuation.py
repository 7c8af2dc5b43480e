import re

import numpy as np
import pytest

from pdecont import continuation, demos, linsolve, problem
from pdecont.continuation import (bisect_special_point, compute_tangent, cont,
                                  nloop, nloopext, stepsize_update)
from pdecont.switching import findbif, getinitau


@pytest.fixture
def bratu():
    return demos.make("bratu")


def test_nloop_fixed_point_of_exact_solution(bratu):
    # the trivial state solves the problem at lam=0; Newton stays put
    res = nloop(bratu, bratu.u)
    assert res["converged"]
    assert res["iter"] <= 1
    assert np.allclose(res["U"], bratu.u, atol=1e-12)


def test_nloop_quadratic_convergence(bratu):
    bratu.setaux("lambda", 0.2)
    U = np.array(bratu.u)
    rng = np.random.default_rng(7)
    U[:bratu.nu] += 0.05 * rng.standard_normal(bratu.nu)
    bratu.controls.imax = 1          # observe one full Newton step at a time
    history = [np.linalg.norm(problem.residual(bratu, U), np.inf)]
    for _ in range(6):
        res = nloop(bratu, U)
        U = res["U"]
        history.append(res["res"])
        if res["converged"]:
            break
    assert history[-1] <= bratu.controls.tol
    # residuals of consecutive full Newton steps drop at least quadratically
    drops = [h for h in history if h > 1e-13]
    for a, b in zip(drops, drops[1:]):
        assert b <= max(50.0 * a * a, 1e-12)


def test_nloop_reports_failure():
    state = demos.make("bratu")
    state.setaux("lambda", 0.3)      # make the problem genuinely nonlinear
    state.controls.imax = 1
    U0 = np.array(state.u)
    U0[:state.nu] += 1.5
    res = nloop(state, U0)
    assert not res["converged"]


def test_nloopext_preserves_arclength_identity(bratu):
    problem.init_weights(bratu)
    getinitau(bratu)
    ds = 0.02
    y0 = problem.pack_active(bratu, bratu.u)
    U_pred = problem.apply_active(bratu, bratu.u, y0 + ds * bratu.tau)
    res = nloopext(bratu, U_pred, ds)
    assert res["converged"]
    y1 = problem.pack_active(bratu, res["U"])
    s = problem.weighted_dot(bratu, bratu.tau, y1 - y0)
    assert abs(s - ds) <= 1e-8


def test_nloopext_zero_step_returns_same_point(bratu):
    problem.init_weights(bratu)
    getinitau(bratu)
    res = nloopext(bratu, bratu.u, 0.0)
    assert res["converged"]
    assert np.allclose(res["U"], bratu.u, atol=1e-10)


def test_compute_tangent_normalized_and_in_kernel(bratu):
    problem.init_weights(bratu)
    getinitau(bratu)
    tau0 = bratu.tau
    tau = compute_tangent(bratu, bratu.u, tau0)
    assert np.isclose(problem.weighted_dot(bratu, tau, tau), 1.0, atol=1e-10)
    assert problem.weighted_dot(bratu, tau, tau0) > 0
    A = problem.jacobian_active(bratu)
    assert np.abs(A @ tau).max() <= 1e-8


def test_stepsize_rule():
    state = demos.make("bratu")
    nc = state.controls
    nc.dsmax, nc.dsmin = 0.2, 1e-6
    nc.dsinciter, nc.dsincfac, nc.dlammax = 3, 2.0, 1.0
    state.tau = np.zeros(3)
    state.tau[-1] = 0.5
    # failure halves
    state.sol.ds = 0.1
    assert stepsize_update(state, 0, True) == 0.05
    # fast convergence doubles
    state.sol.ds = 0.05
    assert stepsize_update(state, 2, False) == 0.1
    # slow convergence leaves ds alone
    state.sol.ds = 0.05
    assert stepsize_update(state, 3, False) == 0.05
    # dsmax cap
    state.sol.ds = 0.15
    assert stepsize_update(state, 1, False) == 0.2
    # parameter-motion cap: ds <= dlammax / |tau_alpha|
    nc.dsmax = 10.0
    nc.dlammax = 0.6
    state.sol.ds = 1.0
    assert stepsize_update(state, 1, False) == pytest.approx(0.6 / 0.5)


def test_cont_accepted_points_satisfy_tolerance(bratu):
    bratu.sol.ds = 0.05
    cont(bratu, 6)
    assert len(bratu.branch) >= 6
    assert np.linalg.norm(problem.residual(bratu), np.inf) <= bratu.controls.tol
    # monotone increasing norms up the bratu branch before the fold
    norms = [r.l2norm for r in bratu.branch]
    assert norms[-1] > norms[0]


def test_cont_rounds_fold_with_arclength(bratu):
    bratu.switches.foldcheck = 1
    bratu.sol.ds = 0.05
    cont(bratu, 30)
    lams = [r.pars[0] for r in bratu.branch]
    # the branch passes the fold near exp(-1): lambda rises then falls
    assert max(lams) > 0.36
    assert lams[-1] < max(lams) - 0.01
    folds = [r for r in bratu.branch if r.ptype == 2]
    assert len(folds) == 1
    assert abs(folds[0].pars[0] - np.exp(-1.0)) <= 1e-3


def test_fold_bisection_bracket_and_tolerance(bratu):
    bratu.switches.foldcheck = 1
    bratu.switches.spcalc = 1
    problem.init_weights(bratu)
    bratu.sol.ds = 0.05
    getinitau(bratu)
    # walk until the tangent alpha component flips sign
    left = {"U": np.array(bratu.u), "tau": np.array(bratu.tau),
            "ineg": 0, "ds": bratu.sol.ds}
    found = None
    for _ in range(40):
        y = problem.pack_active(bratu, left["U"])
        U_pred = problem.apply_active(bratu, left["U"], y + 0.05 * left["tau"])
        res = nloopext(bratu, U_pred, 0.05, U_base=left["U"], tau=left["tau"])
        assert res["converged"]
        tau_new = compute_tangent(bratu, res["U"], left["tau"])
        right = {"U": res["U"], "tau": tau_new, "ineg": 0, "ds": 0.05}
        if tau_new[-1] * left["tau"][-1] < 0:
            found = (left, right)
            break
        left = right
    assert found is not None
    loc = bisect_special_point(bratu, found[0], found[1], "fold")
    assert not loc["warn"]
    assert abs(loc["tau"][-1]) <= 1e-4          # tangent nearly vertical
    lam = loc["U"][bratu.nu + bratu.ilam[0] - 1]
    assert abs(lam - np.exp(-1.0)) <= 1e-3


def test_bisection_respects_iteration_budget(bratu, monkeypatch):
    bratu.switches.foldcheck = 1
    bratu.controls.bisecmax = 3
    calls = {"n": 0}
    orig = continuation.nloopext

    def counting(state, U_pred, ds, U_base=None, tau=None):
        calls["n"] += 1
        return orig(state, U_pred, ds, U_base=U_base, tau=tau)
    monkeypatch.setattr(continuation, "nloopext", counting)
    bratu.sol.ds = 0.05
    cont(bratu, 25)
    folds = [r for r in bratu.branch if r.ptype == 2]
    assert len(folds) == 1
    # fold still located, just less sharply
    assert abs(folds[0].pars[0] - np.exp(-1.0)) <= 5e-3
    assert calls["n"] <= 25 + 3 + 8     # steps + bisections + retries margin


def test_cont_stops_at_parameter_window(bratu):
    bratu.controls.lammax = 0.2
    bratu.sol.ds = 0.05
    cont(bratu, 50)
    # must stop early rather than continue past the window
    assert bratu.total_steps < 50
    assert bratu.branch[-1].pars[0] <= 0.2 + 0.06


def test_user_target_interception(bratu):
    bratu.usrlam = [0.15]
    bratu.sol.ds = 0.05
    cont(bratu, 10)
    hits = [r for r in bratu.branch if r.usr == 1]
    assert len(hits) == 1
    assert hits[0].pars[0] == pytest.approx(0.15, abs=1e-12)


def test_tangent_continuity_along_branch(bratu):
    problem.init_weights(bratu)
    bratu.sol.ds = 0.05
    getinitau(bratu)
    prev = np.array(bratu.tau)
    for _ in range(8):
        y = problem.pack_active(bratu, bratu.u)
        U_pred = problem.apply_active(bratu, bratu.u, y + 0.05 * prev)
        res = nloopext(bratu, U_pred, 0.05, tau=prev)
        assert res["converged"]
        tau = compute_tangent(bratu, res["U"], prev)
        assert problem.weighted_dot(bratu, tau, prev) > 0
        bratu.u, prev = res["U"], tau


# -- option paths of the corrector -------------------------------------------

def _count_factorizations(monkeypatch):
    """Fresh LU factorizations, counted by FactorCache.factor_count."""
    fresh = []
    orig = linsolve.FactorCache.factorize

    def counting(self, A, *args, **kwargs):
        n0 = self.factor_count
        lu = orig(self, A, *args, **kwargs)
        fresh.append(self.factor_count - n0)
        return lu
    monkeypatch.setattr(linsolve.FactorCache, "factorize", counting)
    return fresh


@pytest.mark.parametrize("case", ["nat", "arc"])
def test_chord_newton_matches_full_newton(bratu, monkeypatch, case):
    # from a solved point at lambda = 0.2: natural at lambda = 0.22, or
    # arclength ds = 0.1 along the tangent
    bratu.setaux("lambda", 0.2)
    bratu.u = nloop(bratu, bratu.u)["U"]
    problem.init_weights(bratu)
    getinitau(bratu)
    y = problem.pack_active(bratu, bratu.u)
    if case == "nat":
        y[-1] = 0.22
        U0 = problem.apply_active(bratu, bratu.u, y)
        call = lambda: nloop(bratu, U0)                    # noqa: E731
    else:
        U0 = problem.apply_active(bratu, bratu.u, y + 0.1 * bratu.tau)
        call = lambda: nloopext(bratu, U0, 0.1)            # noqa: E731
    full = call()
    assert full["converged"]
    fresh = _count_factorizations(monkeypatch)
    bratu.switches.newt = 1
    chord = call()
    assert chord["converged"] and chord["res"] <= bratu.controls.tol
    # one factorization for the whole call, reused by every iteration
    assert sum(fresh) == 1 and chord["iter"] > 1
    # the residual is mass-weighted, so points agreeing to tol in the
    # residual agree to O(tol / h^2) in U
    assert np.abs(chord["U"] - full["U"]).max() <= 100 * bratu.controls.tol


@pytest.mark.parametrize("para, meth", [(0, "nat"), (2, "arc")])
def test_forced_parametrization(bratu, para, meth):
    bratu.switches.para = para
    bratu.sol.ds = 0.05
    for _ in range(3):
        cont(bratu, 1)
        assert bratu.sol.meth == meth
    assert bratu.total_steps == 3
    assert np.linalg.norm(problem.residual(bratu), np.inf) \
        <= bratu.controls.tol


def test_bifloc_predictors_locate_the_same_point():
    located = []
    for bifloc in (0, 1, 2):
        st = demos.make("acfold", {"nx": 30, "ny": 27})
        st.switches.bifloc = bifloc
        ds0 = st.sol.ds
        findbif(st, 1)
        bifs = [r.pars[0] for r in st.branch if r.ptype == 1]
        assert len(bifs) == 1, f"bifloc={bifloc}"
        located.append(bifs[0])
    # the predictor only seeds the corrector: every bisection ends in the
    # same bracket, of width at most ds / 2**bisecmax
    tol = abs(ds0) / 2 ** st.controls.bisecmax
    assert max(located) - min(located) <= tol


# -- localization at a test function's root -----------------------------------

# (ptype, ineg) of every record, and the located primary values, as
# bisecmax = 10 halvings of each bracket located them
HALVING = {
    "acfold": (
        [(-1, 0), (0, 0), (0, 0), (0, 0), (1, 1), (0, 1), (0, 1), (0, 1),
         (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1),
         (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1),
         (1, 2), (0, 2)],
        [1.3838019642140436, 3.2586584414754682]),
    "bratu": (
        [(-1, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0),
         (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0),
         (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (2, 1), (0, 1),
         (0, 1), (1, 2), (0, 3), (0, 3), (1, 4), (0, 4), (0, 4), (0, 4),
         (0, 4), (1, 6), (0, 6), (0, 6), (1, 7), (0, 7), (1, 8), (0, 8),
         (0, 8), (0, 8), (0, 8), (0, 8), (0, 8), (1, 9), (0, 9), (0, 9)],
        [0.3678794408176864, 0.3661814824776586,
         0.3613731927968541, 0.34463975080758663, 0.33369756857548355,
         0.33246801998795444, 0.2913960563813778]),
}


def _count_localization(monkeypatch):
    """Per bisect_special_point call: (|ds| of its bracket, its nloopext
    calls, the ineg jump across it)."""
    calls, seen = [0], []
    nloopext, bisect = continuation.nloopext, continuation.bisect_special_point

    def counting(*args, **kwargs):
        calls[0] += 1
        return nloopext(*args, **kwargs)

    def localizing(state, left, right, kind):
        n0 = calls[0]
        out = bisect(state, left, right, kind)
        seen.append((abs(left["ds"]), calls[0] - n0,
                     abs(right["ineg"] - left["ineg"])))
        return out
    monkeypatch.setattr(continuation, "nloopext", counting)
    monkeypatch.setattr(continuation, "bisect_special_point", localizing)
    return seen


@pytest.mark.parametrize("name", ["acfold", "bratu"])
def test_localization_keeps_the_halving_points(monkeypatch, name):
    # acfold 30x27 findbif(2); bratu 14x14 cont(40) with both detectors
    # on, where ineg also jumps by 2 at double eigenvalues
    seen = _count_localization(monkeypatch)
    if name == "acfold":
        st = demos.make("acfold", {"nx": 30, "ny": 27})
        findbif(st, 2)
    else:
        st = demos.make("bratu", {"nx": 14, "ny": 14})
        st.switches.foldcheck = 1
        cont(st, 40)
    sequence, lams = HALVING[name]
    assert [(r.ptype, r.ineg) for r in st.branch] == sequence
    located = [r.pars[0] for r in st.branch if r.ptype > 0]
    assert len(located) == len(lams) == len(seen)
    for lam, want, (ds, _, _) in zip(located, lams, seen):
        assert abs(lam - want) <= ds / 2 ** st.controls.bisecmax
    if name == "acfold":
        # at most 6 corrector solves per point, not bisecmax = 10
        assert all(solves <= 6 for _, solves, _ in seen)
    else:
        # a double eigenvalue (ineg jumps by 2) is halved
        assert all(solves == 10 for _, solves, jump in seen if jump > 1)


# the located primary values of the runs of HALVING, recorded with the
# Jacobians summed as sparse matrices: summing them in another order moves
# their last bits, which must not move SuperLU's pivots so far that a
# sequence or a point changes
LOCATED = {
    "acfold": [1.3837944912950502, 3.25864913940288],
    "bratu": [0.3678794411165723, 0.3661814824776586, 0.36137398526265196,
              0.34463975080758663, 0.3336968368576649, 0.33246801998795444,
              0.29139736362007473],
}


@pytest.mark.parametrize("name", ["acfold", "bratu"])
def test_special_points_are_pinned(name):
    if name == "acfold":
        st = demos.make("acfold", {"nx": 30, "ny": 27})
        findbif(st, 2)
    else:
        st = demos.make("bratu", {"nx": 14, "ny": 14})
        st.switches.foldcheck = 1
        cont(st, 40)
    assert [(r.ptype, r.ineg) for r in st.branch] == HALVING[name][0]
    located = [r.pars[0] for r in st.branch if r.ptype > 0]
    assert len(located) == len(LOCATED[name])
    assert np.abs(np.subtract(located, LOCATED[name])).max() <= 1e-8


def test_bratu_fold_is_located_closer_than_by_halving(bratu):
    bratu.switches.foldcheck = 1
    bratu.sol.ds = 0.05
    cont(bratu, 25)
    folds = [r.pars[0] for r in bratu.branch if r.ptype == 2]
    assert len(folds) == 1
    # 2.77e-10 after ten halvings
    assert abs(folds[0] - np.exp(-1.0)) <= 2.7746593911359696e-10


def _trivial_bracket(st, lam_l, lam_r):
    """Two points of acfold's trivial branch u = 0 as a bracket."""
    problem.init_weights(st)
    pts = []
    for lam in (lam_l, lam_r):
        U = np.array(st.u)
        U[st.nu + st.ilam[0] - 1] = lam
        e = np.zeros(st.nu + 1)
        e[-1] = 1.0
        tau, ineg = continuation.unit_tangent(st, U, e, index=True)[:2]
        pts.append({"U": U, "tau": tau, "ineg": ineg})
    y_l, y_r = (problem.pack_active(st, p["U"]) for p in pts)
    for p in pts:
        p["ds"] = problem.weighted_dot(st, pts[0]["tau"], y_r - y_l)
    return pts


@pytest.mark.parametrize("broken", ["no sign change", "root moved"])
def test_unreliable_test_function_falls_back_to_halving(monkeypatch, broken):
    # a g without a sign change across the bracket is never used; a g whose
    # root (lambda = 1.33) is not where ineg changes (1.384) disagrees with
    # ineg on an iterate, and the bracket is halved from there
    st = demos.make("acfold", {"nx": 30, "ny": 27})
    left, right = _trivial_bracket(st, 1.3, 1.45)
    assert (left["ineg"], right["ineg"]) == (0, 1)
    seen = _count_localization(monkeypatch)
    root = continuation.bisect_special_point(st, left, right, "bifurcation")
    branch_test, slot = continuation._branch_test, st.nu + st.ilam[0] - 1

    def unreliable(A0, lu):
        g = branch_test(A0, lu)
        if broken == "no sign change":
            return lambda pt, square: abs(g(pt, square))
        return lambda pt, square: pt["U"][slot] - 1.33
    monkeypatch.setattr(continuation, "_branch_test", unreliable)
    halved = continuation.bisect_special_point(st, left, right, "bifurcation")
    assert seen[0][1] <= 6
    if broken == "no sign change":
        assert seen[1][1] == st.controls.bisecmax
    width = left["ds"] / 2 ** st.controls.bisecmax
    lam = [p["U"][slot] for p in (root, halved)]
    assert not root["warn"] and not halved["warn"]
    assert root["ineg"] == halved["ineg"] == 1
    # both end past the crossing, within the final width of it
    assert abs(lam[0] - lam[1]) <= width


# -- failures are reported, not swallowed -------------------------------------

def test_bisection_failure_warns_and_keeps_the_point(monkeypatch):
    st = demos.make("acfold", {"nx": 18, "ny": 16})
    orig = continuation.bisect_special_point

    def failing(state, left, right, kind):
        return dict(orig(state, left, right, kind), warn=True)
    monkeypatch.setattr(continuation, "bisect_special_point", failing)
    with pytest.warns(RuntimeWarning, match="bpt1"):
        findbif(st, 1)
    assert [r.ptype for r in st.branch].count(1) == 1


def test_missed_user_target_warns(bratu, monkeypatch):
    bratu.usrlam = [0.15]
    bratu.sol.ds = 0.05
    slot = bratu.nu + bratu.ilam[0] - 1
    orig = continuation.nloop

    def failing_at_target(state, U):
        res = orig(state, U)
        if U[slot] == 0.15:
            res = dict(res, converged=False)
        return res
    monkeypatch.setattr(continuation, "nloop", failing_at_target)
    with pytest.warns(RuntimeWarning, match="user target lambda = 0.15"):
        cont(bratu, 10)
    assert not any(r.usr for r in bratu.branch)


def test_stepsize_underflow_warns_and_stops(bratu, monkeypatch):
    bratu.sol.ds = 0.05
    cont(bratu, 2)
    lam = bratu.primary_value

    def never(state, U, *args, **kwargs):
        return {"U": U, "r": None, "res": 1.0, "iter": state.controls.imax,
                "converged": False}
    monkeypatch.setattr(continuation, "nloop", never)
    monkeypatch.setattr(continuation, "nloopext", never)
    n = len(bratu.branch)
    with pytest.warns(RuntimeWarning,
                      match=re.escape(f"lambda = {lam:.10g}") + ".*ds = "):
        cont(bratu, 5)
    assert bratu.sol.restart
    assert len(bratu.branch) == n and bratu.primary_value == lam
    assert abs(bratu.sol.ds) / 2.0 < bratu.controls.dsmin


def test_findbif_after_a_stepsize_underflow_finds_the_point(monkeypatch):
    # a stop on ds < dsmin marks that cont call only: a later findbif
    # continues from the same point and locates the branch point there
    st = demos.make("acfold", {"nx": 20, "ny": 18})
    st.usrlam = []

    def never(state, U, *args, **kwargs):
        return {"U": U, "r": None, "res": 1.0, "iter": state.controls.imax,
                "converged": False}
    with monkeypatch.context() as m:
        m.setattr(continuation, "nloop", never)
        m.setattr(continuation, "nloopext", never)
        with pytest.warns(RuntimeWarning, match="ds = "):
            cont(st, 1)
    assert st.sol.restart and st.total_steps == 0
    st.sol.ds = 0.1
    findbif(st, 1)
    assert not st.sol.restart
    assert st.file.bcount == 1 and st.total_steps == 4
