"""The tangent by block elimination on one factorization of the square
block d(G, q)/d(u, wtilde), against the stacked bordered solve, and the
stability index that factorization gives on the way."""

import numpy as np
import pytest

from pdecont import continuation, demos, linsolve, problem, spcont
from pdecont.linsolve import SingularMatrixError
from pdecont.switching import findbif, getinitau


def _bratu_homogeneous(u, config=None):
    """Bratu's zero-flux homogeneous solution u = const at lambda = u e^-u;
    its fold is u = 1, lambda = 1/e."""
    st = demos.make("bratu", config)
    st.u[:st.nu] = u
    st.setaux("lambda", u * np.exp(-u))
    return st


def _case(name):
    if name == "bratu near fold":
        # 7.4e-7 below the fold in lambda
        st = _bratu_homogeneous(1.002, {"nx": 8, "ny": 8})
        assert 0 < np.exp(-1.0) - st.getaux("lambda") <= 1e-6
        return st
    if name == "bratu spcont":
        st = _bratu_homogeneous(1.0, {"nx": 8, "ny": 8})
        st.ptype = 2
        spcont.spcontini(st, 2)
        return demos.perturb(st, seed=3)
    if name == "acfront frozen":
        return demos.perturb(demos.acfront_freeze(demos.make("acfront")), 5)
    config = {"acfold": {"nx": 10, "ny": 9}, "bratu": {"nx": 8, "ny": 8},
              "nlbc": {"nx": 10, "ny": 10}}.get(name)
    return demos.perturb(demos.make(name, config), seed=1)


CASES = ["acfold", "schnak", "schnaktravel", "bratu", "nlbc", "acfront",
         "acfront frozen", "bratu spcont", "bratu near fold"]


def _stacked(st, U, border):
    """The tangent from linsolve.blss on the Jacobian bordered by border."""
    J = problem.jacobian_active(st, U)
    tau = linsolve.blss(J, border, 1.0, np.zeros(J.shape[0]))
    return tau / np.sqrt(problem.weighted_dot(st, tau, tau))


def _base_block(st):
    """The base problem's Gu and M at st.u, assembled on their own."""
    if st.mode == "spcont":
        return spcont.base_pde_block(st, st.u)
    return problem.pde_jacobian_u(st, st.u), st.ops.M


def _count_blss(monkeypatch):
    calls = []
    orig = linsolve.blss

    def counting(*args):
        calls.append(1)
        return orig(*args)
    monkeypatch.setattr(linsolve, "blss", counting)
    return calls


@pytest.mark.parametrize("name", CASES)
def test_elimination_tangent_is_the_stacked_tangent(monkeypatch, name):
    st = _case(name)
    problem.init_weights(st)
    border = problem.weights_vector(st) * np.random.default_rng(2).uniform(
        0.5, 1.5, st.nu + st.nq + 1)
    want = _stacked(st, st.u, border)
    calls = _count_blss(monkeypatch)
    tau, ineg = continuation.unit_tangent(st, st.u, border, index=True)[:2]
    assert calls == []                       # no fallback was needed
    if want @ tau < 0:
        want = -want
    assert np.abs(tau - want).max() <= 1e-10 * np.abs(want).max()
    assert ineg == linsolve.stability_index(*_base_block(st),
                                            st.controls.neig)


@pytest.mark.parametrize("name", ["bratu", "bratu near fold", "schnaktravel"])
def test_singular_factorization_falls_back_to_the_stacked_solve(monkeypatch,
                                                                name):
    st = _case(name)
    problem.init_weights(st)
    tau_old = np.ones(st.nu + st.nq + 1)
    want, want_ineg = continuation.tangent_and_index(st, st.u, tau_old)[:2]

    def singular(A, cache=None):
        raise SingularMatrixError("singular by construction")
    monkeypatch.setattr(linsolve, "factorize_square", singular)
    calls = _count_blss(monkeypatch)
    tau, ineg = continuation.tangent_and_index(st, st.u, tau_old)[:2]
    assert calls == [1]
    assert np.abs(tau - want).max() <= 1e-10 * np.abs(want).max()
    assert ineg == want_ineg


def test_failed_solve_check_falls_back_to_the_stacked_solve(monkeypatch):
    st = _case("bratu near fold")
    problem.init_weights(st)
    tau_old = np.ones(st.nu + st.nq + 1)
    want = continuation.compute_tangent(st, st.u, tau_old)

    def failing(lu, A, b):
        raise SingularMatrixError("residual check failed")
    monkeypatch.setattr(linsolve, "checked_solve", failing)
    calls = _count_blss(monkeypatch)
    tau = continuation.compute_tangent(st, st.u, tau_old)
    assert calls == [1]
    assert np.abs(tau - want).max() <= 1e-10 * np.abs(want).max()


def test_exact_fold_takes_the_stacked_solve(monkeypatch):
    # at u = 1, lambda = 1/e Gu is singular (constant kernel) while the
    # bordered matrix is not: the tangent is the kernel, lambda-part 0
    st = _bratu_homogeneous(1.0, {"nx": 8, "ny": 8})
    problem.init_weights(st)
    calls = _count_blss(monkeypatch)
    tau = continuation.compute_tangent(st, st.u, np.ones(st.nu + 1))
    assert calls == [1]
    assert abs(tau[-1]) <= 1e-10 * np.abs(tau).max()
    assert np.ptp(tau[:st.nu]) <= 1e-10 * np.abs(tau).max()


def test_one_factorization_per_trivial_branch_point(monkeypatch):
    st = demos.make("acfold", {"nx": 20, "ny": 18})
    st.usrlam = []
    getinitau(st)
    # every LU, also those of caches other than the state's
    lus, tangents, steps = [], [], []
    factorize = linsolve.FactorCache.factorize

    def counting_factorize(self, A, **options):
        lus.append(1)
        return factorize(self, A, **options)
    orig_tangent, orig_cont = continuation.tangent_and_index, continuation.cont

    def counting_tangent(*args, **kwargs):
        tangents.append(1)
        return orig_tangent(*args, **kwargs)

    def counting_cont(state, nsteps=None):
        lu0, t0, r0 = len(lus), len(tangents), len(state.branch)
        n0 = state.ops.cache.factor_count
        out = orig_cont(state, nsteps)
        special = any(r.ptype == 1 for r in state.branch[r0:])
        steps.append((len(lus) - lu0, state.ops.cache.factor_count - n0,
                      len(tangents) - t0, special, state.sol.iter))
        return out
    monkeypatch.setattr(linsolve.FactorCache, "factorize", counting_factorize)
    monkeypatch.setattr(continuation, "tangent_and_index", counting_tangent)
    monkeypatch.setattr(continuation, "cont", counting_cont)
    blss = _count_blss(monkeypatch)
    findbif(st, 1)
    assert [r.ptype for r in st.branch].count(1) == 1
    plain = [s for s in steps if not s[3]]
    assert len(plain) >= 3
    # the trivial branch needs no Newton step: its one LU is the tangent's
    # and gives the stability index as well
    assert all(s[-1] == 0 for s in steps)
    assert all(s[:3] == (1, 1, 1) for s in plain)
    # a bisection midpoint also costs one LU
    assert len(lus) == len(tangents) > len(steps)
    assert blss == []


def test_newton_and_tangent_reuse_the_residual(monkeypatch):
    st = demos.make("bratu", {"nx": 8, "ny": 8})
    st.sol.ds = 0.05
    continuation.cont(st, 1)
    calls, iters = [], []
    residual, nloopext = problem.residual, continuation.nloopext

    def counting(state, U=None):
        calls.append(1)
        return residual(state, U)

    def corrector(*args, **kwargs):
        out = nloopext(*args, **kwargs)
        iters.append(out["iter"])
        return out
    monkeypatch.setattr(problem, "residual", counting)
    monkeypatch.setattr(continuation, "nloopext", corrector)
    st.switches.para = 2
    continuation.cont(st, 1)
    assert len(iters) == 1 and iters[0] >= 2
    # Newton: one residual at the start and after each update, plus the
    # lambda column of each Jacobian; the tangent: only its lambda column
    assert len(calls) == 1 + 2 * iters[0] + 1
