"""The stability index from a symmetric-mode LU (Sylvester's law of inertia)
against eigenvalue counts, and the shift-invert kernels of swibra and
spcontini against dense eigensolves."""

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from pdecont import continuation, demos, fem, io, linsolve, problem, spcont
from pdecont.mesh import build_rect_mesh
from pdecont.switching import findbif, swibra


def _eigen_count(Gu, M):
    """Negative eigenvalues of the dense symmetric pencil (Gu, M)."""
    mu = la.eigh(Gu.toarray(), M.toarray(), eigvals_only=True)
    return int(np.sum(mu < 0))


def _count_fallbacks(monkeypatch):
    calls = []
    orig = linsolve.spectrum_near_zero

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)
    monkeypatch.setattr(linsolve, "spectrum_near_zero", counting)
    return calls


# -- acfold 20x18: findbif(2), then the switched branch through its fold -----

@pytest.fixture(scope="module")
def acfold_run(tmp_path_factory):
    """Every stability index the runs compute, beside the count of negative
    eigenvalues of the dense symmetric pencil at the same point."""
    out = str(tmp_path_factory.mktemp("acfold"))
    seen = []
    orig = linsolve.stability_index
    orig_tangent = continuation.unit_tangent

    def checked(Gu, M, neig=50):
        got = orig(Gu, M, neig)
        seen.append((got, _eigen_count(Gu, M)))
        return got

    # every point, a run's first included, takes its index from the
    # tangent's factorization
    def checked_tangent(state, U, border, f0=None, index=False):
        out = orig_tangent(state, U, border, f0, index)
        if index:
            Gu = problem.pde_jacobian_u(state, U)
            seen.append((out[1], _eigen_count(Gu, state.ops.M)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linsolve, "stability_index", checked)
        mp.setattr(continuation, "unit_tangent", checked_tangent)
        st = demos.make("acfold", {"nx": 20, "ny": 18})
        st.usrlam = []
        st.file.dir = out
        findbif(st, 2)
        trivial = list(st.branch)
        st = io.load_point(out, "bpt1")
        st.file.dir = out1 = str(tmp_path_factory.mktemp("branch1"))
        swibra(st, 0.1)
        st.switches.foldcheck = 1
        for _ in range(20):
            continuation.cont(st, 1)
            if st.file.fcount:
                break
    return {"out": out, "out1": out1, "seen": seen, "trivial": trivial,
            "switched": list(st.branch)}


def test_stability_index_is_the_eigen_count_along_acfold(acfold_run):
    seen = acfold_run["seen"]
    trivial, switched = acfold_run["trivial"], acfold_run["switched"]
    assert sum(r.ptype == 1 for r in trivial) == 2
    # the subcritical branch turns back well below the bifurcation point
    folds = [r.pars[0] for r in switched if r.ptype == 2]
    assert folds and folds[0] < switched[0].pars[0] - 0.1
    # every recorded point and every bisection midpoint went through it
    assert len(seen) > len(trivial) + len(switched)
    assert [got for got, _ in seen] == [want for _, want in seen]
    assert max(want for _, want in seen) >= 2


@pytest.mark.parametrize("lam_part", [1e-30, 0.0, -1e-30])
def test_fold_check_needs_a_lambda_component(acfold_run, lam_part):
    # at the pitchfork the switched direction has no lambda component; its
    # rounding-level sign says nothing about a fold in the first step
    st = io.load_point(acfold_run["out"], "bpt1")
    st.file.dir = ""
    swibra(st, 0.1)
    st.tau[-1] = lam_part
    st.switches.foldcheck = 1
    continuation.cont(st, 1)
    assert [r.ptype for r in st.branch] == [-2, 0]


def _dense_kernel(A, B=None):
    """Eigenvector of the smallest-magnitude eigenvalue of A v = mu B v."""
    mu, V = la.eig(A.toarray(), None if B is None else B.toarray())
    return np.real(V[:, np.argmin(np.abs(mu))])


def _close_up_to_sign(a, b, tol):
    return min(np.abs(a - b).max(), np.abs(a + b).max()) <= tol


def test_swibra_direction_matches_dense_kernel(acfold_run):
    st = io.load_point(acfold_run["out"], "bpt1")
    tau_old = np.array(st.tau)
    problem.init_weights(st)
    w = problem.weights_vector(st)
    B = linsolve.bordered(problem.jacobian_active(st, st.u), w * tau_old)
    z = _dense_kernel(B)
    z = z - problem.weighted_dot(st, z, tau_old) * tau_old
    z /= np.sqrt(problem.weighted_dot(st, z, z))
    swibra(st, 0.1)
    assert st.nu == 399
    assert _close_up_to_sign(st.tau, z, 1e-6)


def test_spcontini_kernel_matches_dense_kernel(acfold_run):
    st = io.load_point(acfold_run["out1"], "fpt1")
    Gu = problem.pde_jacobian_u(st, st.u)
    phi = _dense_kernel(Gu, st.ops.M)
    phi /= np.sqrt(phi @ (st.ops.M @ phi))
    spcont.spcontini(st, 3)
    _, got, _ = spcont.split(st, st.u)
    assert _close_up_to_sign(got, phi, 1e-6)


# -- one index path: the tangent's Jacobian, in every mode -------------------

# (ptype, ineg) of every record of the runs below: the index sees the same
# Gu whether it is assembled on its own or sliced from the Jacobian
RECORDS = {
    "switched": [(-2, 1), (0, 1), (0, 1), (0, 1), (0, 1), (2, 0), (0, 0)],
    "fold curve": [(-1, 0)] + [(0, 0)] * 8,
    "schnak": [(-1, 0)] + [(0, 0)] * 7 + [(1, 1), (0, 1)],
    "schnaktravel": [(-1, 0)] + [(0, 0)] * 5,
}


def _count_lone_gu(monkeypatch):
    """Calls of problem.pde_jacobian_u outside a residual or a Jacobian, in
    a one-entry list."""
    depth, lone = [0], [0]

    def nested(f):
        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                return f(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapped
    gu = problem.pde_jacobian_u

    def counting(*args, **kwargs):
        if depth[0] == 0:
            lone[0] += 1
        return gu(*args, **kwargs)
    monkeypatch.setattr(problem, "residual", nested(problem.residual))
    monkeypatch.setattr(problem, "jacobian_active",
                        nested(problem.jacobian_active))
    monkeypatch.setattr(problem, "pde_jacobian_u", counting)
    return lone


def _steps(st, n, lone):
    """n cont steps; the lone Gu assemblies of each accepted one."""
    per_step = []
    for _ in range(n):
        n0, steps0 = lone[0], st.total_steps
        continuation.cont(st, 1)
        if st.total_steps > steps0:
            per_step.append(lone[0] - n0)
    return per_step


def test_switched_branch_keeps_its_records(acfold_run):
    assert [(r.ptype, r.ineg) for r in acfold_run["switched"]] \
        == RECORDS["switched"]


def test_every_lu_of_the_fold_curve_is_counted(acfold_run, monkeypatch):
    # the fold curve's index LU (stability_index of the leading block) and
    # any blss fallback count in the state's cache like the tangent's LU
    st = io.load_point(acfold_run["out1"], "fpt1")
    st.file.dir = ""
    spcont.spcontini(st, 3)
    st.sol.ds = 0.05
    st.switches.bifcheck = 0
    lus = []
    factorize = linsolve.FactorCache.factorize

    def counting(self, A, **options):
        lus.append(1)
        return factorize(self, A, **options)
    monkeypatch.setattr(linsolve.FactorCache, "factorize", counting)
    before = st.ops.cache.factor_count
    continuation.cont(st, 8)
    assert len(lus) > 8
    assert st.ops.cache.factor_count - before == len(lus)


def test_fold_curve_jacobian_matches_sparse_products(acfold_run):
    # [[Gu, 0], [S, Gu]] written into the fold block's layout, and the
    # Jacobian stacked from it, against sparse sums and products
    st = io.load_point(acfold_run["out1"], "fpt1")
    spcont.spcontini(st, 3)
    problem.init_weights(st)
    U, ops, sl = st.u, st.ops, st.callbacks.semilinear
    u, phi, w = spcont.split(st, U)
    ut, pt = ops.Ctri @ u, ops.Ctri @ phi
    Gu = (sl.scale(w) * ops.K + ops.Q
          - ops.Fload @ sp.diags(sl.fu(ut, w)) @ ops.Ctri)
    S = -ops.Fload @ sp.diags(sl.fuu(ut, pt, w)) @ ops.Ctri
    ext = sp.bmat([[Gu, None], [S, Gu]])
    W = problem.fd_columns(lambda V: problem.residual(st, V), U,
                           problem.active_slots(st), st.controls.del_)
    J = sp.hstack([sp.vstack([ext, problem.aux_jacobian_u(st, U)]), W])
    for got, want in ((problem.pde_jacobian_u(st, U), ext),
                      (problem.jacobian_active(st, U), J)):
        fresh = sp.csc_matrix((got.data, got.indices, got.indptr))
        assert fresh.has_canonical_format and got.shape == want.shape
        assert abs(got - want).max() <= 1e-13 * abs(want).max()


# -- a fold is not also a branch point ----------------------------------------

def _special(branch):
    return [(r.ptype, r.ineg, r.pars[0]) for r in branch if r.ptype > 0]


def test_a_fold_is_not_also_reported_as_a_branch_point(acfold_run):
    # at a fold ineg changes by 1 and tau's lambda component changes sign;
    # the bordered determinant keeps its sign there (Keller 1977), so the
    # step is a fold alone, with the fold check on or off
    (ptype, ineg, lam), = _special(acfold_run["switched"])
    assert (ptype, ineg) == (2, 0) and abs(lam - 1.1897531771895147) < 1e-9
    for foldcheck in (1, 0):
        st = demos.make("bratu", {"nx": 20, "ny": 20})
        st.switches.foldcheck = foldcheck
        continuation.cont(st, 25)
        got = _special(st.branch)
        # the fold, if checked, then the genuine branch point, ineg 1 -> 2
        want = [(2, 1), (1, 2)] if foldcheck else [(1, 2)]
        assert [p[:2] for p in got] == want
        assert abs(got[-1][2] - 0.36619133057887165) < 1e-9
        if foldcheck:
            assert abs(got[0][2] - np.exp(-1.0)) < 1e-9


def test_fold_curve_index_is_the_eigen_count(acfold_run, monkeypatch):
    # the index of fold continuation comes from the leading block of the
    # extended Jacobian, with no Gu assembled on its own
    st = io.load_point(acfold_run["out1"], "fpt1")
    st.file.dir = ""
    spcont.spcontini(st, 3)
    st.sol.ds = 0.05
    st.switches.bifcheck = 0
    seen = []
    orig = continuation.unit_tangent

    def keeping(state, U, border, f0=None, index=False):
        out = orig(state, U, border, f0, index)
        if index:
            seen.append((out[1], np.array(U)))
        return out
    monkeypatch.setattr(continuation, "unit_tangent", keeping)
    lone = _count_lone_gu(monkeypatch)
    assert _steps(st, 8, lone) == [0] * 8
    assert [(r.ptype, r.ineg) for r in st.branch] == RECORDS["fold curve"]
    assert len(seen) == 9
    for got, U in seen:
        assert got == _eigen_count(*spcont.base_pde_block(st, U))


def test_schnaktravel_index_needs_no_lone_gu(monkeypatch):
    # nq = 1: the square block is not Gu, and the index is taken from the
    # Jacobian's leading block
    st = demos.make("schnaktravel")
    lone = _count_lone_gu(monkeypatch)
    assert _steps(st, 5, lone) == [0] * 5
    assert [(r.ptype, r.ineg) for r in st.branch] == RECORDS["schnaktravel"]


def test_schnak_findbif_keeps_its_records():
    st = demos.make("schnak")
    findbif(st, 1)
    assert [(r.ptype, r.ineg) for r in st.branch] == RECORDS["schnak"]


# -- the count itself ---------------------------------------------------------

def test_stability_index_is_exact_past_neig():
    # Dirichlet K - lam M on (0, pi)^2: the negative eigenvalues are the
    # discrete Laplace eigenvalues below lam (2, 5, 5, 8, 10, 10, ...)
    m = build_rect_mesh(np.pi / 2, np.pi / 2, 12, 12)
    K = fem.assemble_interior(m, fem.CoeffTensors(c=1.0))["K"]
    bops = fem.assemble_boundary(m, fem.dirichlet_bc(1), np.zeros(m.npoints),
                                 np.zeros(1))
    M = fem.assemble_mass(m)
    A = (K + bops["Q"] - 21.0 * M).tocsc()
    want = int(np.sum(la.eigh(A.toarray(), M.toarray(),
                              eigvals_only=True) < 0))
    assert want > 5
    assert linsolve.stability_index(A, M, neig=5) == want
    assert linsolve.spectrum_near_zero(A, M, neig=5)["ineg"] <= 5


@pytest.mark.parametrize("lam", [3.5, 3.0])
def test_stability_index_nonsymmetric_uses_the_spectrum(monkeypatch, lam):
    # schnak's homogeneous state: stable at lam = 3.5, Turing-unstable at 3
    st = demos.make("schnak", {"lam": lam})
    Gu, M = problem.pde_jacobian_u(st, st.u), st.ops.M
    want = linsolve.spectrum_near_zero(Gu, M, st.controls.neig)["ineg"]
    calls = _count_fallbacks(monkeypatch)
    assert linsolve.stability_index(Gu, M, st.controls.neig) == want
    assert calls == [1]
    assert (want > 0) == (lam < 3.2085)


@pytest.mark.parametrize("case", ["zero column", "zero diagonal"])
def test_stability_index_falls_back_instead_of_raising(monkeypatch, case):
    d = np.array([1.0, -2.0, 3.0, -4.0, 5.0, 6.0])
    if case == "zero column":                 # exactly singular
        d[2] = 0.0
        A = sp.diags(d, format="csc")
    else:                                     # needs an off-diagonal pivot
        d[:2] = 0.0
        A = sp.lil_matrix(np.diag(d))
        A[0, 1] = A[1, 0] = 1.0
        A = A.tocsc()
    M = sp.identity(6, format="csc")
    want = linsolve.spectrum_near_zero(A, M, neig=4)["ineg"]
    calls = _count_fallbacks(monkeypatch)
    assert linsolve.stability_index(A, M, neig=4) == want
    assert calls == [1]
