import numpy as np
import pytest
import scipy.sparse as sp

from pdecont import demos, fem, linsolve, problem, spcont
from pdecont.continuation import cont, nloop
from pdecont.spcont import (SpcontError, spcontexit, spcontini, spjac_check,
                            split)


@pytest.fixture(scope="module")
def fold_state(tmp_path_factory):
    """bratu continued through its fold; returns the saved fold point."""
    from pdecont import io
    out = str(tmp_path_factory.mktemp("bratu"))
    st = demos.make("bratu")
    st.switches.foldcheck = 1
    st.sol.ds = 0.05
    st.file.dir = out
    cont(st, 25)
    return io.load_point(out, "fpt1")


def test_spcontini_requires_near_zero_eigenvalue():
    st = demos.make("bratu")       # regular point on the trivial branch
    with pytest.raises(SpcontError):
        spcontini(st, 2)


def test_spcontini_parameter_validation(fold_state):
    import copy
    st = copy.deepcopy(fold_state)
    with pytest.raises(SpcontError):
        spcontini(st, 99)


def test_spcontini_rejects_the_primary_as_extra_parameter():
    st = demos.make("bratu", {"nx": 8, "ny": 8})
    u0, ilam0, nq0 = np.array(st.u), list(st.ilam), st.nq
    with pytest.raises(SpcontError):
        spcontini(st, st.ilam[0], kerneltol=np.inf)
    assert np.array_equal(st.u, u0)
    assert st.ilam == ilam0 and st.nq == nq0
    assert st.switches.spcont == 0


def test_spcontini_layout_and_normalization(fold_state):
    import copy
    st = copy.deepcopy(fold_state)
    nb, naux = st.nu, st.naux
    u0, pars0 = np.array(st.u[:nb]), np.array(st.u[nb:])
    spcontini(st, 2)
    assert st.mode == "spcont"
    assert st.nu == 2 * nb and st.naux == naux
    assert st.nq == 1
    assert st.ilam == [2, 1]
    u, phi, w = split(st, st.u)
    assert np.array_equal(u, u0) and np.array_equal(w, pars0)
    assert abs(phi @ (st.ops.M @ phi) - 1.0) <= 1e-10
    # entering twice is rejected
    with pytest.raises(SpcontError):
        spcontini(st, 2)


def test_extended_residual_structure(fold_state):
    import copy
    st = copy.deepcopy(fold_state)
    spcontini(st, 2)
    nb = st.spdata["nu_base"]
    r = problem.residual(st)
    assert len(r) == 2 * nb + 1
    # at the located fold all three blocks are nearly satisfied
    assert np.abs(r[:nb]).max() <= 1e-8           # G(u, w) = 0
    assert np.abs(r[nb:2 * nb]).max() <= 1e-6     # Gu phi = 0
    assert abs(r[-1]) <= 1e-10                    # phi' M phi = 1
    # scaling phi scales the kernel block linearly, shifts the norm equation
    U2 = np.array(st.u)
    U2[nb:2 * nb] *= 2.0
    r2 = problem.residual(st, U2)
    assert np.allclose(r2[nb:2 * nb], 2.0 * r[nb:2 * nb], atol=1e-12)
    assert abs(r2[-1] - 3.0) <= 1e-9              # 4*1 - 1


def test_extended_jacobian_blocks(fold_state):
    import copy
    st = copy.deepcopy(fold_state)
    spcontini(st, 2)
    nb = st.spdata["nu_base"]
    J = problem.pde_jacobian_u(st, st.u).toarray()
    with spcont.base_view(st):
        Gu = problem.pde_jacobian_u(st, spcont.base_vector(st, st.u)).toarray()
    # diagonal blocks are the base Jacobian; phi does not feed the first row
    assert np.allclose(J[:nb, :nb], Gu, atol=1e-12)
    assert np.allclose(J[nb:, nb:], Gu, atol=1e-12)
    assert np.abs(J[:nb, nb:]).max() == 0.0
    # auxiliary row: d(phi' M phi - 1)/dU = (0, 2 M phi)
    row = problem.aux_jacobian_u(st, st.u).toarray().ravel()
    _, phi, _ = split(st, st.u)
    assert np.allclose(row[nb:], 2.0 * (st.ops.M @ phi), atol=1e-12)
    assert np.abs(row[:nb]).max() == 0.0


def test_analytic_second_block_matches_fd(fold_state):
    import copy
    st = copy.deepcopy(fold_state)
    spcontini(st, 2)
    U = st.u
    J_an = problem.pde_jacobian_u(st, U)
    spjac = st.switches.spjac
    try:
        st.switches.spjac = 0
        J_fd = problem.pde_jacobian_u(st, U)
    finally:
        st.switches.spjac = spjac
    assert abs(J_an - J_fd).max() <= 1e-5 * max(1.0, abs(J_an).max())


SEMILINEAR_DEMOS = ["acfold", "schnak", "bratu", "acfront"]


# u gets seed-0 noise of standard deviation scale, as demos.perturb adds.
# At the default states (scale 0) acfold and bratu have a second block of
# exactly 0, so the check proves something there only when perturbed.
# schnak's Gu has entries up to 342: at scale 0.1 a column-by-column
# difference of Gu phi read 1.04e-5 on a correct declaration
@pytest.mark.parametrize("demo, scale", [
    *(pytest.param(d, 0.0, id=d) for d in SEMILINEAR_DEMOS),
    *(pytest.param(d, demos.PERTURB_SCALE, id=f"{d}-perturb")
      for d in SEMILINEAR_DEMOS),
    pytest.param("schnak", 0.1, id="schnak-noise0.1")])
def test_spjac_check_all_providers(demo, scale):
    st = demos.make(demo)
    st.u = st.u + scale * np.random.default_rng(0).standard_normal(len(st.u))
    assert spjac_check(st) <= 1e-5


@pytest.mark.parametrize("demo", ["schnak", "acfront"])
def test_spjac_check_sees_a_scaled_fuu(demo, monkeypatch):
    st = demos.perturb(demos.make(demo))
    sl = st.callbacks.semilinear
    fuu = sl.fuu
    monkeypatch.setattr(sl, "fuu", lambda u, p, w: 1.1 * fuu(u, p, w))
    assert spjac_check(st) > 1e-5


def test_fd_second_block_assembles_one_jacobian(monkeypatch):
    st = demos.perturb(demos.make("acfold", {"nx": 10, "ny": 9}))
    nb = st.nu
    u, w = st.u[:nb], st.u[nb:]
    phi = np.random.default_rng(1).standard_normal(nb)
    Gu = problem.pde_jacobian_u(st, st.u)
    calls = []
    jac = problem.pde_jacobian_u

    def counted(state, U):
        calls.append(1)
        return jac(state, U)
    monkeypatch.setattr(problem, "pde_jacobian_u", counted)
    spcont._fd_second_block(st, np.concatenate([u, phi, w]), Gu)
    assert len(calls) == 1


@pytest.mark.parametrize("demo, config", [("acfold", {"nx": 10, "ny": 9}),
                                          ("bratu", {"nx": 8, "ny": 8})])
def test_derivative_checks_see_the_nonlinearity(demo, config):
    # at the demo defaults (u = 0; bratu also lambda = 0) the second block
    # is zero and the u-Jacobian linear; at a perturbed state neither is.
    # The noise is larger than demos.perturb's, so that the injected errors
    # below stand clear of the checks' 1e-5 bound
    st = demos.make(demo, config)
    st.u = st.u + 0.1 * np.random.default_rng(6).standard_normal(len(st.u))
    nb = st.nu
    phi = st.ops.M @ np.ones(nb)
    S = problem.semilinear_second_block(st, st.u[:nb], phi, st.u[nb:])
    assert abs(S).max() > 1e-3 * abs(st.ops.M).max()
    assert spjac_check(st) <= 1e-5
    assert fem.jaccheck(st)["maxdiff"] <= 1e-5
    # an error that vanishes at u = 0 shows in both checks
    sl = st.callbacks.semilinear
    fu, fuu = sl.fu, sl.fuu
    sl.fu = lambda u, w: fu(u, w) + u**2
    assert fem.jaccheck(st)["maxdiff"] > 1e-5
    sl.fu, sl.fuu = fu, lambda u, p, w: fuu(u, p, w) + u * p
    assert spjac_check(st) > 1e-5


def test_fold_curve_continuation_keeps_invariants(fold_state):
    import copy
    st = copy.deepcopy(fold_state)
    st.file.dir = ""
    spcontini(st, 2)
    st.sol.ds = 0.02
    st.switches.bifcheck = 0
    cont(st, 5)
    nb = st.spdata["nu_base"]
    _, phi, _ = split(st, st.u)
    assert abs(phi @ (st.ops.M @ phi) - 1.0) <= 1e-8
    # each accepted point is a fold of the base problem: near-zero eigenvalue
    Gu, M = spcont.base_pde_block(st, st.u)
    spec = linsolve.spectrum_near_zero(Gu, M, st.controls.neig)
    scale = max(1.0, abs(Gu).max())
    assert abs(spec["eigenvalues"][0]) <= 1e-6 * scale
    # the second freed parameter actually moved
    assert abs(st.getaux(2) - fold_state.getaux(2)) > 1e-4


def test_spcontexit_roundtrip(fold_state):
    import copy
    st = copy.deepcopy(fold_state)
    u0, pars0 = np.array(st.u[:st.nu]), np.array(st.u[st.nu:])
    spcontini(st, 2)
    spcontexit(st)
    assert st.mode == "normal"
    assert st.nq == 0 and st.spdata is None
    assert st.ilam == [1]
    assert np.array_equal(st.u[:st.nu], u0)
    assert np.array_equal(st.u[st.nu:], pars0)
    # the restored point reconverges immediately under plain Newton
    res = nloop(st, st.u)
    assert res["converged"] and res["iter"] <= 1
    with pytest.raises(SpcontError):
        spcontexit(st)


def test_spcontini_rejects_auxiliary_equations():
    st = demos.schnak_travel_setup(demos.make("schnaktravel"))
    with pytest.raises(SpcontError):
        spcontini(st, 1)
