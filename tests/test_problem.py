import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from pdecont import demos, problem


@pytest.fixture(scope="module")
def acfold():
    return demos.make("acfold", {"nx": 14, "ny": 12})


@pytest.fixture(scope="module")
def schnak():
    return demos.make("schnak")


def _perturbed(state, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    U = np.array(state.u)
    U[:state.nu] += scale * rng.standard_normal(state.nu)
    return U


def test_residual_length_check(acfold):
    with pytest.raises(problem.ProblemError):
        problem.residual(acfold, np.zeros(3))


# config and nonzero advection / coupling parameters per semilinear demo
PATH_CASES = {
    "acfold": ({"nx": 14, "ny": 12}, {}),
    "schnak": ({}, {"s": 0.3, "sigma": 0.2}),
    "bratu": ({}, {"lambda": 0.2}),
    "acfront": ({}, {"s": 0.4, "mu": 0.7}),
}


@pytest.mark.parametrize("name", list(PATH_CASES))
def test_assembled_and_tensor_paths_agree(name):
    # the residual/Jacobian on the cached operators and the coefficient-
    # tensor path, both derived from the one semilinear declaration, must
    # agree to roundoff, not just to discretization accuracy
    cfg, pars = PATH_CASES[name]
    state = demos.make(name, cfg)
    for key, val in pars.items():
        state.setaux(key, val)
    U = _perturbed(state, 0)
    r1 = problem.pde_residual(state, U)
    J1 = problem.pde_jacobian_u(state, U)
    r2 = problem.tensor_residual(state, U)
    J2 = problem.tensor_jacobian_u(state, U)
    scale = max(1.0, np.abs(r1).max())
    assert np.abs(r1 - r2).max() <= 1e-10 * scale
    assert abs(J1 - J2).max() <= 1e-10 * max(1.0, abs(J1).max())


@pytest.mark.parametrize("name", ["acfold", "schnak", "bratu", "acfront"])
def test_jacobian_matches_directional_derivative(name):
    state = demos.make(name) if name != "acfold" else demos.make(
        name, {"nx": 14, "ny": 12})
    U = _perturbed(state, 1)
    J = problem.pde_jacobian_u(state, U)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(state.nu)
    h = 1e-6
    Up, Um = np.array(U), np.array(U)
    Up[:state.nu] += h * v
    Um[:state.nu] -= h * v
    fd = (problem.pde_residual(state, Up) -
          problem.pde_residual(state, Um)) / (2 * h)
    scale = max(1.0, np.abs(fd).max())
    assert np.abs(J @ v - fd).max() <= 1e-6 * scale


def test_fd_jacobian_fallback(acfold):
    U = _perturbed(acfold, 3, scale=0.01)
    J = problem.pde_jacobian_u(acfold, U)
    jac = acfold.switches.jac
    try:
        acfold.switches.jac = 0
        Jfd = problem.pde_jacobian_u(acfold, U)
    finally:
        acfold.switches.jac = jac
    assert abs(J - Jfd).max() <= 1e-4 * max(1.0, abs(J).max())


def test_aux_jacobian_fd_matches_callback(schnak):
    state = demos.schnak_travel_setup(demos.make("schnaktravel"))
    U = _perturbed(state, 4, scale=0.01)
    Qu = problem.aux_jacobian_u(state, U).toarray()
    qjac = state.switches.qjac
    try:
        state.switches.qjac = 0
        Qfd = problem.aux_jacobian_u(state, U).toarray()
    finally:
        state.switches.qjac = qjac
    assert np.abs(Qu - Qfd).max() <= 1e-5 * max(1.0, np.abs(Qu).max())


def test_jacobian_active_shape_and_param_column(acfold):
    J = problem.jacobian_active(acfold)
    assert J.shape == (acfold.nu + acfold.nq, acfold.nu + acfold.nq + 1)
    # last column approximates dG/dlam = -u at the linear level for this
    # nonlinearity evaluated at u=0 ... just check it is a forward difference
    delta = acfold.controls.del_
    Up = np.array(acfold.u)
    Up[acfold.nu + acfold.ilam[0] - 1] += delta
    fd = (problem.residual(acfold, Up) - problem.residual(acfold)) / delta
    assert np.allclose(J.toarray()[:, -1], fd, atol=1e-12)


def test_switches_and_controls_reject_unknown_names(acfold):
    # a removed or misspelt setting must fail loudly, not be ignored
    with pytest.raises(AttributeError):
        acfold.switches.sfem = 0
    with pytest.raises(AttributeError):
        acfold.controls.dsmaxx = 0.5


def test_getaux_setaux_and_primary(acfold):
    lam0 = acfold.primary_value
    assert acfold.getaux("lambda") == lam0
    acfold.setaux("lambda", lam0 + 0.5)
    assert acfold.primary_value == lam0 + 0.5
    acfold.setaux(1, lam0)
    assert acfold.primary_value == lam0
    with pytest.raises(ValueError):
        acfold.getaux("nope")


def test_swipar_validation_and_tangent_reset(acfold):
    acfold.tau = np.zeros(acfold.nu + acfold.nq + 1)
    problem.swipar(acfold, [2, 1])
    assert acfold.ilam == [2, 1]
    assert acfold.tau is None
    with pytest.raises(problem.ProblemError):
        problem.swipar(acfold, [0])
    with pytest.raises(problem.ProblemError):
        problem.swipar(acfold, [1, 1])
    problem.swipar(acfold, [1])


def test_swipar_keeps_residual(acfold):
    r0 = problem.residual(acfold)
    problem.swipar(acfold, [2])
    r1 = problem.residual(acfold)
    problem.swipar(acfold, [1])
    assert np.array_equal(r0, r1)


def test_init_weights_defaults(acfold):
    acfold.controls.xi = None
    acfold.controls.xiq = None
    problem.init_weights(acfold)
    assert acfold.sol.xi == 1.0 / acfold.nu
    assert acfold.sol.xiq == 0.0
    w = problem.weights_vector(acfold)
    assert w[-1] == 1.0 - acfold.sol.xi / 2.0


def test_weighted_dot_formula(schnak):
    problem.init_weights(schnak)
    n = schnak.nu + schnak.nq + 1
    a = np.arange(1.0, n + 1.0)
    b = np.ones(n)
    xi = schnak.sol.xi
    want = xi * a[:schnak.nu].sum() + (1 - xi / 2.0) * a[-1]
    assert np.isclose(problem.weighted_dot(schnak, a, b), want, rtol=1e-13)
    with pytest.raises(problem.ProblemError):
        problem.weighted_dot(schnak, a[:-1], b[:-1])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), c=st.floats(-5, 5))
def test_weighted_dot_bilinear_symmetric(seed, c):
    state = demos.make("bratu", {"nx": 4, "ny": 4})
    problem.init_weights(state)
    n = state.nu + state.nq + 1
    rng = np.random.default_rng(seed)
    a, b, d = rng.standard_normal((3, n))
    dot = lambda x, y: problem.weighted_dot(state, x, y)
    assert np.isclose(dot(a, b), dot(b, a), rtol=1e-12, atol=1e-12)
    assert np.isclose(dot(c * a + d, b), c * dot(a, b) + dot(d, b),
                      rtol=1e-9, atol=1e-9)
    assert dot(a, a) > 0 or np.allclose(a, 0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_pack_apply_roundtrip(seed):
    state = demos.schnak_travel_setup(demos.make("schnaktravel"))
    rng = np.random.default_rng(seed)
    U = np.array(state.u) + rng.standard_normal(len(state.u))
    y = problem.pack_active(state, U)
    assert len(y) == state.nu + state.nq + 1
    assert np.array_equal(problem.apply_active(state, U, y), U)
    y2 = rng.standard_normal(len(y))
    U2 = problem.apply_active(state, U, y2)
    assert np.array_equal(problem.pack_active(state, U2), y2)
    # passive parameters are untouched
    passive = [i for i in range(state.naux)
               if (i + 1) not in state.ilam]
    for i in passive:
        assert U2[state.nu + i] == U[state.nu + i]


def test_periodic_reduction_consistency():
    # reduced residual of the cylinder equals the identified full residual
    state = demos.make("schnaktravel")
    per = state.ops.per
    assert state.nu == per.nu_per
    r = problem.residual(state)
    assert np.all(np.isfinite(r))
    # the homogeneous state is an equilibrium on the torus/cylinder as well
    assert np.abs(r).max() <= 1e-8


@pytest.mark.parametrize("demo", ["acfold", "bratu", "acfront",
                                  "schnaktravel"])
def test_jacobians_are_canonical_csc(demo):
    # the caller's Jacobian is what gets factorized; splu would sort a
    # non-canonical one in place
    st = demos.make(demo)
    problem.init_weights(st)
    for J in (problem.pde_jacobian_u(st, st.u),
              problem.jacobian_active(st, st.u)):
        assert J.format == "csc" and J.has_canonical_format


@pytest.mark.parametrize("demo", ["acfold", "schnak", "schnaktravel",
                                  "bratu", "nlbc", "acfront"])
def test_jacobian_active_takes_the_residual_it_is_given(demo, monkeypatch):
    # f0 only saves the residual at U that the parameter columns start from
    st = demos.perturb(demos.make(demo), seed=4)
    if demo == "acfront":
        demos.acfront_freeze(st)
    U = st.u
    f0 = problem.residual(st, U)
    calls = []
    residual = problem.residual

    def counting(state, V=None):
        calls.append(1)
        return residual(state, V)
    monkeypatch.setattr(problem, "residual", counting)
    want = problem.jacobian_active(st, U)
    assert len(calls) == len(st.ilam) + 1
    got = problem.jacobian_active(st, U, f0=f0)
    assert len(calls) == 2 * len(st.ilam) + 1
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))


# -- Jacobians as data on the reduced pattern ----------------------------------

def _tri_diag(fu, neq):
    """Per-triangle (nt, N, N) multipliers as a sparse map on component-
    blocked triangle values."""
    fu = np.reshape(fu, (-1, neq, neq))
    return sp.bmat([[sp.diags(fu[:, r, s]) for s in range(neq)]
                    for r in range(neq)], format="csc")


def _reference_gu(st, U):
    """d K - bx Kdx - by Kdy + Q - Fload diag(fu) Ctri by sparse products."""
    sl, ops, neq = st.callbacks.semilinear, st.ops, st.neq
    u, w = U[:st.nu], U[st.nu:]
    ut = (ops.Ctri @ u).reshape(neq, -1)
    fu = sl.fu(ut[0] if neq == 1 else ut, w)
    bx, by = sl.advection(w)
    return (sl.scale(w) * ops.K - bx * ops.Kdx - by * ops.Kdy + ops.Q
            - ops.Fload @ _tri_diag(fu, neq) @ ops.Ctri)


def _canonical(A):
    """CSC with sorted indices and no duplicates, as scipy finds it afresh
    (the flag of a matrix written into a layout is set, not found)."""
    return sp.csc_matrix((A.data, A.indices, A.indptr),
                         shape=A.shape).has_canonical_format


def _assert_jacobians(st, U):
    """Gu and jacobian_active against references by sparse sums and
    stacking, to 1e-13 relative."""
    Gu, J = problem.pde_jacobian_u(st, U), problem.jacobian_active(st, U)
    W = problem.fd_columns(lambda V: problem.residual(st, V), U,
                           problem.active_slots(st), st.controls.del_)
    ref = _reference_gu(st, U)
    Jref = sp.hstack([sp.vstack([ref, problem.aux_jacobian_u(st, U)]), W])
    for got, want in ((Gu, ref), (J, Jref)):
        assert got.shape == want.shape and _canonical(got)
        assert abs(got - want).max() <= 1e-13 * abs(want).max()


@pytest.mark.parametrize("demo,bcper", [
    ("acfold", None), ("bratu", None), ("acfront", None), ("schnak", 0),
    ("schnak", 1), ("schnak", 2), ("schnak", 3), ("schnaktravel", None)])
def test_pattern_jacobians_match_sparse_products(demo, bcper):
    cfg = None if bcper is None else {"bcper": bcper}
    st = demos.perturb(demos.make(demo, cfg), seed=3)
    if demo == "acfront":
        demos.acfront_freeze(st)
    _assert_jacobians(st, st.u)


def test_pattern_and_layout_are_cached_until_setfemops():
    st = demos.perturb(demos.make("schnak"), seed=3)
    problem.jacobian_active(st, st.u)
    key = (st.mode, st.nq, len(st.ilam))
    pattern, layout = st.ops.pattern, st.ops.layouts[key]
    problem.jacobian_active(st, st.u)
    assert st.ops.pattern is pattern and st.ops.layouts[key] is layout
    st.switches.bcper = 3
    problem.setfemops(st)
    assert st.ops.pattern is None and not st.ops.layouts
    _assert_jacobians(st, st.u)
    assert st.ops.pattern is not pattern
    assert st.ops.layouts[key] is not layout
    assert st.ops.layouts[key].shape == (st.nu, st.nu + 1)


def test_layout_is_rebuilt_for_a_new_block_pattern():
    # a finite-difference Gu or a vanishing fold block S changes a sparse
    # block's pattern between calls; the cached layout must not be reused
    st = demos.make("bratu", {"nx": 4, "ny": 4})
    rng = np.random.default_rng(0)
    layouts = []
    for density in (0.3, 0.6, 0.6):
        A = sp.random(6, 6, density=density, format="csc", random_state=rng)
        B = rng.standard_normal((6, 2))
        got = problem.blocks_matrix(st, "test", [[A, B], [None, B[:1]]])
        want = sp.bmat([[A, B], [None, B[:1]]], format="csc")
        assert _canonical(got) and abs(got - want).max() == 0.0
        layouts.append(st.ops.layouts["test"])
    assert layouts[0] is not layouts[1]


@pytest.mark.parametrize("demo", ["acfold", "schnak", "schnaktravel",
                                  "bratu", "acfront"])
def test_jacobian_times_needs_no_assembled_gu(monkeypatch, demo):
    st = demos.perturb(demos.make(demo), seed=5)
    phi = np.random.default_rng(3).standard_normal(st.nu)
    want = problem.pde_jacobian_u(st, st.u) @ phi

    def no_gu(*args):
        raise AssertionError("Gu assembled")
    monkeypatch.setattr(problem, "_semilinear_jacobian_u", no_gu)
    got = problem.jacobian_u_times(st, st.u, phi)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("demo, jac", [("nlbc", 1), ("bratu", 0)])
def test_jacobian_times_keeps_the_assembled_gu(demo, jac):
    # an undeclared problem, and numeric Jacobians, multiply the matrix
    st = demos.perturb(demos.make(demo, {"nx": 8, "ny": 8}), seed=5)
    st.switches.jac = jac
    phi = np.random.default_rng(3).standard_normal(st.nu)
    want = problem.pde_jacobian_u(st, st.u) @ phi
    assert np.array_equal(problem.jacobian_u_times(st, st.u, phi), want)
