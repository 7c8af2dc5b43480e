import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from pdecont import fem, periodic
from pdecont.mesh import build_rect_mesh


def test_chain_following_identification():
    # torus corner: node 3 -> 2 -> 0 must resolve to representative 0
    fill, drop = periodic.build_fill_drop(4, {3: 2, 2: 0})
    assert fill.shape == (4, 2) and drop.shape == (2, 4)
    F = fill.toarray()
    assert np.array_equal(F, [[1, 0], [0, 1], [1, 0], [1, 0]])
    assert np.array_equal((drop @ fill).toarray(), np.eye(2))


def test_cyclic_identification_rejected():
    with pytest.raises(periodic.PeriodicityError):
        periodic.build_fill_drop(3, {0: 1, 1: 0})


@pytest.mark.parametrize("bcper,drop_count", [
    (periodic.BCPer.TOP_BOTTOM, "nx+1"),
    (periodic.BCPer.LEFT_RIGHT, "ny+1"),
    (periodic.BCPer.TORUS, "both"),
])
def test_reduced_node_counts(bcper, drop_count):
    nx, ny = 6, 4
    m = build_rect_mesh(1.0, 1.0, nx, ny)
    per = periodic.build_periodization(m, 1, bcper)
    n = (nx + 1) * (ny + 1)
    expect = {"nx+1": n - (nx + 1), "ny+1": n - (ny + 1),
              "both": n - (nx + 1) - (ny + 1) + 1}[drop_count]
    assert per.np_per == expect
    assert np.array_equal((per.drop @ per.fill).toarray(), np.eye(expect))
    # every full node maps to exactly one representative
    assert np.all(np.asarray(per.fill.sum(axis=1)).ravel() == 1.0)


def test_unknown_code_rejected():
    m = build_rect_mesh(1.0, 1.0, 3, 3)
    with pytest.raises(periodic.PeriodicityError):
        periodic.build_periodization(m, 1, 7)


def test_extended_vector_matches_on_identified_sides():
    nx, ny = 5, 4
    m = build_rect_mesh(1.0, 1.0, nx, ny)
    per = periodic.build_periodization(m, 1, periodic.BCPer.TORUS)
    rng = np.random.default_rng(0)
    u = periodic.extend_vector(rng.standard_normal(per.np_per), per)

    def nid(ix, iy):
        return iy * (nx + 1) + ix
    for ix in range(nx + 1):
        assert u[nid(ix, ny)] == u[nid(ix, 0)]
    for iy in range(ny + 1):
        assert u[nid(nx, iy)] == u[nid(0, iy)]


def test_periodized_operators_keep_invariants():
    m = build_rect_mesh(1.0, 0.7, 8, 6)
    per = periodic.build_periodization(m, 1, periodic.BCPer.TOP_BOTTOM)
    K = fem.assemble_interior(m, fem.CoeffTensors(c=1.0))["K"]
    M = fem.assemble_mass(m)
    Kp = periodic.periodize_operator(K, per)
    Mp = periodic.periodize_operator(M, per)
    # constants stay in the kernel of the periodized stiffness
    assert np.allclose(Kp @ np.ones(per.np_per), 0.0, atol=1e-12)
    # total mass is preserved (the identified rows are merged, not duplicated)
    assert np.isclose(Mp.sum(), M.sum(), atol=1e-12)
    # y-harmonic on the cylinder: cos(pi*x) survives, symmetric operator
    assert abs(Kp - Kp.T).max() < 1e-13


def test_neq_block_structure():
    m = build_rect_mesh(1.0, 1.0, 4, 4)
    per = periodic.build_periodization(m, 2, periodic.BCPer.LEFT_RIGHT)
    assert per.nu_per == 2 * per.np_per
    f1 = per.fill[:m.npoints, :per.np_per]
    f2 = per.fill[m.npoints:, per.np_per:]
    assert abs(f1 - f2).max() == 0.0
    assert abs(per.fill[:m.npoints, per.np_per:]).max() == 0.0


def test_dimension_mismatch_errors():
    m = build_rect_mesh(1.0, 1.0, 4, 4)
    per = periodic.build_periodization(m, 1, periodic.BCPer.TOP_BOTTOM)
    with pytest.raises(periodic.PeriodicityError):
        periodic.periodize_operator(sp.identity(3), per)
    with pytest.raises(periodic.PeriodicityError):
        periodic.periodize_vector(np.zeros(3), per)
    with pytest.raises(periodic.PeriodicityError):
        periodic.extend_vector(np.zeros(3), per)


@settings(max_examples=15, deadline=None)
@given(nx=st.integers(2, 7), ny=st.integers(2, 7),
       bcper=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**31 - 1))
def test_drop_is_left_inverse_of_fill(nx, ny, bcper, seed):
    m = build_rect_mesh(1.0, 1.0, nx, ny)
    per = periodic.build_periodization(m, 1, bcper)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(per.np_per)
    assert np.array_equal(per.drop @ (per.fill @ v), v)


@pytest.mark.parametrize("bcper", [0, 1, 2, 3])
def test_maps_equal_the_fill_drop_products(bcper):
    m = build_rect_mesh(1.0, 0.9, 6, 5)
    per = periodic.build_periodization(m, 2, bcper)
    fill, drop = per.fill, per.drop
    K = fem.assemble_interior(m, fem.CoeffTensors(c=1.0), 2)["K"]
    Mtl = fem.load_operator(m, 2)
    for got, want in ((periodic.periodize_operator(K, per),
                       fill.T @ K @ fill),
                      (periodic.periodize_vector(Mtl, per), fill.T @ Mtl)):
        assert got.format == "csc"
        assert np.array_equal(got.toarray(), want.toarray())
    rng = np.random.default_rng(bcper)
    v, u = rng.standard_normal(fill.shape[0]), rng.standard_normal(per.nu_per)
    assert np.array_equal(periodic.periodize_vector(v, per), fill.T @ v)
    assert np.array_equal(periodic.extend_vector(u, per), fill @ u)
    assert np.array_equal(periodic.restrict_vector(v, per), drop @ v)


@pytest.mark.parametrize("name, config", [
    ("acfold", {"nx": 6, "ny": 5}),
    ("schnak", {"nx": 6, "ny": 5, "bcper": 0}),
    ("schnak", {"nx": 6, "ny": 5, "bcper": 1}),
    ("schnak", {"nx": 6, "ny": 5, "bcper": 3})])
def test_cached_operators_are_the_fill_drop_products(name, config):
    # the cached operators keep the products' values and pattern: a product
    # drops the exact zeros of the P1 stiffness, and without a periodization
    # setfemops drops them too
    from pdecont import demos
    st = demos.make(name, config)
    m, neq, ops = st.mesh, st.neq, st.ops
    fill = ops.per.fill
    K = fem.assemble_interior(m, fem.CoeffTensors(c=st.callbacks.semilinear.c),
                              neq)["K"]
    assert (K.data == 0).any()
    C = fem.interp_operator(m, neq)
    for got, want in ((ops.M, fill.T @ fem.assemble_mass(m, neq) @ fill),
                      (ops.K, fill.T @ K @ fill),
                      (ops.Fload, fill.T @ fem.load_operator(m, neq)),
                      (ops.Ctri, C @ fill)):
        assert got.nnz == want.nnz
        assert np.array_equal(got.toarray(), want.toarray())
    for A in (ops.M, ops.K, ops.Kdx, ops.Kdy, ops.Fload, ops.Ctri, ops.Q):
        assert A.format == "csc" and np.all(A.data != 0)


def test_setfemops_maps_a_reduced_u_to_a_new_periodization():
    # schnak bcper 1 -> 2 -> 0: the reduced u goes through the old
    # periodization's fill and the new one's drop, and the state evaluates
    # like one made with the new bcper
    from pdecont import demos, problem
    st = demos.make("schnak", {"bcper": 1})
    rng = np.random.default_rng(0)
    noise = 0.1 * rng.standard_normal(st.nu)
    st.u[:st.nu] += noise
    full = periodic.extend_vector(st.u[:st.nu], st.ops.per)
    for bcper in (2, 0):
        st.switches.bcper = bcper
        problem.setfemops(st)
        fresh = demos.make("schnak", {"bcper": bcper})
        assert st.nu == fresh.nu and len(st.u) == len(fresh.u)
        want = periodic.restrict_vector(full, fresh.ops.per)
        assert np.array_equal(st.u[:st.nu], want)
        fresh.u[:fresh.nu] = want
        assert np.array_equal(st.u, fresh.u)
        assert np.array_equal(problem.residual(st), problem.residual(fresh))
        full = periodic.extend_vector(want, fresh.ops.per)


def test_setfemops_maps_uold_and_tau_with_u():
    # schnaktravel bcper 1 -> 2: its phase condition reads uold, which
    # follows u into the new layout, so the residual is that of a state made
    # with bcper 2; tau's nodal part is mapped the same way
    from pdecont import demos, problem
    st = demos.perturb(demos.make("schnaktravel"))
    st.uold = demos.perturb(demos.make("schnaktravel"), seed=1).u
    st.tau = np.random.default_rng(2).standard_normal(st.nu + st.nq + 1)
    old, nu = st.ops.per, st.nu
    full = [periodic.extend_vector(v[:nu], old)
            for v in (st.u, st.uold, st.tau)]
    tails = [v[nu:].copy() for v in (st.u, st.uold, st.tau)]
    st.switches.bcper = 2
    problem.setfemops(st)
    fresh = demos.make("schnaktravel", {"bcper": 2})
    assert len(st.u) == len(fresh.u) < len(full[0])
    fresh.u, fresh.uold, tau = (
        np.concatenate([periodic.restrict_vector(f, fresh.ops.per), t])
        for f, t in zip(full, tails))
    assert np.array_equal(st.uold, fresh.uold)
    assert np.array_equal(st.tau, tau)
    assert np.array_equal(problem.residual(st), problem.residual(fresh))


def test_setfemops_maps_both_fields_in_fold_continuation():
    from pdecont import demos, problem, spcont
    st = demos.perturb(demos.make("schnak", {"bcper": 1}), seed=1)
    spcont.spcontini(st, 2, kerneltol=np.inf)
    old = st.ops.per
    fields = [periodic.extend_vector(f, old) for f in spcont.split(st, st.u)[:2]]
    aux = st.u[st.nu:].copy()
    st.switches.bcper = 2
    problem.setfemops(st)
    new = st.ops.per
    assert st.nu == 2 * new.nu_per == 2 * st.spdata["nu_base"]
    for got, full in zip(spcont.split(st, st.u)[:2], fields):
        assert np.array_equal(got, periodic.restrict_vector(full, new))
    assert np.array_equal(st.u[st.nu:], aux)


def test_setfemops_rejects_a_u_of_another_length():
    from pdecont import demos, problem
    st = demos.make("schnak", {"bcper": 1})
    st.u = np.append(st.u, 0.0)
    st.switches.bcper = 2
    with pytest.raises(periodic.PeriodicityError):
        problem.setfemops(st)


class _NoProduct:
    """Stands in for fill or drop; any product with it fails."""
    __array_ufunc__ = None      # ndarray @ self goes to __rmatmul__

    def __init__(self, shape):
        self.shape = shape

    @property
    def T(self):
        return _NoProduct(self.shape[::-1])

    def _fail(self, *args, **kwargs):
        raise AssertionError("fill/drop product without a periodization")

    __matmul__ = __rmatmul__ = __mul__ = __rmul__ = __array__ = _fail


def test_no_fill_or_drop_product_without_periodization(monkeypatch,
                                                       tmp_path):
    from pdecont import demos, plot, problem, timeint
    make_per = periodic.Periodization

    def unreduced(bcper, fill, drop, nu_per, np_per):
        if not bcper:
            fill, drop = _NoProduct(fill.shape), _NoProduct(drop.shape)
        return make_per(bcper, fill, drop, nu_per, np_per)
    monkeypatch.setattr(periodic, "Periodization", unreduced)
    for name in ("acfold", "nlbc"):
        st = demos.perturb(demos.make(name, {"nx": 8, "ny": 8}), seed=1)
        assert isinstance(st.ops.per.fill, _NoProduct)
        assert np.all(np.isfinite(problem.residual(st)))
        problem.tensor_residual(st, st.u)
        problem.tensor_jacobian_u(st, st.u)
        timeint.tint(st, 0.01, 2, pmod=1)
        assert len(st.callbacks.outfu(st, st.u)) == 2
        plot.plot_solution(st, 0, str(tmp_path / f"{name}.svg"))


def _chase(n_full, partner):
    """fill and drop by following each node's partner chain one node at a
    time, as a reference for build_fill_drop."""
    rep = []
    for i in range(n_full):
        j, seen = i, set()
        while j in partner:
            if j in seen:
                raise periodic.PeriodicityError("cyclic node identification")
            seen.add(j)
            j = partner[j]
        rep.append(j)
    kept = sorted(set(rep))
    cols = [kept.index(j) for j in rep]
    fill = sp.coo_matrix((np.ones(n_full), (np.arange(n_full), cols)),
                         shape=(n_full, len(kept))).tocsc()
    drop = sp.coo_matrix((np.ones(len(kept)), (np.arange(len(kept)), kept)),
                         shape=(len(kept), n_full)).tocsc()
    return fill, drop


def _assert_same_csc(got, want):
    assert got.format == want.format == "csc" and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fill_drop_equal_the_per_node_chase(data):
    # random maps: chains of any length, self-maps and cycles
    n = data.draw(st.integers(1, 40))
    partner = data.draw(st.dictionaries(st.integers(0, n - 1),
                                        st.integers(0, n - 1)))
    try:
        want = _chase(n, partner)
    except periodic.PeriodicityError:
        with pytest.raises(periodic.PeriodicityError):
            periodic.build_fill_drop(n, partner)
        return
    for got, ref in zip(periodic.build_fill_drop(n, partner), want):
        _assert_same_csc(got, ref)


@pytest.mark.parametrize("cycle", [[0, 1], [0, 1, 2], [3, 0, 1, 2]])
def test_a_cycle_behind_a_chain_is_rejected(cycle):
    # node 4 leads into the cycle; the power-of-two cycles reach a fixed
    # point of pointer jumping, the others none
    partner = dict(zip(cycle, cycle[1:] + cycle[:1]))
    partner[4] = cycle[0]
    with pytest.raises(periodic.PeriodicityError):
        periodic.build_fill_drop(6, partner)


def _per_index(mesh, neq, bcper):
    """fill and drop from partners found one grid index at a time."""
    nx, ny = mesh.nx, mesh.ny
    partner = {}
    if bcper in (1, 3):
        for ix in range(nx + 1):
            partner[ny * (nx + 1) + ix] = ix
    if bcper in (2, 3):
        for iy in range(ny + 1):
            partner[iy * (nx + 1) + nx] = iy * (nx + 1)
    fill, drop = _chase(mesh.npoints, partner)
    if neq > 1:
        fill = sp.block_diag([fill] * neq, format="csc")
        drop = sp.block_diag([drop] * neq, format="csc")
    return fill, drop


@pytest.mark.parametrize("neq", [1, 2])
@pytest.mark.parametrize("bcper", [1, 2, 3])
@pytest.mark.parametrize("nx, ny", [(1, 1), (6, 4), (3, 8)])
def test_periodization_equals_the_per_index_reference(nx, ny, bcper, neq):
    m = build_rect_mesh(1.0, 0.6, nx, ny)
    per = periodic.build_periodization(m, neq, bcper)
    fill, drop = _per_index(m, neq, bcper)
    _assert_same_csc(per.fill, fill)
    _assert_same_csc(per.drop, drop)
    assert per.np_per * neq == per.nu_per == fill.shape[1]


def test_mismatched_side_layouts_are_rejected():
    for bcper, axis, side in ((1, 0, np.s_[-1:]), (2, 1, np.s_[:, -1:])):
        m = build_rect_mesh(1.0, 1.0, 4, 3)
        ids = np.arange(m.npoints).reshape(m.ny + 1, m.nx + 1)
        m.points[ids[side].ravel()[1], axis] += 1e-3
        with pytest.raises(periodic.PeriodicityError, match="do not match"):
            periodic.build_periodization(m, 1, bcper)
