import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from pdecont import demos, fem, problem
from pdecont.mesh import build_rect_mesh

LX, LY = 1.0, 0.8
AREA = 4.0 * LX * LY
PERIM = 4.0 * (LX + LY)


@pytest.fixture(scope="module")
def mesh():
    return build_rect_mesh(LX, LY, 8, 6)


def test_mass_matrix_total_and_symmetry(mesh):
    M = fem.assemble_mass(mesh)
    assert np.isclose(M.sum(), AREA, atol=1e-12)
    assert abs(M - M.T).max() == 0.0
    # consistent mass: row sum equals the lumped nodal area, all positive
    rows = np.asarray(M.sum(axis=1)).ravel()
    assert np.all(rows > 0)
    assert np.isclose(rows.sum(), AREA, atol=1e-12)


def test_mass_matrix_block_diagonal(mesh):
    M1 = fem.assemble_mass(mesh)
    M2 = fem.assemble_mass(mesh, neq=2)
    n = mesh.npoints
    assert M2.shape == (2 * n, 2 * n)
    assert abs(M2[:n, :n] - M1).max() == 0.0
    assert abs(M2[n:, n:] - M1).max() == 0.0
    assert abs(M2[:n, n:]).max() == 0.0


def test_stiffness_annihilates_constants(mesh):
    ops = fem.assemble_interior(mesh, fem.CoeffTensors(c=1.0))
    K = ops["K"]
    assert np.allclose(K @ np.ones(mesh.npoints), 0.0, atol=1e-12)
    assert abs(K - K.T).max() < 1e-13


def test_stiffness_dirichlet_energy_of_linear_field(mesh):
    # int |grad(ax + by)|^2 = (a^2 + b^2) * area, exactly for P1
    K = fem.assemble_interior(mesh, fem.CoeffTensors(c=1.0))["K"]
    a, b = 0.7, -1.3
    u = a * mesh.points[:, 0] + b * mesh.points[:, 1]
    assert np.isclose(u @ (K @ u), (a * a + b * b) * AREA, rtol=1e-12)


def test_anisotropic_diffusion_energy(mesh):
    c = np.zeros((1, 1, 2, 2))
    c[0, 0] = [[2.0, 0.0], [0.0, 5.0]]
    K = fem.assemble_interior(mesh, fem.CoeffTensors(c=c))["K"]
    a, b = 1.0, 1.0
    u = a * mesh.points[:, 0] + b * mesh.points[:, 1]
    assert np.isclose(u @ (K @ u), (2 * a * a + 5 * b * b) * AREA, rtol=1e-12)


def test_reaction_block_equals_mass(mesh):
    Ma = fem.assemble_interior(mesh, fem.CoeffTensors(a=1.0))["Ma"]
    M = fem.assemble_mass(mesh)
    assert abs(Ma - M).max() < 1e-14


def test_advection_of_linear_field(mesh):
    # residual term is -int (b . grad u) phi; for b=(1,0), u=x the total over
    # all test functions is -int 1 = -area
    b = np.zeros((1, 1, 2))
    b[0, 0] = [1.0, 0.0]
    Kadv = fem.assemble_interior(mesh, fem.CoeffTensors(b=b))["Kadv"]
    u = mesh.points[:, 0].copy()
    assert np.isclose((Kadv @ u).sum(), -AREA, rtol=1e-12)
    # constants are transported trivially
    assert np.allclose(Kadv @ np.ones(mesh.npoints), 0.0, atol=1e-12)


def test_load_and_load_operator_consistency(mesh):
    rng = np.random.default_rng(3)
    f = rng.standard_normal(mesh.ntri)
    F = fem.assemble_load(mesh, f)
    Mtl = fem.load_operator(mesh)
    assert np.allclose(F, Mtl @ f, atol=1e-14)
    # f = 1 integrates to the domain area
    assert np.isclose(fem.assemble_load(mesh, np.ones(mesh.ntri)).sum(),
                      AREA, atol=1e-12)


def test_interp_operator_exact_on_linear(mesh):
    C = fem.interp_operator(mesh)
    u = 2.0 * mesh.points[:, 0] - mesh.points[:, 1] + 0.5
    cent = mesh.points[mesh.triangles].mean(axis=1)
    assert np.allclose(C @ u, 2.0 * cent[:, 0] - cent[:, 1] + 0.5, atol=1e-13)


def test_load_scatter_matches_dense():
    # the reduced pattern's scatter of area fu / 9 is Fload diag(fu) Ctri,
    # with a full random (nt, 2, 2) fu, with and without a periodization
    rng = np.random.default_rng(5)
    for bcper in (0, 3):
        st = demos.make("schnak", {"nx": 6, "ny": 8, "bcper": bcper})
        nt, ops = st.mesh.ntri, st.ops
        fu = rng.standard_normal((nt, 2, 2))
        D = np.block([[np.diag(fu[:, r, s]) for s in range(2)]
                      for r in range(2)])
        want = ops.Fload.toarray() @ D @ ops.Ctri.toarray()
        P = problem.reduced_pattern(st)
        got = P.matrix(P.load_derivative(fu)).toarray()
        assert got.shape == want.shape == (st.nu, st.nu)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_boundary_neumann_is_zero(mesh):
    ops = fem.assemble_boundary(mesh, fem.neumann_bc(1),
                                np.zeros(mesh.npoints), np.zeros(3))
    assert ops["Q"].nnz == 0
    assert np.all(ops["Gb"] == 0.0)


def test_boundary_measures(mesh):
    bc = fem.BCSpec(q=lambda x, u, p, s: np.ones((len(x), 1, 1)),
                    g=lambda x, u, p, s: np.ones((len(x), 1)))
    ops = fem.assemble_boundary(mesh, bc, np.zeros(mesh.npoints), np.zeros(3))
    # sum of Q entries = int_boundary 1 ds = perimeter, same for Gb
    assert np.isclose(ops["Q"].sum(), PERIM, atol=1e-12)
    assert np.isclose(ops["Gb"].sum(), PERIM, atol=1e-12)


def test_stiff_spring_dirichlet_enforces_value(mesh):
    # -Delta u = 0 with u = 2 on the boundary -> u ~ 2 everywhere
    K = fem.assemble_interior(mesh, fem.CoeffTensors(c=1.0))["K"]
    bops = fem.assemble_boundary(mesh, fem.dirichlet_bc(1, value=2.0),
                                 np.zeros(mesh.npoints), np.zeros(3))
    u = spla.spsolve((K + bops["Q"]).tocsc(), bops["Gb"])
    assert np.allclose(u, 2.0, atol=1e-10)


def test_boundary_quadrature_midpoint_rule(mesh):
    # q(x) = x weight: Q row sums must integrate x over the boundary edges by
    # the midpoint rule, which is exact for this linear integrand
    bc = fem.BCSpec(q=lambda x, u, p, s: x[:, 0].reshape(-1, 1, 1),
                    g=lambda x, u, p, s: np.zeros((len(x), 1)))
    Q = fem.assemble_boundary(mesh, bc, np.zeros(mesh.npoints),
                              np.zeros(3))["Q"]
    # int_boundary x ds = 0 by symmetry of the rectangle
    assert np.isclose(Q.sum(), 0.0, atol=1e-12)


def test_coeff_broadcast_shapes(mesh):
    nt = mesh.ntri
    ct = fem.CoeffTensors(c=2.0, a=1.0).normalized(nt, 2)
    assert ct.c.shape == (nt, 2, 2, 2, 2)
    # scalar c -> isotropic diagonal blocks only
    assert np.all(ct.c[:, 0, 0, 0, 0] == 2.0)
    assert np.all(ct.c[:, 0, 1] == 0.0)
    assert np.all(ct.a[:, 0, 0] == 1.0) and np.all(ct.a[:, 0, 1] == 0.0)


def test_coeff_broadcast_errors(mesh):
    nt = mesh.ntri
    with pytest.raises(fem.AssemblyError):
        fem.CoeffTensors(b=1.0).normalized(nt, 1)     # nonzero scalar advection
    with pytest.raises(fem.AssemblyError):
        fem.CoeffTensors(f=np.ones(nt - 1)).normalized(nt, 1)
    # scalar-problem reduced shapes are accepted
    ct = fem.CoeffTensors(fu=np.ones(nt)).normalized(nt, 1)
    assert ct.fu.shape == (nt, 1, 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_load_operator_linearity(seed):
    m = build_rect_mesh(1.0, 1.0, 4, 3)
    Mtl = fem.load_operator(m)
    rng = np.random.default_rng(seed)
    f1, f2 = rng.standard_normal((2, m.ntri))
    a = float(rng.standard_normal())
    assert np.allclose(Mtl @ (a * f1 + f2), a * (Mtl @ f1) + Mtl @ f2,
                       atol=1e-11)


@pytest.mark.parametrize("demo", ["acfold", "schnak", "bratu", "nlbc",
                                  "acfront"])
def test_jaccheck_on_demos(demo):
    state = demos.make(demo)
    chk = fem.jaccheck(state)
    assert chk["maxdiff"] <= 1e-5, f"{demo}: maxdiff={chk['maxdiff']:.3e}"


# -- assembly against a plain COO reference ---------------------------------

def _coo(mesh, vals):
    """Sum per-triangle 3x3 element matrices through COO, duplicates summed."""
    tri, n = mesh.triangles, mesh.npoints
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(n, n)).tocsc()


def _reference(mesh, ct, neq):
    """K, Ma and Kadv from the element formulas, one COO sum per block."""
    area, g = mesh.tri_areas(), mesh.tri_grads()
    mass = np.array([[2., 1., 1.], [1., 2., 1.], [1., 1., 2.]]) / 12.0
    blocks = {"K": [], "Ma": [], "Kadv": []}
    for r in range(neq):
        for name in blocks:
            blocks[name].append([])
        for s in range(neq):
            kv = np.einsum("t,tid,tde,tje->tij", area, g, ct.c[:, r, s], g)
            mv = (area * ct.a[:, r, s])[:, None, None] * mass
            av = -np.einsum("t,td,tjd->tj", area / 3.0, ct.b[:, r, s], g)
            av = np.repeat(av[:, None, :], 3, axis=1)
            for name, vals in (("K", kv), ("Ma", mv), ("Kadv", av)):
                blocks[name][r].append(_coo(mesh, vals))
    return {name: sp.bmat(grid, format="csc") for name, grid in blocks.items()}


def _assert_close(A, B, rtol=1e-13):
    assert A.shape == B.shape
    scale = abs(B).max()
    assert abs(A - B).max() <= rtol * scale, abs(A - B).max() / scale


@pytest.mark.parametrize("neq", [1, 2])
def test_assembly_matches_coo_reference(neq):
    m = build_rect_mesh(1.0, 0.7, 9, 7)
    rng = np.random.default_rng(11)
    nt = m.ntri
    c = rng.standard_normal((nt, neq, neq, 2, 2))
    c = c + np.swapaxes(c, -1, -2) + 4 * np.eye(2)
    ct = fem.CoeffTensors(c=c, a=rng.standard_normal((nt, neq, neq)),
                          b=rng.standard_normal((nt, neq, neq, 2)))
    got = fem.assemble_interior(m, ct, neq)
    want = _reference(m, ct.normalized(nt, neq), neq)
    for name in ("K", "Ma", "Kadv"):
        _assert_close(got[name], want[name])
    mass = _reference(m, fem.CoeffTensors(a=1.0).normalized(nt, neq), neq)
    _assert_close(fem.assemble_mass(m, neq), mass["Ma"])


@pytest.mark.parametrize("demo", ["acfold", "schnak"])
@pytest.mark.parametrize("bcper", [0, 1, 2, 3])
def test_cached_operators_match_coo_reference(demo, bcper):
    st = demos.make(demo, {"nx": 6, "ny": 8})
    pattern = st.mesh.p1_pattern()
    st.switches.bcper = bcper
    problem.setfemops(st)
    assert st.mesh.p1_pattern() is pattern
    m, neq, fill = st.mesh, st.neq, st.ops.per.fill
    nt = m.ntri
    sl = st.callbacks.semilinear
    K = _reference(m, fem.CoeffTensors(c=sl.c).normalized(nt, neq), neq)["K"]
    M = _reference(m, fem.CoeffTensors(a=1.0).normalized(nt, neq), neq)["Ma"]
    _assert_close(st.ops.K, fill.T @ K @ fill)
    _assert_close(st.ops.M, fill.T @ M @ fill)
    for attr, d in (("Kdx", 0), ("Kdy", 1)):
        b = np.zeros((neq, neq, 2))
        b[np.arange(neq), np.arange(neq), d] = 1.0
        adv = _reference(m, fem.CoeffTensors(b=b).normalized(nt, neq),
                         neq)["Kadv"]
        _assert_close(getattr(st.ops, attr), -(fill.T @ adv @ fill))


def test_assembly_is_canonical_on_one_cached_pattern():
    m = build_rect_mesh(1.0, 0.7, 9, 7)
    pattern = m.p1_pattern()
    b = np.zeros((1, 1, 2))
    b[0, 0] = [0.3, -0.2]
    ops = fem.assemble_interior(m, fem.CoeffTensors(c=1.0, a=2.0, b=b))
    M = fem.assemble_mass(m)
    for A in (M, ops["K"], ops["Ma"], ops["Kadv"]):
        assert A.format == "csc" and A.has_canonical_format
    assert m.p1_pattern() is pattern
    # a caller changing a returned matrix in place leaves the pattern alone
    M.indices[:] = 0
    M.indptr[:] = 0
    _assert_close(fem.assemble_mass(m), fem.assemble_mass(
        build_rect_mesh(1.0, 0.7, 9, 7)), rtol=0.0)


def _same_csc(got, want):
    got, want = got.tocsc(), want.tocsc()
    return (got.shape == want.shape
            and all(np.array_equal(getattr(got, k), getattr(want, k))
                    for k in ("indptr", "indices", "data")))


def _coupled_bc():
    # block (0, 1) on the right side only, (1, 0) absent, both diagonal
    # blocks u-dependent, and a nonzero g
    def q(x, u, p, seg):
        out = np.zeros((len(x), 2, 2))
        out[:, 0, 0] = 1.0 + u[:, 0] ** 2
        out[:, 0, 1] = np.where(seg == 2, 2.0 + x[:, 1], 0.0)
        out[:, 1, 1] = 0.3 * seg
        return out

    def g(x, u, p, seg):
        return np.sin(x[:, :1] + u) * seg[:, None]
    return fem.BCSpec(q, g)


@pytest.mark.parametrize("nx, ny", [(1, 1), (6, 5)])
def test_boundary_equals_a_per_edge_reference(nx, ny):
    m = build_rect_mesh(1.0, 0.7, nx, ny)
    n, neq = m.npoints, 2
    u = np.random.default_rng(4).standard_normal(neq * n)
    bc = _coupled_bc()
    got = fem.assemble_boundary(m, bc, u, None, neq)
    # per edge: midpoint values, then its entries in every present block
    x = 0.5 * (m.points[m.edges[:, 0]] + m.points[m.edges[:, 1]])
    um = np.array([[0.5 * (u[k * n + i] + u[k * n + j]) for k in range(neq)]
                   for i, j in m.edges])
    qv, gv = bc.q(x, um, None, m.edge_seg), bc.g(x, um, None, m.edge_seg)
    present = [(r, s) for r in range(neq) for s in range(neq)
               if np.any(qv[:, r, s])]
    assert (1, 0) not in present and (0, 1) in present
    rows, cols, vals = [], [], []
    Gb = np.zeros(neq * n)
    for e, (i, j) in enumerate(m.edges):
        L = np.linalg.norm(m.points[j] - m.points[i])
        for r, s in present:
            for k, l in ((i, i), (i, j), (j, i), (j, j)):
                rows.append(r * n + k)
                cols.append(s * n + l)
                vals.append(0.25 * L * qv[e, r, s])
        for r in range(neq):
            Gb[r * n + i] += 0.5 * L * gv[e, r]
            Gb[r * n + j] += 0.5 * L * gv[e, r]
    Q = sp.coo_matrix((vals, (rows, cols)), shape=(neq * n, neq * n))
    assert _same_csc(got["Q"], Q)
    assert np.array_equal(got["Gb"], Gb)


def test_boundary_q_keeps_its_shape_with_an_empty_block_row():
    # q on component 0 only: Q is still neq n x neq n, its other blocks empty
    m = build_rect_mesh(1.0, 0.7, 4, 3)
    n = m.npoints
    q1 = fem.dirichlet_bc(1, 0.5)
    bc = fem.BCSpec(
        q=lambda x, u, p, s: np.pad(q1.q(x, u, p, s), ((0, 0), (0, 1), (0, 1))),
        g=lambda x, u, p, s: np.pad(q1.g(x, u, p, s), ((0, 0), (0, 1))))
    got = fem.assemble_boundary(m, bc, np.zeros(2 * n), None, 2)
    one = fem.assemble_boundary(m, q1, np.zeros(n), None, 1)
    assert got["Q"].shape == (2 * n, 2 * n) and got["Q"][n:].nnz == 0
    assert _same_csc(got["Q"][:n, :n], one["Q"])
    assert np.array_equal(got["Gb"], np.append(one["Gb"], np.zeros(n)))


def test_interior_operators_keep_their_shape_with_an_empty_block_row():
    # diffusion on component 0 only: K is still neq n x neq n, its other
    # blocks empty
    m = build_rect_mesh(1.0, 1.0, 3, 3)
    n = m.npoints
    c = np.zeros((m.ntri, 2, 2, 2, 2))
    c[:, 0, 0] = np.eye(2)
    got = fem.assemble_interior(m, fem.CoeffTensors(c=c), 2)
    one = fem.assemble_interior(m, fem.CoeffTensors(c=1.0), 1)
    for name in ("K", "Ma", "Kadv"):
        assert got[name].shape == (2 * n, 2 * n)
    assert got["K"][n:].nnz == 0 and got["K"][:, n:].nnz == 0
    assert _same_csc(got["K"][:n, :n], one["K"])


@pytest.mark.parametrize("neq", [1, 2])
def test_load_equals_the_add_at_reference(neq):
    m = build_rect_mesh(1.0, 0.7, 7, 6)
    f = np.random.default_rng(neq).standard_normal((neq, m.ntri))
    w = m.tri_areas() / 3.0
    want = np.zeros(neq * m.npoints)
    for k in range(neq):
        np.add.at(want, k * m.npoints + m.triangles.ravel(),
                  np.repeat(w * f[k], 3))
    assert np.array_equal(fem.assemble_load(m, f, neq), want)
    if neq == 1:
        assert np.array_equal(fem.assemble_load(m, f[0]), want)

