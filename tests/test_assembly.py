"""The general path's assembly onto the reduced P1 pattern (fem.Assembly):
A and F of problem.general_data, the tensor residual and Jacobian, and tint,
each against the full-mesh element formulas summed through COO and taken
onto the reduced space by fill' A fill."""

import copy
import pickle

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pdecont import demos, fem, linsolve, problem
from pdecont.timeint import tint

MASS = np.array([[2., 1., 1.], [1., 2., 1.], [1., 1., 2.]]) / 12.0


def _interior_reference(mesh, ct, neq):
    """K + Ma + Kadv on the full mesh from normalized tensors ct."""
    area, g, tri, n = mesh.tri_areas(), mesh.tri_grads(), mesh.triangles, \
        mesh.npoints
    rows, cols, vals = [], [], []
    for r in range(neq):
        for s in range(neq):
            kv = np.einsum("t,tid,tde,tje->tij", area, g, ct.c[:, r, s], g)
            mv = (area * ct.a[:, r, s])[:, None, None] * MASS
            av = -np.einsum("t,td,tjd->tj", area / 3.0, ct.b[:, r, s], g)
            rows.append(np.repeat(tri, 3, axis=1).ravel() + n * r)
            cols.append(np.tile(tri, (1, 3)).ravel() + n * s)
            vals.append((kv + mv + av[:, None, :]).ravel())
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=(neq * n, neq * n)).tocsc()


def _general_reference(st, U, tensors, bc):
    """(A, F) of the general path as assembled on the full mesh."""
    mesh, neq, per, nu = st.mesh, st.neq, st.ops.per, st.nu
    ct = tensors.normalized(mesh.ntri, neq)
    A = _interior_reference(mesh, ct, neq)
    F = fem.load_operator(mesh, neq) @ ct.f.T.ravel()
    if bc is not None:
        bdry = fem.assemble_boundary(mesh, bc(st, U), per.fill @ U[:nu],
                                     U[nu:], neq)
        A = A + bdry["Q"]
        F = F + bdry["Gb"]
    return (per.fill.T @ A @ per.fill).tocsc(), per.fill.T @ F


def _jacobian_reference(st, U):
    cb = st.callbacks
    tensors = cb.Gjac(st, U)
    A, _ = _general_reference(st, U, tensors, cb.bcjac or cb.bc)
    fu = tensors.normalized(st.mesh.ntri, st.neq).fu
    D = sp.bmat([[sp.diags(fu[:, r, s]) for s in range(st.neq)]
                 for r in range(st.neq)])
    return A - st.ops.Fload @ D @ st.ops.Ctri


def _close(got, want, rtol=1e-13):
    got = got.toarray() if sp.issparse(got) else got
    want = want.toarray() if sp.issparse(want) else want
    assert got.shape == want.shape
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(got - want).max() <= rtol * scale, \
        np.abs(got - want).max() / scale


def _state(name, config, seed=3):
    st = demos.perturb(demos.make(name, config), seed)
    if name.startswith("schnak"):
        st.setaux("s", 0.7)            # advection on
    return st


CASES = [("acfold", {"nx": 12, "ny": 10}), ("bratu", {"nx": 8, "ny": 8}),
         ("nlbc", {"nx": 8, "ny": 8}), ("acfront", {"nx": 40}),
         ("schnaktravel", {"nx": 4, "ny": 10})] + [
    ("schnak", {"nx": 6, "ny": 8, "bcper": bcper}) for bcper in range(4)]
IDS = [f"{name}-{cfg.get('bcper', '')}" for name, cfg in CASES]


@pytest.mark.parametrize("name, config", CASES, ids=IDS)
def test_general_path_matches_the_full_mesh_formulas(name, config):
    st = _state(name, config)
    U = np.array(st.u)
    cb = st.callbacks
    A, F = problem.assemble_general(st, U, cb.G(st, U), cb.bc)
    A_ref, F_ref = _general_reference(st, U, cb.G(st, U), cb.bc)
    _close(A, A_ref)
    _close(F, F_ref)
    _close(problem.tensor_residual(st, U), A_ref @ U[:st.nu] - F_ref)
    _close(problem.tensor_jacobian_u(st, U), _jacobian_reference(st, U))


def _coupled_bc(state, U):
    # u-dependent q in both diagonal blocks and one off-diagonal block, and
    # a nonzero g
    def q(x, u, p, seg):
        out = np.zeros((len(x), 2, 2))
        out[:, 0, 0] = 1.0 + u[:, 0] ** 2
        out[:, 0, 1] = np.where(seg == 2, 2.0 + x[:, 1], 0.0)
        out[:, 1, 1] = 0.3 * seg * u[:, 1]
        return out

    def g(x, u, p, seg):
        return np.sin(x[:, :1] + u) * seg[:, None]
    return fem.BCSpec(q, g)


def _random_tensors(nt, seed, per_triangle):
    rng = np.random.default_rng(seed)
    lead = (nt,) if per_triangle else ()
    c = rng.standard_normal(lead + (2, 2, 2, 2))
    c = c + np.swapaxes(c, -1, -2) + 4 * np.eye(2)
    c[..., 1, 0, :, :] = 0.0             # an empty block
    return fem.CoeffTensors(c=c, a=rng.standard_normal(lead + (2, 2)),
                            b=rng.standard_normal(lead + (2, 2, 2)),
                            f=rng.standard_normal((nt, 2)),
                            fu=rng.standard_normal((nt, 2, 2)))


@pytest.mark.parametrize("per_triangle", [True, False],
                         ids=["per_triangle", "constant"])
@pytest.mark.parametrize("bcper", [0, 1, 2, 3])
def test_anisotropic_reaction_advection_and_coupled_boundary(bcper,
                                                             per_triangle):
    st = _state("schnak", {"nx": 6, "ny": 8, "bcper": bcper})
    nt = st.mesh.ntri
    st.callbacks.G = lambda s, U: _random_tensors(nt, 1, per_triangle)
    st.callbacks.Gjac = lambda s, U: _random_tensors(nt, 2, per_triangle)
    st.callbacks.bc = _coupled_bc
    st.callbacks.bcjac = lambda s, U: fem.dirichlet_bc(2, 0.5, 7.0)
    U = np.array(st.u)
    A, F = problem.assemble_general(st, U, st.callbacks.G(st, U),
                                    st.callbacks.bc)
    A_ref, F_ref = _general_reference(st, U, st.callbacks.G(st, U),
                                      st.callbacks.bc)
    _close(A, A_ref)
    _close(F, F_ref)
    _close(problem.tensor_residual(st, U), A_ref @ U[:st.nu] - F_ref)
    _close(problem.tensor_jacobian_u(st, U), _jacobian_reference(st, U))


def test_scalar_coefficients_in_every_accepted_shape():
    st = _state("nlbc", {"nx": 6, "ny": 6})
    nt = st.mesh.ntri
    rng = np.random.default_rng(8)
    c = np.array([[2.0, 0.3], [0.3, 1.0]])
    for tensors in (
            fem.CoeffTensors(c=2.0, a=-1.5, f=0.25, fu=3.0),
            fem.CoeffTensors(c=c[None, None], a=rng.standard_normal(nt),
                             b=rng.standard_normal((nt, 2)),
                             f=rng.standard_normal(nt)),
            fem.CoeffTensors(c=np.broadcast_to(c, (nt, 2, 2)),
                             b=np.array([[[0.5, -1.0]]]))):
        U = np.array(st.u)
        A, F = problem.assemble_general(st, U, tensors, st.callbacks.bc)
        A_ref, F_ref = _general_reference(st, U, tensors, st.callbacks.bc)
        _close(A, A_ref)
        _close(F, F_ref)


def _reference_march(st, dt, nt):
    """tint's scheme, stepped with the full-mesh (A, F) and spsolve."""
    M = st.ops.M
    u = np.array(st.u[:st.nu])
    for _ in range(nt):
        U = np.concatenate([u, st.pars()])
        A, F = _general_reference(st, U, st.callbacks.G(st, U),
                                  st.callbacks.bc)
        u = spla.spsolve((M + dt * A).tocsc(), M @ u + dt * F)
    return u


@pytest.mark.parametrize("name, config, dt", [
    ("acfold", {"nx": 12, "ny": 10}, 0.02),
    ("nlbc", {"nx": 8, "ny": 8}, 0.02),
    ("schnak", {"nx": 2, "ny": 40, "bcper": 0}, 0.05),
    ("schnak", {"nx": 4, "ny": 12, "bcper": 1}, 0.05)],
    ids=["acfold", "nlbc", "schnak", "schnak_cylinder"])
def test_tint_steps_as_the_full_mesh_scheme(monkeypatch, name, config, dt):
    st = _state(name, config)
    ref = copy.deepcopy(st)
    U = np.array(st.u)
    A_ref, _ = _general_reference(st, U, st.callbacks.G(st, U),
                                  st.callbacks.bc)
    first = (st.ops.M + dt * A_ref).tocsc()
    first.sort_indices()
    seen, factorize = [], linsolve.FactorCache.factorize

    def spy(self, A, *args, **kw):
        seen.append(A)
        return factorize(self, A, *args, **kw)
    monkeypatch.setattr(linsolve.FactorCache, "factorize", spy)
    tint(st, dt, 8, pmod=8)
    # the factorized matrix keeps the stored pattern of the sparse sum
    assert np.array_equal(seen[0].indptr, first.indptr)
    assert np.array_equal(seen[0].indices, first.indices)
    _close(seen[0], first)
    _close(st.u[:st.nu], _reference_march(ref, dt, 8), rtol=1e-12)


def test_assembly_operators_are_built_once_per_pattern(monkeypatch):
    kinds, element = [], fem.element

    def spy(mesh, kind):
        kinds.append(kind)
        return element(mesh, kind)
    monkeypatch.setattr(fem, "element", spy)
    st = _state("acfold", {"nx": 8, "ny": 7})
    assert st.ops.pattern is None       # setfemops keeps no operator
    del kinds[:]
    tint(st, 0.01, 3, pmod=3)
    P = st.ops.pattern
    assert sorted(kinds) == ["edge", "lap"]
    assert {k for k in P.assembly._built if isinstance(k, tuple)} == {
        ("lap", 0, 0), ("edge", 0, 0)}
    tint(st, 0.01, 3, pmod=3)
    for _ in range(3):
        problem.jacobian_active(st, st.u)
    assert len(kinds) == 2 and st.ops.pattern is P
    problem.setfemops(st)
    assert st.ops.pattern is None
    del kinds[:]
    tint(st, 0.01, 1, pmod=1)
    assert sorted(kinds) == ["edge", "lap"] and st.ops.pattern is not P


def test_copies_carry_no_assembly_operators():
    st = _state("nlbc", {"nx": 6, "ny": 6})
    problem.tensor_residual(st, st.u)
    built = st.ops.pattern.assembly._built
    assert ("lap", 0, 0) in built and ("edge", 0, 0) in built
    for other in (copy.deepcopy(st), pickle.loads(pickle.dumps(st.ops))):
        ops = getattr(other, "ops", other)
        assert ops.pattern.assembly._built == {}
    cp = copy.deepcopy(st)
    assert np.array_equal(problem.tensor_residual(cp, cp.u),
                          problem.tensor_residual(st, st.u))
    assert built is st.ops.pattern.assembly._built


def test_operator_data_on_the_pattern_is_read_only():
    st = _state("acfold", {"nx": 8, "ny": 7})
    P = problem.reduced_pattern(st)
    m = P.op("M")
    assert np.shares_memory(m, st.ops.M.data)     # M is stored on P
    with pytest.raises(ValueError):
        m *= 2.0
    assert np.array_equal(st.ops.M.data, m)
