import gc

import numpy as np
import pytest
import scipy.sparse as sp

from pdecont import demos, fem, linsolve, problem
from pdecont.mesh import build_rect_mesh


def _spd(n, seed):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=0.1, random_state=rng.integers(2**31))
    return (A @ A.T + n * sp.identity(n)).tocsc()


def test_lss_manufactured_solution():
    A = _spd(80, 1)
    x = np.random.default_rng(2).standard_normal(80)
    got = linsolve.lss(A, A @ x)
    assert np.allclose(got, x, atol=1e-10)


def test_lss_deterministic():
    A = _spd(50, 3)
    b = np.arange(50, dtype=float)
    assert np.array_equal(linsolve.lss(A, b), linsolve.lss(A, b))


def test_lss_shape_and_singular_errors():
    A = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(linsolve.SingularMatrixError):
        linsolve.lss(A, np.ones(2))
    with pytest.raises(ValueError):
        linsolve.lss(sp.identity(3, format="csc"), np.ones(2))


def test_bordered_is_the_stacked_matrix():
    rng = np.random.default_rng(4)
    A = sp.random(20, 21, density=0.2, format="csc", random_state=6)
    row = rng.standard_normal(21)
    row[[0, 7, 20]] = 0.0
    B = linsolve.bordered(A, row)
    assert B.format == "csc" and B.shape == (21, 21)
    assert B.nnz == A.nnz + 18              # zeros of the row are not stored
    want = sp.vstack([A, sp.csr_matrix(row[None, :])], format="csc")
    assert np.array_equal(B.toarray(), want.toarray())


def test_blss_matches_assembled_solve():
    rng = np.random.default_rng(5)
    n = 30
    A = sp.csc_matrix(rng.standard_normal((n, n + 1)))
    row = rng.standard_normal(n + 1)
    rhs = rng.standard_normal(n)
    x = linsolve.blss(A, row, 1.5, rhs)
    assert np.allclose(A @ x, rhs, atol=1e-9)
    assert np.isclose(row @ x, 1.5, atol=1e-9)


def test_blss_dimension_check():
    with pytest.raises(ValueError):
        linsolve.blss(sp.identity(3, format="csc"), np.ones(3), 0.0,
                      np.ones(3))


def test_spectrum_dense_path_counts_sign_changes():
    # -u'' - lam*u on nodes: eigenvalues of K - lam*M cross zero at the
    # Laplace eigenvalues; count the negative ones
    m = build_rect_mesh(np.pi / 2, np.pi / 2, 12, 12)   # (0,pi)^2 shifted
    K = fem.assemble_interior(m, fem.CoeffTensors(c=1.0))["K"]
    bops = fem.assemble_boundary(m, fem.dirichlet_bc(1), np.zeros(m.npoints),
                                 np.zeros(1))
    K = (K + bops["Q"]).tocsc()
    M = fem.assemble_mass(m)
    # Dirichlet Laplacian eigenvalues on (0,pi)^2: 2, 5, 5, 8, ...
    for lam, want in ((1.0, 0), (3.0, 1), (6.0, 3)):
        out = linsolve.spectrum_near_zero((K - lam * M).tocsc(), M, neig=20)
        assert out["ineg"] == want, f"lam={lam}"


def test_spectrum_eigenpair_residuals_dense_and_arnoldi():
    for nx in (12, 30):      # 169 nodes (dense) and 961 nodes (Arnoldi)
        m = build_rect_mesh(1.0, 1.0, nx, nx)
        K = fem.assemble_interior(m, fem.CoeffTensors(c=1.0))["K"].tocsc()
        M = fem.assemble_mass(m)
        A = (K - 3.0 * M).tocsc()
        out = linsolve.spectrum_near_zero(A, M, neig=10)
        mu, V = out["eigenvalues"], out["eigenvectors"]
        assert len(mu) == 10
        assert np.all(np.diff(np.abs(mu)) >= -1e-9)      # magnitude sorted
        for j in range(len(mu)):
            v = V[:, j]
            r = A @ v - mu[j] * (M @ v)
            assert np.linalg.norm(r) <= 1e-6 * np.linalg.norm(v)


def test_spectrum_dense_vs_arnoldi_agree():
    m = build_rect_mesh(1.0, 1.0, 30, 30)                # 961 > dense limit
    K = fem.assemble_interior(m, fem.CoeffTensors(c=1.0))["K"].tocsc()
    M = fem.assemble_mass(m)
    A = (K - 3.0 * M).tocsc()
    arnoldi = linsolve.spectrum_near_zero(A, M, neig=8)["eigenvalues"]
    import scipy.linalg as la
    assert abs(A - A.T).max() <= 1e-13 * abs(A).max()
    dense = la.eigh(A.toarray(), M.toarray(), eigvals_only=True)
    dense = dense[np.argsort(np.abs(dense))][:8]
    assert np.allclose(np.sort(arnoldi.real), np.sort(dense), atol=1e-8)


def _arpack_params():
    from scipy.sparse.linalg._eigen import arpack
    return [o for o in gc.get_objects()
            if isinstance(o, arpack._UnsymmetricArpackParams)]


@pytest.mark.parametrize("name, config, neig", [
    ("schnak", {}, 50),                            # nonsymmetric Gu
    ("acfold", {"nx": 60, "ny": 54}, 10),
    ("acfold", {"nx": 60, "ny": 54}, 50)],
    ids=["schnak", "acfold-neig10", "acfold-neig50"])
def test_spectrum_frees_the_arpack_cycle(name, config, neig):
    # scipy's shift-invert eigs with an M leaves its ARPACK object, holding
    # an LU of Gu, in a reference cycle; spectrum_near_zero frees it
    st = demos.perturb(demos.make(name, config), seed=1)
    Gu = problem.pde_jacobian_u(st, st.u)
    gc.collect()
    assert not _arpack_params()
    out = linsolve.spectrum_near_zero(Gu, st.ops.M, neig)
    assert len(out["eigenvalues"]) == neig
    assert not _arpack_params()
    assert gc.isenabled()


def test_factorize_leaves_its_argument_alone():
    A = _spd(40, 7)
    # the same matrix with the row indices of every column reversed
    rev = np.concatenate([np.arange(a, b)[::-1]
                          for a, b in zip(A.indptr[:-1], A.indptr[1:])])
    B = sp.csc_matrix((A.data[rev], A.indices[rev], A.indptr), shape=A.shape)
    assert not B.has_sorted_indices
    before = [B.indices.copy(), B.indptr.copy(), B.data.copy()]
    lu = linsolve.FactorCache().factorize(B)
    for got, want in zip([B.indices, B.indptr, B.data], before):
        assert np.array_equal(got, want)
    x = np.arange(40, dtype=float)
    assert np.allclose(lu.solve(A @ x), x, atol=1e-10)


def test_factorize_refuses_an_unknown_kind():
    # refused before anything is factorized, counted or dropped
    cache = linsolve.FactorCache()
    cache.held = ("key", None)
    for kind in ("cholesky", "LU", True):
        with pytest.raises(ValueError, match="factor kind"):
            cache.factorize(_spd(10, 1), kind=kind)
    assert cache.factor_count == 0 and not cache.patterns
    assert cache.held == ("key", None)


def _splu_calls(monkeypatch):
    """Record the keyword arguments of every splu call linsolve makes."""
    calls, splu = [], linsolve.spla.splu

    def spy(A, **kw):
        calls.append(kw)
        return splu(A, **kw)
    monkeypatch.setattr(linsolve.spla, "splu", spy)
    return calls


def test_factorize_orders_by_minimum_degree_on_at_plus_a(monkeypatch):
    calls = _splu_calls(monkeypatch)
    # COLAMD fills less below about a thousand unknowns, more above
    st = demos.make("acfold", {"nx": 50, "ny": 50})
    A = (st.ops.M + 0.01 * (0.25 * st.ops.K + st.ops.Q)).tocsc()
    lu = linsolve.FactorCache().factorize(A)
    # partial pivoting stays SuperLU's default
    assert calls == [{"permc_spec": "MMD_AT_PLUS_A"}]
    colamd = linsolve.spla.splu(A, permc_spec="COLAMD")
    assert calls[-1] == {"permc_spec": "COLAMD"}
    assert lu.nnz < colamd.nnz


def test_stability_index_keeps_its_symmetric_mode_lu(monkeypatch):
    calls = _splu_calls(monkeypatch)
    m = build_rect_mesh(1.0, 1.0, 12, 12)
    K = fem.assemble_interior(m, fem.CoeffTensors(c=1.0))["K"]
    M = fem.assemble_mass(m)
    A = (K - 21.0 * M).tocsc()
    import scipy.linalg as la
    want = int(np.sum(la.eigh(A.toarray(), M.toarray(),
                              eigvals_only=True) < 0))
    assert linsolve.stability_index(A, M) == want
    assert calls == [{"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0,
                      "options": {"SymmetricMode": True}}]


def test_factorize_solves_a_bordered_nonsymmetric_jacobian():
    st = demos.make("acfront")
    demos.acfront_freeze(st)
    st.setaux("s", 0.4)
    J = problem.jacobian_active(st)
    Gu = J[:st.nu, :st.nu]
    assert abs(Gu - Gu.T).max() > 1e-3 * abs(Gu).max()
    rng = np.random.default_rng(8)
    A = linsolve.bordered(J, rng.standard_normal(J.shape[1])).tocsc()
    b = rng.standard_normal(A.shape[0])
    x = linsolve.FactorCache().factorize(A).solve(b)
    dense = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - dense).max() <= 1e-10 * np.abs(dense).max()
    assert np.abs(A @ x - b).max() <= 1e-12 * abs(A).max() * np.abs(x).max()


def test_tiny_pivot_refuses_the_symmetric_mode_lu():
    # a symmetric indefinite block whose every diagonal entry is tiny, beside
    # an SPD diagonal: unpivoted elimination starts on a pivot of 1e-13
    delta = 1e-13
    A = sp.block_diag([np.ones((3, 3)) + (delta - 1.0) * np.eye(3),
                       sp.diags(np.arange(1.0, 6.0))], format="csc")
    M = sp.identity(8, format="csc")
    import scipy.linalg as la
    want = int(np.sum(la.eigvalsh(A.toarray()) < 0))
    assert want == 2
    # the LU it refuses shares one ordering for rows and columns
    ldlt = linsolve.FactorCache().factorize(A, kind="ldlt")
    assert np.array_equal(ldlt.perm_r, ldlt.perm_c)
    assert np.abs(ldlt.U.diagonal()).min() <= linsolve.PIVOT_RTOL
    lu, ineg = linsolve.factorize_square(A)
    assert ineg is None
    b = np.arange(1.0, 9.0)
    x = linsolve.checked_solve(lu, A, b)
    assert np.abs(x - np.linalg.solve(A.toarray(), b)).max() <= 1e-12
    assert linsolve.stability_index(A, M) == want


def test_checked_solve_refines_and_rejects():
    A = _spd(40, 9)
    x = np.linspace(-1.0, 1.0, 40)
    lu = linsolve.FactorCache().factorize(A)
    assert np.allclose(linsolve.checked_solve(lu, A, A @ x), x, atol=1e-12)
    # one refinement step recovers from an LU of a nearby matrix, whose
    # plain solve leaves a residual of about 1e-7
    near = linsolve.FactorCache().factorize(
        (A + 1e-7 * sp.diags(A.diagonal())).tocsc())
    assert np.abs(A @ near.solve(A @ x) - A @ x).max() > 1e-9
    assert np.allclose(linsolve.checked_solve(near, A, A @ x), x, atol=1e-12)
    # an LU of a different matrix cannot pass the residual test
    wrong = linsolve.FactorCache().factorize(_spd(40, 10))
    with pytest.raises(linsolve.SingularMatrixError):
        linsolve.checked_solve(wrong, A, A @ x)


@pytest.mark.parametrize("A", [
    sp.random(30, 20, density=0.3, format="csc", random_state=1),
    sp.random(30, 20, density=0.3, format="csr", random_state=2),
    _spd(40, 3),
    sp.csc_matrix((3, 4)),
    sp.csr_matrix((5, 5)),
    sp.csc_matrix([[-2.5]]),
], ids=["csc", "csr", "spd", "empty_csc", "empty_csr", "1x1"])
def test_infnorm_equals_the_row_sums_of_abs(A):
    A = A.copy()
    A.data -= 0.5           # entries of both signs
    A.sum_duplicates()      # canonical: CSR rows summed in column order
    assert linsolve._infnorm(A) == float(abs(A).sum(axis=1).max())


def _tint_matrix(st, dt):
    U = np.array(st.u)
    A, _ = problem.assemble_general(st, U, st.callbacks.G(st, U),
                                    st.callbacks.bc)
    return (st.ops.M + dt * A).tocsc()


def _splitting_matrix(st, dt):
    # diffusion and boundary springs implicit, as tints' schnak splitting
    return (st.ops.M + dt * (st.ops.K + st.ops.Q)).tocsc()


@pytest.mark.parametrize("build, name, config", [
    (_tint_matrix, "acfold", {"nx": 30, "ny": 27}),
    (_splitting_matrix, "schnak", {"bcper": 1}),
    (_splitting_matrix, "schnak", {"bcper": 3}),
], ids=["acfold_tint", "schnak_bcper1", "schnak_bcper3"])
def test_band_cholesky_solves_as_superlu(build, name, config):
    st = demos.make(name, config)
    demos.perturb(st, 4)
    A = build(st, 0.05)
    cache = linsolve.FactorCache()
    band = cache.factorize(A, kind="spd")
    assert cache.banded and cache.factor_count == 1
    assert isinstance(band, linsolve.BandCholesky)
    b = cache.patterns[0].b
    assert band.nnz == A.shape[0] * (b + 1) and b * b < A.shape[0]
    lu = linsolve.FactorCache().factorize(A)
    rhs = np.random.default_rng(5).standard_normal((A.shape[0], 3))
    for r in (rhs[:, 0], rhs):
        for trans in ("N", "T"):
            want = lu.solve(r, trans)
            got = band.solve(r, trans)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_band_cholesky_declines_and_the_lu_serves():
    # a nonsymmetric matrix, then a symmetric indefinite one: neither is
    # factorized by the band Cholesky, both are solved by the LU
    A = _spd(60, 7)
    x = np.linspace(1.0, 2.0, 60)
    cache = linsolve.FactorCache()
    shift = A.diagonal().mean() * sp.identity(60)   # inside the spectrum
    for B in ((A + sp.triu(A, 1)).tocsc(), (A - shift).tocsc()):
        lu = cache.factorize(B, kind="spd")
        assert not cache.banded
        assert np.allclose(lu.solve(B @ x), x, atol=1e-9)
    assert cache.factor_count == 2


def test_band_cholesky_runs_on_one_blas_thread(monkeypatch):
    lib = linsolve._openblas()
    if lib is None:
        pytest.skip("no scipy-bundled OpenBLAS with a thread-count API")
    seen, cholesky = [], linsolve.la.cholesky_banded

    def spy(*args, **kwargs):
        seen.append(lib.scipy_openblas_get_num_threads())
        return cholesky(*args, **kwargs)
    monkeypatch.setattr(linsolve.la, "cholesky_banded", spy)
    n0 = lib.scipy_openblas_get_num_threads()
    # two threads at the call, whatever OPENBLAS_NUM_THREADS says
    lib.scipy_openblas_set_num_threads(2)
    try:
        assert lib.scipy_openblas_get_num_threads() == 2
        A = _spd(60, 7)
        band = linsolve.FactorCache().factorize(A, kind="spd")
        assert isinstance(band, linsolve.BandCholesky)
        assert seen == [1]
        assert lib.scipy_openblas_get_num_threads() == 2
    finally:
        lib.scipy_openblas_set_num_threads(n0)


def test_band_cholesky_without_the_thread_api(monkeypatch):
    # where scipy bundles no OpenBLAS the pin is a no-op
    monkeypatch.setattr(linsolve, "_openblas", lambda: None)
    A = _spd(60, 7)
    cache = linsolve.FactorCache()
    band = cache.factorize(A, kind="spd")
    assert cache.banded
    x = np.linspace(1.0, 2.0, 60)
    assert np.allclose(band.solve(A @ x), x, atol=1e-10)
