"""What a FactorCache keeps per sparsity pattern: the column order of each
factor kind, reused by later LUs of the pattern, and the transpose map of
the symmetry probe; and the split of the Jacobian into A0 and its
parameter column."""

import copy
import hashlib
import pickle
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from pdecont import demos, linsolve, problem, spcont
from pdecont.switching import findbif


def _splu_calls(monkeypatch):
    """(permc_spec, symmetric mode, pattern digest) of every splu call."""
    calls, splu = [], linsolve.spla.splu

    def spy(A, **kw):
        digest = hashlib.sha1(A.indptr.tobytes() + A.indices.tobytes())
        calls.append((kw.get("permc_spec"), "options" in kw,
                      digest.hexdigest()))
        return splu(A, **kw)
    monkeypatch.setattr(linsolve.spla, "splu", spy)
    return calls


def _acfold_gu():
    st = demos.perturb(demos.make("acfold", {"nx": 30, "ny": 27}), seed=3)
    return problem.pde_jacobian_u(st, st.u)


def _front_a0():
    st = demos.make("acfront")
    demos.acfront_freeze(st)
    st.setaux("s", 0.4)
    return linsolve.split_last_column(problem.jacobian_active(st))[0]


def _fold_system_a0():
    st = demos.perturb(demos.make("acfold", {"nx": 20, "ny": 18}), seed=3)
    spcont.spcontini(st, 3, kerneltol=np.inf)
    return linsolve.split_last_column(problem.jacobian_active(st))[0]


def _negative_pivots(lu):
    return int(np.count_nonzero(lu.U.diagonal() < 0))


@pytest.mark.parametrize("build, kind", [
    (_acfold_gu, "ldlt"), (_front_a0, "lu"),
    (_fold_system_a0, "lu")], ids=["acfold_gu", "front_a0", "fold_system_a0"])
def test_kept_order_lu_answers_as_a_fresh_mmd_lu(monkeypatch, build, kind):
    A = build()
    calls = _splu_calls(monkeypatch)
    cache = linsolve.FactorCache()
    fresh = cache.factorize(A, kind=kind)
    kept = cache.factorize(A, kind=kind)
    assert [c[0] for c in calls] == [linsolve.PERMC_SPEC, "NATURAL"]
    assert isinstance(kept, linsolve.PermutedLU) and cache.factor_count == 2
    assert kept.nnz == fresh.nnz
    assert np.array_equal(kept.perm_c, fresh.perm_c)
    assert np.array_equal(kept.perm_r, fresh.perm_r)
    assert _negative_pivots(kept) == _negative_pivots(fresh)
    rhs = np.random.default_rng(6).standard_normal((A.shape[0], 2))
    for b in (rhs[:, 0], rhs):
        for trans in ("N", "T"):
            want = fresh.solve(b, trans)
            got = kept.solve(b, trans)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_kept_order_serves_the_inertia():
    # factorize_square's LDL^T through the kept order: accepted, with the
    # same count of negative pivots as the fresh one
    A = _acfold_gu() - 12.0 * sp.identity(868, format="csc")
    cache = linsolve.FactorCache()
    first = linsolve.factorize_square(A, cache)
    second = linsolve.factorize_square(A, cache)
    assert isinstance(second[0], linsolve.PermutedLU)
    assert first[1] is not None and second[1] == first[1] > 0
    b = np.linspace(-1.0, 1.0, 868)
    x = linsolve.checked_solve(second[0], A, b)
    assert np.abs(x - first[0].solve(b)).max() <= 1e-12 * np.abs(x).max()


def test_a_new_pattern_is_ordered_afresh_and_permc_spec_bypasses(monkeypatch):
    A = _acfold_gu()
    B = A.tolil()
    B[0, A.shape[0] - 1] = 1e-3     # one more stored entry
    B = B.tocsc()
    calls = _splu_calls(monkeypatch)
    cache = linsolve.FactorCache()
    for M in (A, A, B, B):
        cache.factorize(M)
    spec = [c[0] for c in calls]
    assert spec == ["MMD_AT_PLUS_A", "NATURAL"] * 2


def test_the_symmetry_probe_keeps_its_exact_answer():
    # a structurally nonsymmetric pattern takes A - A^T, a symmetric one
    # its transpose map; both agree with the norm of A - A^T
    A = _acfold_gu()
    cache = linsolve.FactorCache()
    for M in (A, (A + sp.triu(A, 1)).tocsc(),
              (A + sp.diags(np.ones(A.shape[0] - 1), 1)).tocsc()):
        M.sort_indices()
        rec = cache.pattern(M)
        got = linsolve._asymmetry(M, rec)
        assert got == pytest.approx(linsolve._infnorm(M - M.T), rel=1e-14)
    assert cache.pattern(A).mirror is not None
    assert cache.patterns[1].mirror is None          # the last matrix's


def test_patterns_kept_are_bounded():
    cache = linsolve.FactorCache()
    for n in range(3, 3 + 2 * linsolve.PATTERNS_KEPT):
        cache.factorize(sp.identity(n, format="csc") * 2.0)
    assert len(cache.patterns) == linsolve.PATTERNS_KEPT
    assert cache.patterns[0].shape == (n, n)


def test_copies_carry_no_pattern_record():
    cache = linsolve.FactorCache()
    A = _acfold_gu()
    cache.factorize(A)
    cache.factorize(A)
    assert cache.patterns and cache.patterns[0].order
    assert copy.deepcopy(cache).patterns == []
    assert pickle.loads(pickle.dumps(cache)).patterns == []
    assert cache.patterns


def test_findbif_orders_each_pattern_once(monkeypatch):
    calls = _splu_calls(monkeypatch)
    st = demos.make("acfold", {"nx": 30, "ny": 27})
    findbif(st, 2)
    assert st.file.bcount == 2
    ordered = Counter((sym, digest) for spec, sym, digest in calls
                      if spec == linsolve.PERMC_SPEC)
    assert max(ordered.values()) == 1
    assert len(calls) > 2 * len(ordered)    # most LUs take a kept order


@pytest.mark.parametrize("demo", sorted(demos.DEMOS))
def test_split_last_column_is_the_slices(demo):
    st = demos.perturb(demos.make(demo), seed=2)
    if demo == "acfront":
        demos.acfront_freeze(st)
    J = problem.jacobian_active(st)
    n = J.shape[0]
    A0, a = linsolve.split_last_column(J)
    want = J[:, :n]
    for got, ref in ((A0.indptr, want.indptr), (A0.indices, want.indices),
                     (A0.data, want.data)):
        assert np.array_equal(got, ref)
    assert A0.shape == want.shape
    assert sp.csc_matrix((A0.data, A0.indices, A0.indptr),
                         shape=A0.shape).has_canonical_format
    assert np.array_equal(a, J[:, n].toarray().ravel())


def _without_one_entry(A):
    """A less its first stored off-diagonal entry of the last row, whose
    mirror stays: a structurally nonsymmetric pattern."""
    B = A.tolil()
    n = A.shape[0]
    j = next(j for j in B.rows[n - 1] if j != n - 1 and B[j, n - 1] != 0)
    B[n - 1, j] = 0.0
    B = B.tocsc()
    B.eliminate_zeros()
    return B


def _nonsymmetric_cases():
    rng = np.random.default_rng(9)
    for k in range(20):
        n = int(rng.integers(2, 40))
        A = (sp.random(n, n, density=0.15, random_state=k)
             + sp.random(n, n, density=0.1, random_state=50 + k).T
             + sp.diags(rng.standard_normal(n)))
        A = A.tocsc()
        A.data -= 0.5
        yield A
    for build in (_front_a0, _fold_system_a0):
        A = build()
        yield A
        yield _without_one_entry(A)


def test_the_symmetry_probe_takes_no_difference_matrix(monkeypatch):
    # ||A - A^T||_inf from the transpose map on structurally nonsymmetric
    # patterns too: equal to the norm of A - A^T, so that every accept or
    # refuse decision stays the same
    cases = [linsolve._canonical(A) for A in _nonsymmetric_cases()]
    want = [linsolve._infnorm(A - A.T) for A in cases]
    monkeypatch.setattr(linsolve, "_infnorm", None)
    cache = linsolve.FactorCache()
    kinds = Counter()
    for A, w in zip(cases, want):
        rec = cache.pattern(A)
        kinds[rec.mirror is None] += 1
        assert linsolve._asymmetry(A, rec) == pytest.approx(w, rel=1e-14,
                                                            abs=1e-300)
    assert kinds[True] >= 22 and kinds[False] >= 2
