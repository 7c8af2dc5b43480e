"""Sparse linear solves, bordered solves and near-zero spectrum computation."""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_EIG_LIMIT = 600


class SingularMatrixError(RuntimeError):
    pass


class FactorCache:
    """LU factorization cache keyed by caller-chosen identity."""

    def __init__(self):
        self._store: dict = {}
        self.factor_count = 0

    def factorize(self, A: sp.spmatrix, key=None):
        if key is not None and key in self._store:
            return self._store[key]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", spla.MatrixRankWarning)
                lu = spla.splu(A.tocsc())
        except (RuntimeError, spla.MatrixRankWarning) as exc:
            raise SingularMatrixError(str(exc)) from exc
        self.factor_count += 1
        if key is not None:
            self._store[key] = lu
        return lu

    def invalidate(self, key=None):
        if key is None:
            self._store.clear()
        else:
            self._store.pop(key, None)


def lss(A: sp.spmatrix, rhs: np.ndarray, cache: FactorCache | None = None,
        key=None) -> np.ndarray:
    """Solve A x = rhs by sparse LU with partial pivoting.

    Pass a cache and key to reuse the factorization when A is unchanged;
    without a cache the factorization is not kept.
    """
    rhs = np.asarray(rhs, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[0] != rhs.shape[0]:
        raise ValueError(f"shape mismatch: A {A.shape}, rhs {rhs.shape}")
    lu = (cache or FactorCache()).factorize(A, key=key)
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("linear solve produced non-finite values")
    return x


def blss(A: sp.spmatrix, border_row: np.ndarray, border_rhs: float,
         rhs: np.ndarray, cache: FactorCache | None = None,
         key=None) -> np.ndarray:
    """Solve the bordered system [[A], [border_row^T]] x = (rhs, border_rhs).

    A is n x (n+1); the assembled (n+1) x (n+1) system is passed to lss.
    """
    n = A.shape[0]
    if A.shape[1] != n + 1 or len(border_row) != n + 1 or len(rhs) != n:
        raise ValueError("bordered system dimensions inconsistent")
    B = sp.vstack([A.tocsr(), sp.csr_matrix(np.asarray(border_row)[None, :])],
                  format="csc")
    return lss(B, np.concatenate([rhs, [border_rhs]]), cache=cache, key=key)


def spectrum_near_zero(Gu: sp.spmatrix, M: sp.spmatrix, neig: int = 50) -> dict:
    """Eigenvalues of Gu v = mu M v of smallest magnitude.

    Shift-invert Arnoldi at shift 0 with a dense fallback for small systems.
    Returns eigenvalues (sorted by magnitude), eigenvectors, and ineg = number
    of returned eigenvalues with negative real part.
    """
    n = Gu.shape[0]
    k = min(neig, n - 2) if n > 2 else n
    if n <= DENSE_EIG_LIMIT or k < 1:
        import scipy.linalg as la
        mu, V = la.eig(Gu.toarray(), M.toarray())
        order = np.argsort(np.abs(mu))[:min(neig, n)]
        mu, V = mu[order], V[:, order]
    else:
        v0 = np.linspace(1.0, 2.0, n)   # deterministic start vector
        for shift in (0.0, -1e-6 * _infnorm(Gu)):
            try:
                mu, V = spla.eigs(Gu.tocsc(), k=k, M=M.tocsc(), sigma=shift,
                                  which="LM", v0=v0)
                break
            except RuntimeError:
                continue
        else:
            raise SingularMatrixError("shift-invert eigensolver failed")
        order = np.argsort(np.abs(mu))
        mu, V = mu[order], V[:, order]
    ineg = int(np.sum(mu.real < 0))
    return {"eigenvalues": mu, "eigenvectors": V, "ineg": ineg}


def _infnorm(A: sp.spmatrix) -> float:
    return float(abs(A).sum(axis=1).max())
