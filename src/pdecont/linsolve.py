"""Sparse LU solves, the one bordered matrix every continuation solve
factorizes (the Jacobian of (G, q) in (u, wtilde, alpha) plus one row:
e_alpha or the weighted tangent), and near-zero spectrum computation."""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_EIG_LIMIT = 600


class SingularMatrixError(RuntimeError):
    pass


class FactorCache:
    """Sparse LU that counts its factorizations (factor_count) and keeps
    none: a caller reusing one (chord Newton, tints) holds the LU itself."""

    def __init__(self):
        self.factor_count = 0

    def factorize(self, A: sp.spmatrix):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", spla.MatrixRankWarning)
                lu = spla.splu(A.tocsc())
        except (RuntimeError, spla.MatrixRankWarning) as exc:
            raise SingularMatrixError(str(exc)) from exc
        self.factor_count += 1
        return lu


def solve(lu, rhs: np.ndarray) -> np.ndarray:
    """lu.solve(rhs); a non-finite solution is a SingularMatrixError."""
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("linear solve produced non-finite values")
    return x


def lss(A: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs by one sparse LU with partial pivoting."""
    rhs = np.asarray(rhs, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[0] != rhs.shape[0]:
        raise ValueError(f"shape mismatch: A {A.shape}, rhs {rhs.shape}")
    return solve(FactorCache().factorize(A), rhs)


def bordered(A: sp.csc_matrix, row: np.ndarray) -> sp.csc_matrix:
    """[[A], [row]] in CSC: each nonzero of the dense row is appended to its
    column of A as the new last row; zeros of the row are not stored."""
    A = A.tocsc()
    row = np.asarray(row, dtype=float)
    cols = np.flatnonzero(row)
    end = A.indptr[cols + 1]
    indptr = A.indptr + np.concatenate([[0], np.cumsum(row != 0)])
    return sp.csc_matrix((np.insert(A.data, end, row[cols]),
                          np.insert(A.indices, end, A.shape[0]), indptr),
                         shape=(A.shape[0] + 1, A.shape[1]))


def blss(A: sp.spmatrix, border_row: np.ndarray, border_rhs: float,
         rhs: np.ndarray) -> np.ndarray:
    """Solve [[A], [border_row^T]] x = (rhs, border_rhs), A n x (n+1)."""
    n = A.shape[0]
    if A.shape[1] != n + 1 or len(border_row) != n + 1 or len(rhs) != n:
        raise ValueError("bordered system dimensions inconsistent")
    return lss(bordered(A, border_row), np.append(rhs, border_rhs))


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
