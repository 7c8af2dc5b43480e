"""Sparse LU solves: the bordered matrix of the Newton correctors (the
Jacobian of (G, q) in (u, wtilde, alpha) plus one row, e_alpha or the
weighted tangent), the one factorization of a square block that serves both
the tangent and the stability index (factorize_square, checked_solve), the
stacked bordered solve the tangent falls back on (blss), and the near-zero
spectrum.  The time steppers' symmetric positive definite M + dt A is
factorized instead by LAPACK's banded Cholesky in a reverse Cuthill-McKee
order kept per sparsity pattern (FactorCache.factorize(A, spd=True))."""

from __future__ import annotations

import gc
import warnings

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# spectrum_near_zero runs the dense QZ for n <= DENSE_EIG_LIMIT and where
# Arnoldi cannot run (n <= 2); 0, since shift-invert Arnoldi is the faster
# at every size that can take it (0.067 s against 1.1 s at n = 441, k = 50)
DENSE_EIG_LIMIT = 0
# Gu counts as symmetric when ||Gu - Gu^T||_inf <= SYMMETRY_RTOL ||Gu||_inf
SYMMETRY_RTOL = 1e-12
# The symmetric-mode LU is refused when a pivot |d| <= PIVOT_RTOL ||A||_inf:
# unpivoted elimination past a tiny pivot grows the later ones without bound
PIVOT_RTOL = 1e-12
# checked_solve accepts x when ||A x - b||_inf <= SOLVE_RTOL
# (||A||_inf ||x||_inf + ||b||_inf) after one step of iterative refinement
SOLVE_RTOL = 1e-10
# Column ordering of every LU: minimum degree on the pattern of A^T + A.
# Every matrix factorized here is a structurally symmetric P1 operator, at
# most bordered by dense rows and columns; above about a thousand unknowns
# SuperLU's default COLAMD, which orders for A^T A, fills far more on those
# (1.11 M against 0.69 M nonzeros in L + U for M + dt A at 105 x 105).
PERMC_SPEC = "MMD_AT_PLUS_A"
# The band Cholesky is tried only when the half-bandwidth b of A in RCM order
# has b^2 <= BAND_LIMIT sqrt(n); above it SuperLU's MMD-ordered LU is the
# faster.  Measured with one BLAS thread on M + dt K (band / LU ms): square
# meshes (b^2/sqrt(n) = N for acfold N x N) win to N = 300 at 567 / 692
# (N = 105: 18 / 55, N = 250: 278 / 473); doubly periodic schnak (neq 2)
# 90 x 90 (b^2/sqrt(n) = 564) at 64 / 74 and breaks even at 100 x 100 and
# 110 x 110 (628 and 692); it loses at 120 x 120 (755) at 156 / 129.
BAND_LIMIT = 400.0


class SingularMatrixError(RuntimeError):
    pass


class FactorCache:
    """Sparse factorizations that are counted (factor_count).  It keeps at
    most one factorization, held: continuation.cont's (key, (A0, lu)).  A
    factorization drops it first, so that no two are alive.  It also keeps
    band, the band Cholesky's order for the last pattern it saw; a copy
    takes neither.  banded tells whether the last factorization was a band
    Cholesky."""

    def __init__(self):
        self.factor_count = 0
        self.held = None
        self.band = None
        self.banded = False

    def __getstate__(self):
        return dict(self.__dict__, held=None, band=None)

    def factorize(self, A: sp.spmatrix, spd: bool = False, **options):
        """splu(A, permc_spec=PERMC_SPEC, **options), partial pivoting unless
        the options say otherwise; A itself is left as it is (splu would sort
        a non-canonical CSC matrix in place, so it gets a copy).

        With spd (A expected symmetric positive definite) A is first tried
        by _band_cholesky; the LU is made only when that declines: A not
        symmetric to SYMMETRY_RTOL, a band beyond BAND_LIMIT, or a
        non-positive pivot.  Either factor offers solve(rhs, trans) and nnz.
        """
        self.held = None
        A = A.tocsc()
        if not A.has_canonical_format:
            A = A.copy()
        self.banded = False
        if spd:
            factor = self._band_cholesky(A)
            if factor is not None:
                self.banded = True
                self.factor_count += 1
                return factor
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", spla.MatrixRankWarning)
                lu = spla.splu(A, **{"permc_spec": PERMC_SPEC, **options})
        except (RuntimeError, spla.MatrixRankWarning) as exc:
            raise SingularMatrixError(str(exc)) from exc
        self.factor_count += 1
        return lu

    def _band_cholesky(self, A: sp.csc_matrix):
        """BandCholesky of A in the RCM order of its pattern, or None.  The
        order is computed once per exact pattern (indptr and indices) and
        kept in band."""
        A.sum_duplicates()     # a no-op unless factorize copied A
        band = self.band
        if band is None or not band.fits(A):
            band = self.band = _BandOrder(A)
        if band.slot is None:
            return None
        n = A.shape[0]
        # ||A - A^T||_inf from each entry's difference with its mirror
        asym = np.bincount(A.indices, np.abs(A.data - A.data[band.mirror]),
                           n).max(initial=0.0)
        if not asym <= SYMMETRY_RTOL * _infnorm(A):
            return None
        # the band is written column-major so that dpbtrf works in place
        ab = np.zeros((band.b + 1) * n)
        ab[band.slot] = A.data[band.lower]
        try:
            cb = la.cholesky_banded(ab.reshape((band.b + 1, n), order="F"),
                                    overwrite_ab=True, lower=True,
                                    check_finite=False)
        except la.LinAlgError:
            return None
        return BandCholesky(cb, band.perm)


class _BandOrder:
    """A pattern's reverse Cuthill-McKee order and the scatter of A.data
    into the lower band of P A P^T, stored as LAPACK's (b + 1) x n lower
    band flattened column-major: entry (i, j), i >= j, at (i - j) + (b + 1) j.
    slot is None when the pattern is not structurally symmetric or the band
    exceeds BAND_LIMIT; mirror is the data index of each entry's transpose."""

    def __init__(self, A: sp.csc_matrix):
        self.indptr, self.indices = A.indptr.copy(), A.indices.copy()
        self.slot = None
        n = A.shape[0]
        T = sp.csc_matrix((np.arange(A.nnz), A.indices, A.indptr),
                          shape=A.shape).T.tocsc()
        if not (np.array_equal(T.indptr, A.indptr)
                and np.array_equal(T.indices, A.indices)):
            return
        self.mirror = T.data
        # imported here: csgraph adds about 1 MB to a process that never
        # time-steps
        from scipy.sparse import csgraph
        self.perm = csgraph.reverse_cuthill_mckee(A, symmetric_mode=True)
        inv = np.empty(n, dtype=np.int64)
        inv[self.perm] = np.arange(n)
        i = inv[A.indices]
        j = inv[np.repeat(np.arange(n), np.diff(A.indptr))]
        self.lower = np.flatnonzero(i >= j)
        d, j = i[self.lower] - j[self.lower], j[self.lower]
        self.b = int(d.max(initial=0))
        if self.b ** 2 <= BAND_LIMIT * np.sqrt(n):
            self.slot = d + (self.b + 1) * j

    def fits(self, A: sp.csc_matrix) -> bool:
        return (np.array_equal(self.indptr, A.indptr)
                and np.array_equal(self.indices, A.indices))


class BandCholesky:
    """P A P^T = L L^T with L lower banded (LAPACK dpbtrf's factor cb) and
    P the RCM order perm.  nnz is the band's stored entries, n (b + 1)."""

    def __init__(self, cb: np.ndarray, perm: np.ndarray):
        self.cb, self.perm = cb, perm
        self.nnz = cb.size

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """A^{-1} rhs for a 1-D or 2-D rhs; A is symmetric, so every trans
        solves the same system."""
        y = la.cho_solve_banded((self.cb, True),
                                np.asarray(rhs, dtype=float)[self.perm],
                                overwrite_b=True, check_finite=False)
        x = np.empty_like(y)
        x[self.perm] = y
        return x


def solve(lu, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
    """lu.solve(rhs, trans): with A^T for trans "T"; a non-finite solution
    is a SingularMatrixError."""
    x = lu.solve(rhs, trans)
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("linear solve produced non-finite values")
    return x


def lss(A: sp.spmatrix, rhs: np.ndarray,
        cache: FactorCache | None = None) -> np.ndarray:
    """Solve A x = rhs by one sparse LU with partial pivoting, counted in
    cache (a fresh one when None)."""
    rhs = np.asarray(rhs, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[0] != rhs.shape[0]:
        raise ValueError(f"shape mismatch: A {A.shape}, rhs {rhs.shape}")
    return solve((cache or FactorCache()).factorize(A), rhs)


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
         rhs: np.ndarray, cache: FactorCache | None = None) -> np.ndarray:
    """Solve [[A], [border_row^T]] x = (rhs, border_rhs), A n x (n+1), by
    lss with cache."""
    n = A.shape[0]
    if A.shape[1] != n + 1 or len(border_row) != n + 1 or len(rhs) != n:
        raise ValueError("bordered system dimensions inconsistent")
    return lss(bordered(A, border_row), np.append(rhs, border_rhs), cache)


def factorize_square(A: sp.spmatrix, cache: FactorCache | None = None):
    """One LU of the square matrix A and, when it tells, its inertia:
    (lu, ineg).

    Symmetric A first gets a symmetric-mode LU, P A P^T = L D L^T, accepted
    when rows and columns share one ordering and no pivot is tiny
    (|d| <= PIVOT_RTOL ||A||_inf); ineg is then its number of negative
    pivots.  Otherwise (nonsymmetric A, a zero, tiny or off-diagonal pivot)
    it is SuperLU's partial-pivoting LU and ineg is None.  The LU is
    unpivoted in the first case, so solve with checked_solve.  Raises
    SingularMatrixError when the pivoting LU fails too.
    """
    cache = FactorCache() if cache is None else cache
    A = A.tocsc()
    return _inertia_lu(A, cache) or (cache.factorize(A), None)


def _inertia_lu(A: sp.csc_matrix, cache: FactorCache):
    """factorize_square's accepted symmetric-mode LU and its count of
    negative pivots, or None."""
    norm = _infnorm(A)
    if _infnorm(A - A.T) > SYMMETRY_RTOL * norm:
        return None
    try:
        lu = cache.factorize(A, diag_pivot_thresh=0,
                             options={"SymmetricMode": True})
    except SingularMatrixError:
        return None
    d = lu.U.diagonal()
    if (not np.array_equal(lu.perm_r, lu.perm_c)
            or np.abs(d).min() <= PIVOT_RTOL * norm):
        return None
    return lu, int(np.count_nonzero(d < 0))


def checked_solve(lu, A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """x = A^{-1} b from an LU of A with one step of iterative refinement;
    a SingularMatrixError unless the residual then passes
    ||A x - b||_inf <= SOLVE_RTOL (||A||_inf ||x||_inf + ||b||_inf)."""
    x = solve(lu, b)
    x = x + solve(lu, b - A @ x)
    r = np.abs(b - A @ x).max(initial=0.0)
    scale = (_infnorm(A) * np.abs(x).max(initial=0.0)
             + np.abs(b).max(initial=0.0))
    if not r <= SOLVE_RTOL * scale:
        raise SingularMatrixError(f"solve residual {r:.2e} exceeds "
                                  f"{SOLVE_RTOL:g} x {scale:.2e}")
    return x


def stability_index(Gu: sp.spmatrix, M: sp.spmatrix, neig: int = 50,
                    cache: FactorCache | None = None) -> int:
    """Number of eigenvalues of Gu v = mu M v (M SPD) with negative real part.

    Symmetric Gu: the exact count, not capped by neig.  By Sylvester's law of
    inertia it is the number of negative pivots of factorize_square's
    symmetric-mode LU, P Gu P^T = L D L^T.  Otherwise (nonsymmetric Gu, or
    that LU refused) it is spectrum_near_zero's count among the neig
    eigenvalues nearest zero.  The LU is counted in cache (a fresh one when
    None).
    """
    factored = _inertia_lu(Gu.tocsc(), cache or FactorCache())
    if factored is not None:
        return factored[1]
    return spectrum_near_zero(Gu, M, neig)["ineg"]


def spectrum_near_zero(Gu: sp.spmatrix, M: sp.spmatrix, neig: int = 50) -> dict:
    """Eigenvalues of Gu v = mu M v of smallest magnitude.

    Shift-invert Arnoldi at shift 0 for k = min(neig, n - 2) >= 1 eigenvalues;
    the dense QZ only where Arnoldi cannot run (n <= 2).  Returns eigenvalues
    (sorted by magnitude), eigenvectors, and ineg = number of returned
    eigenvalues with negative real part.
    """
    n = Gu.shape[0]
    k = min(neig, n - 2)
    if n <= DENSE_EIG_LIMIT or k < 1:
        import scipy.linalg as la
        mu, V = la.eig(Gu.toarray(), M.toarray())
        order = np.argsort(np.abs(mu))[:min(neig, n)]
        mu, V = mu[order], V[:, order]
    else:
        mu, V = _shift_invert_eigs(Gu, M, k)
        order = np.argsort(np.abs(mu))
        mu, V = mu[order], V[:, order]
    ineg = int(np.sum(mu.real < 0))
    return {"eigenvalues": mu, "eigenvectors": V, "ineg": ineg}


def _shift_invert_eigs(Gu: sp.spmatrix, M: sp.spmatrix, k: int) -> tuple:
    """scipy's eigs at shift 0, or at a small negative shift when the LU at
    0 fails; the ARPACK objects it leaves behind are freed before return.

    With an M, scipy's _UnsymmetricArpackParams (scipy 1.17) sets
    self.OP = lambda x: self.OPa(M_matvec(x)), a reference cycle that keeps
    the object, its SpLuInv LU of Gu and the Arnoldi workspace alive until
    the cyclic collector runs.  With the automatic collector held off during
    eigs the cycle is still in the youngest generation when eigs returns,
    and collecting that generation (under a millisecond) frees it.
    """
    v0 = np.linspace(1.0, 2.0, Gu.shape[0])   # deterministic start vector
    enabled = gc.isenabled()
    gc.disable()
    try:
        for shift in (0.0, -1e-6 * _infnorm(Gu)):
            try:
                return spla.eigs(Gu.tocsc(), k=k, M=M.tocsc(), sigma=shift,
                                 which="LM", v0=v0)
            except RuntimeError:
                continue
        raise SingularMatrixError("shift-invert eigensolver failed")
    finally:
        if enabled:
            gc.enable()
        gc.collect(0)


def _infnorm(A: sp.spmatrix) -> float:
    A = A.tocsc()   # abs(A).sum(axis=1)'s row sums, in its order, without |A|
    return float(np.bincount(A.indices, np.abs(A.data), A.shape[0])
                 .max(initial=0.0))
