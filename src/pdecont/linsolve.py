"""Sparse LU solves: the bordered matrix of the Newton correctors (the
Jacobian of (G, q) in (u, wtilde, alpha) plus one row, e_alpha or the
weighted tangent), the one factorization of a square block that serves both
the tangent and the stability index (factorize_square, checked_solve), the
stacked bordered solve the tangent falls back on (blss), and the near-zero
spectrum.  The time steppers' symmetric positive definite M + dt A is
factorized instead by LAPACK's banded Cholesky in a reverse Cuthill-McKee
order (FactorCache.factorize(A, kind="spd")), on one BLAS thread.

What a factorization needs of A's sparsity pattern alone is computed once
per exact pattern and kept by the FactorCache (_Pattern): the transpose map
its symmetry probes use, SuperLU's minimum-degree column order of each
factor kind, taken from the pattern's first LU, and the band order.  A
later LU of the pattern factorizes A's copy in the kept order, without
ordering it again (PermutedLU)."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import gc
import glob
import os
import warnings

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import pattern_slots

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
# Column ordering of every LU: minimum degree on the pattern of A^T + A,
# computed by SuperLU at a pattern's first LU of each factor kind and kept
# for its later ones.  Every matrix factorized here is a structurally
# symmetric P1 operator, at most bordered by dense rows and columns; above
# about a thousand unknowns SuperLU's default COLAMD, which orders for
# A^T A, fills far more on those (1.11 M against 0.69 M nonzeros in L + U
# for M + dt A at 105 x 105).
PERMC_SPEC = "MMD_AT_PLUS_A"
# SuperLU's options of the "ldlt" factor kind, P A P^T = L D L^T
# (factorize_square); the "lu" kind, without options, is its partial
# pivoting.  A FactorCache keeps the column order of each per pattern.
SYMMETRIC_MODE = {"diag_pivot_thresh": 0, "options": {"SymmetricMode": True}}
# Sparsity patterns a FactorCache keeps, the most recently used first.  A
# continuation alternates between a few: the square block and the bordered
# matrix, in the base and in the fold system; and the frozen front's A0,
# whose dense rows drop exact zeros, comes back to its usual pattern after
# up to three others.
PATTERNS_KEPT = 4
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
    patterns, the _Pattern records of the last PATTERNS_KEPT sparsity
    patterns it saw, the most recently used first; a copy takes neither.
    banded tells whether the last factorization was a band Cholesky."""

    def __init__(self):
        self.factor_count = 0
        self.held = None
        self.patterns = []
        self.banded = False

    def __getstate__(self):
        return dict(self.__dict__, held=None, patterns=[])

    def pattern(self, A: sp.csc_matrix) -> "_Pattern":
        """The record of A's exact pattern (A canonical CSC), made when the
        cache has none; it becomes the most recently used."""
        for k, rec in enumerate(self.patterns):
            if rec.fits(A):
                self.patterns.insert(0, self.patterns.pop(k))
                return rec
        rec = _Pattern(A)
        self.patterns = [rec] + self.patterns[:PATTERNS_KEPT - 1]
        return rec

    def factorize(self, A: sp.spmatrix, kind: str = "lu"):
        """A's factorization of the kind asked for: "lu", SuperLU's partial
        pivoting; "ldlt", its symmetric mode (SYMMETRIC_MODE), whose pivots
        give factorize_square the inertia; "spd" (A expected symmetric
        positive definite), _band_cholesky, and the "lu" where that
        declines: A not symmetric to SYMMETRY_RTOL, a band beyond
        BAND_LIMIT, or a non-positive pivot.  Any other kind is a
        ValueError.  An LU orders A's columns only at the first LU of its
        pattern in its kind; later ones factorize A in the kept order
        (PermutedLU).  A itself is left as it is (splu would sort a
        non-canonical CSC matrix in place, so it gets a copy).  Every
        factor offers solve(rhs, trans) and nnz.
        """
        if kind not in ("lu", "ldlt", "spd"):
            raise ValueError(f"unknown factor kind {kind!r}")
        self.held = None
        A = _canonical(A)
        factor = self._band_cholesky(A) if kind == "spd" else None
        self.banded = factor is not None
        if factor is None:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", spla.MatrixRankWarning)
                    factor = self.pattern(A).lu(
                        A, "ldlt" if kind == "ldlt" else "lu")
            except (RuntimeError, spla.MatrixRankWarning) as exc:
                raise SingularMatrixError(str(exc)) from exc
        self.factor_count += 1
        return factor

    def _band_cholesky(self, A: sp.csc_matrix):
        """BandCholesky of A in the RCM order of its pattern, or None."""
        rec = self.pattern(A)
        rec.band_order()
        if (rec.slot is None
                or not _asymmetry(A, rec) <= SYMMETRY_RTOL * _infnorm(A)):
            return None
        # the band is written column-major so that dpbtrf works in place
        n = A.shape[0]
        ab = np.zeros((rec.b + 1) * n)
        ab[rec.slot] = A.data[rec.lower]
        try:
            with _one_blas_thread():
                cb = la.cholesky_banded(
                    ab.reshape((rec.b + 1, n), order="F"), overwrite_ab=True,
                    lower=True, check_finite=False)
        except la.LinAlgError:
            return None
        return BandCholesky(cb, rec.perm)


class _Pattern:
    """What the factorizations of one exact sparsity pattern (indptr and
    indices of a canonical CSC matrix) share.

    - transpose: the data index of each entry's transpose, -1 where it is
      not stored, which the symmetry probe takes ||A - A^T||_inf from;
      mirror: the same, None when the pattern is not structurally
      symmetric.
    - order[kind]: the column order q of the factor kind ("lu" or
      "ldlt"), argsort of perm_c of the pattern's first LU of that kind
      (SuperLU's A P_c is A[:, argsort(perm_c)]).  A later LU factorizes
      A[:, q], or A[q][:, q] in symmetric mode, in its natural order,
      gathered through an index array made at that second LU.
    - the band Cholesky's reverse Cuthill-McKee order perm and the scatter
      of A.data into the lower band of P A P^T, stored as LAPACK's (b + 1)
      x n lower band flattened column-major: entry (i, j), i >= j, at
      (i - j) + (b + 1) j.  Made at the first band_order; slot is None when
      the pattern is not structurally symmetric or the band exceeds
      BAND_LIMIT."""

    def __init__(self, A: sp.csc_matrix):
        self.shape = A.shape
        self.indptr, self.indices = A.indptr.copy(), A.indices.copy()
        self.order = {}
        self._gather = {}
        self.b = self.slot = None

    def fits(self, A: sp.csc_matrix) -> bool:
        return (A.shape == self.shape and A.nnz == len(self.indices)
                and np.array_equal(self.indptr, A.indptr)
                and np.array_equal(self.indices, A.indices))

    @functools.cached_property
    def transpose(self) -> tuple:
        """(t, lone, lone_cols): t[k] the data index of the transpose of
        entry k, -1 where it is not stored (every entry of a non-square
        pattern); lone the entries without a stored transpose, and their
        columns."""
        cols = np.repeat(np.arange(self.shape[1], dtype=self.indices.dtype),
                         np.diff(self.indptr))
        if self.shape[0] == self.shape[1]:
            # entry (i, j)'s transpose is the stored (j, i)
            t = pattern_slots(self.indptr, self.indices, cols,
                              self.indices).astype(self.indices.dtype)
        else:
            t = np.full(len(self.indices), -1, dtype=self.indices.dtype)
        lone = np.flatnonzero(t < 0)
        return t, lone, cols[lone]

    @functools.cached_property
    def mirror(self):
        """The data index of each entry's transpose, None when the pattern
        is not structurally symmetric."""
        t, lone, _ = self.transpose
        return None if len(lone) else t

    def lu(self, A: sp.csc_matrix, kind: str):
        """SuperLU of A (this record's pattern) for the factor kind: at the
        kind's first LU ordered by SuperLU (PERMC_SPEC), whose order is kept,
        and later in that order (a PermutedLU)."""
        options = SYMMETRIC_MODE if kind == "ldlt" else {}
        q = self.order.get(kind)
        if q is None:
            # allocated before the LU, so that it does not sit in the heap
            # above the LU's freed memory
            q = np.empty(A.shape[1], dtype=np.intp)
            lu = spla.splu(A, permc_spec=PERMC_SPEC, **options)
            q[lu.perm_c] = np.arange(len(q))
            self.order[kind] = q
            return lu
        if kind not in self._gather:
            self._gather[kind] = self._permutation(q, kind == "ldlt")
        take, indices, indptr, data = self._gather[kind]
        # written in place: a buffer made per LU would be freed while the
        # LU lives, and leave the heap fragmented below it
        np.take(A.data, take, out=data)
        B = sp.csc_matrix((data, indices, indptr), shape=A.shape)
        B.has_canonical_format = True
        lu = spla.splu(B, permc_spec="NATURAL", **options)
        return PermutedLU(lu, q if kind == "ldlt" else None, q)

    def _permutation(self, q: np.ndarray, rows: bool) -> tuple:
        """(take, indices, indptr, data) of the canonical CSC copy B =
        A[:, q], or A[q][:, q] with rows: B.data = A.data[take], written
        into data."""
        counts = np.diff(self.indptr)[q]
        indptr = np.zeros(len(q) + 1, dtype=self.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        take = (np.repeat(self.indptr[q] - indptr[:-1], counts)
                + np.arange(indptr[-1]))
        indices = self.indices[take]
        if rows:
            inv = np.empty_like(q)
            inv[q] = np.arange(len(q))
            indices = inv[indices].astype(self.indices.dtype)
            # sorted within each column: column-major keys
            sort = np.argsort(np.repeat(np.arange(len(q)), counts)
                              * len(q) + indices, kind="stable")
            take, indices = take[sort], indices[sort]
        return (take.astype(self.indices.dtype), indices, indptr,
                np.empty(len(take)))

    def band_order(self):
        """Compute the band Cholesky's order once (see the class)."""
        if self.b is not None or self.mirror is None:
            return
        # imported here: csgraph adds about 1 MB to a process that never
        # time-steps
        from scipy.sparse import csgraph
        n = self.shape[0]
        A = sp.csc_matrix((np.ones(len(self.indices)), self.indices,
                           self.indptr), shape=self.shape)
        self.perm = csgraph.reverse_cuthill_mckee(A, symmetric_mode=True)
        inv = np.empty(n, dtype=np.int64)
        inv[self.perm] = np.arange(n)
        i = inv[self.indices]
        j = inv[np.repeat(np.arange(n), np.diff(self.indptr))]
        self.lower = np.flatnonzero(i >= j)
        d, j = i[self.lower] - j[self.lower], j[self.lower]
        self.b = int(d.max(initial=0))
        if self.b ** 2 <= BAND_LIMIT * np.sqrt(n):
            self.slot = d + (self.b + 1) * j


class PermutedLU:
    """The LU of A from SuperLU's LU of its copy B = A[p][:, q] (p None: B =
    A[:, q]) in B's natural order, with the members the package uses in A's
    numbering: solve(rhs, trans), nnz, perm_r and perm_c (Pr A Pc = L U).
    U is B's, whose diagonal holds the same pivots in the same elimination
    order as an LU of A ordered by q."""

    def __init__(self, lu, p, q):
        self._lu, self._p, self._q = lu, p, q
        self.nnz = lu.nnz

    @property
    def U(self):
        return self._lu.U

    @property
    def perm_r(self) -> np.ndarray:
        r = np.argsort(self._lu.perm_r)
        return np.argsort(r if self._p is None else self._p[r])

    @property
    def perm_c(self) -> np.ndarray:
        return np.argsort(self._q[np.argsort(self._lu.perm_c)])

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """A^{-1} rhs (A^T for trans "T") for a 1-D or 2-D rhs."""
        rhs = np.asarray(rhs, dtype=float)
        rows, cols = (self._p, self._q) if trans == "N" else (self._q, self._p)
        y = self._lu.solve(rhs if rows is None else rhs[rows], trans)
        if cols is None:
            return y
        x = np.empty_like(y)
        x[cols] = y
        return x


def _canonical(A: sp.spmatrix) -> sp.csc_matrix:
    """A as canonical CSC; a copy where A is not (splu would sort a
    non-canonical CSC matrix in place)."""
    A = A.tocsc()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    return A


def _asymmetry(A: sp.csc_matrix, rec: _Pattern) -> float:
    """||A - A^T||_inf from the transpose map of A's pattern rec: entry
    (i, j) adds |a_ij - a_ji| to row i where (j, i) is stored, and |a_ij|
    to rows i and j where it is not."""
    t, lone, lone_cols = rec.transpose
    d = A.data - A.data[t]
    d[lone] = A.data[lone]
    np.abs(d, out=d)
    rows = np.bincount(A.indices, d, A.shape[0])
    if len(lone):
        rows += np.bincount(lone_cols, d[lone], A.shape[0])
    return float(rows.max(initial=0.0))


@functools.cache
def _openblas():
    """scipy's bundled OpenBLAS (scipy.libs/libscipy_openblas-*.so) when it
    exports its thread-count functions, else None."""
    import scipy
    libs = sorted(glob.glob(os.path.join(os.path.dirname(scipy.__file__),
                                         os.pardir, "scipy.libs",
                                         "libscipy_openblas*.so")))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if (hasattr(lib, "scipy_openblas_get_num_threads")
                and hasattr(lib, "scipy_openblas_set_num_threads")):
            lib.scipy_openblas_get_num_threads.argtypes = []
            lib.scipy_openblas_get_num_threads.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads.restype = None
            return lib
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the caller's count;
    a no-op where _openblas finds no library.  The band factorization is
    the slower for a second thread (dpbtrf at 105 x 105: 17.5 ms on one
    thread, 23.9 ms on two)."""
    lib = _openblas()
    n = 1 if lib is None else lib.scipy_openblas_get_num_threads()
    if n > 1:
        lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        if n > 1:
            lib.scipy_openblas_set_num_threads(n)


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


def split_last_column(J: sp.csc_matrix) -> tuple:
    """(J[:, :-1], J[:, -1] as a dense vector) of a canonical CSC J, taken
    off its arrays: the leading columns share J's storage."""
    n = J.shape[1] - 1
    end, nnz = J.indptr[n], J.indptr[n + 1]
    A = sp.csc_matrix((J.data[:end], J.indices[:end], J.indptr[:n + 1]),
                      shape=(J.shape[0], n))
    A.has_canonical_format = True
    a = np.zeros(J.shape[0])
    a[J.indices[end:nnz]] = J.data[end:nnz]
    return A, a


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
    A = _canonical(A)
    norm = _infnorm(A)
    if _asymmetry(A, cache.pattern(A)) > SYMMETRY_RTOL * norm:
        return None
    try:
        lu = cache.factorize(A, kind="ldlt")
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
        mu, V = la.eig(Gu.toarray(), M.toarray())
    else:
        mu, V = _shift_invert_eigs(Gu, M, k)
    order = np.argsort(np.abs(mu))[:min(neig, n)]
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
    """||A||_inf, bitwise equal to float(abs(A).sum(axis=1).max()): the
    package's one infinity-norm rule, also switching.swibra's kernel scale."""
    A = A.tocsc()   # abs(A).sum(axis=1)'s row sums, in its order, without |A|
    return float(np.bincount(A.indices, np.abs(A.data), A.shape[0])
                 .max(initial=0.0))
