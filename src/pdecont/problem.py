"""Problem definition: unknown vector U=(u,w), operator cache, residual and
Jacobian dispatch, parameter activation and the weighted arclength product.

A problem either declares its interior operator once as a Semilinear, from
which this module derives the residual and Jacobian on the cached operators,
the fold-system second-derivative block, the coefficient tensors and the
tints splitting; or it writes the tensor callbacks G/Gjac itself, which the
general path assembles afresh at each call (general_data, shared by the
tensor residual, the tensor Jacobian and tint).  It assembles as data on
the ReducedPattern: one sparse mat-vec per nonzero coefficient by the
pattern's fem.Assembly operators, built at the general path's first use.

Jacobians are data on cached patterns: a semilinear Gu, the fold block and
the general path's A are data vectors on the ReducedPattern, the one P1
pattern of the reduced space, and jacobian_active writes its blocks into a
Layout cached per (mode, nq, number of active parameters); setfemops drops
both.

The unknown vector stores the nodal PDE values (length nu, reduced when a
periodization is active) followed by all auxiliary variables.  The active
auxiliary variables are selected by the 1-based index list ilam; ilam[0] is
the primary continuation parameter.  Active vectors (tangents, predictor
corrections) are laid out (u, wtilde, alpha) with the primary last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from . import fem, linsolve, periodic
from .mesh import Mesh, p1_pattern
from .periodic import Periodization


class ProblemError(ValueError):
    pass


# ---------------------------------------------------------------------------
# controls / switches

@dataclass(slots=True)
class Controls:
    tol: float = 1e-10
    imax: int = 10
    del_: float = 1e-8
    dsmin: float = 1e-8
    dsmax: float = 0.1
    dsinciter: int = 5          # imax // 2 at the defaults; not tied to imax
    dsincfac: float = 2.0
    dlammax: float = 1.0
    lamdtol: float = 0.5
    dsminbis: float = 1e-9
    bisecmax: int = 10
    nsteps: int = 10
    ntot: int = 10000
    neig: int = 50
    lammin: float = -1e6
    lammax: float = 1e6
    xi: Optional[float] = None      # set to 1/nu at continuation start
    xiq: Optional[float] = None


@dataclass(slots=True)
class Switches:
    bifcheck: int = 1
    foldcheck: int = 0
    spcalc: int = 1
    jac: int = 1          # 1 analytic, 0 numeric
    qjac: int = 1
    spjac: int = 1        # 1 derived second-derivative block, 0 numeric
    para: int = 1         # 0 natural, 1 automatic, 2 arclength
    bifloc: int = 2       # 0 tangent, 1 secant, 2 quadratic predictor
    bcper: int = 0
    spcont: int = 0       # 0 normal, 1 branch point, 2 fold continuation
    newt: int = 0         # 0 full, 1 chord Newton


@dataclass
class SolInfo:
    ds: float = 0.01
    xi: float = 1.0
    xiq: float = 1.0
    ineg: int = -1
    iter: int = 0
    meth: str = "arc"
    restart: bool = False           # the last cont stopped on ds < dsmin
    # "point: what went wrong" for each failure continuation warned of
    failures: list = field(default_factory=list)


@dataclass
class FileInfo:
    dir: str = ""
    count: int = 0
    bcount: int = 0
    fcount: int = 0


@dataclass
class Semilinear:
    """The semilinear operator  d(w) (-div(c grad u)) - b(w).grad u - f(u, w).

    c is a constant diffusion tensor (scalar, or (N, N, 2, 2) for N
    components), assembled once into ops.K and scaled by d(w); the advection
    b(w) = (bx, by) acts on every component through ops.Kdx / ops.Kdy.  f, fu
    and the directional second derivative fuu(ut, phit, w) = d_u(fu phi) are
    pointwise on the triangle means ut = Ctri u, which have shape (nt,) for
    scalar problems and (N, nt) for systems; f returns the shape of ut, fu
    and fuu return (nt,) or (nt, N, N).  w is the auxiliary vector.  The
    boundary operator ops.Q, Gb must not depend on u or w.
    """
    f: Callable
    fu: Callable
    fuu: Callable
    c: object = 1.0
    d: Optional[Callable] = None      # None: d = 1
    b: Optional[Callable] = None      # None: no advection

    def scale(self, w) -> float:
        return 1.0 if self.d is None else self.d(w)

    def advection(self, w) -> tuple:
        return (0.0, 0.0) if self.b is None else tuple(self.b(w))


@dataclass
class Callbacks:
    G: Optional[Callable] = None          # (state, U) -> CoeffTensors
    Gjac: Optional[Callable] = None       # (state, U) -> CoeffTensors for Gu
    bc: Optional[Callable] = None         # (state, U) -> BCSpec
    bcjac: Optional[Callable] = None
    semilinear: Optional[Semilinear] = None   # derives G, Gjac when unset
    qf: Optional[Callable] = None         # (state, U) -> (nq,)
    qjac: Optional[Callable] = None       # (state, U) -> (nq, nu)
    outfu: Optional[Callable] = None      # (state, U) -> list of user columns
    outnames: Sequence[str] = ()

    def __post_init__(self):
        if self.semilinear is not None:
            self.G = self.G or semilinear_G
            self.Gjac = self.Gjac or semilinear_Gjac


@dataclass
class OperatorCache:
    M: Optional[sp.csc_matrix] = None         # consistent mass (reduced space)
    K: Optional[sp.csc_matrix] = None         # stiffness of semilinear c (or 1)
    Kdx: Optional[sp.csc_matrix] = None       # int (dx phi_j) phi_i, reduced
    Kdy: Optional[sp.csc_matrix] = None
    Q: Optional[sp.csc_matrix] = None         # boundary matrix snapshot
    Gb: Optional[np.ndarray] = None
    Fload: Optional[sp.csc_matrix] = None     # load of tri values: Mtl, rows reduced
    Ctri: Optional[sp.csc_matrix] = None      # tri means: C, columns reduced
    per: Optional[Periodization] = None
    # counts every LU factorization of the state (correctors, tangents and
    # their blss fallback, indices, tint, tints) and holds cont's one
    cache: linsolve.FactorCache = field(default_factory=linsolve.FactorCache)
    # built at the first Jacobian, dropped by setfemops
    pattern: Optional["ReducedPattern"] = None
    layouts: dict = field(default_factory=dict)     # blocks_matrix's


@dataclass
class ProblemState:
    name: str
    mesh: Mesh
    neq: int
    u: np.ndarray                        # (nu + naux,)
    parnames: Sequence[str]
    callbacks: Callbacks
    controls: Controls = field(default_factory=Controls)
    switches: Switches = field(default_factory=Switches)
    sol: SolInfo = field(default_factory=SolInfo)
    file: FileInfo = field(default_factory=FileInfo)
    ops: OperatorCache = field(default_factory=OperatorCache)
    ilam: list = field(default_factory=lambda: [1])
    nq: int = 0
    tau: Optional[np.ndarray] = None     # (nu + nq + 1,)
    uold: Optional[np.ndarray] = None    # previous accepted u (phase conditions)
    branch: list = field(default_factory=list)
    usrlam: list = field(default_factory=list)
    timeseries: list = field(default_factory=list)
    ptype: int = -1
    total_steps: int = 0
    demo_config: dict = field(default_factory=dict)

    @property
    def mode(self) -> str:
        """"spcont" in fold or branch-point continuation (switches.spcont 1
        or 2), else "normal"."""
        return "spcont" if self.switches.spcont in (1, 2) else "normal"

    @property
    def spdata(self) -> Optional[dict]:
        """Fold continuation's layout, {"nu_base": length of the base PDE
        field}, taken from the periodization; None in normal mode."""
        if self.mode != "spcont":
            return None
        return {"nu_base": self.ops.per.nu_per}

    @property
    def nu(self) -> int:
        nb = self.ops.per.nu_per        # the base PDE field, in both modes
        return 2 * nb if self.mode == "spcont" else nb

    @property
    def naux(self) -> int:
        return len(self.u) - self.nu

    def pars(self) -> np.ndarray:
        return self.u[self.nu:]

    def getaux(self, name_or_index) -> float:
        return self.u[self.nu + self._aux_index(name_or_index)]

    def setaux(self, name_or_index, value: float):
        self.u[self.nu + self._aux_index(name_or_index)] = value

    def _aux_index(self, key) -> int:
        if isinstance(key, str):
            return list(self.parnames).index(key)
        return int(key) - 1          # 1-based like ilam

    @property
    def primary_value(self) -> float:
        return self.u[self.nu + self.ilam[0] - 1]


# ---------------------------------------------------------------------------
# operator setup

def setfemops(state: ProblemState):
    """(Re)assemble the cached operators; called at init and after bcper
    changes, which carry u, uold and tau reduced by the previous
    periodization over."""
    mesh, neq = state.mesh, state.neq
    per = periodic.build_periodization(mesh, neq, state.switches.bcper)
    naux = len(state.parnames)
    for name, ntail in (("u", naux), ("uold", naux), ("tau", state.nq + 1)):
        v = getattr(state, name)
        if v is not None:
            setattr(state, name, _reperiodize(state, per, v, ntail))
    state.ops.per = per
    state.ops.pattern = None
    state.ops.layouts.clear()
    state.ops.cache.held = None

    state.ops.M = periodic.periodize_operator(fem.assemble_mass(mesh, neq), per)

    sl = state.callbacks.semilinear
    ct = fem.CoeffTensors(c=1.0 if sl is None else sl.c)
    K = fem.assemble_interior(mesh, ct, neq)["K"]
    state.ops.K = periodic.periodize_operator(K, per)

    for attr, bvec in (("Kdx", (1.0, 0.0)), ("Kdy", (0.0, 1.0))):
        b = np.zeros((neq, neq, 2))
        for k in range(neq):
            b[k, k] = bvec
        adv = fem.assemble_interior(mesh, fem.CoeffTensors(b=b), neq)["Kadv"]
        # Kadv folds in the minus sign; Kdx/Kdy are the plain derivative forms
        setattr(state.ops, attr, -periodic.periodize_operator(adv, per))

    state.ops.Fload = periodic.periodize_vector(fem.load_operator(mesh, neq), per)
    # C fill, as (fill' C')'
    C = fem.interp_operator(mesh, neq)
    state.ops.Ctri = periodic.periodize_vector(C.T, per).T.tocsc()

    if state.callbacks.bc is not None:
        u_full = periodic.extend_vector(state.u[:state.nu], per)
        bdry = fem.assemble_boundary(mesh, state.callbacks.bc(state, state.u),
                                     u_full, state.pars(), neq)
        state.ops.Q = periodic.periodize_operator(bdry["Q"], per)
        state.ops.Gb = periodic.periodize_vector(bdry["Gb"], per)
    else:
        state.ops.Q = sp.csc_matrix((per.nu_per, per.nu_per))
        state.ops.Gb = np.zeros(per.nu_per)
    # a fill/drop product drops exact zeros, which the P1 stiffness has many
    # of; drop them without a periodization too
    ops = state.ops
    for A in (ops.M, ops.K, ops.Kdx, ops.Kdy, ops.Fload, ops.Ctri, ops.Q):
        A.eliminate_zeros()


def _reperiodize(state: ProblemState, per: Periodization, v: np.ndarray,
                 ntail: int) -> np.ndarray:
    """v (u, uold or tau) with its nodal fields (two in fold continuation)
    reduced by per and its last ntail entries kept: a full-mesh field is
    restricted, one reduced by the previous periodization state.ops.per is
    extended through it first."""
    nfields = 2 if state.mode == "spcont" else 1
    nodal = v[:len(v) - ntail]
    old = state.ops.per
    if len(nodal) == nfields * per.fill.shape[0]:
        fields = np.split(nodal, nfields)
    elif old is not None and len(nodal) == nfields * old.nu_per:
        fields = [periodic.extend_vector(f, old)
                  for f in np.split(nodal, nfields)]
    else:
        raise periodic.PeriodicityError(
            f"unknown vector of length {len(v)} is neither full-mesh "
            "nor reduced by the previous periodization")
    return np.concatenate([periodic.restrict_vector(f, per) for f in fields]
                          + [v[len(nodal):]])


# ---------------------------------------------------------------------------
# residual / jacobian

def pde_residual(state: ProblemState, U: np.ndarray) -> np.ndarray:
    """Discrete G(u,w), length nu."""
    if state.mode == "spcont":
        from . import spcont as _spcont
        return _spcont.extended_pde_residual(state, U)
    if state.callbacks.semilinear is not None:
        return _semilinear_residual(state, U)
    return tensor_residual(state, U)


def tensor_residual(state: ProblemState, U: np.ndarray) -> np.ndarray:
    """G(u,w) = A u - F of the general path (general_data): the residual of
    a problem without a semilinear declaration, and the reference for the
    semilinear one."""
    A, F = assemble_general(state, U, state.callbacks.G(state, U),
                            state.callbacks.bc)
    return A @ U[:state.nu] - F


def general_data(state: ProblemState, U: np.ndarray, tensors, bc) -> tuple:
    """The general path at U: (a, F) with a the data of A = K + Ma + Kadv +
    Q on the ReducedPattern, from the coefficient tensors and the boundary
    provider bc (None: no boundary term), and F = Fload f + Gb.  The
    residual is A u - F and tint steps with it; the Jacobian takes A from
    callbacks.Gjac.  Assembled afresh at each call, one sparse mat-vec per
    nonzero coefficient onto the pattern (fem.Assembly)."""
    mesh, neq, nu = state.mesh, state.neq, state.nu
    P = reduced_pattern(state)
    a = fem.assemble_interior(mesh, tensors, neq, P.assembly)
    f = tensors.compact("f", mesh.ntri, neq)
    F = (state.ops.Fload @ np.broadcast_to(f, (mesh.ntri, neq)).T.ravel()
         if f.any() else np.zeros(nu))
    if bc is not None:
        bdry = fem.assemble_boundary(
            mesh, bc(state, U), periodic.extend_vector(U[:nu], state.ops.per),
            U[nu:], neq, P.assembly)
        a = a + bdry["Q"]
        F = F + bdry["Gb"]
    return a, F


def assemble_general(state: ProblemState, U: np.ndarray, tensors, bc):
    """general_data's (A, F), with A as a matrix."""
    a, F = general_data(state, U, tensors, bc)
    return reduced_pattern(state).matrix(a), F


def pde_jacobian_u(state: ProblemState, U: np.ndarray) -> sp.csc_matrix:
    """d(PDE residual)/du, sparse nu x nu in canonical CSC."""
    if state.mode == "spcont":
        from . import spcont as _spcont
        return _spcont.extended_pde_jacobian_u(state, U)
    if state.switches.jac == 0:
        return _fd_jacobian_u(state, U)
    if state.callbacks.semilinear is not None:
        return _semilinear_jacobian_u(state, U)
    return tensor_jacobian_u(state, U)


def jacobian_u_times(state: ProblemState, U: np.ndarray,
                     phi: np.ndarray) -> np.ndarray:
    """(d_u G) phi at U in normal mode: matrix-free for a semilinear
    declaration with switches.jac 1, else pde_jacobian_u(state, U) @ phi."""
    if state.switches.jac == 1 and state.callbacks.semilinear is not None:
        return _semilinear_jacobian_times(state, U, phi)
    return pde_jacobian_u(state, U) @ phi


def tensor_jacobian_u(state: ProblemState, U: np.ndarray) -> sp.csc_matrix:
    """d(tensor_residual)/du: A from the tensors of callbacks.Gjac and the
    boundary provider bcjac (bc when unset), less the load's derivative
    Fload diag(fu) Ctri, as data on the reduced pattern."""
    cb = state.callbacks
    tensors = cb.Gjac(state, U)
    a, _ = general_data(state, U, tensors, cb.bcjac or cb.bc)
    fu = tensors.compact("fu", state.mesh.ntri, state.neq)
    P = reduced_pattern(state)
    if fu.any():
        a = a - P.load_derivative(fu)
    return P.matrix(a)


def fd_columns(fun: Callable, x: np.ndarray, indices, delta: float,
               f0: np.ndarray | None = None) -> np.ndarray:
    """Forward differences (fun(x + delta e_j) - f0) / delta for j in
    indices, one column each; f0 defaults to fun(x)."""
    x = np.asarray(x, dtype=float)
    f0 = fun(x) if f0 is None else f0
    cols = np.empty((len(f0), len(indices)))
    for k, j in enumerate(indices):
        xp = x.copy()
        xp[j] += delta
        cols[:, k] = (fun(xp) - f0) / delta
    return cols


def _fd_jacobian_u(state: ProblemState, U: np.ndarray) -> sp.csc_matrix:
    return sp.csc_matrix(fd_columns(lambda V: pde_residual(state, V), U,
                                    range(state.nu), state.controls.del_))


def aux_residual(state: ProblemState, U: np.ndarray) -> np.ndarray:
    if state.nq == 0:
        return np.zeros(0)
    if state.mode == "spcont":
        from . import spcont as _spcont
        return _spcont.extended_aux_residual(state, U)
    return np.atleast_1d(np.asarray(state.callbacks.qf(state, U), dtype=float))


def residual(state: ProblemState, U: np.ndarray | None = None) -> np.ndarray:
    """Stacked residual (G(u,w), q(U)), length nu + nq."""
    U = state.u if U is None else np.asarray(U, dtype=float)
    if len(U) != state.nu + state.naux:
        raise ProblemError(f"unknown vector has length {len(U)}, "
                           f"expected {state.nu + state.naux}")
    return np.concatenate([pde_residual(state, U), aux_residual(state, U)])


def aux_jacobian_u(state: ProblemState, U: np.ndarray) -> sp.csc_matrix:
    """d q / du, aux_rows as CSC."""
    return sp.csc_matrix(aux_rows(state, U))


def aux_rows(state: ProblemState, U: np.ndarray) -> np.ndarray:
    """d q / du as dense (nq, nu) rows: callbacks.qjac's (switches.qjac 1),
    else forward differences."""
    if state.nq == 0:
        return np.zeros((0, state.nu))
    if state.mode == "spcont":
        from . import spcont as _spcont
        return _spcont.extended_aux_rows(state, U)
    if state.switches.qjac == 1 and state.callbacks.qjac is not None:
        return np.atleast_2d(np.asarray(state.callbacks.qjac(state, U),
                                        dtype=float))
    return fd_columns(lambda V: aux_residual(state, V), U, range(state.nu),
                      state.controls.del_)


def jacobian_active(state: ProblemState, U: np.ndarray | None = None,
                    f0: np.ndarray | None = None) -> sp.csc_matrix:
    """Jacobian of (G, q) w.r.t. (u, wtilde, alpha), shape (nu+nq) x (nu+nq+1).

    Derivatives w.r.t. the active auxiliary variables are one-sided forward
    differences with step del from f0, the residual at U (evaluated here
    when not given).  The aux rows go to the layout dense, as aux_rows gives
    them.
    """
    U = state.u if U is None else np.asarray(U, dtype=float)
    nu = state.nu
    Gu = pde_jacobian_u(state, U)
    Qu = aux_rows(state, U)
    W = fd_columns(lambda V: residual(state, V), U, active_slots(state),
                   state.controls.del_, f0=f0)
    return blocks_matrix(state, (state.mode, state.nq, W.shape[1]),
                         [[Gu, W[:nu]], [Qu, W[nu:]]])


# ---------------------------------------------------------------------------
# the reduced P1 pattern and the block layouts Jacobians are written into

class _Structure:
    """A canonical CSC structure (indptr, indices, shape) held by a cache."""

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """data on the structure, less the explicit zeros that a sparse sum
        or product would have dropped: the LU orders on what is stored."""
        # copied: the structure belongs to the cache, the matrix to the caller
        A = sp.csc_matrix((data, self.indices.copy(), self.indptr.copy()),
                          shape=self.shape)
        A.has_canonical_format = True
        if not data.all():
            A.eliminate_zeros()
        return A


class ReducedPattern(_Structure):
    """The pattern of the P1 operators on the reduced space: the P1 graph of
    the triangles with their nodes mapped to the periodization's kept ones,
    in neq x neq component blocks.  M, K, Kdx, Kdy and Q are taken onto it
    as data vectors at their first use (op), so that a semilinear Gu is a
    sum of those less one load_derivative scatter.  The general path
    assembles onto it through assembly, whose operators are built at their
    first use."""

    def __init__(self, state: ProblemState):
        mesh, per = state.mesh, state.ops.per
        if per.bcper or state.neq > 1:
            node = periodic.extend_vector(np.arange(per.nu_per), per)
            node = node[:mesh.npoints].astype(int)
            self.indptr, self.indices, self.slot = p1_pattern(
                node[mesh.triangles], per.np_per, state.neq)
        else:       # the mesh's own, which its assembly has built already
            node = np.arange(mesh.npoints)
            self.indptr, self.indices, self.slot = mesh.p1_pattern()
        self.shape = (per.nu_per, per.nu_per)
        self.area = mesh.tri_areas()
        self.assembly = fem.Assembly(mesh, self.indptr, self.indices,
                                     self.slot, node)
        self._ops = {name: getattr(state.ops, name)
                     for name in ("M", "K", "Kdx", "Kdy", "Q")}
        self._data = {}

    def op(self, name: str) -> np.ndarray:
        """ops.M, K, Kdx, Kdy or Q as read-only data on the pattern: a view
        of the operator's own data where it is stored on exactly this
        pattern."""
        if name not in self._data:
            A = self._ops[name]
            if (np.array_equal(A.indptr, self.indptr)
                    and np.array_equal(A.indices, self.indices)):
                # read-only: an in-place edit would change the operator
                self._data[name] = A.data.view()
                self._data[name].flags.writeable = False
            else:
                cols = np.repeat(np.arange(self.shape[1]),
                                 np.diff(self.indptr))
                self._data[name] = np.ravel(A[self.indices, cols])
        return self._data[name]

    def load_derivative(self, fu) -> np.ndarray:
        """Fload diag(fu) Ctri as data, for per-triangle fu of shape (nt,) or
        (nt, N, N), or (1, N, N) for all triangles: area fu[t, r, s] / 9
        from triangle t to each of its 3 x 3 node pairs in block (r, s)."""
        neq = self.slot.shape[1]
        w = (self.area / 9.0)[:, None, None] * np.reshape(fu, (-1, neq, neq))
        return np.bincount(self.slot.ravel(), minlength=len(self.indices),
                           weights=np.broadcast_to(w[..., None, None],
                                                   self.slot.shape).ravel())


def reduced_pattern(state: ProblemState) -> ReducedPattern:
    """The state's ReducedPattern, built at the first call after setfemops."""
    if state.ops.pattern is None:
        state.ops.pattern = ReducedPattern(state)
    return state.ops.pattern


class Layout(_Structure):
    """The structure of sp.bmat(grid), and for each of its entries the place
    of its value among the blocks' values (_values, block after block in
    row-major grid order).  Sparse blocks must be canonical CSC."""

    def __init__(self, grid):
        blocks = [B for row in grid for B in row if B is not None]
        start = iter(np.cumsum([1] + [len(_values(B)) for B in blocks]))
        # each block with the 1-based places of its values as its values
        marked = [[None if B is None else _with_values(B, next(start))
                   for B in row] for row in grid]
        A = sp.bmat(marked, format="csc")
        self.shape, self.indptr, self.indices = A.shape, A.indptr, A.indices
        self.src = A.data.astype(np.int32) - 1
        self.patterns = [(B.indptr.copy(), B.indices.copy())
                         for B in blocks if sp.issparse(B)]

    def fits(self, grid) -> bool:
        """Whether the sparse blocks have the patterns of the layout's."""
        sparse = [B for row in grid for B in row if sp.issparse(B)]
        return all(np.array_equal(p, B.indptr) and np.array_equal(i, B.indices)
                   for (p, i), B in zip(self.patterns, sparse))

    def write(self, grid) -> sp.csc_matrix:
        values = np.concatenate([_values(B) for row in grid for B in row
                                 if B is not None])
        return self.matrix(values[self.src])


def _values(B) -> np.ndarray:
    """The stored entries of a sparse B, all entries of a dense B column by
    column."""
    return B.data if sp.issparse(B) else B.ravel(order="F")


def _with_values(B, first: int) -> sp.csc_matrix:
    """B's pattern (a dense B's every entry) holding first, first + 1, ..."""
    v = first + np.arange(len(_values(B)), dtype=float)
    if sp.issparse(B):
        return sp.csc_matrix((v, B.indices, B.indptr), shape=B.shape)
    return sp.csc_matrix(v.reshape(B.shape, order="F"))


def blocks_matrix(state: ProblemState, key, grid) -> sp.csc_matrix:
    """sp.bmat(grid) in canonical CSC, written into the Layout cached in
    state.ops.layouts under key, which is built anew when a sparse block's
    pattern is not the one it was built for (as with FD Jacobians)."""
    layout = state.ops.layouts.get(key)
    if layout is None or not layout.fits(grid):
        layout = state.ops.layouts[key] = Layout(grid)
    return layout.write(grid)


# ---------------------------------------------------------------------------
# the semilinear operator: residual, Jacobian, second-derivative block,
# coefficient tensors and time-stepping splitting, all from callbacks.semilinear

def _tri_values(state: ProblemState, v: np.ndarray) -> np.ndarray:
    """Triangle means of a reduced nodal field: (nt,) for scalar problems,
    (neq, nt) for systems."""
    vt = (state.ops.Ctri @ v).reshape(state.neq, state.mesh.ntri)
    return vt[0] if state.neq == 1 else vt


def _linear_terms(state: ProblemState, w: np.ndarray) -> list:
    """(coefficient, operator name) pairs of d K - bx Kdx - by Kdy; an
    advection term with a zero coefficient is left out."""
    sl = state.callbacks.semilinear
    adv = zip(sl.advection(w), ("Kdx", "Kdy"))
    return [(sl.scale(w), "K")] + [(-coef, name) for coef, name in adv if coef]


def _semilinear_residual(state: ProblemState, U: np.ndarray) -> np.ndarray:
    u, w, ops = U[:state.nu], U[state.nu:], state.ops
    f = state.callbacks.semilinear.f(_tri_values(state, u), w)
    r = sum(coef * (getattr(ops, name) @ u)
            for coef, name in _linear_terms(state, w))
    return r + ops.Q @ u - ops.Gb - ops.Fload @ np.ravel(f)


def implicit_operator(state: ProblemState, w: np.ndarray) -> sp.csc_matrix:
    """d K - bx Kdx - by Kdy + Q, the linear part of the semilinear residual,
    at the auxiliary vector w."""
    L = sum(coef * getattr(state.ops, name)
            for coef, name in _linear_terms(state, w))
    return (L + state.ops.Q).tocsc()


def _semilinear_jacobian_u(state: ProblemState, U: np.ndarray) -> sp.csc_matrix:
    """d K - bx Kdx - by Kdy + Q - Fload diag(fu) Ctri, as data on the
    reduced pattern."""
    u, w = U[:state.nu], U[state.nu:]
    fu = state.callbacks.semilinear.fu(_tri_values(state, u), w)
    P = reduced_pattern(state)
    L = sum(coef * P.op(name) for coef, name in _linear_terms(state, w))
    return P.matrix(L + P.op("Q") - P.load_derivative(fu))


def _semilinear_jacobian_times(state: ProblemState, U: np.ndarray,
                               phi: np.ndarray) -> np.ndarray:
    """_semilinear_jacobian_u's matrix times phi without the matrix: d K phi
    - bx Kdx phi - by Kdy phi + Q phi - Fload (fu Ctri phi), fu Ctri phi
    the per-triangle product (fu of shape (nt, N, N) for systems)."""
    u, w, ops, neq = U[:state.nu], U[state.nu:], state.ops, state.neq
    fu = state.callbacks.semilinear.fu(_tri_values(state, u), w)
    pt = _tri_values(state, phi)
    fphi = (fu * pt if neq == 1 else
            np.einsum("trs,st->rt", np.reshape(fu, (-1, neq, neq)), pt))
    r = sum(coef * (getattr(ops, name) @ phi)
            for coef, name in _linear_terms(state, w))
    return r + ops.Q @ phi - ops.Fload @ np.ravel(fphi)


def semilinear_second_block(state: ProblemState, u: np.ndarray,
                            phi: np.ndarray, w: np.ndarray) -> sp.csc_matrix:
    """d_u((d_u G) phi), the lower-left block of the fold / branch-point
    system, from the directional second derivative fuu: -Fload diag(S)
    Ctri with S = fuu(ut, phit, w)."""
    S = state.callbacks.semilinear.fuu(_tri_values(state, u),
                                       _tri_values(state, phi), w)
    P = reduced_pattern(state)
    return P.matrix(-P.load_derivative(S))


def _semilinear_tensors(state: ProblemState, U: np.ndarray, jac: bool):
    sl, neq = state.callbacks.semilinear, state.neq
    w = U[state.nu:]
    ut = _tri_values(state, U[:state.nu])
    c = sl.scale(w) * np.asarray(sl.c, dtype=float)
    b = np.zeros((neq, neq, 2))
    b[np.arange(neq), np.arange(neq)] = sl.advection(w)
    if jac:
        return fem.CoeffTensors(c=c, b=b, fu=sl.fu(ut, w))
    return fem.CoeffTensors(c=c, b=b, f=np.reshape(sl.f(ut, w), (neq, -1)).T)


def semilinear_G(state: ProblemState, U: np.ndarray) -> fem.CoeffTensors:
    """Coefficient tensors of the semilinear residual (callbacks.G)."""
    return _semilinear_tensors(state, U, jac=False)


def semilinear_Gjac(state: ProblemState, U: np.ndarray) -> fem.CoeffTensors:
    """Coefficient tensors of the semilinear Jacobian (callbacks.Gjac)."""
    return _semilinear_tensors(state, U, jac=True)


def semilinear_splitting(state: ProblemState):
    """(K, forcing) for tints: the implicit operator at the state's
    parameters, and the explicit load forcing(state, u) = Fload f + Gb."""
    def forcing(s, u):
        f = s.callbacks.semilinear.f(_tri_values(s, u), s.pars())
        return s.ops.Fload @ np.ravel(f) + s.ops.Gb
    return implicit_operator(state, state.pars()), forcing


# ---------------------------------------------------------------------------
# active vector plumbing

def active_slots(state: ProblemState) -> list:
    """Positions in U of (wtilde..., alpha)."""
    return [state.nu + i - 1 for i in state.ilam[1:] + state.ilam[:1]]


def pack_active(state: ProblemState, U: np.ndarray) -> np.ndarray:
    """(u, wtilde, alpha) vector of length nu + nq + 1."""
    U = np.asarray(U, dtype=float)
    return np.concatenate([U[:state.nu], U[active_slots(state)]])


def apply_active(state: ProblemState, U: np.ndarray, y: np.ndarray) -> np.ndarray:
    Un = np.array(U, dtype=float)
    Un[:state.nu] = y[:state.nu]
    Un[active_slots(state)] = y[state.nu:]
    return Un


def weights_vector(state: ProblemState) -> np.ndarray:
    xi, xiq = state.sol.xi, state.sol.xiq
    w = np.empty(state.nu + state.nq + 1)
    w[:state.nu] = xi
    w[state.nu:state.nu + state.nq] = xiq
    w[-1] = 1.0 - (xi + xiq) / 2.0
    return w


def weighted_dot(state: ProblemState, a: np.ndarray, b: np.ndarray) -> float:
    """xi <u,v> + xiq <wtilde, ztilde> + (1-(xi+xiq)/2) alpha beta."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = state.nu + state.nq + 1
    if a.shape != (n,) or b.shape != (n,):
        raise ProblemError(f"weighted_dot expects length {n} vectors")
    return float(np.sum(weights_vector(state) * a * b))


def init_weights(state: ProblemState):
    """Default weights at continuation start: xi = 1/nu unless user-set."""
    if state.controls.xi is None:
        state.sol.xi = 1.0 / state.nu
    else:
        state.sol.xi = state.controls.xi
    if state.controls.xiq is None:
        state.sol.xiq = state.sol.xi if state.nq else 0.0
    else:
        state.sol.xiq = state.controls.xiq


# ---------------------------------------------------------------------------
# branch bookkeeping and parameter switching

def restart_branch(state: ProblemState, ptype: int, tau=None):
    """Start a new branch at the current point, with tangent tau if known."""
    state.tau = tau
    state.ptype = ptype
    state.sol.ineg = -1
    state.branch = []
    state.file.count = state.file.bcount = state.file.fcount = 0


def swipar(state: ProblemState, ilam_new) -> ProblemState:
    """Select new active auxiliary variables; invalidates the tangent."""
    ilam_new = [int(i) for i in np.atleast_1d(ilam_new)]
    for i in ilam_new:
        if not 1 <= i <= state.naux:
            raise ProblemError(f"parameter index {i} out of range 1..{state.naux}")
    if len(set(ilam_new)) != len(ilam_new):
        raise ProblemError("ilam entries must be pairwise distinct")
    state.ilam = ilam_new
    state.tau = None
    return state
