"""Example problems, each returning a fully initialized ProblemState.

The interior-nonlinear demos (acfold, schnak, bratu, acfront) each declare
one problem.Semilinear: the diffusion tensor and its parameter factor, the
advection, and f, fu, fuu on triangle-mean solution values.  The problem
module derives from it the residual and Jacobian on the cached operators,
the fold-system second-derivative block, the coefficient tensors of the
general path and the tints splitting.  nlbc, with its nonlinear boundary
condition, writes its tensor callbacks by hand.
"""

from __future__ import annotations

import numpy as np

from . import problem
from .fem import BCSpec, CoeffTensors, dirichlet_bc
from .mesh import build_rect_mesh
from .problem import Callbacks, ProblemState, Semilinear


class DemoError(ValueError):
    pass


def _minmax_out(state, U):
    u = U[:state.ops.per.np_per]     # component 0; extending only repeats values
    return [float(u.max()), float(u.min())]


def _build_state(name, mesh, neq, u0, pars, parnames, callbacks, config):
    return ProblemState(name=name, mesh=mesh, neq=neq,
                        u=np.concatenate([u0, np.asarray(pars, dtype=float)]),
                        parnames=parnames, callbacks=callbacks,
                        demo_config=dict(config))


# ---------------------------------------------------------------------------
# cubic-quintic Allen-Cahn:  -c lap(u) - lam*u - u^3 + gam*u^5 = 0, Dirichlet
# w = (lam, c, gam)

def init_acfold(config=None):
    cfg = {"lx": 1.0, "ly": 0.9, "nx": 60, "ny": 54,
           "lam": 1.0, "c": 0.25, "gam": 1.0}
    cfg.update(config or {})
    mesh = build_rect_mesh(cfg["lx"], cfg["ly"], cfg["nx"], cfg["ny"])
    # products, not u**3 or u**5: NumPy's power has a fast path only for
    # the exponent 2, and f runs on every triangle at every time step
    sl = Semilinear(
        f=lambda u, w: u * (w[0] + u * u * (1 - w[2] * u * u)),
        fu=lambda u, w: w[0] + u * u * (3 - 5 * w[2] * u * u),
        fuu=lambda u, p, w: u * (6 - 20 * w[2] * u * u) * p,
        d=lambda w: w[1])

    dirichlet = dirichlet_bc(1, 0.0)
    cb = Callbacks(semilinear=sl, bc=lambda state, U: dirichlet,
                   outfu=_minmax_out, outnames=("max", "min"))
    u0 = np.zeros(mesh.npoints)
    state = _build_state("acfold", mesh, 1, u0,
                         [cfg["lam"], cfg["c"], cfg["gam"]],
                         ("lambda", "c", "gamma"), cb, cfg)
    state.usrlam = [3.5, 4.0]
    state.sol.ds = 0.1
    state.controls.dsmax = 0.1
    problem.setfemops(state)
    return state


# ---------------------------------------------------------------------------
# Schnakenberg:  d_t U = rho*D lap(U) + N(U) + sigma*(u-1/v)^2*(1,-1),
# D = diag(1, 60); optional comoving frame s*d_y U and phase condition
# w = (lam, rho, s, sigma)

KC_SCHNAK = np.sqrt(np.sqrt(2.0) - 1.0)


def _schnak_f(ut, w):
    (u, v), lam, sigma = ut, w[0], w[3]
    z = u - 1.0 / v
    return np.stack([-u + u**2 * v + sigma * z**2,
                     lam - u**2 * v - sigma * z**2])


def _schnak_fu(ut, w):
    (u, v), sigma = ut, w[3]
    z = u - 1.0 / v
    fu = np.empty((u.shape[0], 2, 2))
    fu[:, 0, 0] = -1 + 2 * u * v + 2 * sigma * z
    fu[:, 0, 1] = u**2 + 2 * sigma * z / v**2
    fu[:, 1, 0] = -2 * u * v - 2 * sigma * z
    fu[:, 1, 1] = -fu[:, 0, 1]
    return fu


def _schnak_fuu(ut, pt, w):
    (u, v), (p1, p2), sigma = ut, pt, w[3]
    z = u - 1.0 / v
    f1uu = 2 * v + 2 * sigma
    f1uv = 2 * u + 2 * sigma / v**2
    iv = 1.0 / v
    f1vv = 2 * sigma * (iv - 2 * z) * iv * iv * iv
    S = np.empty((u.shape[0], 2, 2))
    S[:, 0, 0] = f1uu * p1 + f1uv * p2
    S[:, 0, 1] = f1uv * p1 + f1vv * p2
    S[:, 1] = -S[:, 0]
    return S


def init_schnak(config=None):
    cfg = {"lx": 0.1, "ly": float(np.pi / KC_SCHNAK), "nx": 2, "ny": 40,
           "lam": 3.5, "rho": 1.0, "s": 0.0, "sigma": 0.0, "bcper": 0,
           "travel": False}
    cfg.update(config or {})
    mesh = build_rect_mesh(cfg["lx"], cfg["ly"], cfg["nx"], cfg["ny"])
    D = np.zeros((2, 2, 2, 2))
    D[0, 0] = np.eye(2)
    D[1, 1] = 60.0 * np.eye(2)
    sl = Semilinear(f=_schnak_f, fu=_schnak_fu, fuu=_schnak_fuu, c=D,
                    d=lambda w: w[1], b=lambda w: (0.0, w[2]))

    def qf(state, U):
        uo = state.uold[:state.nu]
        return np.array([(state.ops.Kdy @ uo) @ U[:state.nu]])

    def qjac(state, U):
        uo = state.uold[:state.nu]
        return (state.ops.Kdy @ uo)[None, :]

    cb = Callbacks(semilinear=sl, qf=qf, qjac=qjac, outfu=_minmax_out,
                   outnames=("max_u", "min_u"))
    state = _build_state("schnak", mesh, 2, np.zeros(2 * mesh.npoints),
                         [cfg["lam"], cfg["rho"], cfg["s"], cfg["sigma"]],
                         ("lambda", "rho", "s", "sigma"), cb, cfg)
    state.switches.bcper = int(cfg["bcper"])
    state.sol.ds = -0.05
    state.controls.dsmax = 0.05
    problem.setfemops(state)
    set_schnak_homogeneous(state)
    if cfg["travel"]:
        schnak_travel_setup(state)
    return state


def set_schnak_homogeneous(state):
    """Install the homogeneous stationary state (u, v) = (lam, 1/lam)."""
    lam = state.u[state.nu + 0]
    npr = state.ops.per.np_per
    state.u[:npr] = lam
    state.u[npr:2 * npr] = 1.0 / lam
    return state


def init_schnaktravel(config=None):
    cfg = {"bcper": 1, "travel": True}
    cfg.update(config or {})
    return init_schnak(cfg)


def schnak_travel_setup(state):
    """Comoving-frame stage: wave speed s joins the active variables, paired
    with the phase condition <d_y u_old, u> = 0."""
    state.nq = 1
    state.ilam = [3, 2]
    state.tau = None
    state.uold = state.u.copy()
    return state


# ---------------------------------------------------------------------------
# Bratu:  -c lap(u) + 10(u - lam*exp(u)) = 0, zero-flux;  w = (lam, c)

def init_bratu(config=None):
    cfg = {"lx": 0.5, "ly": 0.5, "nx": 20, "ny": 20, "lam": 0.0, "c": 0.1}
    cfg.update(config or {})
    mesh = build_rect_mesh(cfg["lx"], cfg["ly"], cfg["nx"], cfg["ny"])
    sl = Semilinear(
        f=lambda u, w: 10.0 * (w[0] * np.exp(u) - u),
        fu=lambda u, w: 10.0 * (w[0] * np.exp(u) - 1.0),
        fuu=lambda u, p, w: 10.0 * w[0] * np.exp(u) * p,
        d=lambda w: w[1])
    cb = Callbacks(semilinear=sl, outfu=_minmax_out, outnames=("max", "min"))
    state = _build_state("bratu", mesh, 1, np.zeros(mesh.npoints),
                         [cfg["lam"], cfg["c"]], ("lambda", "c"), cb, cfg)
    state.switches.foldcheck = 1
    state.sol.ds = 0.05
    state.controls.dsmax = 0.05
    problem.setfemops(state)
    return state


# ---------------------------------------------------------------------------
# Laplace on a disk with nonlinear boundary condition:
# -lap(u) = 0,  d_n u + lam*(0.5+x+y)*u*(1-u) = 0

def _disk_mesh(nx, ny):
    """Map the structured square mesh smoothly onto the unit disk; boundary
    nodes land exactly on the unit circle."""
    mesh = build_rect_mesh(1.0, 1.0, nx, ny)
    x, y = mesh.points[:, 0].copy(), mesh.points[:, 1].copy()
    mesh.points[:, 0] = x * np.sqrt(np.maximum(1.0 - y**2 / 2.0, 0.0))
    mesh.points[:, 1] = y * np.sqrt(np.maximum(1.0 - x**2 / 2.0, 0.0))
    return mesh


def init_nlbc(config=None):
    cfg = {"nx": 30, "ny": 30, "lam": 0.1}
    cfg.update(config or {})
    mesh = _disk_mesh(cfg["nx"], cfg["ny"])

    def G(state, U):
        return CoeffTensors(c=1.0)

    def bc(state, U):
        def q(x, um, pars, seg):
            lam = pars[0]
            out = np.empty((len(x), 1, 1))
            out[:, 0, 0] = lam * (0.5 + x[:, 0] + x[:, 1]) * (1.0 - um[:, 0])
            return out

        def g(x, um, pars, seg):
            return np.zeros((len(x), 1))
        return BCSpec(q, g)

    def bcjac(state, U):
        def q(x, um, pars, seg):
            lam = pars[0]
            out = np.empty((len(x), 1, 1))
            out[:, 0, 0] = lam * (0.5 + x[:, 0] + x[:, 1]) \
                * (1.0 - 2.0 * um[:, 0])
            return out

        def g(x, um, pars, seg):
            return np.zeros((len(x), 1))
        return BCSpec(q, g)

    cb = Callbacks(G=G, Gjac=G, bc=bc, bcjac=bcjac, outfu=_minmax_out,
                   outnames=("max", "min"))
    state = _build_state("nlbc", mesh, 1, np.zeros(mesh.npoints),
                         [cfg["lam"]], ("lambda",), cb, cfg)
    state.sol.ds = 0.05
    state.controls.dsmax = 0.05
    problem.setfemops(state)
    return state


# ---------------------------------------------------------------------------
# Bistable front:  -lap(u) - lam*u*(1-u)*(mu+u) - s*dx(u) = 0, zero-flux;
# freezing stage adds the phase condition <dx u_old, u_old - u> = 0
# w = (lam, mu, s)

def init_acfront(config=None):
    cfg = {"lx": 25.0, "ly": 0.25, "nx": 250, "ny": 1,
           "lam": 1.0, "mu": 1.0, "s": 0.0}
    cfg.update(config or {})
    mesh = build_rect_mesh(cfg["lx"], cfg["ly"], cfg["nx"], cfg["ny"])

    sl = Semilinear(
        f=lambda u, w: w[0] * u * (w[1] + u * (1 - w[1] - u)),
        fu=lambda u, w: w[0] * (w[1] + u * (2 * (1 - w[1]) - 3 * u)),
        fuu=lambda u, p, w: w[0] * (2 * (1 - w[1]) - 6 * u) * p,
        b=lambda w: (w[2], 0.0))

    def qf(state, U):
        uo = state.uold[:state.nu]
        xd = state.ops.Kdx @ uo
        return np.array([xd @ (uo - U[:state.nu])])

    def qjac(state, U):
        uo = state.uold[:state.nu]
        return (-(state.ops.Kdx @ uo))[None, :]

    cb = Callbacks(semilinear=sl, qf=qf, qjac=qjac, outfu=_minmax_out,
                   outnames=("max", "min"))
    mu = cfg["mu"]
    lam = cfg["lam"]
    width = np.sqrt(2.0) / (np.sqrt(lam) * (1.0 + mu))
    v0 = 0.5 * (1.0 + np.tanh(mesh.points[:, 0] / (2.0 * width)))
    u0 = -mu + (1.0 + mu) * v0
    state = _build_state("acfront", mesh, 1, u0,
                         [lam, mu, cfg["s"]], ("lambda", "mu", "s"), cb, cfg)
    state.sol.ds = -0.02
    state.controls.dsmax = 0.02
    problem.setfemops(state)
    return state


def acfront_freeze(state):
    """Enter the comoving frame: speed s becomes active, mu the primary
    parameter, and the phase condition pins the front position."""
    state.nq = 1
    state.ilam = [2, 3]
    state.tau = None
    state.uold = state.u.copy()
    return state


# ---------------------------------------------------------------------------
# registry

DEMOS = {
    "acfold": init_acfold,
    "schnak": init_schnak,
    "schnaktravel": init_schnaktravel,
    "bratu": init_bratu,
    "nlbc": init_nlbc,
    "acfront": init_acfront,
}


def make(name, config=None):
    if name not in DEMOS:
        raise DemoError(f"unknown demo {name!r}; choose from "
                        f"{sorted(DEMOS)}")
    return DEMOS[name](config)


# standard deviation of perturb's noise: small enough to keep schnak's
# v = 1/lambda ~ 0.29 clear of 0, where its sigma terms grow like 1/v^4
PERTURB_SCALE = 0.02


def perturb(state, seed=0):
    """Add seeded normal noise of standard deviation PERTURB_SCALE to every
    entry of state.u, the auxiliary variables included: at a demo's default
    state (u = 0, or lambda = 0) second derivatives can vanish identically."""
    rng = np.random.default_rng(seed)
    state.u = state.u + PERTURB_SCALE * rng.standard_normal(len(state.u))
    return state
