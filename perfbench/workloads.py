"""The four benchmark workloads: set-up, one timed pass, output check.

Each workload puts the cost on a different layer (see README.md):

- ladder: sparse shift-invert spectrum, bisection, mid-size bordered LU;
- foldcurve: dense QZ spectrum, branch switching, fold continuation,
  point-file reads;
- front: Jacobian + bordered LU with a phase condition, point-file writes,
  no eigensolve;
- tint: full-path FEM assembly + LU every step, against factor-once tints.

Only the package's public API is driven.  ``setup`` builds the states one
pass starts from (timed as set-up), ``run`` is the timed pass, ``check``
returns a list of failed checks (empty when the outputs are right).
"""

from __future__ import annotations

import os
import time
from collections import Counter

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from pdecont import continuation, demos, io, spcont, switching, timeint

# Mesh sizes are fixed by the benchmark definition; "tiny" only serves the
# self-test, which checks the plumbing, not the numbers.
SIZES = {
    "full": {
        "ladder": {"nx": 60, "ny": 54, "nbif": 3, "rtol": 0.02},
        "foldcurve": {"nx": 20, "ny": 18, "fold_steps": 20, "curve_steps": 8},
        "front": {"nx": 250, "steps": 60},
        "tint": {"nx": 105, "ny": 105, "nt": 100},
    },
    "tiny": {
        "ladder": {"nx": 10, "ny": 9, "nbif": 2, "rtol": 0.1},
        "foldcurve": {"nx": 10, "ny": 9, "fold_steps": 20, "curve_steps": 2},
        "front": {"nx": 250, "steps": 40},
        "tint": {"nx": 12, "ny": 12, "nt": 10},
    },
}


class StepClock:
    """Times every ``continuation.cont`` call, also the ones ``findbif``
    makes.  A call that accepts exactly one step is a step sample; a step
    whose call adds a bifurcation or fold record is also a locate sample."""

    def __init__(self):
        self.steps = []          # seconds per accepted single step
        self.locate = []         # seconds per step that added ptype 1/2
        self.meth = Counter()    # accepted steps by parametrization
        self.accepted = 0
        self._undo = None

    def install(self):
        inner = continuation.cont

        def cont(state, nsteps=None):
            steps0, rec0 = state.total_steps, len(state.branch)
            t0 = time.perf_counter()
            out = inner(state, nsteps)
            dt = time.perf_counter() - t0
            accepted = state.total_steps - steps0
            self.accepted += accepted
            if accepted == 1:
                self.steps.append(dt)
                self.meth[state.sol.meth] += 1
                if any(r.ptype in (1, 2) for r in state.branch[rec0:]):
                    self.locate.append(dt)
            return out

        continuation.cont = cont
        self._undo = inner

    def uninstall(self):
        if self._undo is not None:
            continuation.cont = self._undo
            self._undo = None


class Workload:
    """One workload at fixed sizes ``cfg``; ``seed`` makes its random
    inputs."""

    def __init__(self, cfg, seed):
        self.cfg = cfg
        self.seed = seed


def _acfold(cfg):
    return demos.make("acfold", {"nx": cfg["nx"], "ny": cfg["ny"]})


def _export(state, out, name):
    io.export_branch(state, os.path.join(out, name))


# ---------------------------------------------------------------------------
# ladder: acfold 60x54, findbif(3) from lambda = 1, point files on

def _ladder_targets(state, n):
    """The n smallest Dirichlet eigenvalues of -c*Laplace on the mesh's
    rectangle: where the trivial branch bifurcates."""
    c = state.getaux("c")
    lx, ly = state.demo_config["lx"], state.demo_config["ly"]
    lams = sorted(c * ((k * np.pi / (2 * lx))**2 + (m * np.pi / (2 * ly))**2)
                  for k in range(1, 6) for m in range(1, 6))
    return lams[:n]


class Ladder(Workload):
    def setup(self):
        return _acfold(self.cfg)

    def run(self, st, out):
        st.usrlam = []
        st.file.dir = out
        switching.findbif(st, self.cfg["nbif"])
        _export(st, out, "branch.csv")
        return st

    def check(self, st):
        bifs = sorted(r.pars[0] for r in st.branch if r.ptype == 1)
        want = _ladder_targets(st, self.cfg["nbif"])
        if len(bifs) != len(want):
            return [f"ladder: {len(bifs)} bifurcation points, "
                    f"expected {len(want)}"]
        return [f"ladder: bpt at {b:.5f}, analytic {t:.5f}"
                for b, t in zip(bifs, want)
                if abs(b - t) > self.cfg["rtol"] * t]


# ---------------------------------------------------------------------------
# foldcurve: scripts/acfold_workflow.py at 20x18

class FoldCurve(Workload):
    def setup(self):
        return _acfold(self.cfg)

    def run(self, st, out):
        st.usrlam = []
        st.file.dir = out
        switching.findbif(st, 1)
        _export(st, out, "trivial.csv")

        st = io.load_point(out, "bpt1")
        st.file.dir = out
        switching.swibra(st, 0.1)
        st.switches.foldcheck = 1
        for _ in range(self.cfg["fold_steps"]):
            continuation.cont(st, 1)
            if st.file.fcount or st.sol.restart:
                break
        _export(st, out, "branch1.csv")
        folds = [r for r in st.branch if r.ptype == 2]

        st = io.load_point(out, "fpt1")
        st.file.dir = os.path.join(out, "foldcurve")
        spcont.spcontini(st, 3)                   # free gamma
        st.sol.ds = 0.05
        st.switches.bifcheck = 0
        steps0 = st.total_steps
        for _ in range(self.cfg["curve_steps"]):
            continuation.cont(st, 1)
        _export(st, out, "foldcurve.csv")
        return {"folds": folds, "curve": st,
                "curve_steps": st.total_steps - steps0}

    def check(self, res):
        errs = []
        if not res["folds"]:
            errs.append("foldcurve: no fold found on the switched branch")
        st = res["curve"]
        if res["curve_steps"] != self.cfg["curve_steps"]:
            errs.append(f"foldcurve: {res['curve_steps']} fold-curve steps "
                        f"accepted, expected {self.cfg['curve_steps']}")
        _, phi, _ = spcont.split(st, st.u)
        norm = float(phi @ (st.ops.M @ phi))
        if abs(norm - 1.0) > 1e-8:
            errs.append(f"foldcurve: phi'M phi = {norm!r}, expected 1")
        Gu, M = spcont.base_pde_block(st, st.u)
        mu = _smallest_eig(Gu, M)
        # mu shifts with lambda (Gu = -c lap - lambda - ...), so lambda sets
        # the scale of the spectrum near zero
        scale = max(1.0, abs(st.getaux("lambda")))
        if mu > 1e-6 * scale:
            errs.append(f"foldcurve: min|mu| = {mu:.3e} > 1e-6 * {scale:.3e}")
        return errs


def _smallest_eig(Gu, M):
    """Smallest |mu| of Gu v = mu M v, computed independently of the
    package's spectrum code."""
    if Gu.shape[0] <= 200:
        return float(np.abs(la.eigvals(Gu.toarray(), M.toarray())).min())
    mu = spla.eigs(Gu.tocsc(), k=1, M=M.tocsc(), sigma=0.0, which="LM",
                   v0=np.ones(Gu.shape[0]), return_eigenvectors=False)
    return float(np.abs(mu).min())


# ---------------------------------------------------------------------------
# front: frozen bistable front, user targets in mu, no spectrum

class Front(Workload):
    targets = (0.9, 0.8, 0.7, 0.6)

    def setup(self):
        return demos.make("acfront", {"nx": self.cfg["nx"]})

    def run(self, st, out):
        demos.acfront_freeze(st)
        st.switches.spcalc = 0
        st.switches.bifcheck = 0
        st.usrlam = list(self.targets)
        st.file.dir = out
        for _ in range(self.cfg["steps"]):
            continuation.cont(st, 1)
        _export(st, out, "branch.csv")
        return st

    def check(self, st):
        lam = st.getaux("lambda")
        hits = {round(r.pars[0], 10): r for r in st.branch if r.usr == 1}
        if set(hits) != set(self.targets):
            return [f"front: user-target hits {sorted(hits)}, expected "
                    f"{sorted(self.targets)}"]
        errs = []
        for mu, rec in sorted(hits.items()):
            ref = np.sqrt(lam / 2.0) * (1.0 - mu)
            err = abs(abs(rec.pars[1]) - ref) / ref
            if err > 0.02:
                errs.append(f"front: speed at mu={mu} off by {err:.2%}")
        return errs


# ---------------------------------------------------------------------------
# tint: tint vs tints, 100 steps each from one seed-perturbed start

class Tint(Workload):
    dt = 0.01

    def setup(self):
        sts = [_acfold(self.cfg) for _ in range(2)]
        rng = np.random.default_rng(self.seed)
        pert = 0.01 * rng.standard_normal(sts[0].nu)
        for st in sts:
            st.u[:st.nu] += pert
        return sts

    def run(self, sts, out):
        st1, st2 = sts
        nt = self.cfg["nt"]
        t0 = time.perf_counter()
        timeint.tint(st1, self.dt, nt, pmod=nt)
        t1 = time.perf_counter()
        K, forcing = _acfold_splitting(st2)
        t2 = time.perf_counter()
        timeint.tints(st2, self.dt, nt, nt, forcing, K=K, diagnostics=False)
        t3 = time.perf_counter()
        return {"states": sts, "tint_s": t1 - t0, "tints_s": t3 - t2}

    def check(self, res):
        st1, st2 = res["states"]
        u1, u2 = st1.u[:st1.nu], st2.u[:st2.nu]
        if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(u2))):
            return ["tint: non-finite trajectory"]
        rel = np.abs(u1 - u2).max() / max(1.0, np.abs(u1).max())
        if rel > 1e-8:
            return [f"tint: tint and tints differ by {rel:.2e} (> 1e-8)"]
        return []


def _acfold_splitting(st):
    """Implicit operator (diffusion + boundary springs) and explicit load,
    the splitting under which tints reproduces tint exactly."""
    c = st.getaux("c")
    K = (c * st.ops.K + st.ops.Q).tocsc()

    def forcing(s, u):
        U = np.concatenate([u, s.u[s.nu:]])
        ct = s.callbacks.G(s, U).normalized(s.mesh.ntri, s.neq)
        return s.ops.Fload @ ct.f.ravel() + s.ops.Gb
    return K, forcing


WORKLOADS = {"ladder": Ladder, "foldcurve": FoldCurve, "front": Front,
             "tint": Tint}
