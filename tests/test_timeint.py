import copy
import dataclasses
import pickle

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from pdecont import demos, fem, linsolve, problem, timeint
from pdecont.timeint import TimeintError, tint, tints


def _schnak_forcing(state, u):
    """Explicit part of the activator-inhibitor dynamics: the assembled load
    of the reaction terms (the stiff diffusion matrix stays implicit)."""
    U = np.concatenate([u, state.u[state.nu:]])
    ct = state.callbacks.G(state, U).normalized(state.mesh.ntri, state.neq)
    F = fem.assemble_load(state.mesh, ct.f.T, state.neq)
    return state.ops.per.fill.T @ F


def test_stationary_state_is_fixed_point():
    st = demos.make("schnak")
    u0 = np.array(st.u[:st.nu])
    tint(st, 0.1, 5, pmod=5)
    assert np.abs(st.u[:st.nu] - u0).max() <= 1e-10


def test_tint_and_tints_agree_exactly():
    st1 = demos.make("schnak")
    st2 = demos.make("schnak")
    rng = np.random.default_rng(11)
    pert = 0.01 * rng.standard_normal(st1.nu)
    st1.u[:st1.nu] += pert
    st2.u[:st2.nu] += pert
    dt, nt = 0.05, 20
    tint(st1, dt, nt, pmod=5)
    tints(st2, dt, nt, 5, _schnak_forcing)
    # one scheme: the semilinear tensors carry the reaction in the load f,
    # not in a, so tint too steps diffusion implicitly and reaction
    # explicitly; only the order of the floating-point sums may differ
    assert np.all(np.isfinite(st2.u[:st2.nu]))
    u1, u2 = st1.u[:st1.nu], st2.u[:st2.nu]
    assert np.abs(u1 - u2).max() <= 1e-10 * np.abs(u1).max()


def test_tints_factorizes_once():
    st = demos.make("schnak")
    st.u[:st.nu] += 0.01
    before = st.ops.cache.factor_count
    tints(st, 0.05, 15, 5, _schnak_forcing,
          K=(st.ops.K + st.ops.Q).tocsc())
    after = st.ops.cache.factor_count
    assert after == before + 1


def test_tints_refactorizes_a_changed_operator():
    # K changed in place between two calls with the same dt: the second
    # call must integrate the new K, as a state that never saw the old one
    def start():
        st = demos.make("schnak")
        st.u[:st.nu] += 0.01 * np.sin(np.arange(st.nu))
        return st
    st, fresh = start(), start()
    K = (st.ops.K + st.ops.Q).tocsc()
    K0 = K.copy()
    tints(st, 0.05, 5, 5, _schnak_forcing, K=K)
    K.data *= 4
    before = st.ops.cache.factor_count
    tints(st, 0.05, 5, 5, _schnak_forcing, K=K)
    assert st.ops.cache.factor_count == before + 1
    tints(fresh, 0.05, 5, 5, _schnak_forcing, K=K0)
    tints(fresh, 0.05, 5, 5, _schnak_forcing, K=(4 * K0).tocsc())
    assert np.array_equal(st.u, fresh.u)


def test_tints_default_splitting_reproduces_tint():
    # the splitting derived from the semilinear declaration (diffusion and
    # boundary springs implicit, load explicit) is the one tint uses
    st1 = demos.make("acfold", {"nx": 30, "ny": 27})
    rng = np.random.default_rng(42)
    st1.u[:st1.nu] += 0.01 * rng.standard_normal(st1.nu)
    st2 = copy.deepcopy(st1)
    tint(st1, 0.01, 100, pmod=50)
    tints(st2, 0.01, 100, 50)
    u1, u2 = st1.u[:st1.nu], st2.u[:st2.nu]
    assert np.abs(u1 - u2).max() / max(1.0, np.abs(u1).max()) <= 1e-8


def test_tints_without_semilinear_declaration_raises():
    # nlbc's boundary operator depends on u: a splitting frozen at the
    # cached operators would integrate a different equation
    st = demos.make("nlbc", {"nx": 8, "ny": 8})
    with pytest.raises(TimeintError):
        tints(st, 0.05, 2, 1)


def test_tint_keeps_the_steady_state_of_a_u_dependent_boundary():
    # nlbc's general-path A depends on u through its boundary condition;
    # at lambda = 2 the constant u = 1 solves it exactly
    st = demos.make("nlbc", {"nx": 12, "ny": 12, "lam": 2.0})
    st.u[:st.nu] = 1.0
    assert np.abs(problem.residual(st)).max() <= 1e-12
    tint(st, 0.05, 20, pmod=20)
    assert np.abs(st.u[:st.nu] - 1.0).max() <= 1e-10


def test_timeseries_recording_cadence():
    st = demos.make("schnak")
    tint(st, 0.1, 10, pmod=4)
    # initial record + steps 4, 8 and the forced final record at 10
    times = [t for t, _ in st.timeseries]
    assert len(times) == 4
    assert np.isclose(times[-1], 1.0)
    assert st.demo_config["time"] == pytest.approx(1.0)


def test_decay_to_trivial_state_below_threshold():
    # Dirichlet Allen-Cahn below the first eigenvalue: perturbations decay
    st = demos.make("acfold", {"nx": 12, "ny": 10})
    st.setaux("lambda", 0.5)      # well below the first bifurcation
    rng = np.random.default_rng(1)
    st.u[:st.nu] += 0.1 * rng.standard_normal(st.nu)
    n0 = np.abs(st.u[:st.nu]).max()
    tint(st, 0.2, 40, pmod=40)
    assert np.abs(st.u[:st.nu]).max() <= 0.05 * n0
    # residual time series decreases towards the equilibrium
    res = [r for _, r in st.timeseries]
    assert res[-1] < res[0]


def test_instability_grows_above_threshold():
    # above the first eigenvalue the trivial state is unstable
    st = demos.make("acfold", {"nx": 12, "ny": 10})
    st.setaux("lambda", 3.0)
    rng = np.random.default_rng(2)
    st.u[:st.nu] += 1e-4 * rng.standard_normal(st.nu)
    n0 = np.abs(st.u[:st.nu]).max()
    tint(st, 0.2, 60, pmod=60)
    assert np.abs(st.u[:st.nu]).max() > 10 * n0


def test_tint_consistency_order():
    # one step of the linearly implicit scheme is first-order consistent:
    # error against the tiny-step reference scales linearly in dt
    def advance(dt, nsub):
        st = demos.make("schnak")
        st.u[:st.nu] += 0.01 * np.sin(np.arange(st.nu))
        tint(st, dt, nsub, pmod=10**9)
        return st.u[:st.nu]
    ref = advance(0.0125, 16)
    e1 = np.abs(advance(0.1, 2) - ref).max()
    e2 = np.abs(advance(0.05, 4) - ref).max()
    assert e2 <= 0.65 * e1          # halving dt roughly halves the error


def test_singular_stiff_operator_rejected():
    st = demos.make("schnak")
    import scipy.sparse as sp
    Z = sp.csc_matrix((st.nu, st.nu))
    with pytest.raises(TimeintError):
        # dt chosen so that M + dt*K is exactly singular: use -M/dt as K
        tints(st, 1.0, 1, 1, _schnak_forcing, K=(-st.ops.M).tocsc())


@pytest.mark.parametrize("integrator", ["tint", "tints"])
def test_non_finite_step_raises(integrator):
    # a step that yields non-finite values stops either integrator at that
    # step and leaves the state at the last good one
    st = demos.make("schnak")
    u0 = np.array(st.u)
    with pytest.raises(TimeintError, match="step 1 failed"):
        if integrator == "tint":
            st.callbacks.G = lambda s, U: fem.CoeffTensors(c=1.0, f=np.nan)
            tint(st, 0.05, 3, pmod=1)
        else:
            tints(st, 0.05, 3, 1, lambda s, u: np.full(s.nu, np.nan))
    assert np.array_equal(st.u, u0)


def test_snapshots_written(tmp_path):
    st = demos.make("schnak")
    st.file.dir = str(tmp_path)
    tint(st, 0.1, 4, pmod=2)
    pre = tmp_path / "pre"
    assert pre.is_dir()
    assert sorted(p.name for p in pre.iterdir()) == \
        ["pt0.json", "pt1.json", "pt2.json"]


def test_snapshots_numbered_without_diagnostics(tmp_path):
    st = demos.make("acfold", {"nx": 6, "ny": 5})
    st.file.dir = str(tmp_path)
    tints(st, 0.01, 4, 1, diagnostics=False)
    assert sorted(p.name for p in (tmp_path / "pre").iterdir()) == \
        [f"pt{k}.json" for k in range(5)]


def test_tint_counts_one_factorization_per_step():
    st = demos.make("acfold", {"nx": 6, "ny": 5})
    before = st.ops.cache.factor_count
    tint(st, 0.01, 5, pmod=5)
    assert st.ops.cache.factor_count == before + 5


def _count_calls(monkeypatch, owner, name, fail=False):
    """Wrap owner.name so that its calls are counted (or refused)."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        if fail:
            raise AssertionError(f"{name} called")
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("demo", ["acfold", "bratu"])
def test_tint_and_tints_take_the_band_cholesky(monkeypatch, demo):
    # a broken band path must not hide behind the LU: splu may not run
    st = demos.make(demo, {"nx": 12, "ny": 10})
    demos.perturb(st, 2)
    _count_calls(monkeypatch, spla, "splu", fail=True)
    before = st.ops.cache.factor_count
    tint(st, 0.01, 5, pmod=5)
    assert st.ops.cache.banded and st.ops.cache.factor_count == before + 5
    tints(st, 0.01, 5, 5)
    assert st.ops.cache.banded and st.ops.cache.factor_count == before + 6


@pytest.mark.parametrize("demo", ["schnak", "acfront"])
def test_tint_falls_back_to_the_lu_on_nonsymmetric_operators(monkeypatch,
                                                             demo):
    st = demos.make(demo)
    demos.perturb(st, 2)
    lus = _count_calls(monkeypatch, spla, "splu")
    tint(st, 0.01, 4, pmod=4)
    assert len(lus) == 4 and not st.ops.cache.banded


def test_indefinite_operator_costs_one_band_attempt_per_call(monkeypatch):
    # a strong linear reaction makes M + dt A symmetric but indefinite: the
    # first step's Cholesky fails, the call's later steps go to the LU
    st = demos.make("acfold", {"nx": 10, "ny": 9})
    demos.perturb(st, 3)
    G = st.callbacks.G
    st.callbacks.G = lambda s, U: dataclasses.replace(G(s, U), a=-30.0)
    ref = copy.deepcopy(st)
    attempts = _count_calls(monkeypatch, linsolve.la, "cholesky_banded")
    lus = _count_calls(monkeypatch, spla, "splu")
    for k in range(2):
        tint(st, 1.0, 3, pmod=3)
        assert len(attempts) == k + 1 and len(lus) == 3 * (k + 1)
    M = ref.ops.M
    for _ in range(6):
        U = np.array(ref.u)
        A, F = problem.assemble_general(ref, U, ref.callbacks.G(ref, U),
                                        ref.callbacks.bc)
        assert np.linalg.eigvalsh((M + A).toarray()).min() < 0
        ref.u[:ref.nu] = spla.spsolve((M + A).tocsc(), M @ U[:ref.nu] + F)
    u, want = st.u[:st.nu], ref.u[:ref.nu]
    assert np.abs(u - want).max() <= 1e-10 * np.abs(want).max()


def test_rcm_order_is_computed_once_per_pattern(monkeypatch):
    st = demos.make("acfold", {"nx": 12, "ny": 10})
    demos.perturb(st, 1)
    orders = _count_calls(monkeypatch, csgraph, "reverse_cuthill_mckee")
    tint(st, 0.01, 10, pmod=10)
    assert len(orders) == 1 and st.ops.cache.banded


def test_copies_carry_no_band_order():
    st = demos.make("acfold", {"nx": 8, "ny": 7})
    tint(st, 0.01, 2, pmod=2)
    def band(cache):
        return [rec for rec in cache.patterns if rec.b is not None]

    assert band(st.ops.cache)
    assert not band(copy.deepcopy(st).ops.cache)
    assert not band(pickle.loads(pickle.dumps(st.ops)).cache)
    assert band(st.ops.cache)
