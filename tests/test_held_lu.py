"""The natural corrector's first iterate on the LU of the last accepted
point's tangent, which cont holds in state.ops.cache.held."""

import copy
import json
import weakref

import numpy as np
import pytest

from pdecont import continuation, demos, io, linsolve, problem, spcont
from pdecont.continuation import cont
from pdecont.switching import findbif, getinitau

# Frozen acfront nx = 100, usrlam = [], 20 x cont(st, 1): the Newton
# iterations and the accepted (mu, s) of every step, recorded with every
# corrector factorizing its first iterate afresh (bordered by e_alpha)
FRONT_ITERS = [2] * 20
FRONT_MU_S = [
    (0.9835614232725299, -0.011788476563089654),
    (0.9671218916063908, -0.023572440442903474),
    (0.9506835643151703, -0.035350374804075574),
    (0.9342463689807419, -0.04712236358266283),
    (0.9178103564185296, -0.05888840247917301),
    (0.9013755254552992, -0.07064852451201248),
    (0.8849419182473096, -0.08240273177574847),
    (0.8685095346768824, -0.09415105669737042),
    (0.8520784179780182, -0.10589350079362278),
    (0.8356485691625892, -0.11763009585368678),
    (0.8192200326205036, -0.12936084276688073),
    (0.8027928105795356, -0.14108577262967018),
    (0.7863669486565189, -0.15280488565975794),
    (0.7699424503857331, -0.16451821220324642),
    (0.7535193627108748, -0.17622575174168223),
    (0.7370976905608579, -0.18792753381521504),
    (0.7206774823157716, -0.19962355709817176),
    (0.704258744401633, -0.2113138502592247),
    (0.6878415267301838, -0.22299841110489613),
    (0.6714258373491638, -0.23467726735139458),
]
POINT_KEYS = {"bcper", "config", "counters", "demo", "ds", "format", "ilam",
              "ineg", "neq", "nq", "parnames", "ptype", "spcont", "spdata",
              "tau", "u", "uold", "usrlam"}


def _front():
    st = demos.make("acfront", {"nx": 100})
    demos.acfront_freeze(st)
    st.switches.spcalc = 0
    st.switches.bifcheck = 0
    st.usrlam = []
    return st


def _count_jacobians(monkeypatch):
    calls = [0]
    orig = problem.jacobian_active

    def counting(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)
    monkeypatch.setattr(problem, "jacobian_active", counting)
    return calls


def _count_nloop(monkeypatch):
    """Per nloop call: (its Newton iterations, its fresh LUs, its solves on
    a held LU)."""
    seen, held = [], [0]
    orig_nloop, orig_checked = continuation.nloop, linsolve.checked_solve

    def counting(state, U):
        lu0, held0 = state.ops.cache.factor_count, held[0]
        res = orig_nloop(state, U)
        seen.append((res["iter"], state.ops.cache.factor_count - lu0,
                     held[0] - held0))
        return res

    def checked(*args):
        held[0] += 1
        return orig_checked(*args)
    monkeypatch.setattr(continuation, "nloop", counting)
    monkeypatch.setattr(linsolve, "checked_solve", checked)
    return seen


def _mu_s(st):
    return st.getaux("mu"), st.getaux("s")


def test_plain_steps_take_one_lu_per_newton_iterate(monkeypatch):
    st = _front()
    jac = _count_jacobians(monkeypatch)
    rows, mu_s = [], []
    for _ in range(20):
        lu0, jac0 = st.ops.cache.factor_count, jac[0]
        cont(st, 1)
        rows.append((st.sol.iter, st.ops.cache.factor_count - lu0,
                     jac[0] - jac0))
        mu_s.append(_mu_s(st))
    assert [it for it, _, _ in rows] == FRONT_ITERS
    # the first call adds getinitau's LU and has no held one; later steps
    # take their first iterate on the held LU and add their own tangent's
    assert rows[0][1] == rows[0][2] == FRONT_ITERS[0] + 2
    assert all(lus == jacs == it for it, lus, jacs in rows[1:])
    assert np.abs(np.subtract(mu_s, FRONT_MU_S)).max() <= 100 * st.controls.tol


def _acfold_after_a_step():
    st = demos.make("acfold", {"nx": 20, "ny": 18})
    cont(st, 1)
    return st


def _perturbed(st):
    rng = np.random.default_rng(0)
    U = st.u.copy()
    U[:st.nu] += 0.01 * rng.standard_normal(st.nu)
    return U


def _unchanged(st):
    return st


def _swipar(st):
    return problem.swipar(st, 3)


def _assign_u(st):
    st.u = _perturbed(st)
    return st


def _setaux(st):
    st.setaux("lambda", st.getaux("lambda") + 1e-3)
    return st


def _spcontini(st):
    return spcont.spcontini(st, 3, kerneltol=np.inf)


def _localize(st):
    findbif(st, 1)
    assert st.file.bcount == 1
    return st


def _acfront_moving():
    # the moving front's translation mode is a zero eigenvalue
    st = demos.make("acfront", {"nx": 100})
    st.switches.bifcheck = 0
    return st


def _freeze(st):
    return demos.acfront_freeze(st)


def _bcper(st):
    st.switches.bcper = 2
    problem.setfemops(st)
    assert st.ops.cache.held is None
    return st


@pytest.mark.parametrize("make, change", [
    (_acfold_after_a_step, _unchanged),
    (_acfold_after_a_step, _swipar),
    (_acfold_after_a_step, _assign_u),
    (_acfold_after_a_step, _setaux),
    (_acfold_after_a_step, _spcontini),
    (_acfold_after_a_step, _localize),
    (_acfront_moving, _freeze),
    (lambda: demos.make("schnak"), _bcper),
], ids=["unchanged", "swipar", "assign_u", "setaux", "spcontini",
        "localized", "acfront_freeze", "setfemops_bcper"])
def test_a_held_lu_serves_only_its_own_point(monkeypatch, make, change):
    st = make()
    if change is not _localize:
        cont(st, 1)
        assert st.ops.cache.held is not None
    st = change(st)
    seen = _count_nloop(monkeypatch)
    continuation.nloop(st, _perturbed(st))
    (it, lus, held), = seen
    assert it >= 1 and st.ops.cache.held is None
    if change is _unchanged:
        assert (lus, held) == (it - 1, 1)
    else:
        assert (lus, held) == (it, 0)


def test_a_failed_held_solve_takes_a_fresh_jacobian(monkeypatch):
    st = _front()
    cont(st, 1)
    assert st.ops.cache.held is not None
    seen = _count_nloop(monkeypatch)

    def refusing(*args):
        raise linsolve.SingularMatrixError("refused")
    monkeypatch.setattr(linsolve, "checked_solve", refusing)
    cont(st, 1)
    (it, lus, _), = seen
    assert st.total_steps == 2 and it == FRONT_ITERS[1] and lus == it
    assert np.abs(np.subtract(_mu_s(st), FRONT_MU_S[1])).max() \
        <= 100 * st.controls.tol


def _front_with_targets():
    st = _front()
    st.usrlam = [0.9, 0.8]
    for _ in range(20):
        cont(st, 1)
    assert sorted(r.pars[0] for r in st.branch if r.usr) == [0.8, 0.9]
    return st


def _acfold_findbif():
    st = demos.make("acfold", {"nx": 20, "ny": 18})
    findbif(st, 2)
    assert st.file.bcount == 2
    return st


@pytest.mark.parametrize("run", [_acfold_findbif, _front_with_targets],
                         ids=["acfold_findbif", "front_targets"])
def test_no_lu_is_held_through_a_factorization(monkeypatch, run):
    orig = linsolve.FactorCache.factorize
    calls = [0]

    def checking(self, A, **options):
        assert self.held is None
        calls[0] += 1
        return orig(self, A, **options)
    monkeypatch.setattr(linsolve.FactorCache, "factorize", checking)
    seen = _count_nloop(monkeypatch)
    run()
    assert calls[0] > 0
    if run is _front_with_targets:
        # the trivial branch of findbif takes no Newton iterate; the front
        # takes its first ones on held LUs
        assert any(held for _, _, held in seen)


class _Tracked:
    """An LU that can be weakly referenced (SuperLU cannot)."""

    def __init__(self, lu):
        self.lu = lu

    def __getattr__(self, name):
        return getattr(self.lu, name)


def test_no_lu_outlives_its_use_in_a_run_of_steps(monkeypatch):
    # one cont call of many steps: the step's own reference to the LU it
    # holds, and a corrector's LU of its previous iterate, go as well
    orig = linsolve.FactorCache.factorize
    made = []

    def tracking(self, A, **options):
        assert not any(ref() is not None for ref in made)
        lu = _Tracked(orig(self, A, **options))
        made.append(weakref.ref(lu))
        return lu
    monkeypatch.setattr(linsolve.FactorCache, "factorize", tracking)
    st = _front()
    cont(st, 20)
    assert st.total_steps == 20 and len(made) == 20 * FRONT_ITERS[0] + 2


def test_another_factorization_drops_the_held_lu():
    st = _front()
    cont(st, 1)
    problem.swipar(st, [1, 3])
    assert st.ops.cache.held is not None
    getinitau(st)           # a tangent for the new problem: one more LU
    assert st.ops.cache.held is None


def test_a_copy_and_a_point_file_take_no_lu(tmp_path):
    st = _front()
    cont(st, 1)
    assert st.ops.cache.held is not None
    dup = copy.deepcopy(st)
    assert dup.ops.cache.held is None and st.ops.cache.held is not None
    st.file.dir = str(tmp_path)
    with open(io.save_point(st, "pt")) as fh:
        assert set(json.load(fh)) == POINT_KEYS


def test_chord_newton_after_cont_makes_no_corrector_lu(monkeypatch):
    st = _front()
    cont(st, 1)
    st.switches.newt = 1
    seen = _count_nloop(monkeypatch)
    cont(st, 1)
    (it, lus, held), = seen
    assert st.total_steps == 2 and it >= 1 and lus == 0 and held == it
    assert np.abs(np.subtract(_mu_s(st), FRONT_MU_S[1])).max() \
        <= 100 * st.controls.tol


def _track_lus(monkeypatch):
    """Every new LU first checks that none made before is alive; returns
    the weak references to the LUs made."""
    orig = linsolve.FactorCache.factorize
    made = []

    def tracking(self, A, **options):
        assert not any(ref() is not None for ref in made)
        lu = _Tracked(orig(self, A, **options))
        made.append(weakref.ref(lu))
        return lu
    monkeypatch.setattr(linsolve.FactorCache, "factorize", tracking)
    return made


def test_no_lu_outlives_its_use_with_the_stability_index(monkeypatch):
    # spcalc 1 with a phase condition (nq = 1): each index comes from J's
    # leading block, whose LU goes before A0's is made.  Only the block at
    # getinitau's point (s = 0) is symmetric and has an LU; the later ones
    # go to ARPACK
    made = _track_lus(monkeypatch)
    st = _front()
    st.switches.spcalc = 1
    cont(st, 20)
    assert st.total_steps == 20 and len(made) == 20 * FRONT_ITERS[0] + 3
    assert all(r.ineg in (0, 1) for r in st.branch)


def test_localization_takes_the_right_end_lu_from_cont(monkeypatch):
    # the test function starts on the LU cont made at the bracket's right
    # end and drops it before the left end's is made: one new square per
    # localization, and no two LUs alive
    made = _track_lus(monkeypatch)
    squares = []
    orig = continuation._square

    def counting(state, pt):
        squares.append(pt["U"])
        return orig(state, pt)
    monkeypatch.setattr(continuation, "_square", counting)
    st = _acfold_findbif()
    assert len(squares) == st.file.bcount == 2 and made
