"""Oracles with a convergence rate: the located bifurcation points of acfold
against the analytic Dirichlet ladder on three meshes, each halving h.

P1 eigenvalue errors fall as h^2, so the relative error of each point falls
by about 4 per halving, and Richardson extrapolation from the two finest
meshes removes the h^2 term.  What is left is the floor set by the stiff
Dirichlet spring (about -5e-4).  A wrong quadrature or stiffness term of a
size that a fixed tolerance of 2% still accepts breaks the rate."""

import numpy as np
import pytest

from pdecont import demos
from pdecont.switching import findbif

MESHES = ((15, 13), (30, 27), (60, 54))


def _ladder():
    """The three smallest Dirichlet eigenvalues of -c lap on acfold's
    (-1, 1) x (-0.9, 0.9), c = 0.25."""
    def lam(k, m):
        return 0.25 * ((k * np.pi / 2.0) ** 2 + (m * np.pi / 1.8) ** 2)
    return np.array(sorted([lam(1, 1), lam(2, 1), lam(1, 2)]))


@pytest.fixture(scope="module")
def located():
    """{(nx, ny): the sorted lambda of findbif(3)'s three points}."""
    out = {}
    for nx, ny in MESHES:
        st = demos.make("acfold", {"nx": nx, "ny": ny})
        st.usrlam = []
        findbif(st, 3)
        out[nx, ny] = np.array(sorted(r.pars[0] for r in st.branch
                                      if r.ptype == 1))
    return out


def test_ladder_errors_fall_as_h_squared(located):
    want = _ladder()
    errs = [(located[mesh] - want) / want for mesh in MESHES]
    assert all(len(e) == 3 for e in errs)
    # 4.3 to 6.5 per halving, measured; a sign change reads negative
    for coarse, fine in zip(errs, errs[1:]):
        assert np.all(coarse / fine >= 3.5), coarse / fine


def test_richardson_extrapolation_meets_the_ladder(located):
    want = _ladder()
    coarse, fine = located[MESHES[1]], located[MESHES[2]]
    extrapolated = (4.0 * fine - coarse) / 3.0
    # -5.0e-4 to -5.7e-4, measured: the Dirichlet spring's floor
    assert np.all(np.abs(extrapolated - want) <= 1e-3 * want)
