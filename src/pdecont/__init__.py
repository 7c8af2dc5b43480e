"""Continuation and bifurcation toolkit for 2D elliptic PDE systems on
rectangles: P1 FEM assembly, pseudo-arclength continuation with bifurcation
and fold detection, branch switching, fold/branch-point continuation in two
parameters, periodic boundary identification, and linearly implicit time
integration."""

from .continuation import BranchRecord, bisect_special_point, cont, nloop, \
    nloopext, stepsize_update
from .demos import DEMOS, make
from .fem import BCSpec, CoeffTensors, assemble_boundary, assemble_interior, \
    assemble_load, assemble_mass, dirichlet_bc, jaccheck, neumann_bc
from .io import export_branch, load_point, save_point
from .linsolve import FactorCache, SingularMatrixError, blss, lss, \
    spectrum_near_zero, stability_index
from .mesh import Mesh, build_rect_mesh, node_to_triangle
from .periodic import BCPer, Periodization, build_fill_drop, \
    build_periodization
from .problem import Callbacks, Controls, ProblemState, Switches, residual, \
    jacobian_active, setfemops, swipar, weighted_dot
from .spcont import spcontexit, spcontini, spjac_check
from .switching import findbif, getinitau, swibra
from .timeint import tint, tints

__version__ = "0.1.0"
