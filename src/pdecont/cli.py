"""Command-line surface: run/findbif/swibra/swipar/spcont/spcontexit,
time integration, plotting and consistency checks.

A command that continues a branch writes its outputs even when
continuation warns of a failure (a corrector failure inside a localization,
a missed user target, a stop on ds < dsmin); it then names each failed
point on stderr and exits with status 1."""

from __future__ import annotations

import argparse
import os
import sys

from . import continuation, demos, fem, io, plot, problem, spcont, switching, \
    timeint


def _out_root():
    return os.environ.get("PDECONT_OUT", ".")


def _apply_params(state, params):
    for spec in params or []:
        if "=" not in spec:
            raise SystemExit(f"bad --param {spec!r}; expected name=value")
        name, val = spec.split("=", 1)
        state.setaux(name, float(val))
    return state


def _finish_run(state, out, steps):
    state.file.dir = out
    continuation.cont(state, steps)
    io.export_branch(state, os.path.join(out, "branch.csv"))
    print(f"{state.name}: {len(state.branch)} branch points, "
          f"{state.file.bcount} bifurcations, {state.file.fcount} folds "
          f"-> {out}")
    return _failures(state)


def _failures(state):
    """Exit status of a run whose outputs are written: 1, with each
    failure continuation warned of on stderr, else 0."""
    for failure in state.sol.failures:
        print(f"failed: {failure}", file=sys.stderr)
    return 1 if state.sol.failures else 0


def cmd_run(args):
    state = demos.make(args.demo)
    _apply_params(state, args.param)
    if args.ds is not None:
        state.sol.ds = args.ds
    if args.usrlam:
        state.usrlam = [float(v) for v in args.usrlam.split(",")]
    return _finish_run(state, args.out or os.path.join(_out_root(), args.demo),
                       args.steps)


def cmd_findbif(args):
    state = demos.make(args.demo)
    _apply_params(state, args.param)
    if args.ds is not None:
        state.sol.ds = args.ds
    state.file.dir = args.out or os.path.join(_out_root(), args.demo)
    switching.findbif(state, args.nbif)
    io.export_branch(state, os.path.join(state.file.dir, "branch.csv"))
    print(f"{state.name}: located {state.file.bcount} bifurcation point(s)")
    return _failures(state)


def cmd_swibra(args):
    state = io.load_point(args.dir, args.point)
    switching.swibra(state, args.ds)
    return _finish_run(state, args.out, args.steps)


def cmd_swipar(args):
    state = io.load_point(args.dir, args.point)
    problem.swipar(state, [int(i) for i in args.ilam.split(",")])
    if args.ds is not None:
        state.sol.ds = args.ds
    return _finish_run(state, args.out, args.steps)


def cmd_spcont(args):
    state = io.load_point(args.dir, args.point)
    spcont.spcontini(state, args.extra)
    if args.ds is not None:
        state.sol.ds = args.ds
    return _finish_run(state, args.out, args.steps)


def cmd_spcontexit(args):
    state = io.load_point(args.dir, args.point)
    spcont.spcontexit(state, args.primary)
    res = continuation.nloop(state, state.u)
    if not res["converged"]:
        raise SystemExit("corrector did not converge after exit")
    state.u = res["U"]
    if args.ds is not None:
        state.sol.ds = args.ds
    if args.steps:
        return _finish_run(state, args.out, args.steps)
    state.file.dir = args.out
    io.save_point(state, "pt0")
    print(f"exited to normal continuation -> {args.out}/pt0")


def cmd_tint(args):
    state = io.load_point(args.dir, args.point)
    state.file.dir = args.out or state.file.dir
    if args.variant == "tints":
        timeint.tints(state, args.dt, args.nt, args.pmod)
    else:
        timeint.tint(state, args.dt, args.nt, args.pmod)
    t, res = state.timeseries[-1]
    print(f"t={t:g} residual={res:.3e}")


def cmd_plot(args):
    if args.what == "branch":
        tables = [io.read_branch_csv(os.path.join(d, "branch.csv"))
                  for d in args.inputs]
        plot.plot_branch(tables, args.x, args.y, args.out)
    else:
        directory, name = args.inputs[0], args.inputs[1]
        state = io.load_point(directory, name)
        plot.plot_solution(state, args.comp, args.out)
    print(f"wrote {args.out}")


def cmd_check(args):
    state = demos.perturb(demos.make(args.demo))
    where = "at a seeded perturbed state (seed 0)"
    chk = fem.jaccheck(state)
    ok = chk["maxdiff"] <= 1e-5
    print(f"jaccheck {args.demo} {where}: maxdiff={chk['maxdiff']:.3e} "
          f"{'ok' if ok else 'FAIL'}")
    if state.callbacks.semilinear is not None:
        d = spcont.spjac_check(state)
        sp_ok = d <= 1e-5
        print(f"spjac {args.demo} {where}: maxdiff={d:.3e} "
              f"{'ok' if sp_ok else 'FAIL'}")
        ok = ok and sp_ok
    if not ok:
        raise SystemExit(1)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="pdecont",
        description="Continuation/bifurcation toolkit for 2D elliptic PDE "
                    "systems on rectangles")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_common(p, out_required=False):
        p.add_argument("--steps", type=int, default=10)
        p.add_argument("--ds", type=float, default=None)
        p.add_argument("--out", required=out_required, default=None)

    p = sub.add_parser("run", help="continue a demo branch")
    p.add_argument("demo")
    add_common(p)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--usrlam", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("findbif", help="locate bifurcation points")
    p.add_argument("demo")
    p.add_argument("--nbif", type=int, default=1)
    add_common(p)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.set_defaults(func=cmd_findbif)

    p = sub.add_parser("swibra", help="switch branch at a bifurcation point")
    p.add_argument("dir")
    p.add_argument("point")
    add_common(p, out_required=True)
    p.set_defaults(func=cmd_swibra)

    p = sub.add_parser("swipar", help="change the active parameters")
    p.add_argument("dir")
    p.add_argument("point")
    p.add_argument("--ilam", required=True)
    add_common(p, out_required=True)
    p.set_defaults(func=cmd_swipar)

    p = sub.add_parser("spcont", help="fold/branch-point continuation")
    p.add_argument("dir")
    p.add_argument("point")
    p.add_argument("--extra", type=int, required=True)
    add_common(p, out_required=True)
    p.set_defaults(func=cmd_spcont)

    p = sub.add_parser("spcontexit", help="leave fold/branch-point "
                                          "continuation")
    p.add_argument("dir")
    p.add_argument("point")
    p.add_argument("--primary", type=int, default=None)
    p.add_argument("--steps", type=int, default=0)
    p.add_argument("--ds", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spcontexit)

    for variant in ("tint", "tints"):
        p = sub.add_parser(variant, help="time integration")
        p.add_argument("dir")
        p.add_argument("point")
        p.add_argument("--dt", type=float, required=True)
        p.add_argument("--nt", type=int, required=True)
        p.add_argument("--pmod", type=int, default=10)
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_tint, variant=variant)

    p = sub.add_parser("plot", help="branch or solution SVG")
    p.add_argument("what", choices=["branch", "sol"])
    p.add_argument("inputs", nargs="+")
    p.add_argument("--x", default=None)
    p.add_argument("--y", default="l2norm")
    p.add_argument("--comp", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("check", help="Jacobian consistency checks at a "
                                     "seeded perturbation of the demo state")
    p.add_argument("demo")
    p.set_defaults(func=cmd_check)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.func is cmd_plot and args.what == "branch" and args.x is None:
            header, _ = io.read_branch_csv(
                os.path.join(args.inputs[0], "branch.csv"))
            args.x = header[2]       # first active parameter column
        status = args.func(args)
    except (demos.DemoError, io.IOError_, plot.PlotError,
            switching.SwitchingError,
            spcont.SpcontError, timeint.TimeintError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status or 0


if __name__ == "__main__":
    sys.exit(main())
