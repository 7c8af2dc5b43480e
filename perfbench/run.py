"""pdecont benchmark: one workload, one process, results as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps the package's layer functions and reports per-layer
metrics instead.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Provenance, all samples
and (when traced) every span go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

# One BLAS thread: a single-threaded run does not depend on what else holds
# the host's other cores.  Dense QZ gains nothing from a second thread;
# ARPACK on the ladder gains about 10%.
BLAS_THREADS = 1

# String hashing is randomized per process by default, which changes the
# heap's history and so the peak RSS from run to run; fix it.  These
# settings act only on a fresh interpreter, so the run re-executes itself
# until its environment holds every one of them.
RUN_ENV = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
           "OMP_NUM_THREADS": str(BLAS_THREADS),
           "MKL_NUM_THREADS": str(BLAS_THREADS)}

# Set-ups timed before the first pass, median kept.  One build takes
# 5-400 ms, and single builds within one run vary by 20-40%, so build for
# a fixed time rather than a fixed count.
SETUP_BUDGET_S = 2.0
SETUP_MIN_REPS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "step_ms.p50": "ms",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("ladder", "foldcurve", "front", "tint"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure passes for about this long (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes; not a benchmark measurement")
    return p.parse_args(argv)


def main():
    args = parse_args(sys.argv[1:])
    if not (SRC / "pdecont" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in RUN_ENV.items()):
        os.execve(sys.executable, [sys.executable, str(Path(__file__))]
                  + sys.argv[1:], {**os.environ, **RUN_ENV})
    sys.path.insert(0, str(SRC))

    import pdecont
    if Path(pdecont.__file__).resolve().parent != SRC / "pdecont":
        print(f"perfbench: imported pdecont from {pdecont.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    size = "tiny" if args.tiny else "full"
    wl = workloads.WORKLOADS[args.workload](
        workloads.SIZES[size][args.workload], args.seed)
    prov = provenance(args, size)
    wrong = [lib for lib in prov["blas_runtime"]
             if lib.get("threads", BLAS_THREADS) != BLAS_THREADS]
    if wrong:
        print(f"perfbench: BLAS runs {wrong}, not {BLAS_THREADS} thread(s)",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"

    tracer = None
    span_cost = 0.0
    build, run_pass = wl.setup, wl.run
    if args.trace:
        span_cost = tracing.calibrate_span_cost()
        tracer = tracing.Tracer()
        tracer.install(pdecont)
        build = tracer.wrap("bench.setup", build)
        run_pass = tracer.wrap("bench.pass", run_pass)
    clock = workloads.StepClock()
    clock.install()
    try:
        res = measure(args, wl, build, run_pass, tracer, work)
    finally:
        clock.uninstall()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        figures = tracing.layer_metrics(tracer, res["passes"], clock,
                                        span_cost)
    else:
        figures = end_to_end(wl, res, clock)
    extras = workload_figures(wl, res, clock)
    write_files(args, prov, res, figures, extras, tracer)

    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in {**figures, **extras}.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    failed = res["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["passes"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in figures.items()},
    }))
    return 0


def measure(args, wl, build, run_pass, tracer, work):
    """Set up, then run checked passes until ``args.seconds`` would be
    exceeded by one more pass.  Every pass is one operation: it fails when
    it raises or when its output check fails."""
    res = {"setup": [], "wall": [], "tint_s": [], "tints_s": [],
           "passes": 0, "failed": 0}

    def timed_build():
        t0 = time.perf_counter()
        states = build()
        res["setup"].append(time.perf_counter() - t0)
        return states

    states = None
    if tracer is None:
        while (len(res["setup"]) < SETUP_MIN_REPS
               or sum(res["setup"]) < SETUP_BUDGET_S):
            states = None
            states = timed_build()

    start = time.perf_counter()
    while True:
        if states is None:
            states = timed_build()
        res["passes"] += 1
        if tracer is not None:
            tracer.pass_id = res["passes"]
        out = work / f"pass{res['passes']}"
        out.mkdir(parents=True)
        t0 = time.perf_counter()
        try:
            result = run_pass(states, str(out))
        except Exception:
            traceback.print_exc()
            result = None
        res["wall"].append(time.perf_counter() - t0)
        problems = ["pass raised"] if result is None else _check(wl, result)
        for msg in problems:
            print(f"perfbench: check failed: {msg}", file=sys.stderr)
        res["failed"] += bool(problems)
        if isinstance(result, dict) and "tint_s" in result:
            res["tint_s"].append(result["tint_s"])
            res["tints_s"].append(result["tints_s"])
        states = result = None
        shutil.rmtree(out, ignore_errors=True)

        elapsed = time.perf_counter() - start
        next_pass = statistics.median(res["wall"]) + \
            statistics.median(res["setup"])
        if elapsed + next_pass > args.seconds:
            return res


def _check(wl, result):
    try:
        return wl.check(result)
    except Exception:
        traceback.print_exc()
        return ["check raised"]


def _median(xs, scale=1.0):
    return statistics.median(xs) * scale if xs else 0.0


def end_to_end(wl, res, clock):
    """{name: (value, unit)} for every end-to-end metric.  A step is an
    accepted cont(state, 1) call, or on tint one time step of tint."""
    if res["tint_s"]:
        step_ms = _median([t / wl.cfg["nt"] for t in res["tint_s"]], 1e3)
    else:
        step_ms = _median(clock.steps, 1e3)
    values = {
        "setup_s": _median(res["setup"]),
        "wall_s": _median(res["wall"]),
        "step_ms.p50": step_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def workload_figures(wl, res, clock):
    """Figures that exist on some workloads only: printed and stored with
    the run, not part of the result object."""
    out = {"passes": (res["passes"], "count"),
           "steps": (len(clock.steps), "count")}
    if clock.locate:
        out["locate_s"] = (_median(clock.locate), "s")
        out["locate.samples"] = (len(clock.locate), "count")
    if res["tints_s"]:
        out["tints_step_ms"] = (
            _median([t / wl.cfg["nt"] for t in res["tints_s"]], 1e3), "ms")
    return out


def write_files(args, prov, res, figures, extras, tracer):
    stem = f"{args.workload}-seed{args.seed}"
    record = {"provenance": prov,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in {**figures, **extras}.items()},
              "samples": {k: res[k] for k in ("setup", "wall", "tint_s",
                                              "tints_s")},
              "attempted": res["passes"], "failed": res["failed"]}
    _dump(OUT / f"result-{stem}-trace{args.trace}.json", record)
    if tracer is not None:
        _dump(OUT / f"trace-{stem}.json",
              {"provenance": prov, "layers": tracer.layer_table(),
               "spans": tracer.spans_as_dicts()})


def _dump(path, doc):
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# provenance

def provenance(args, size):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_build = "unknown"
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "sizes": size,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_build": blas_build,
        "blas_runtime": _openblas_runtime(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "machine": platform.machine(),
    }


def _openblas_runtime():
    """Config string and thread count of every OpenBLAS loaded in-process."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return []
    found = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"lib": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                nth = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if cfg is not None and nth is not None:
                    cfg.restype, nth.restype = ctypes.c_char_p, ctypes.c_int
                    entry["config"] = cfg().decode(errors="replace")
                    entry["threads"] = int(nth())
        found.append(entry)
    return found


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest():
    """sha256 over the package sources, which identifies the code under
    test also in a checkout without git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "pdecont").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
