"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced with ``--tiny``
and checks the result line: every metric named in BENCHMARK.json is there
with its unit, the output checks passed, and the traced counts show what
each workload is meant to stress.  It also checks that a directory holding
only the benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace),
                             "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-3000:]
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result, lines[:-1]


def check_metrics(result, printed, spec_metrics, positive):
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        assert math.isfinite(got["value"]), m["name"]
        assert got["value"] > 0 if positive else got["value"] >= 0, m["name"]
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[-1] == m["unit"] for line in printed), \
            f"{m['name']} not printed with its unit"


def test_end_to_end_metrics_and_checks():
    for wl in SPEC["workloads"]:
        result, printed = result_of(run_bench(wl["name"], 0))
        check_metrics(result, printed, SPEC["end_to_end"], positive=True)


def test_per_layer_metrics_and_stress():
    layers = {}
    for wl in SPEC["workloads"]:
        result, printed = result_of(run_bench(wl["name"], 1))
        check_metrics(result, printed, SPEC["per_layer"], positive=False)
        layers[wl["name"]] = {k: v["value"]
                              for k, v in result["metrics"].items()}
    for name in ("ladder", "foldcurve"):
        assert layers[name]["linsolve.spectrum.calls"] > 0
        assert layers[name]["continuation.bisect.calls"] > 0
    assert layers["foldcurve"]["switching.swibra.s"] > 0
    assert layers["foldcurve"]["io.load_point.s"] > 0
    for name in ("front", "tint"):
        assert layers[name]["linsolve.spectrum.calls"] == 0
    assert layers["front"]["io.save_point.calls"] > 0
    assert layers["tint"]["timeint.tints.lu_count"] == 1
    assert layers["tint"]["fem.assemble.calls"] > 0
    assert layers["front"]["fem.assemble.calls"] == 0


def test_fails_without_package_sources():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_end_to_end_metrics_and_checks,
                 test_per_layer_metrics_and_stress,
                 test_fails_without_package_sources):
        test()
        print(f"ok {test.__name__}")
