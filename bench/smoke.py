"""Smoke test of the benchmark harness at tiny sizes (about a minute).

    python3 bench/smoke.py

Checks that the tracer counts what a plain counter counts, that the
correctness gate rejects a perturbed output on both the golden and the
reference path, that every workload runs for one second with the result
line BENCHMARK.json describes, and that the driver refuses to run without
the package source.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import hand_counts  # noqa: E402

SEED_HAND_COUNTS = {
    "selftest.sweep_k3.invert_calls": 152,
    "selftest.criteria_report.invert_calls": 6,
    "selftest.sweep_k2_n0_1.inestimable_center": 1,
    "selftest.sweep_k2_n0_1.invert_singular": 1,
}


def check_tracer() -> None:
    """The tracer's linalg.invert count equals a plain counting wrapper's,
    and uninstall restores every binding."""
    import ccdrobust.cli as cli
    import ccdrobust.criteria as criteria
    import ccdrobust.linalg as linalg
    import ccdrobust.missing as missing
    cube = criteria.Region(criteria.RegionShape.CUBOIDAL, 1.0)
    original = linalg.invert
    plain = 0

    def counting(M):
        nonlocal plain
        plain += 1
        return original(M)

    linalg.invert = counting
    try:
        tracer = Tracer()
        with tracer:
            missing.scenario_sweep(3, 4, cli.DEFAULT_ALPHAS[3], cube)
            missing.scenario_sweep(2, 1, [math.sqrt(2)], cube)
    finally:
        linalg.invert = original
    traced = sum(1 for s in tracer.spans if s[0] == "linalg.invert")
    assert traced == plain, f"tracer counted {traced} factorizations, plain counter {plain}"
    assert missing.g_max is criteria.g_max and criteria.expand_points.__name__ == "expand_points"
    assert not hasattr(criteria.spv_many, "__wrapped__"), "uninstall left a wrapper"
    counts = hand_counts()
    same = counts == SEED_HAND_COUNTS
    print(f"tracer: {traced} factorizations, as counted plainly; hand counts {counts} "
          f"{'match the seed' if same else 'differ from the seed ' + str(SEED_HAND_COUNTS)}")


def check_gate() -> None:
    """A perturbed output fails the check, against golden and reference."""
    for seed in (workloads.DEFAULT_SEED, 1):
        w = workloads.AlphaScan(seed, ROOT)
        w.prepare()
        inp = w.inputs()[9]
        out = w.output(inp, w.run(inp))
        assert not w.check(inp, out), w.check(inp, out)
        out["loss"]["loss_axial"] *= 1 + 1e-8
        assert w.check(inp, out), f"seed {seed}: perturbed loss passed the check"
    print("gate: perturbed outputs rejected on the golden and the reference path")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            if trace and w["name"] != "alpha-scan":
                continue
            proc = run_bench(ROOT, "--workload", w["name"], "--seed", "1", "--seconds", "1",
                             "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr[-2000:]
            res = json.loads(proc.stdout.splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, set(got) ^ set(want)
            print(f"run: {w['name']} --trace {trace}: {res['attempted']} ops correct")


def check_incomplete_checkout() -> None:
    """Only BENCHMARK.json and bench/: the driver must refuse, printing no result."""
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "--workload", "alpha-scan", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print(f"bare checkout: exit {proc.returncode}, no result")


if __name__ == "__main__":
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    check_tracer()
    check_gate()
    check_incomplete_checkout()
    check_runs()
    print("smoke: ok")
