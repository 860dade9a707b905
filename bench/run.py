"""ccdrobust benchmark driver.

    python3 bench/run.py --workload alpha-scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src`` directory.  With ``--trace 0`` the last stdout
line is a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics of a separate traced run.
The line before it is the run record (machine, versions, sizes, seed).
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DEADLINE_S = 170      # a run gives up, killing its workers, after this
SETUP_RUNS = 3           # set-ups per run; setup_s is their median
IMPORT_PROBES = 3        # fresh-process import probes per traced run


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # Single-threaded BLAS: a plain baseline that a shared machine's other
    # tenants disturb least.  The run record reports the loaded thread count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # One string-hash seed, so that every worker lays out its sets and dicts
    # alike.
    env["PYTHONHASHSEED"] = "0"
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout() -> None:
    """Turn off address-space randomization for this child and the processes
    it starts: a random layout moves a process's speed by up to a third."""
    ctypes.CDLL(None).personality(ADDR_NO_RANDOMIZE)


def execute(cmd: list[str], env: dict, deadline: Deadline) -> str:
    """Run a child in its own process group, with a fixed address-space
    layout; on timeout kill the whole group (a worker's CLI children too)
    and wait for it.  Returns stdout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=fixed_layout)
    try:
        out, err = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    return out


def spawn(args: list[str], env: dict, deadline: Deadline) -> tuple[float, dict]:
    """Run the worker; return its set-up time, from spawn to its first timed
    operation (both CLOCK_MONOTONIC), and its result."""
    t0 = time.monotonic()
    out = execute([sys.executable, str(BENCH / "worker.py"), *args], env, deadline)
    res = json.loads(out.strip().splitlines()[-1])
    return res["ready_at"] - t0, res


def import_probe(env: dict, deadline: Deadline) -> dict:
    """Fresh-process `import ccdrobust` and the first k=3 sphere_points call
    (which loads scipy.stats lazily), medians over IMPORT_PROBES processes."""
    runs = [json.loads(execute([sys.executable, str(BENCH / "import_probe.py")], env, deadline))
            for _ in range(IMPORT_PROBES)]
    return {"cli.import_s": statistics.median(r["import_s"] for r in runs),
            "criteria.sphere_points.first_call_ms":
                statistics.median(r["first_sphere_points_ms"] for r in runs)}


PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Nearest-rank latency at the highest of PERCENTILES with at least 10
    samples beyond it (the maximum when there is none), the percentile, and
    the number of samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    for q in PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return s[rank - 1], q, n - rank
    return s[-1], 100.0, 0


def machine() -> dict:
    cpu, llc = None, None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
        caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
        if caches:
            llc = (caches[-1] / "size").read_text().strip()
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "llc": llc}


def run_workload(name: str, seed: int, seconds: int, trace: int, env: dict,
                 deadline: Deadline) -> tuple[dict, dict]:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine()}
    if trace:
        _, res = spawn(base + ["--trace", "1"], env, deadline)
        metrics = dict(res["layers"])
        metrics.update(import_probe(env, deadline))
        record.update(traced_passes=res["traced_passes"], spans=res["spans"],
                      untraced_functions=res["untraced_functions"],
                      spans_file=res["spans_file"],
                      tracing_overhead=metrics["trace.overhead"])
    else:
        setups, raw_setups = [], []
        for i in range(SETUP_RUNS):
            setup, res = spawn(base if i == SETUP_RUNS - 1 else base + ["--setup-only"],
                               env, deadline)
            raw_setups.append(setup)
            setups.append(setup * res["setup_speed"])
        lat = res["latencies"]
        per_pass = res["inputs_per_pass"]
        # An operation's latency is the median of its repetitions, one per
        # pass, each scaled by the yardstick timed around it (calibrate.py).
        scaled = [t * f for t, f in zip(lat, res["speed"])]
        est = [statistics.median(scaled[i::per_pass]) for i in range(per_pass)]
        wall = sum(est)
        tail_s, pct, beyond = tail(est)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "op_p50_ms": statistics.median(est) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "work_per_s": res["work"] / res["passes"] / wall,
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
            "pass_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
        }
        pass_walls = [sum(lat[i:i + per_pass]) for i in range(0, len(lat), per_pass)]
        record.update(setup_runs_s=setups, raw_setup_runs_s=raw_setups,
                      raw_pass_walls_s=pass_walls,
                      raw_wall_s=sum(statistics.median(lat[i::per_pass])
                                     for i in range(per_pass)),
                      speed_p50=statistics.median(res["speed"]), ops=len(lat),
                      op_ms=[t * 1e3 for t in est], op_tail_percentile=pct,
                      op_tail_beyond=beyond, work=res["work"], work_unit=res["work_unit"])
    record.update(passes=res["passes"], versions=res["versions"], blas=res["blas"],
                  sizes=res["sizes"], attempted=res["attempted"], failed=res["failed"],
                  problems=res["problems"])
    return record, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ccdrobust" / "__init__.py").is_file():
        return fail(f"no package source under {ROOT / 'src'}; run from a full checkout")
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    if args.seconds < 1:
        return fail("--seconds must be >= 1")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = worker_env()
    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        try:
            record, metrics = run_workload(name, args.seed, args.seconds, args.trace, env,
                                           Deadline(RUN_DEADLINE_S))
        except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
            return fail(f"{name}: {exc!r}")
        if metrics.keys() != units.keys():
            return fail(f"{name}: metrics {sorted(set(metrics) ^ set(units))} differ from "
                        "BENCHMARK.json")
        for problem in record["problems"]:
            print(f"bench: {name}: check failed: {problem}", file=sys.stderr)
        results[name] = {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
        }
        print(json.dumps({"record": record}))
        if args.workload == "all":
            verdict = "correct" if results[name]["correct"] else "INCORRECT"
            print(f"== {name}: {verdict}, {record['failed']}/{record['attempted']} failed")
            for m, v in results[name]["metrics"].items():
                print(f"   {m:<40} {v['value']:>16.6g} {v['unit']}")
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
