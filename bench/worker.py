"""Benchmark worker: sets up one workload, runs its operations, checks
every output, and prints one JSON object on its last stdout line.

Started by run.py with the package's ``src`` directory on PYTHONPATH.
Set-up ends when the first timed operation starts; run.py measures it
from the moment it spawned this process (both read CLOCK_MONOTONIC).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import workloads
from tracer import Tracer, aggregate

ROOT = Path(__file__).resolve().parents[1]
MAX_PROBLEMS = 20
# Traced passes per half of a traced run; bounds the spans kept in memory.
MAX_TRACED_PASSES = 10
SETUP_CALIBRATIONS = 5


def versions() -> dict:
    import numpy
    out = {"python": platform.python_version(), "numpy": numpy.__version__}
    try:
        import scipy
        out["scipy"] = scipy.__version__
    except ImportError:
        out["scipy"] = None
    return out


def blas() -> dict:
    """The BLAS numpy was built with, and the thread count of the loaded
    OpenBLAS when it exports a getter."""
    import numpy
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            getter = getattr(lib, sym, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


class Runner:
    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, inp, call=None) -> float:
        """Time one operation, then check its output outside the timing."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            raw = call(self.w.run, inp) if call else self.w.run(inp)
        except Exception as exc:  # an operation that raises counts as failed
            elapsed = time.perf_counter() - t0
            self._fail(inp, [f"raised {exc!r}"])
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            problems = self.w.check(inp, self.w.output(inp, raw))
        except Exception as exc:  # a check that cannot run is a failed check
            problems = [f"check raised {exc!r}"]
        if problems:
            self._fail(inp, problems)
        return elapsed

    def _fail(self, inp, problems):
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{inp}: {'; '.join(problems[:3])}")


def hand_counts() -> dict:
    """Traced counts on fixed inputs whose seed-code values were counted by
    hand: 152 factorizations for the k=3 sweep over the 8 default alphas,
    6 for one criteria_report, and one inestimable center cell with one
    singular factorization for k=2, n0=1 at alpha = sqrt(2)."""
    import ccdrobust.cli as cli
    import ccdrobust.criteria as criteria
    import ccdrobust.design as design
    import ccdrobust.missing as missing
    cube = criteria.Region(criteria.RegionShape.CUBOIDAL, 1.0)
    tracer = Tracer()
    with tracer:
        tracer.op("selftest.sweep_k3", lambda: missing.scenario_sweep(
            3, 4, cli.DEFAULT_ALPHAS[3], cube))
        tracer.op("selftest.criteria_report", lambda: criteria.criteria_report(
            design.gen_ccd(3, 1.681, 4)))
        rows = tracer.op("selftest.sweep_k2_n0_1", lambda: missing.scenario_sweep(
            2, 1, [math.sqrt(2)], cube))
    roots = {sid: s[0] for sid, s in enumerate(tracer.spans) if s[1] == -1}
    invert = {name: 0 for name in roots.values()}
    singular = 0
    for name, _parent, op, _t0, _t1, _n, err in tracer.spans:
        if name == "linalg.invert":
            invert[roots[op]] += 1
            singular += err == "SingularMatrixError"
    return {
        "selftest.sweep_k3.invert_calls": invert["selftest.sweep_k3"],
        "selftest.criteria_report.invert_calls": invert["selftest.criteria_report"],
        "selftest.sweep_k2_n0_1.inestimable_center": rows[0].inestimable.count("center"),
        "selftest.sweep_k2_n0_1.invert_singular": singular,
    }


def layer_metrics(agg: dict, passes: int) -> dict:
    """Per-layer metrics per pass from the aggregated spans."""
    layers, counters = agg["layers"], agg["counters"]

    def get(name, field="calls"):
        a = layers.get(name)
        return a[field] / passes if a else 0.0

    def self_ms(name):
        return get(name, "self_ns") / 1e6

    def per_unit_ns(name):
        a = layers.get(name)
        return a["self_ns"] / a["size"] if a and a["size"] else 0.0

    invert = get("linalg.invert")
    g_logical = get("criteria.g_max", "size")
    m = {"cli.main.self_ms": self_ms("cli.main")}
    for name in ("design.gen_ccd", "design.Design.coords"):
        m[f"{name}.calls"] = get(name)
        m[f"{name}.self_ms"] = self_ms(name)
    m.update({
        "model.expand_points.calls": get("model.expand_points"),
        "model.expand_points.rows": get("model.expand_points", "size"),
        "model.expand_points.self_ms": self_ms("model.expand_points"),
        "model.model_matrix.calls": get("model.model_matrix"),
        "linalg.invert.calls": invert,
        "linalg.invert.self_ms": self_ms("linalg.invert"),
        "linalg.invert.singular": (layers["linalg.invert"]["errors"]["SingularMatrixError"]
                                   / passes if "linalg.invert" in layers else 0.0),
        "linalg.invert.useful_ratio": (counters.get("missing.scenario_sweep.rows", 0)
                                       / passes / invert if invert else 0.0),
        "criteria.information_inverse.calls": get("criteria.information_inverse"),
        "criteria.spv_many.calls": get("criteria.spv_many"),
        "criteria.spv_many.points": get("criteria.spv_many", "size"),
        "criteria.spv_many.self_ms": self_ms("criteria.spv_many"),
        "criteria.spv_many.ns_per_point": per_unit_ns("criteria.spv_many"),
        "criteria.g_max.calls": get("criteria.g_max"),
        "criteria.g_max.self_ms": self_ms("criteria.g_max"),
        "criteria.g_max.eval_ratio": (agg["spv_points_under_g_max"] / passes / g_logical
                                      if g_logical else 0.0),
        "criteria.v_avg.self_ms": self_ms("criteria.v_avg"),
        "criteria.region_moments.calls": get("criteria.region_moments"),
        "criteria.region_moments.self_ms": self_ms("criteria.region_moments"),
        "criteria.rotatability_index.self_ms": self_ms("criteria.rotatability_index"),
        "criteria.sphere_points.self_ms": self_ms("criteria.sphere_points"),
        "criteria.criteria_report.self_ms": self_ms("criteria.criteria_report"),
        "criteria.monte_carlo_moments.self_ms": self_ms("criteria.monte_carlo_moments"),
        "criteria.monte_carlo_moments.samples": get("criteria.monte_carlo_moments", "size"),
        "criteria.monte_carlo_moments.ns_per_sample": per_unit_ns("criteria.monte_carlo_moments"),
        "missing.scenario_sweep.self_ms": self_ms("missing.scenario_sweep"),
        "missing.delete_rows.calls": get("missing.delete_rows"),
        "missing.delete_rows.self_ms": self_ms("missing.delete_rows"),
        "missing.loss_precision.calls": get("missing.loss_precision"),
        "missing.relative_g_efficiency.calls": get("missing.relative_g_efficiency"),
        "missing.relative_g_efficiency.self_ms": self_ms("missing.relative_g_efficiency"),
        "missing.relative_v_efficiency.calls": get("missing.relative_v_efficiency"),
        "missing.inestimable_cells": counters.get("missing.inestimable_cells", 0) / passes,
        "verify.verify_tables.self_ms": self_ms("verify.verify_tables"),
        "verify.cells": counters.get("verify.cells", 0) / passes,
        "verify.gated_pass": counters.get("verify.gated_pass", 0) / passes,
        "verify.calibrate_v_region.self_ms": self_ms("verify.calibrate_v_region"),
        "verify.resolve_spv_scale.self_ms": self_ms("verify.resolve_spv_scale"),
        "svgplot.line_chart.self_ms": self_ms("svgplot.line_chart"),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliTables:
        w = cls(args.seed, ROOT, in_process=bool(args.trace), env=os.environ.copy())
    else:
        w = cls(args.seed, ROOT)
    # The traced run does a fixed number of passes, sized from the seed
    # code's pass time.
    passes = max(1, round(args.seconds / w.pass_seconds))
    w.prepare()
    inputs = w.inputs()
    for inp in w.warm_up_inputs():
        w.run(inp)
    runner = Runner(w)
    result = {"ready_at": time.monotonic()}
    # The yardstick just after set-up, whose time run.py scales by it.
    calibrate.kernel()
    result["setup_speed"] = calibrate.REFERENCE_S / statistics.median(
        calibrate.measure() for _ in range(SETUP_CALIBRATIONS))
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if not args.trace:
        # Whole passes until the run's time is up.
        stick = calibrate.Yardstick()
        lat = []
        end = time.monotonic() + args.seconds
        passes = 0
        while not passes or time.monotonic() < end:
            for inp in inputs:
                stick.before_op()
                lat.append(runner.op(inp))
            passes += 1
        result.update(latencies=lat, speed=stick.factors(),
                      work=passes * sum(w.work(i) for i in inputs))
    else:
        # Equal halves, untraced then traced, give the tracing overhead: the
        # ratio of the halves' per-operation best times.
        half = max(1, min(passes // 2, MAX_TRACED_PASSES))
        untraced = [runner.op(inp) for _ in range(half) for inp in inputs]
        tracer = Tracer()
        with tracer:
            call = lambda run, inp: tracer.op(f"op.{w.name}", run, inp)
            traced = [runner.op(inp, call) for _ in range(half) for inp in inputs]
        n = len(inputs)
        overhead = (sum(min(traced[i::n]) for i in range(n))
                    / sum(min(untraced[i::n]) for i in range(n)))
        layers = layer_metrics(aggregate(tracer), half)
        layers["trace.overhead"] = overhead
        layers.update(hand_counts())
        spans = ROOT / "bench" / "out" / f"spans-{w.name}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans)
        result.update(layers=layers, traced_passes=half, untraced_functions=tracer.absent,
                      spans_file=str(spans.relative_to(ROOT)), spans=len(tracer.spans))

    # Peak RSS of the process doing the work: the CLI children, or this one.
    who = (resource.RUSAGE_CHILDREN if isinstance(w, workloads.CliTables) and not w.in_process
           else resource.RUSAGE_SELF)
    result.update(passes=passes, attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems, peak_rss_kb=resource.getrusage(who).ru_maxrss,
                  versions=versions(), blas=blas(), sizes=w.sizes(),
                  inputs_per_pass=len(inputs), work_unit=w.unit)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
