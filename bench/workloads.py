"""The benchmark's four workloads: inputs from the seed, the timed
operation, its work units, and the check of its output.

Each workload's inputs form one *pass*; a run repeats the pass, so every
distinct input's expected output is computed once and every operation's
output is checked against it.  On the default seed the expectation is the
golden output of the seed code (``golden.json``), compared at 1e-12
relative; on any other seed it is the independent recompute in
``reference.py``, compared at 1e-9 relative (its worst disagreement with
the seed code over the workloads' inputs is about 4e-11).  Inestimable
cells must match exactly.  A G-max location is never compared with an
expected location, so a symmetry-equivalent maximizer stays valid: the SPV
at the reported location must equal the reported maximum and the location
must lie in the evaluation set (design points, probes, the unit cube).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import reference as ref

DEFAULT_SEED = 0
GOLDEN_RTOL = 1e-12
REFERENCE_RTOL = 1e-9
BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"


def close(got, want, rtol, scale=0.0) -> bool:
    return abs(got - want) <= rtol * max(abs(want), scale)


def compare(got, want, rtol, path="", scale=0.0, scales=None) -> list[str]:
    """Recursive comparison of plain JSON-like values: numbers within rtol of
    max(|want|, scale), where scales[key] gives the scale of a near-zero
    quantity under that key; everything else exactly."""
    scales = scales or {}
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{path}: {got!r} != {want!r}"]
        return [p for key in want
                for p in compare(got[key], want[key], rtol, f"{path}.{key}",
                                 scales.get(key, scale), scales)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare(g, w, rtol, f"{path}[{i}]", scale, scales)]
    if isinstance(want, float) and isinstance(got, (int, float)):
        if close(got, want, rtol, scale):
            return []
        return [f"{path}: {got!r} != {want!r} (rtol {rtol:g})"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def check_location(k, n0, alpha, value, loc) -> list[str]:
    """The reported G maximum must be the SPV at its location, and the
    location must be a point g_max evaluates."""
    problems = []
    at = ref.spv_at(k, n0, alpha, loc)
    if not close(value, at, REFERENCE_RTOL):
        problems.append(f"g_max {value!r} != SPV {at!r} at its location {loc}")
    if not ref.in_evaluation_set(k, n0, alpha, loc):
        problems.append(f"g_max location {loc} outside the evaluation set")
    return problems


def load_golden(name: str):
    return json.loads(GOLDEN_PATH.read_text()).get(name)


def _uniform_alphas(rng, count, k, lo=0.5, hi=3.5, margin=0.1):
    """Seeded axial distances, kept `margin` away from sqrt(k): with one
    center run, deleting it there leaves a singular design, and close to it
    a near-singular one, where the inestimable verdict of the package and of
    the reference could differ."""
    out = []
    while len(out) < count:
        a = rng.uniform(lo, hi)
        if abs(a - math.sqrt(k)) >= margin:
            out.append(a)
    return out


def _loss_dict(rep) -> dict:
    d = {f: getattr(rep, f) for f in rep.FIELDS}
    d["inestimable"] = list(rep.inestimable)
    return d


class Workload:
    """A pass of inputs, the timed call on one input, and its check."""

    name = ""
    unit = ""              # the work unit of work_per_s
    pass_seconds = 1.0     # one pass of the seed code on the reference machine

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self._expected = {}

    def uses_golden(self) -> bool:
        return self.seed == DEFAULT_SEED

    @property
    def golden(self):
        if not hasattr(self, "_golden"):
            self._golden = load_golden(self.name) if self.uses_golden() else None
        return self._golden

    def inputs(self) -> list:
        raise NotImplementedError

    def key(self, inp) -> str:
        return json.dumps(inp)

    def sizes(self) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        """Imports the package.  Calls go through module attributes, so that
        the tracer's replacements are the ones called."""
        import ccdrobust.criteria
        import ccdrobust.design
        import ccdrobust.missing
        self.criteria, self.design, self.missing = (
            ccdrobust.criteria, ccdrobust.design, ccdrobust.missing)
        self.cube = self.criteria.Region(self.criteria.RegionShape.CUBOIDAL, 1.0)

    def warm_up_inputs(self) -> list:
        """Run once, untimed, before the first timed operation."""
        return self.inputs()[:1]

    def run(self, inp):
        """The timed call; returns its raw result."""
        raise NotImplementedError

    def output(self, inp, raw):
        """The raw result as plain data, outside the timed region."""
        return raw

    def work(self, inp) -> float:
        return 1.0

    def reference(self, inp):
        raise NotImplementedError

    def expected(self, inp):
        key = self.key(inp)
        if key not in self._expected:
            if self.golden is not None:
                self._expected[key] = self.golden.get(key)
            else:
                self._expected[key] = self.reference(inp)
        return self._expected[key]

    def rtol(self) -> float:
        return GOLDEN_RTOL if self.golden is not None else REFERENCE_RTOL

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError


class AlphaScan(Workload):
    """One table row in process: scenario_sweep at one alpha plus the
    criteria_report of that full design, for k = 2..5 and n0 in {1, 4}."""

    name = "alpha-scan"
    unit = "rows"
    pass_seconds = 0.2
    SEEDED_ALPHAS = 4

    def inputs(self):
        rng = random.Random(self.seed)
        rows = []
        for k in (2, 3, 4, 5):
            for n0 in (1, 4):
                for a in _uniform_alphas(rng, self.SEEDED_ALPHAS, k) + [math.sqrt(k)]:
                    rows.append([k, n0, a])
        return rows

    def warm_up_inputs(self):
        # One row per k: the first k >= 3 row loads scipy.stats lazily.
        return [inp for inp in self.inputs() if inp[1] == 4 and inp[2] == math.sqrt(inp[0])]

    def sizes(self):
        return {"rows_per_pass": len(self.inputs()), "k": [2, 3, 4, 5], "n0": [1, 4],
                "alphas_per_k_n0": self.SEEDED_ALPHAS + 1,
                "alpha_range": [0.5, 3.5], "grid_step": None, "rot_samples": 200}

    def run(self, inp):
        k, n0, a = inp
        return (self.missing.scenario_sweep(k, n0, [a], self.cube),
                self.criteria.criteria_report(self.design.gen_ccd(k, a, n0), self.cube,
                                              grid_step=None))

    def output(self, inp, raw):
        reports, cr = raw
        crit = {f: getattr(cr, f) for f in cr.FIELDS}
        crit["g_max_location"] = list(cr.g_max_location)
        return {"loss": _loss_dict(reports[0]), "criteria": crit}

    def reference(self, inp):
        return {"loss": ref.loss_row(*inp), "criteria": ref.criteria_row(*inp)}

    def check(self, inp, out):
        want = self.expected(inp)
        if want is None:
            return [f"no expected output for {inp}"]
        crit = dict(out["criteria"])
        loc = crit.pop("g_max_location")
        want_crit = {f: v for f, v in want["criteria"].items() if f != "g_max_location"}
        # The rotatability index is a standard deviation of SPV, zero up to
        # rounding at a rotatable alpha, so it is compared on the SPV scale.
        scales = {"rotatability_index": want["criteria"]["g_max"]}
        return (compare(out["loss"], want["loss"], self.rtol(), "loss")
                + compare(crit, want_crit, self.rtol(), "criteria", scales=scales)
                + check_location(*inp, crit["g_max"], loc))


class GGrid(Workload):
    """One alpha row with the G-max grid search on: scenario_sweep for k=5 on
    a coarse grid (a full design and three residual ones) plus g_max of a
    full k=3 design on a fine grid."""

    name = "g-grid"
    unit = "design-grid points"
    pass_seconds = 2.3
    ALPHAS = 3
    K5_STEP, K3_STEP = 0.25, 0.02

    @staticmethod
    def logical(k, step):
        return (2 * math.floor(1.0 / step + 1e-9) + 1) ** k

    def inputs(self):
        rng = random.Random(self.seed)
        return [rng.uniform(0.5, 3.5) for _ in range(self.ALPHAS)]

    def sizes(self):
        return {"alphas_per_pass": self.ALPHAS, "alpha_range": [0.5, 3.5],
                "k5_grid_step": self.K5_STEP, "k5_logical_grid": self.logical(5, self.K5_STEP),
                "k5_designs_with_g": 4,
                "k3_grid_step": self.K3_STEP, "k3_logical_grid": self.logical(3, self.K3_STEP)}

    def run(self, a):
        return (self.missing.scenario_sweep(5, 4, [a], self.cube, grid_step=self.K5_STEP),
                self.criteria.g_max(self.design.gen_ccd(3, a, 4), self.cube, self.K3_STEP))

    def output(self, a, raw):
        reports, (value, loc) = raw
        return {"loss": _loss_dict(reports[0]),
                "g3": {"value": value, "location": list(loc)}}

    def work(self, a):
        return 4 * self.logical(5, self.K5_STEP) + self.logical(3, self.K3_STEP)

    def reference(self, a):
        # The k=3 maximum is bounded below by the grid of twice the step,
        # a subset of the searched grid.
        pts = ref.ccd(3, a, 4)
        lower = ref.g_max(ref.inverse(pts), len(pts), pts, 3, a, 2 * self.K3_STEP)
        return {"loss": ref.loss_row(5, 4, a, self.K5_STEP), "g3_lower": lower}

    def check(self, a, out):
        want = self.expected(a)
        if want is None:
            return [f"no expected output for alpha={a!r}"]
        g3 = out["g3"]
        problems = compare(out["loss"], want["loss"], self.rtol(), "loss")
        problems += check_location(3, 4, a, g3["value"], g3["location"])
        if self.golden is not None:
            problems += compare(g3["value"], want["g3"]["value"], self.rtol(), "g3.value")
        elif g3["value"] < want["g3_lower"] * (1 - REFERENCE_RTOL):
            problems.append(f"g3 {g3['value']!r} below the coarse-grid max "
                            f"{want['g3_lower']!r}")
        return problems


class McOracle(Workload):
    """Monte-Carlo moments calls: per pass, one k=5 call on the unit cube and
    one k=3 call on the ball of radius sqrt(3), each with its own seed."""

    name = "mc-oracle"
    unit = "samples"
    pass_seconds = 0.9
    SAMPLES = 200_000
    CALLS = (("cube", 1.0, 5), ("sphere", math.sqrt(3), 3))

    def inputs(self):
        rng = random.Random(self.seed)
        return [[shape, size, k, self.SAMPLES, rng.randrange(2 ** 32)]
                for shape, size, k in self.CALLS]

    def sizes(self):
        return {"calls_per_pass": len(self.CALLS),
                "calls": [f"k={k} {shape}({size:.6g})" for shape, size, k in self.CALLS],
                "samples_per_call": self.SAMPLES, "chunk": ref.MC_CHUNK}

    def run(self, inp):
        shape, size, k, n, seed = inp
        c = self.criteria
        region = c.Region(c.RegionShape.CUBOIDAL if shape == "cube" else c.RegionShape.SPHERICAL,
                          size)
        return c.monte_carlo_moments(region, k, n, seed=seed)

    def output(self, inp, raw):
        mean, se = raw
        return {"mean": mean.tolist(), "se": se.tolist()}

    def work(self, inp):
        return inp[3]

    def reference(self, inp):
        mean, se = ref.mc_moments(*inp)
        return {"mean": mean.tolist(), "se": se.tolist()}

    def check(self, inp, out):
        want = self.expected(inp)
        if want is None:
            return [f"no expected output for {inp}"]
        # Odd moments are zero up to sampling noise: compare on the scale of
        # the largest entry.
        return [p for key in ("mean", "se")
                for p in compare(out[key], want[key], self.rtol(), key,
                                 max(abs(v) for row in want[key] for v in row))]


_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)")


def _svg_problems(got: str, want: str) -> list[str]:
    """SVG coordinates are printed to 0.01: numbers may move by one unit in
    that digit, everything else must match exactly."""
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    if len(g) != len(w):
        return ["svg: structure differs"]
    for i, (a, b) in enumerate(zip(g, w)):
        if i % 2 and abs(float(a) - float(b)) > 0.0101:
            return [f"svg: {a} != {b}"]
        if not i % 2 and a != b:
            return [f"svg: {a[:40]!r} != {b[:40]!r}"]
    return []


def _table_problems(got_rows, want_rows, rtol, k, name) -> list[str]:
    """Rows of a sweep/plot CSV or criteria JSON: numbers within rtol, the
    rotatability index on the SPV scale, G locations by re-evaluation."""
    if len(got_rows) != len(want_rows) or (got_rows and got_rows[0].keys() != want_rows[0].keys()):
        return [f"{name}: shape differs"]
    problems = []
    for i, (got, want) in enumerate(zip(got_rows, want_rows)):
        for col, w in want.items():
            g = got[col]
            if col == "g_max_location":
                loc = [float(c) for c in str(g).strip("()").split()]
                problems += check_location(k, 4, float(got["alpha"]), float(got["g_max"]), loc)
                continue
            try:
                gf, wf = float(g), float(w)
            except ValueError:
                if g != w:
                    problems.append(f"{name}[{i}].{col}: {g!r} != {w!r}")
                continue
            scale = float(want["g_max"]) if col == "rotatability_index" else 0.0
            if not close(gf, wf, rtol, scale):
                problems.append(f"{name}[{i}].{col}: {g!r} != {w!r}")
    return problems


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class CliTables(Workload):
    """Fresh `python -m ccdrobust.cli` processes reproducing the tables:
    sweep for k = 2..5 on the default grids, verify, and the k=5 loss plot.
    The inputs do not depend on the seed, so the golden outputs apply to
    every seed; the seed only orders the calls within a pass."""

    name = "cli-tables"
    unit = "CLI calls"
    pass_seconds = 4.4
    COMMANDS = (["sweep", "--k", "2"], ["sweep", "--k", "3"], ["sweep", "--k", "4"],
                ["sweep", "--k", "5"], ["verify"], ["plot", "--k", "5", "--metric", "loss"])
    VERIFY_LINES = ("gated cells:", "V-region calibration:", "residual SPV scaling resolved to:")

    def __init__(self, seed, root, in_process=False, env=None):
        super().__init__(seed, root)
        self.in_process = in_process
        self.env = env
        self.outdir = root / "bench" / "out" / "cli"

    def uses_golden(self):
        return True

    def inputs(self):
        cmds = [list(c) for c in self.COMMANDS]
        random.Random(self.seed).shuffle(cmds)
        return cmds

    def sizes(self):
        return {"calls_per_pass": len(self.COMMANDS),
                "commands": [" ".join(c) for c in self.COMMANDS],
                "in_process": self.in_process}

    def warm_up_inputs(self):
        # In process, the first pass pays one-time imports (scipy.stats).
        return self.inputs() if self.in_process else [list(self.COMMANDS[0])]

    def prepare(self):
        self.outdir.mkdir(parents=True, exist_ok=True)
        if self.in_process:
            import ccdrobust.cli
            self.cli = ccdrobust.cli

    def files(self, argv):
        if argv[0] == "sweep":
            k = argv[2]
            return [f"loss_k{k}.csv", f"loss_k{k}_long.csv",
                    f"criteria_k{k}.csv", f"criteria_k{k}.json"]
        if argv[0] == "plot":
            return [f"{argv[4]}_k5.svg", f"{argv[4]}_k5_long.csv"]
        return []

    def run(self, argv):
        for name in self.files(argv):
            (self.outdir / name).unlink(missing_ok=True)
        full = argv + ["--out", str(self.outdir)]
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(full)
            return rc, out.getvalue()
        proc = subprocess.run([sys.executable, "-m", "ccdrobust.cli"] + full,
                              cwd=self.root, env=self.env, capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def output(self, argv, raw):
        rc, stdout = raw
        files = {}
        for name in self.files(argv):
            path = self.outdir / name
            files[name] = path.read_text() if path.exists() else None
        lines = [ln for ln in stdout.splitlines() if ln.startswith(self.VERIFY_LINES)]
        return {"rc": rc, "summary": lines, "files": files}

    def check(self, argv, out):
        want = self.expected(argv)
        if want is None:
            return [f"no expected output for {argv}"]
        problems = [] if out["rc"] == want["rc"] else [f"exit code {out['rc']} != {want['rc']}"]
        if argv[0] == "verify":
            # The scaling line ends in mean deviations printed to 4 decimals.
            got = [ln.split(" (")[0] for ln in out["summary"]]
            exp = [ln.split(" (")[0] for ln in want["summary"]]
            if got != exp:
                problems.append(f"verify summary {got} != {exp}")
        k = int(argv[2]) if argv[0] == "sweep" else 5
        for name, text in want["files"].items():
            got = out["files"].get(name)
            if got is None:
                problems.append(f"{name} not written")
            elif name.endswith(".svg"):
                problems += _svg_problems(got, text)
            elif name.endswith(".json"):
                problems += _table_problems(json.loads(got), json.loads(text),
                                            self.rtol(), k, name)
            else:
                problems += _table_problems(_csv_rows(got), _csv_rows(text),
                                            self.rtol(), k, name)
        return problems


WORKLOADS = {w.name: w for w in (CliTables, AlphaScan, GGrid, McOracle)}
