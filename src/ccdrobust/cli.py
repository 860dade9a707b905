"""Command-line front end: generate designs, sweep missing-observation
scenarios, verify against the embedded reference tables, and plot.

Exit codes: 0 success, 1 usage/config error, 2 verification failure,
3 numeric failure (an inestimable full design in a sweep or plot; an
inestimable residual design is a flagged cell, not a failure).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path

from .criteria import CriteriaReport, Region, RegionShape, criteria_report
from .design import PointClass, design_to_csv, gen_ccd
from .fixtures import LOSS_TABLES, SPV_TABLES
from .linalg import SingularMatrixError
from .missing import LossReport, scenario_sweep
from .svgplot import line_chart
from .verify import calibrate_v_region, resolve_spv_scale, verify_tables

__all__ = ["main"]

# Axial-distance grids used in the reference tables, by factor count.
DEFAULT_ALPHAS = {
    2: [1.0, 1.21, 1.414, 1.5, 2.0],
    3: [1.0, 1.21, 1.681, 1.732, 2.0, 2.25, 2.5, 3.0],
    4: [1.0, 1.21, 2.0, 2.25, 2.5, 3.0],
    5: [1.0, 1.5, 2.236, 2.378, 2.5, 2.75, 3.0],
}

_METRICS = ("loss", "re_g", "re_v")


def _fmt(value) -> str:
    if value is None:
        return "inestimable"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _load_config(path: str) -> dict[str, str]:
    config = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {line!r}")
        key, _, value = line.partition("=")
        config[key.strip().replace("-", "_")] = value.strip()
    return config


def _region_from_args(args, k: int) -> Region:
    shape = RegionShape.CUBOIDAL if args.region == "cube" else RegionShape.SPHERICAL
    size = args.region_size
    if size is None:
        size = 1.0 if shape is RegionShape.CUBOIDAL else math.sqrt(k)
    return Region(shape, size)


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _finite_list(text: str) -> list[float]:
    """argparse type: comma-separated finite floats."""
    return [_finite(v) for v in text.replace(" ", "").split(",") if v]


def _alphas_from_args(args) -> list[float]:
    if args.alphas is not None:
        vals = args.alphas
    elif args.alpha is not None:
        vals = [args.alpha]
    elif args.k in DEFAULT_ALPHAS:
        vals = DEFAULT_ALPHAS[args.k]
    else:
        raise ValueError(f"no default alpha grid for k={args.k}; pass --alphas")
    if not vals:
        raise ValueError("empty alpha grid")
    if sorted(vals) != vals:
        raise ValueError("alphas must be ascending")
    return vals


def _write(path: Path | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _loss_wide_csv(reports: list[LossReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(LossReport.FIELDS)
    for rep in reports:
        w.writerow([_fmt(getattr(rep, f)) for f in LossReport.FIELDS])
    return buf.getvalue()


def _loss_long_csv(k: int, reports: list[LossReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["k", "alpha", "missing_class", "metric", "value"])
    for rep in reports:
        w.writerow([k, _fmt(rep.alpha), "none", "a_trace", _fmt(rep.a_full)])
        for cls in PointClass:
            for metric in _METRICS:
                value = getattr(rep, f"{metric}_{cls.value}")
                w.writerow([k, _fmt(rep.alpha), cls.value, metric, _fmt(value)])
    return buf.getvalue()


def _criteria_csv(reports: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CriteriaReport.FIELDS)
    for d in reports:
        w.writerow([_fmt(d[f]) for f in CriteriaReport.FIELDS])
    return buf.getvalue()


def _criteria_json(reports: list[dict]) -> str:
    import json
    return json.dumps(reports, indent=2) + "\n"


def cmd_generate(args) -> int:
    design = gen_ccd(args.k, args.alpha, args.n0)
    _write(Path(args.out) if args.out else None, design_to_csv(design))
    return 0


def cmd_sweep(args) -> int:
    alphas = _alphas_from_args(args)
    region = _region_from_args(args, args.k)
    reports = scenario_sweep(args.k, args.n0, alphas, region,
                             grid_step=args.grid_step)
    crit = [criteria_report(rep.full, region, args.grid_step).as_dict()
            for rep in reports]
    outdir = Path(args.out or ".")
    _write(outdir / f"loss_k{args.k}.csv", _loss_wide_csv(reports))
    _write(outdir / f"loss_k{args.k}_long.csv", _loss_long_csv(args.k, reports))
    _write(outdir / f"criteria_k{args.k}.csv", _criteria_csv(crit))
    _write(outdir / f"criteria_k{args.k}.json", _criteria_json(crit))
    for rep in reports:
        for tag in rep.inestimable:
            print(f"note: alpha={rep.alpha:g} missing={tag}: inestimable",
                  file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    tids = args.tables or None
    known = set(LOSS_TABLES) | set(SPV_TABLES)
    if tids and not set(tids) <= known:
        print(f"unknown table id(s): {sorted(set(tids) - known)}", file=sys.stderr)
        return 1
    checks = verify_tables(tids)
    gated_fail = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        gate = "" if c.gated else " (ungated)"
        print(f"[{status}] table {c.table} alpha={c.alpha} "
              f"missing={c.missing or '-'} {c.column}: "
              f"expected {c.expected}, got {c.computed:.7g} "
              f"(dev {c.deviation:.2g}, tol {c.tolerance:.2g}){gate}")
        if c.gated and not c.passed:
            gated_fail += 1
    gated_total = sum(1 for c in checks if c.gated)
    print(f"gated cells: {gated_total - gated_fail}/{gated_total} pass")

    cal = calibrate_v_region()
    print(f"V-region calibration: {cal.verdict}")
    for name, err in sorted(cal.max_rel_error.items()):
        print(f"  {name}: max relative error {err:.4f}")
    for note in cal.notes:
        print(f"  note: {note}")
    scale, devs = resolve_spv_scale()
    print(f"residual SPV scaling resolved to: {scale} "
          f"(mean |dev| residual={devs['residual']:.4f}, full={devs['full']:.4f})")
    return 2 if gated_fail else 0


def cmd_plot(args) -> int:
    alphas = _alphas_from_args(args)
    region = _region_from_args(args, args.k)
    reports = scenario_sweep(args.k, args.n0, alphas, region,
                             grid_step=args.grid_step)
    series = []
    for cls in PointClass:
        xs, ys = [], []
        for rep in reports:
            value = getattr(rep, f"{args.metric}_{cls.value}")
            if value is not None:
                xs.append(rep.alpha)
                ys.append(value)
        series.append((f"missing {cls.value}", xs, ys))
    labels = {"loss": "loss in precision",
              "re_g": "relative G-efficiency",
              "re_v": "relative V-efficiency"}
    svg = line_chart(series, f"k={args.k} CCD, {labels[args.metric]}",
                     "axial distance alpha", labels[args.metric])
    outdir = Path(args.out or ".")
    _write(outdir / f"{args.metric}_k{args.k}.svg", svg)
    _write(outdir / f"{args.metric}_k{args.k}_long.csv",
           _loss_long_csv(args.k, reports))
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[argparse.ArgumentParser, set[str]]]:
    """The top-level parser, and each command's parser with the option
    names (dests) it accepts, which is what a config file may set."""
    parser = argparse.ArgumentParser(
        prog="ccdrobust",
        description="Central composite designs: criteria and robustness to "
                    "missing observations.")
    parser.add_argument("--config", help="flat key=value config file; "
                                         "command-line flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[argparse.ArgumentParser, set[str]] = {}

    def command(name, summary, func, need_alpha=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        dests = commands[p] = set()

        def add(*flags, **kwargs):
            dests.add(p.add_argument(*flags, **kwargs).dest)

        add("--k", type=int, default=2, help="number of factors")
        add("--n0", type=int, default=4, help="number of center points")
        add("--alpha", type=_finite, default=None, help="axial distance")
        if not need_alpha:
            add("--alphas", type=_finite_list, default=None,
                help="comma-separated ascending axial distances")
        add("--region", choices=("cube", "sphere"), default="cube")
        add("--region-size", dest="region_size", type=_finite, default=None,
            help="cube half-width or sphere radius "
                 "(default 1 for cube, sqrt(k) for sphere)")
        add("--grid-step", dest="grid_step", type=_finite, default=None,
            help="G-max evaluation grid spacing; omit to use "
                 "design+probe points only")
        add("--out", default=None)
        return add

    command("generate", "emit a CCD as CSV", cmd_generate, need_alpha=True)
    command("sweep", "loss/efficiency sweep over alphas", cmd_sweep)
    add = command("verify", "check embedded reference tables", cmd_verify)
    add("tables", nargs="*", help="table ids, e.g. 1a 2b (default: all)")
    add = command("plot", "SVG loss/efficiency curves", cmd_plot)
    add("--metric", choices=_METRICS, required=True)
    return parser, commands


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    try:
        args, _ = parser.parse_known_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    if args.config:
        try:
            config = _load_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        bad = set(config).difference(*commands.values())
        if bad:
            print(f"config error: unknown keys {sorted(bad)}", file=sys.stderr)
            return 1
        # Re-parse with config values as defaults; explicit flags win, and
        # argparse converts string defaults through each option's type.
        for p, dests in commands.items():
            p.set_defaults(**{key: value for key, value in config.items()
                              if key in dests})
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    if args.command == "generate" and args.alpha is None:
        print("generate requires --alpha", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SingularMatrixError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
