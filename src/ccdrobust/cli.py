"""Command-line front end: generate designs, sweep missing-observation
scenarios, verify against the embedded reference tables, and plot.

Each command takes only the options it reads (_COMMANDS).  A --config
file's values that the command takes are parsed as the flags they name,
ahead of the command line's, whose flags win; the command ignores its
other keys, and a key that no command takes is an error.

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

from .criteria import (CriteriaReport, Region, RegionShape, _grid_half_width,
                       criteria_report)
from .design import PointClass, _check_ccd_args, _check_positive, design_to_csv, gen_ccd
from .fixtures import ANNOTATIONS, LOSS_TABLES
from .linalg import SingularMatrixError
from .missing import LossReport, scenario_sweep
from .svgplot import line_chart
from .verify import calibrate_v_region, resolve_spv_scale, verify_tables

__all__ = ["main"]

# Axial-distance grids used in the reference tables, by factor count: the
# alpha column of each loss table, in its (ascending) order.
DEFAULT_ALPHAS = {spec["k"]: [float(row[0]) for row in spec["rows"]]
                  for spec in LOSS_TABLES.values()}

# Each LossReport metric, by the name --metric takes, with its plot label.
_METRICS = {"loss": "loss in precision",
            "re_g": "relative G-efficiency",
            "re_v": "relative V-efficiency"}


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


def _float_list(text: str) -> list[float]:
    """argparse type: comma-separated floats, checked where they are used."""
    return [float(v) for v in text.replace(" ", "").split(",") if v]


def _alphas_from_args(args) -> list[float]:
    if args.alphas is not None:
        vals = args.alphas
    elif args.k in DEFAULT_ALPHAS:
        vals = DEFAULT_ALPHAS[args.k]
    else:
        raise ValueError(f"no default alpha grid for k={args.k}; pass --alphas")
    if not vals:
        raise ValueError("empty alpha grid")
    vals = [_check_positive("alpha", a) for a in vals]  # before the order: an inf is named
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError("alphas must be ascending, each given once")
    return vals


def _write(path: Path | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _csv(header, rows) -> str:
    """A CSV table: the header row, then each of rows, every cell through _fmt."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([_fmt(value) for value in row] for row in rows)
    return buf.getvalue()


def _loss_long_csv(k: int, reports: list[LossReport]) -> str:
    rows = []
    for rep in reports:
        rows.append([k, rep.alpha, "none", "a_trace", rep.a_full])
        rows += [[k, rep.alpha, cls.value, metric, getattr(rep, f"{metric}_{cls.value}")]
                 for cls in PointClass for metric in _METRICS]
    return _csv(("k", "alpha", "missing_class", "metric", "value"), rows)


def cmd_generate(args) -> int:
    design = gen_ccd(args.k, args.alpha, args.n0)
    _write(Path(args.out) if args.out else None, design_to_csv(design))
    return 0


def _sweep_from_args(args) -> tuple[Region, Path, list[LossReport]]:
    """The setup `sweep` and `plot` share: the region, the output directory
    and the sweep's reports.  Every argument is checked before the
    directory is created, so a rejected sweep leaves no --out behind; and
    the directory is created before the sweep runs, so an unusable --out
    fails before any work is done."""
    alphas = _alphas_from_args(args)
    region = _region_from_args(args, args.k)
    _check_ccd_args(args.k, None, args.n0)
    if args.grid_step is not None:
        _grid_half_width(region, args.grid_step, args.k)
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    reports = scenario_sweep(args.k, args.n0, alphas, region,
                             grid_step=args.grid_step)
    return region, outdir, reports


def cmd_sweep(args) -> int:
    region, outdir, reports = _sweep_from_args(args)
    crit = [criteria_report(gen_ccd(args.k, rep.alpha, args.n0), region,
                            args.grid_step).as_dict() for rep in reports]
    _write(outdir / f"loss_k{args.k}.csv", _csv(
        LossReport.FIELDS, ([getattr(rep, f) for f in LossReport.FIELDS] for rep in reports)))
    _write(outdir / f"loss_k{args.k}_long.csv", _loss_long_csv(args.k, reports))
    _write(outdir / f"criteria_k{args.k}.csv", _csv(
        CriteriaReport.FIELDS, ([d[f] for f in CriteriaReport.FIELDS] for d in crit)))
    import json
    _write(outdir / f"criteria_k{args.k}.json", json.dumps(crit, indent=2) + "\n")
    for rep in reports:
        for tag in rep.inestimable:
            print(f"note: alpha={rep.alpha:g} missing={tag}: inestimable",
                  file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    checks = verify_tables(args.tables)
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
    for table, alpha, missing, text in ANNOTATIONS:
        print(f"  note: {table}/{alpha}/{missing}: {text}")
    scale, devs = resolve_spv_scale()
    print(f"residual SPV scaling resolved to: {scale} "
          f"(mean |dev| residual={devs['residual']:.4f}, full={devs['full']:.4f})")
    return 2 if gated_fail else 0


def cmd_plot(args) -> int:
    _, outdir, reports = _sweep_from_args(args)
    series = []
    for cls in PointClass:
        xs, ys = [], []
        for rep in reports:
            value = getattr(rep, f"{args.metric}_{cls.value}")
            if value is not None:
                xs.append(rep.alpha)
                ys.append(value)
        series.append((f"missing {cls.value}", xs, ys))
    label = _METRICS[args.metric]
    svg = line_chart(series, f"k={args.k} CCD, {label}", "axial distance alpha", label)
    _write(outdir / f"{args.metric}_k{args.k}.svg", svg)
    _write(outdir / f"{args.metric}_k{args.k}_long.csv",
           _loss_long_csv(args.k, reports))
    return 0


# Every option of every command; a config file may set all but `tables`.
_OPTIONS = {
    "--k": dict(type=int, default=2, help="number of factors"),
    "--n0": dict(type=int, default=4, help="number of center points"),
    "--alpha": dict(type=float, required=True, help="axial distance"),
    "--alphas": dict(type=_float_list,
                     help="comma-separated ascending axial distances"),
    "--region": dict(choices=("cube", "sphere"), default="cube"),
    "--region-size": dict(type=float,
                          help="cube half-width or sphere radius "
                               "(default 1 for cube, sqrt(k) for sphere)"),
    "--grid-step": dict(type=float,
                        help="G-max evaluation grid spacing; omit to use "
                             "design+probe points only"),
    "--metric": dict(choices=tuple(_METRICS), required=True),
    "--out": dict(help="file (generate) or directory (sweep, plot) to write; "
                       "verify accepts it and writes only to stdout"),
    "tables": dict(nargs="*", help="table ids, e.g. 1a 2b (default: all)"),
}

_SWEEP_OPTIONS = ("--k", "--n0", "--alphas", "--region", "--region-size",
                  "--grid-step", "--out")

# Each command: its function, its summary, and the options it reads; a
# config value reaches it as the flag it names.
_COMMANDS = {
    "generate": (cmd_generate, "emit a CCD as CSV", ("--k", "--n0", "--alpha", "--out")),
    "sweep": (cmd_sweep, "loss/efficiency sweep over alphas", _SWEEP_OPTIONS),
    "verify": (cmd_verify, "check embedded reference tables", ("tables", "--out")),
    "plot": (cmd_plot, "SVG loss/efficiency curves", _SWEEP_OPTIONS + ("--metric",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccdrobust",
        description="Central composite designs: criteria and robustness to "
                    "missing observations.")
    parser.add_argument("--config", help="flat key=value config file; "
                                         "command-line flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def _with_config(argv: list[str] | None) -> list[str]:
    """argv without --config FILE, with each value in FILE that the command
    takes placed right after the command name as the flag it names; a flag
    given on the command line comes later, so it wins."""
    pre = argparse.ArgumentParser(prog="ccdrobust", add_help=False)  # -h reaches the commands
    pre.add_argument("--config")
    known, argv = pre.parse_known_args(argv)
    if known.config:
        config = _load_config(known.config)
        flags = {key: "--" + key.replace("_", "-") for key in config}
        bad = sorted(key for key, flag in flags.items() if flag not in _OPTIONS)
        if bad:
            raise ValueError(f"unknown keys {bad}")
        if argv and argv[0] in _COMMANDS:
            argv[1:1] = [f"{flags[key]}={value}" for key, value in config.items()
                         if flags[key] in _COMMANDS[argv[0]][2]]
    return argv


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(_with_config(argv))
    except SystemExit as exc:
        return 1 if exc.code else 0
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SingularMatrixError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
