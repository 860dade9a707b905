"""Regenerate artifacts.json, the CLI artifact manifest that
tests/test_artifacts.py checks.

    PYTHONPATH=src python tests/data/make_artifacts.py

Each command in COMMANDS runs through ccdrobust.cli.main in an empty
directory.  The manifest holds, per command, its argv, exit code, stdout
and stderr lines, and every file it wrote, line by line; and the Python,
numpy and machine it was made on.  Regenerate it only in a change that
moves an output on purpose, and list every moved cell in CHANGES.md: when
it replaces a manifest, the script prints each line that moved, as
`command: stream or file:line: old -> new`, followed, when only the line's
numbers moved, by `; numbers: ` and each changed number as
`old -> new (relative change)`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).with_name("artifacts.json")

# A number in a manifest line: tests/test_artifacts.py compares lines number
# by number, and the text between the numbers exactly.
NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")

# The CLI runs whose artifacts are pinned: the table sweeps, grid sweeps over
# a cube (k = 5, and k = 4 at one alpha) and a ball, the widest design with and without a grid, a stack with
# a singular residual with and without a grid, both plot kinds, generate and
# verify; then the refusals, each of which exits 1 with one error line and
# writes no file; then `--alpha` given to sweep and plot, alone and before an
# `--alphas`; then a full design too ill-conditioned to factorize, and one
# whose X'X overflows, each of which exits 3 and writes no file.  The first
# refusal does not depend on BLAS rounding: the smallest pivot, from the
# interaction columns, is exactly 8 against a working scale of 2e16.  The
# fine-grid sweeps are left out for their time.
#
# `sweep --k 5 --alphas 0.01` is left out: its loss digits are rounding error
# (one was off by a factor of 810), so they cannot be expected to agree within
# test_artifacts' 1e-12 on other numpy and BLAS builds.  The exact-rational
# oracle of tests/test_exact.py is the one to judge that design.
COMMANDS = (
    ["sweep", "--k", "2"],
    ["sweep", "--k", "3"],
    ["sweep", "--k", "4"],
    ["sweep", "--k", "5"],
    ["sweep", "--k", "5", "--grid-step", "0.2"],
    ["sweep", "--k", "4", "--alphas", "1", "--grid-step", "0.1"],
    ["sweep", "--k", "3", "--region", "sphere", "--grid-step", "0.1"],
    ["sweep", "--k", "12", "--alphas", "2,3.5", "--n0", "1"],
    ["sweep", "--k", "12", "--alphas", "2,3.5", "--n0", "1", "--grid-step", "1"],
    ["sweep", "--k", "2", "--n0", "1", "--alphas", "1.4142135623730951,1.5"],
    ["sweep", "--k", "2", "--n0", "1", "--alphas", "1.4142135623730951,1.5",
     "--grid-step", "0.25"],
    ["plot", "--k", "5", "--metric", "loss"],
    ["plot", "--k", "5", "--metric", "re_g", "--grid-step", "0.25"],
    ["generate", "--k", "3", "--alpha", "1.682"],
    ["verify"],
    ["sweep", "--k", "13", "--alphas", "1"],
    ["sweep", "--k", "3", "--n0", "0"],
    ["sweep", "--alphas", "0,1"],
    ["sweep", "--grid-step", "-1"],
    ["sweep", "--alphas", "nan"],
    ["sweep", "--region-size", "inf"],
    ["generate", "--k", "2", "--alpha", "nan"],
    ["generate", "--k", "2", "--alpha", "1", "--n0", "1000000000000000000000000000000"],
    ["sweep", "--k", "2", "--n0", "1000000000000"],
    ["sweep", "--k", "2", "--alphas", "1", "--region-size", "1e77"],
    ["sweep", "--k", "2", "--alpha", "1.5"],
    ["plot", "--k", "2", "--metric", "loss", "--alpha", "1.5"],
    ["sweep", "--k", "2", "--alpha", "1", "--alphas", "2"],
    ["sweep", "--k", "3", "--alphas", "1e4"],
    ["sweep", "--k", "2", "--alphas", "1e77"],
)


def platform_record() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "system": platform.system()}


def record(argv: list[str]) -> dict:
    """Run `ccdrobust argv` in a new empty directory and return its
    exit code, stdout and stderr lines, and every file it wrote, by
    relative path."""
    from ccdrobust.cli import main
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            files = {path.relative_to(tmp).as_posix(): path.read_text().splitlines()
                     for path in sorted(Path(tmp).rglob("*")) if path.is_file()}
        finally:
            os.chdir(cwd)
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue().splitlines(),
            "stderr": err.getvalue().splitlines(), "files": files}


def _texts(command: dict) -> dict[str, list[str]]:
    """A recorded command's stdout, stderr and files, by name, in that order."""
    return {"stdout": command["stdout"], "stderr": command["stderr"], **command["files"]}


def _moved_numbers(old: str, new: str) -> str:
    """`; numbers: ` and each number that differs between two lines whose
    text between the numbers is equal, as `old -> new (relative change)`;
    "" when that text differs."""
    a, b = NUMBER.split(old), NUMBER.split(new)
    if a[::2] != b[::2]:
        return ""
    changes = []
    for x, y in zip(a[1::2], b[1::2]):
        if x != y:
            rel = f"{(float(y) - float(x)) / abs(float(x)):+.1e}" if float(x) else "from 0"
            changes.append(f"{x} -> {y} ({rel})")
    return "; numbers: " + ", ".join(changes)


def moved_lines(old: dict, new: dict) -> list[str]:
    """What differs between two manifests, one line per moved line: the
    command, the stream or file and its 1-based line number, and the old and
    new line, each a repr and None where that side has no such line, and
    each changed number when only numbers changed (_moved_numbers).  A
    changed platform or exit code, and a command or file only one side has,
    get a line of their own."""
    before = {" ".join(c["argv"]): c for c in old["commands"]}
    after = {" ".join(c["argv"]): c for c in new["commands"]}
    moved = []
    if old["platform"] != new["platform"]:
        moved.append(f"platform: {old['platform']} -> {new['platform']}")
    moved += [f"{cmd}: only in the old manifest" for cmd in before if cmd not in after]
    for cmd, command in after.items():
        if cmd not in before:
            moved.append(f"{cmd}: only in the new manifest")
            continue
        if before[cmd]["exit"] != command["exit"]:
            moved.append(f"{cmd}: exit {before[cmd]['exit']} -> {command['exit']}")
        was, now = _texts(before[cmd]), _texts(command)
        for where in [*now, *(w for w in was if w not in now)]:
            if where not in was or where not in now:
                moved.append(f"{cmd}: {where} only in the {'new' if where in now else 'old'} "
                             f"manifest")
                continue
            for i, (a, b) in enumerate(itertools.zip_longest(was[where], now[where]), 1):
                if a != b:
                    numbers = _moved_numbers(a, b) if a is not None and b is not None else ""
                    moved.append(f"{cmd}: {where}:{i}: {a!r} -> {b!r}{numbers}")
    return moved


def main() -> None:
    manifest = {"platform": platform_record(),
                "commands": [record(argv) for argv in COMMANDS]}
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else None
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {MANIFEST}: {len(COMMANDS)} commands")
    if old is not None:
        moved = moved_lines(old, manifest)
        print(f"{len(moved)} lines moved")
        for line in moved:
            print(line)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    main()
