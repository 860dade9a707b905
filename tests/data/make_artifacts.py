"""Regenerate artifacts.json, the CLI artifact manifest that
tests/test_artifacts.py checks.

    PYTHONPATH=src python tests/data/make_artifacts.py

Each command in COMMANDS runs through ccdrobust.cli.main in an empty
directory.  The manifest holds, per command, its argv, exit code, stdout
and stderr lines, and every file it wrote, line by line; and the Python,
numpy and machine it was made on.  Regenerate it only in a change that
moves an output on purpose, and list every moved cell in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).with_name("artifacts.json")

# The CLI runs whose artifacts are pinned: the table sweeps, grid sweeps over
# a cube and a ball, the widest design with and without a grid, a stack with
# a singular residual with and without a grid, both plot kinds, generate and
# verify; then the refusals, each of which exits 1 with one error line and
# writes no file; then `--alpha` given to sweep and plot, alone and before an
# `--alphas`.  The fine-grid sweeps are left out for their time.
COMMANDS = (
    ["sweep", "--k", "2"],
    ["sweep", "--k", "3"],
    ["sweep", "--k", "4"],
    ["sweep", "--k", "5"],
    ["sweep", "--k", "5", "--grid-step", "0.2"],
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


def main() -> None:
    manifest = {"platform": platform_record(),
                "commands": [record(argv) for argv in COMMANDS]}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {MANIFEST}: {len(COMMANDS)} commands")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    main()
