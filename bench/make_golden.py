"""Write golden.json: the outputs of one pass of every workload on the
default seed.  The benchmark compares the default seed's outputs with them
at 1e-12 relative, so regenerate them only from code whose outputs are the
reference, and say so when committing the new file.

Usage, from the repository root:  python3 bench/make_golden.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

import workloads  # noqa: E402


def main() -> int:
    golden = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(workloads.DEFAULT_SEED, ROOT)
        if cls is workloads.CliTables:
            w.env = os.environ.copy()
        w.prepare()
        golden[name] = {w.key(inp): w.output(inp, w.run(inp)) for inp in w.inputs()}
        print(f"{name}: {len(golden[name])} outputs", file=sys.stderr)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
