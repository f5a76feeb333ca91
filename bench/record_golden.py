"""Record the golden reports the `analyze` workload compares demo runs against.

Run from the root of a checkout at the commit whose reports are the
reference:

    python3 bench/record_golden.py

Writes ``bench/golden/<demo file>.power<power>.out``, the exact stdout of
``tensorindep analyze <file> --max-power <power>``.
"""

from __future__ import annotations

import os
import sys

from run import ROOT, import_package
from workloads import DEMO_RUNS, golden_path, run_cli


def main() -> int:
    pkg = import_package()
    os.makedirs(os.path.dirname(golden_path("x", 1)), exist_ok=True)
    for name, k in DEMO_RUNS:
        rc, stdout, stderr = run_cli(
            pkg, ["analyze", os.path.join(ROOT, "demos", "data", name), "--max-power", str(k)]
        )
        if rc != 0:
            print(f"{name}@{k}: exit {rc}: {stderr}", file=sys.stderr)
            return 1
        with open(golden_path(name, k), "w", encoding="utf-8") as handle:
            handle.write(stdout)
        print(f"{name}@{k}: {len(stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
