"""Benchmark entry point: run one workload in a child process with pinned threads.

    python3 perfbench/run.py --workload pipeline|evaluate|chat \
        [--seed 7] [--seconds 20] [--trace 0|1]

Run from the root of a checkout that holds ``src/mtss``. The child gets
OPENBLAS_NUM_THREADS=1 and MTSS_THREADS=1 (they must be set before numpy
loads) and ``src`` on PYTHONPATH. A first child trains the reference
student if the checkout has none; the second runs the workload, and its
output is passed through unchanged, so the last line is the JSON result.
See perfbench/README.md.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "MTSS_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Training the reference student happens once per checkout; runs after that
# must end within 180 s.
BUILD_TIMEOUT_S = 700
TIMEOUT_S = 170


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "mtss" / "cli.py").is_file():
        print(f"perfbench: no mtss sources under {ROOT / 'src'}; run from an mtss checkout",
              file=sys.stderr)
        return 2
    env = {**os.environ, **PINNED}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for extra, timeout in ((["--build-only"], BUILD_TIMEOUT_S), ([], TIMEOUT_S)):
        try:
            child = subprocess.run([sys.executable, str(HERE / "workloads.py"), *argv, *extra],
                                   env=env, cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            # subprocess.run has killed the child and waited for it.
            print(f"perfbench: {' '.join(argv + extra)} did not finish within {timeout} s",
                  file=sys.stderr)
            return 3
        if child.returncode != 0:
            return child.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
