"""Smoke test of the benchmark itself: every workload once at a tiny size.

    python3 perfbench/smoke.py

Asserts that each untraced run prints every end-to-end metric of
BENCHMARK.json with its unit, that each traced run prints every per-layer
metric with its unit, that no operation failed, and that the per-layer counts
of two traced runs of the same seed are identical. Takes under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "bytes", "ratio"}


def run(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    return result["metrics"]


def check_names(metrics: dict, spec: list[dict], what: str) -> None:
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in metrics.items()}
    assert got == expected, f"{what}: metrics differ from BENCHMARK.json: {set(got) ^ set(expected)}"
    for name, m in metrics.items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name} is not a number"


def main() -> int:
    for spec in SPEC["workloads"]:
        workload = spec["name"]
        check_names(run(workload, 0), SPEC["end_to_end"], f"{workload} untraced")
        first, second = run(workload, 1), run(workload, 1)
        check_names(first, SPEC["per_layer"], f"{workload} traced")
        for name, m in first.items():
            if m["unit"] in COUNT_UNITS:
                assert m["value"] == second[name]["value"], f"{workload}: {name} differs between traced runs"
        print(f"ok  {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
