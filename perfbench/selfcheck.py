"""Fast self-check of the benchmark (about a minute on two cores).

    python3 perfbench/selfcheck.py

Runs every workload once at the tiny size untraced and twice traced, and
checks that the result line follows the contract: every end-to-end or
per-layer metric of BENCHMARK.json is present with its unit, the names the
run prints include every end-to-end metric by name, the outputs passed their
checks, and traced counts repeat exactly.  It also checks that BENCHMARK.json
matches metrics.py, and that the benchmark refuses to run, without a result,
in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import COUNTS, END_TO_END, PER_LAYER, benchmark_spec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PRINTED = {  # end-to-end names each workload prints, with units
    "converge": {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB",
                 "failed_frac": "ratio"},
    "simulate-wide": {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
                      "peak_rss_mb": "MB", "failed_frac": "ratio"},
    "manifold": {"wall_s": "s", "setup_s": "s", "lp_sweeps_per_s": "1/s", "peak_rss_mb": "MB",
                 "failed_frac": "ratio"},
}


def _run(workload, trace, root=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=root)


def _result(proc, workload, trace, expected):
    errors = []
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit code {proc.returncode}: {proc.stderr[-500:]}"], None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{workload} trace={trace}: outputs failed their checks")
    if set(result["metrics"]) != set(expected):
        errors.append(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for name, unit in expected.items():
        entry = result["metrics"].get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{workload}: metric {name} lacks unit {unit} or a number")
        elif not trace and not (math.isfinite(entry["value"]) and entry["value"] > 0):
            errors.append(f"{workload}: end-to-end metric {name} is {entry['value']}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[:2] == ["metric", workload]:
            printed[parts[2]] = parts[4]
    for name, unit in PRINTED[workload].items():
        if printed.get(name) != unit:
            errors.append(f"{workload}: no printed line for {name} in {unit}")
    return errors, result


def main() -> int:
    errors = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    if spec != benchmark_spec():
        errors.append("BENCHMARK.json differs from metrics.py; run python3 perfbench/metrics.py")
    end_to_end = {name: unit for name, unit, *_ in END_TO_END}
    per_layer = dict(PER_LAYER)
    for workload in WORKLOADS:
        found, _ = _result(_run(workload, 0), workload, 0, end_to_end)
        errors += found
        traced = []
        for _ in range(2):
            found, result = _result(_run(workload, 1), workload, 1, per_layer)
            errors += found
            traced.append(result)
        if all(traced):
            first, second = ({k: r["metrics"][k]["value"] for k in COUNTS} for r in traced)
            if first != second:
                errors.append(f"{workload}: traced counts differ between two runs")
        print(f"{workload}: checked", flush=True)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(WORKLOADS[0], 0, root=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append("the benchmark ran without the program's sources")
    shutil.rmtree(bare)

    for error in errors:
        print(f"FAIL {error}")
    print("selfcheck " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
