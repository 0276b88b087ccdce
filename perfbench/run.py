"""Benchmark of the ``fastslow`` CLI: one workload, one seed, one result line.

    python3 perfbench/run.py --workload converge --seed 0 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
run writes the workload's config (made from the seed) under
``.perfbench_out/``, then times SETUP_PROBES fresh interpreters that import
``fastslow``, load the config and build the initial data, then starts one
worker process that runs the CLI experiment in a closed loop, one run at a
time, for ``--seconds`` and checks every CSV it writes.  With ``--trace 1``
the seconds are split between an untraced worker and a traced one whose
spans and counts go to ``.perfbench_out/.../trace.json``.

Times are in reference seconds: measured seconds rescaled by a host speed
probe run before and after each timed interval (speed.py).
BLAS/OpenMP threads are pinned to 1 and the CLI runs with its default of one
worker thread.  Human-readable lines (environment, every metric by name with
its unit) come first; the last stdout line is the JSON result, holding the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  Metric definitions are in metrics.py.  Exits 1 without a
result when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from metrics import END_TO_END, PER_LAYER, RUN_SECONDS, unit_of  # noqa: E402
from worker import THREAD_VARIABLES  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, SIZES, WORKLOADS, make_config, nominal_steps,
)

SETUP_PROBES = 5
BUDGET_S = 170  # every child is stopped before the run has taken this long
THREAD_ENV = {name: "1" for name in THREAD_VARIABLES}


class BenchmarkError(RuntimeError):
    """The program could not be run at all; no result is printed."""


def _child(args, deadline):
    """Run the worker with ``args``; returns (seconds to exit, last stdout line as JSON)."""
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), *map(str, args)]
    start = perf_counter()
    timeout = max(1.0, deadline - start)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env={**os.environ, **THREAD_ENV}, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args[0]} timed out after {timeout:.0f} s") from exc
    elapsed = perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"worker {args[0]} exited with code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return elapsed, json.loads(lines[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def _spread(values) -> str:
    return f"n={len(values)} min={min(values):.6g} max={max(values):.6g}" if values else "n=0"


def bench(workload: str, seed: int, seconds: float, trace: bool, size: str):
    deadline = perf_counter() + BUDGET_S
    if not (ROOT / "src" / "fastslow" / "__init__.py").is_file():
        raise BenchmarkError(f"no fastslow sources under {ROOT / 'src'}")
    out = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-{size}"
    out.mkdir(parents=True, exist_ok=True)
    config = make_config(workload, seed, size)
    config_path = out / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="ascii")

    setup_raw, setup_s, import_s = [], [], []
    speed.probe()  # the first probe in a process runs slow; discard it
    before = speed.probe()
    for _ in range(SETUP_PROBES):
        elapsed, phases = _child(["setup", ROOT, config_path], deadline)
        after = speed.probe()
        factor = speed.scale(before, after)
        setup_raw.append(elapsed)
        setup_s.append(elapsed * factor)
        import_s.append(phases["import_s"] * factor)
        before = after
    env = phases["env"]

    loop_args = ["loop", ROOT, workload, config_path, out, "--seed", seed]
    reference = HERE / "reference" / f"{workload}.csv"
    if seed == DEFAULT_SEED and size == "full":
        loop_args += ["--reference", reference]
    plain_seconds = seconds / 2 if trace else seconds
    _, plain = _child(loop_args + ["--seconds", plain_seconds], deadline)
    traced = None
    if trace:
        trace_file = out / "trace.json"
        _, traced = _child(loop_args + ["--seconds", seconds / 2, "--trace-file", trace_file],
                           deadline)

    walls = plain["wall_s"]
    timed_runs = plain["runs"][-len(walls):]
    if workload == "manifold":
        work_name = "lp_sweeps_per_s"
        work = [r["lp_sweeps"] / (r["wall_s"] * r["scale"]) for r in timed_runs if "lp_sweeps" in r]
    else:
        work_name = "steps_per_s"
        work = [nominal_steps(config) / w for w in walls]
    e2e = {
        "wall_s": _median(walls),
        "setup_s": _median(setup_s),
        "work_per_s": _median(work),
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    attempted = plain["attempted"] + (traced["attempted"] if traced else 0)
    failed = plain["failed"] + (traced["failed"] if traced else 0)
    correct = failed == 0

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload} seed {seed} size {size}: closed loop, 1 client, "
          f"{len(walls)} timed runs after {len(plain['runs']) - len(walls)} warm-up")
    for run in plain["runs"] + (traced["runs"] if traced else []):
        for problem in run["problems"]:
            print(f"check failed: {problem}")
    lines = [(name, e2e[name]) for name, *_ in END_TO_END]
    lines.insert(3, (work_name, e2e["work_per_s"]))
    lines.append(("failed_frac", failed / attempted))
    detail = {
        "wall_s": f"{_spread(walls)} raw_median={_median(plain['raw_wall_s']):.6g}",
        "setup_s": f"{_spread(setup_s)} raw_median={_median(setup_raw):.6g}",
        work_name: _spread(work),
    }
    for name, value in lines:
        unit = "1/s" if name == work_name else "ratio" if name == "failed_frac" else unit_of(name)
        print(f"metric {workload} {name} {value:.6g} {unit} {detail.get(name, '')}".rstrip())

    if not trace:
        metrics = {name: e2e[name] for name, *_ in END_TO_END}
    else:
        layers = dict(traced["layers"])
        layers["import_s"] = _median(import_s)
        layers["trace_overhead_frac"] = _median(traced["traced_wall_s"]) / e2e["wall_s"] - 1.0
        if not traced["counts_repeat"]:
            print("check failed: traced counts differ between runs")
            correct = False
        print(f"trace {trace_file}")
        for name, unit in PER_LAYER:
            value = layers[name]
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"layer {workload} {name} {text} {unit}")
        metrics = {name: layers[name] for name, _ in PER_LAYER}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fastslow CLI benchmark (one workload)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' shrinks every workload for the self-check")
    args = parser.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
