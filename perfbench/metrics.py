"""Metric definitions of the benchmark, and the writer of BENCHMARK.json.

Run ``python3 perfbench/metrics.py`` from the repository root to rewrite
BENCHMARK.json from these definitions.

End-to-end metrics (timed runs, tracing off; every time is in reference
seconds, measured seconds rescaled by the host speed probe of speed.py):

- ``wall_s``: median time from a parsed config to the CSV on disk.
- ``setup_s``: median time from a fresh interpreter until ``fastslow`` is
  imported, the config is loaded and the initial data is built.
- ``peak_rss_mb``: peak resident memory of the process that ran the loop.
- ``work_per_s``: solver work per second of wall time.  On ``converge`` and
  ``simulate-wide`` it is ``steps_per_s``, full plus reduced ETD steps; on
  ``manifold`` it is ``lp_sweeps_per_s``, Lyapunov-Perron sweeps (the sum of
  the CSV's ``iterations`` column).  The run prints it under both names.

``failed_frac`` (failed over attempted runs) is printed as well and carried
by the result's ``failed`` and ``attempted`` fields; it is 0 on a healthy
run, so it has no bound of its own.

Per-layer metrics come from a separate traced run (see spans.py).  Each
``<module>.<function>.self_s`` is the median over runs of the function's
span time not covered by a traced child span; counts are per run and repeat
exactly.  Which end-to-end metric each should move, and on which workload:

- config.*.self_s, import_s: setup_s on every workload.
- spectral_core.dct.calls/points: work_per_s on converge (many small
  transforms) and manifold (few large ones); 8 x points is the computed
  number of bytes transformed.  spectral_core.dct.self_s: wall_s on
  simulate-wide.
- spectral_core.sobolev_norm.*: wall_s on converge and simulate-wide.
  spectral_core.nonlinear_eval.*: wall_s on converge.
- integrator.*: work_per_s on converge and simulate-wide, and peak_rss_mb on
  simulate-wide.  step_us is inclusive simulate time per full step.
- reduction.solve_limit_system.self_s, limit_step_us: work_per_s on
  converge; reduction.initial_layer.self_s: wall_s on converge;
  reduction.theoretical_constants.self_s: wall_s on manifold.
- rates.*: wall_s on converge.
- galerkin_manifold.*: work_per_s on manifold; sweep_ms is inclusive
  fixed-point time per sweep.
- output.*: wall_s on simulate-wide.
- cli.run.self_s: time in a command that no traced child covers.
- trace_overhead_frac: traced wall_s over untraced wall_s, minus 1.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WHY, WORKLOADS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# functions whose self time is reported
SELF_TIMED = [
    "config.load_config",
    "config.build_initial_data",
    "spectral_core.dct",
    "spectral_core.sobolev_norm",
    "spectral_core.nonlinear_eval",
    "integrator.simulate",
    "integrator.linear_propagator",
    "reduction.solve_limit_system",
    "reduction.initial_layer",
    "reduction.theoretical_constants",
    "rates.trajectory_error_norms",
    "rates.convergence_study",
    "galerkin_manifold.lyapunov_perron_fixed_point",
    "output.emit_csv",
    "cli.run",
]
# functions whose call count is reported
CALL_COUNTED = [
    "spectral_core.dct",
    "spectral_core.sobolev_norm",
    "spectral_core.nonlinear_eval",
    "galerkin_manifold.lyapunov_perron_fixed_point",
]
# name, unit: counts and derived per-layer quantities
DERIVED = [
    ("spectral_core.dct.points", "count"),
    ("integrator.steps", "count"),
    ("integrator.samples", "count"),
    ("integrator.step_us", "us"),
    ("reduction.limit_step_us", "us"),
    ("galerkin_manifold.lp_sweeps", "count"),
    ("galerkin_manifold.sweep_ms", "ms"),
    ("output.csv_bytes", "bytes"),
    ("import_s", "s"),
    ("trace_overhead_frac", "ratio"),
]

PER_LAYER = (
    [(f"{name}.self_s", "s") for name in SELF_TIMED]
    + [(f"{name}.calls", "count") for name in CALL_COUNTED]
    + DERIVED
)
# Times are medians over a traced worker's runs; the other metrics are taken
# from its last run.  Counts must repeat exactly between runs of one seed
# (output.csv_bytes need not: the converge CSV holds wall-clock times).
TIMES = [name for name, unit in PER_LAYER if unit in ("s", "us", "ms")]
COUNTS = [name for name, unit in PER_LAYER if unit == "count"]


def layer_metrics(totals: dict, scale: float) -> dict:
    """Per-layer metrics of one traced run from its per-function span totals.

    Times are multiplied by ``scale``, the run's factor to reference seconds
    (speed.py).  ``import_s`` and ``trace_overhead_frac`` need other runs and
    are added by the caller.
    """
    def get(name, key):
        value = totals.get(name, {}).get(key, 0)
        return value * scale if key.endswith("_s") else value

    out = {f"{name}.self_s": get(name, "self_s") for name in SELF_TIMED}
    out.update({f"{name}.calls": get(name, "calls") for name in CALL_COUNTED})
    steps = get("integrator.simulate", "steps")
    limit_steps = get("reduction.solve_limit_system", "steps")
    sweeps = get("galerkin_manifold.lyapunov_perron_fixed_point", "sweeps")
    out.update({
        "spectral_core.dct.points": get("spectral_core.dct", "points"),
        "integrator.steps": steps,
        "integrator.samples": get("integrator.simulate", "samples"),
        "integrator.step_us":
            1e6 * get("integrator.simulate", "total_s") / steps if steps else 0.0,
        "reduction.limit_step_us":
            1e6 * get("reduction.solve_limit_system", "total_s") / limit_steps
            if limit_steps else 0.0,
        "galerkin_manifold.lp_sweeps": sweeps,
        "galerkin_manifold.sweep_ms":
            1e3 * get("galerkin_manifold.lyapunov_perron_fixed_point", "total_s") / sweeps
            if sweeps else 0.0,
        "output.csv_bytes": get("output.emit_csv", "bytes"),
    })
    return out


def unit_of(name: str) -> str:
    for entry in END_TO_END + PER_LAYER:
        if entry[0] == name:
            return entry[1]
    raise KeyError(name)


def benchmark_spec() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }


if __name__ == "__main__":
    path = Path.cwd() / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_spec(), indent=2) + "\n", encoding="ascii")
    print(f"wrote {path}")
