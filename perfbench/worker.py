"""Child process of the benchmark: one set-up probe, or one closed loop of runs.

    worker.py setup ROOT CONFIG
        Import ``fastslow`` from ROOT/src, load CONFIG, build the initial
        data, print the import time as JSON and exit at once.  The parent
        times the whole process, interpreter start included.

    worker.py loop ROOT WORKLOAD CONFIG OUT --seconds S [--trace-file F] [--reference R]
        One client runs ``fastslow.cli.run`` on CONFIG, one run at a time,
        until S seconds have passed and MIN_RUNS runs after the warm-up are
        timed.  A speed probe (speed.py) runs between runs, and each run's
        times are scaled to reference seconds.  Every run's CSV is checked.
        With --trace-file the layer functions are wrapped first (spans.py)
        and the spans are written to F at the end.  The last stdout line is
        the JSON result.

Started by run.py with ``python -I`` and BLAS/OpenMP threads pinned to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
from workloads import check_output, compare_reference, read_csv  # noqa: E402

WARMUP_RUNS = 1
MIN_RUNS = 3
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_program(root: Path):
    """Import ``fastslow`` from the checkout's sources, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import fastslow

    origin = Path(fastslow.__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"fastslow was imported from {origin}, not from {src}")
    return fastslow


def environment(fastslow) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fastslow": getattr(fastslow, "__version__", "unknown"),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "fastslow_threads": 1,
    }


def setup(root: Path, config_path: str) -> None:
    t0 = perf_counter()
    fastslow = import_program(root)
    from fastslow.config import build_initial_data, load_config

    t1 = perf_counter()
    cfg = load_config(config_path)
    if cfg.grid is not None and cfg.initial:
        build_initial_data(cfg)
    print(json.dumps({"import_s": t1 - t0, "env": environment(fastslow)}))
    sys.stdout.flush()
    # skip interpreter teardown: the parent times this process to its exit
    os._exit(0)


def _capture_postlayer_order(sink: dict):
    """Keep the post-layer E_LinfH2 order of each converge study for the check.

    The CSV carries the other orders; this one is only in the report that
    ``rates.convergence_study`` returns.
    """
    import fastslow.cli
    from fastslow import rates
    from spans import rebind

    # the traced wrapper when one is installed, else the function itself
    inner = getattr(fastslow.cli, "convergence_study", rates.convergence_study)

    def capturing(*args, **kwargs):
        report = inner(*args, **kwargs)
        sink["postlayer_h2_order"] = report.orders.get("E_LinfH2_postlayer")
        return report

    rebind({id(inner): (inner, capturing)})


def loop(args) -> None:
    root = Path(args.root)
    fastslow = import_program(root)
    tracer = None
    if args.trace_file:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import fastslow.cli
    import fastslow.config

    captured = {}
    if args.workload == "converge":
        _capture_postlayer_order(captured)
    out_dir = Path(args.out)
    csv_path = out_dir / f"{args.workload}.csv"

    runs, summaries = [], []
    begin = perf_counter()
    before = speed.probe()
    while len(runs) < WARMUP_RUNS + MIN_RUNS or perf_counter() - begin < args.seconds:
        run_id = len(runs)
        if tracer is not None:
            tracer.run_id = run_id
        cfg = fastslow.config.load_config(args.config)
        captured.clear()
        if csv_path.exists():
            csv_path.unlink()
        start = perf_counter()
        try:
            code = fastslow.cli.run(cfg, out_dir, quiet=True)
            problems = [] if code == 0 else [f"exit code {code}"]
        except Exception as exc:  # a failed run is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        wall = perf_counter() - start
        if not problems:
            problems = check_output(args.workload, csv_path, captured.get("postlayer_h2_order"))
            if args.reference and not problems:
                problems = compare_reference(args.workload, csv_path, args.reference)
        after = speed.probe()
        runs.append({"wall_s": wall, "scale": speed.scale(before, after), "problems": problems})
        before = after
        if tracer is not None:
            summaries.append(tracer.summary())
            last_spans = tracer.take()
        if args.workload == "manifold" and not problems:
            header, rows, _ = read_csv(csv_path)
            runs[-1]["lp_sweeps"] = sum(int(r[header.index("iterations")]) for r in rows)

    timed = runs[WARMUP_RUNS:]
    result = {
        "runs": runs,
        "wall_s": [r["wall_s"] * r["scale"] for r in timed],
        "raw_wall_s": [r["wall_s"] for r in timed],
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r["problems"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(fastslow),
    }
    if tracer is not None:
        from metrics import COUNTS, SELF_TIMED, TIMES, layer_metrics
        from spans import dump

        per_run = [layer_metrics(s, r["scale"]) for s, r in zip(summaries, runs)]
        layers = dict(per_run[-1])
        for key in set(TIMES) & set(layers):
            layers[key] = statistics.median(m[key] for m in per_run[WARMUP_RUNS:])
        result["layers"] = layers
        result["counts_repeat"] = all(
            m[key] == per_run[0][key] for m in per_run for key in COUNTS
        )
        result["traced_wall_s"] = [
            s.get("cli.run", {}).get("total_s", 0.0) * r["scale"]
            for s, r in zip(summaries[WARMUP_RUNS:], timed)
        ]
        with open(args.trace_file, "w", encoding="ascii") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "env": result["env"],
                       "self_timed": SELF_TIMED, "runs": per_run, **dump(last_spans)}, fh)
    print(json.dumps(result))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("root")
    p_setup.add_argument("config")
    p_loop = sub.add_parser("loop")
    p_loop.add_argument("root")
    p_loop.add_argument("workload")
    p_loop.add_argument("config")
    p_loop.add_argument("out")
    p_loop.add_argument("--seed", type=int, required=True)
    p_loop.add_argument("--seconds", type=float, required=True)
    p_loop.add_argument("--trace-file", default=None)
    p_loop.add_argument("--reference", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(Path(args.root), args.config)
    else:
        loop(args)


if __name__ == "__main__":
    main()
