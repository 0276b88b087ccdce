"""Check the full-size benchmark workloads' CLI outputs against their references.

    python3 tools/check_references.py

Runs the seed-0 full-size config of each benchmark workload
(``perfbench/workloads.make_config``) through ``fastslow.cli.main`` in a
temporary directory, with this tree's ``src/`` first on the path, and
checks its CSV as the benchmark's own runs do: ``check_output`` and then
``compare_reference`` against ``perfbench/reference/<workload>.csv``, both
from ``perfbench/workloads``.  ``converge``'s post-layer E_LinfH2 order,
which ``check_output`` needs and the CSV does not carry, is read from the
report of the study the CLI runs.  Prints one line per workload and exits
1 when any has a problem.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import yaml  # noqa: E402

import fastslow.cli  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    check_output,
    compare_reference,
    make_config,
)


def check(workload: str, out: Path, reference: Path) -> list:
    """The problems of one CLI run of ``workload``'s full-size seed-0 config
    in ``out``, against the reference CSV ``reference``."""
    study, orders = fastslow.cli.convergence_study, {}

    def capturing(*args, **kwargs):
        report = study(*args, **kwargs)
        orders["postlayer"] = report.orders.get("E_LinfH2_postlayer")
        return report

    config = make_config(workload, DEFAULT_SEED)
    path = out / f"{workload}.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="ascii")
    fastslow.cli.convergence_study = capturing
    try:
        status = fastslow.cli.main(["--config", str(path), "--out", str(out), "--quiet"])
    finally:
        fastslow.cli.convergence_study = study
    if status != 0:
        return [f"fastslow exited {status}"]
    csv_path = out / config["output"]["csv"]
    problems = check_output(workload, csv_path, orders.get("postlayer"))
    return problems + compare_reference(workload, csv_path, reference)


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            reference = ROOT / "perfbench" / "reference" / f"{workload}.csv"
            problems = check(workload, Path(tmp), reference)
            failed = failed or bool(problems)
            print(f"{workload}: " + ("; ".join(problems) if problems else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
