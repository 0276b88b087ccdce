"""Paired benchmark of this working tree against a git ref.

    python3 tools/bench_pair.py <parent-ref> --workload manifold --seed 0 --pairs 10

Exports <parent-ref> with ``git archive`` and copies this working tree (its
tracked files and the untracked ones git does not ignore, as they are on
disk) side by side into one directory, as ``parent/`` and ``change/``: both
trees then sit at paths of the same length, and a comparison measures the
code, not the layout.  It then runs ``perfbench/run.py --trace 0`` of each
tree on every (workload, seed) asked for, ``--pairs`` times, alternating
which tree runs first in a pair.  Each run lasts the benchmark's own run
length (``perfbench/metrics.RUN_SECONDS``).

The two trees go into a temporary directory (under ``$TMPDIR``), which is
removed at the end.  Writes ``BENCH_parent.json`` and ``BENCH_change.json``
into this working tree.  Each holds the ref the tree came from, the
environment, the settings and every run: its stdout lines and its JSON
result line.  Then prints, for each (workload, seed) and each end-to-end
metric of BENCHMARK.json, the two medians, the parent's interquartile range
(IQR), the relative change of the medians, the pairs the change won (ties
count for neither side) and the exact two-sided sign-test p-value of the
pairs won and lost.  A gain meets the pairing rule when, over at least 10
pairs, the change wins at least 9 in 10 of them and the medians differ by
more than the parent's IQR.  Exits 1 when any run fails or reports an
operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_outputs import export

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout


def copy_working_tree(dest: Path) -> None:
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tree)
    lines = proc.stdout.strip().splitlines()
    run = {"workload": workload, "seed": seed, "returncode": proc.returncode, "lines": lines}
    if proc.returncode != 0 or not lines:
        run["stderr"] = proc.stderr.strip()[-2000:]
        return run
    run["result"] = json.loads(lines[-1])
    env = [line for line in lines if line.startswith("env ")]
    if env:
        run["env"] = json.loads(env[0][len("env "):])
    return run


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def sign_test(won: int, lost: int) -> float:
    """Exact two-sided sign-test p-value of ``won`` against ``lost`` pairs
    (ties dropped): the chance of a split at least this uneven when either
    tree wins a pair with probability 1/2."""
    n = won + lost
    tail = sum(math.comb(n, i) for i in range(min(won, lost) + 1))
    return min(1.0, 2 * tail / 2**n)


def summarize(runs: dict, metrics: list, workload: str, seed: int) -> list:
    """Lines comparing the two sides' runs of one (workload, seed)."""
    pairs = list(zip(*(
        [r["result"]["metrics"] for r in runs[side]
         if r["workload"] == workload and r["seed"] == seed]
        for side in SIDES
    )))
    out = [f"{workload} seed {seed}: {len(pairs)} pairs"]
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [p[name]["value"] for p, _ in pairs]
        change = [c[name]["value"] for _, c in pairs]
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        lost = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
        mp, mc = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent) if len(parent) > 1 else (mp, mp)
        gain = (mp - mc) if lower else (mc - mp)
        met = len(pairs) >= 10 and won >= 0.9 * len(pairs) and gain > q3 - q1
        rule = "meets" if met else "does not meet"
        out.append(
            f"  {name:12s} parent {mp:.6g} (IQR {q3 - q1:.3g})  change {mc:.6g}  "
            f"{(mc - mp) / mp:+.1%}  won {won}/{len(pairs)} (sign test p {sign_test(won, lost):.3g})  "
            f"{rule} the pairing rule"
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ref", help="the parent commit, e.g. HEAD or a hash")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for several")
    parser.add_argument("--seed", type=int, action="append",
                        help="a workload seed; repeat for several (default 0)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seeds = args.seed or [0]
    parent_sha = git("rev-parse", "--verify", f"{args.ref}^{{commit}}").strip()
    head_sha = git("rev-parse", "HEAD").strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=normal").strip())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    work = Path(tempfile.mkdtemp(prefix="bench_pair_"))
    try:
        trees = {side: work / side for side in SIDES}
        trees["parent"].mkdir()
        export(parent_sha, trees["parent"])
        copy_working_tree(trees["change"])
        runs = {side: [] for side in SIDES}
        for workload in args.workload:
            for seed in seeds:
                for i in range(args.pairs):
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    for side in order:
                        run = run_once(trees[side], workload, seed)
                        run.update(pair=i, first=order[0] == side)
                        runs[side].append(run)
                        print(f"{workload} seed {seed} pair {i + 1}/{args.pairs} {side}: "
                              f"{run['lines'][-1] if run['lines'] else 'no result'}",
                              file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work)

    refs = {"parent": {"ref": args.ref, "commit": parent_sha},
            "change": {"ref": "working tree", "head": head_sha, "uncommitted_changes": dirty}}
    settings = {"workloads": args.workload, "seeds": seeds, "pairs": args.pairs,
                "trace": 0,
                "order": "parent first in even pairs (0, 2, ...), change first in odd ones"}
    failed = []
    for side in SIDES:
        env = next((r["env"] for r in runs[side] if "env" in r), {})
        record = {"tree": side, **refs[side], "settings": settings,
                  "environment": {**env, "platform": platform.platform(),
                                  "machine": platform.machine()},
                  "runs": runs[side]}
        path = ROOT / f"BENCH_{side}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
        print(f"wrote {path}")
        failed += [f"{side} {r['workload']} seed {r['seed']} pair {r['pair']}"
                   for r in runs[side] if "result" not in r or r["result"]["failed"]
                   or not r["result"]["correct"]]
    if failed:
        print("failed runs: " + "; ".join(failed))
        return 1
    for workload in args.workload:
        for seed in seeds:
            print("\n".join(summarize(runs, metrics, workload, seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
