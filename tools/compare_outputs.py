"""Check that this tree's CLI outputs are byte-identical to those of a git ref.

    python3 tools/compare_outputs.py <git-ref>

Exports <ref> with ``git archive`` into a temporary directory and runs the
same 15 outputs through ``fastslow.cli.main`` in that tree and in this
working tree, each tree in its own interpreter with its own ``src/`` first
on the path:

- the CSV of each of the 7 configs of ``tests/test_cli.determinism_payloads()``;
- the CSV and SVG of ``tests/test_cli.converge_payload()``;
- the CSV of each benchmark workload of ``perfbench/workloads.make_config``
  at seeds 0 and 3.

Each tree's configs come from its own two files, which are only read.
Every output file is compared byte for byte, except that a CSV with a
``wall_s`` column (``converge``) is compared without it, as
``tests/test_cli.without_wall_clock`` does.  Exits 0 when every file is
identical, and 1, listing the files that differ, otherwise.  Under each
CSV that differs it prints, for each column (and footer value) that moved,
the largest absolute and the largest relative change of its numbers, and
whether every move lies within the tolerance of the benchmark's reference
check, ``REFERENCE_RTOL * max(|a|, |b|) + REFERENCE_ATOL``
(``perfbench/workloads.py``).
"""

from __future__ import annotations

import argparse
import math
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import REFERENCE_ATOL, REFERENCE_RTOL  # noqa: E402

# Run in a fresh interpreter: argv = tree, output directory.
RUN_TREE = """
import runpy, sys
from pathlib import Path
tree, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(tree / "src"))
import yaml
import fastslow
if not Path(fastslow.__file__).resolve().is_relative_to(tree / "src"):
    sys.exit(f"fastslow was imported from {fastslow.__file__}, not from {tree / 'src'}")
from fastslow.cli import main

test_cli = runpy.run_path(str(tree / "tests" / "test_cli.py"))
workloads = runpy.run_path(str(tree / "perfbench" / "workloads.py"))
configs = {f"determinism-{c}": p for c, p in test_cli["determinism_payloads"]().items()}
configs["converge_payload"] = test_cli["converge_payload"]()
for workload in workloads["WORKLOADS"]:
    for seed in (0, 3):
        configs[f"{workload}-seed{seed}"] = workloads["make_config"](workload, seed)
for name, payload in configs.items():
    cfg = out / f"{name}.yaml"
    cfg.write_text(yaml.safe_dump(payload))
    status = main(["--config", str(cfg), "--out", str(out / name), "--quiet"])
    if status != 0:
        sys.exit(f"{name}: fastslow exited {status}")
"""


def without_wall_clock():
    """``tests/test_cli.without_wall_clock`` of this tree."""
    sys.path.insert(0, str(ROOT / "src"))
    return runpy.run_path(str(ROOT / "tests" / "test_cli.py"))["without_wall_clock"]


def export(ref: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_tree(tree: Path, out: Path) -> None:
    out.mkdir()
    subprocess.run([sys.executable, "-I", "-c", RUN_TREE, str(tree), str(out)], check=True)


def outputs(out: Path) -> dict:
    return {
        str(p.relative_to(out)): p
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.parent != out
    }


def csv_values(text: str) -> dict:
    """The values of a CSV of ``output.emit_csv`` by name: each column's
    data, then each footer row's value (``name,value``)."""
    rows = [line.split(",") for line in text.strip().split("\n")]
    header, values = rows[0], {name: [] for name in rows[0]}
    i = 1
    while i < len(rows) and len(rows[i]) == len(header):
        for name, cell in zip(header, rows[i]):
            values[name].append(cell)
        i += 1
    for row in rows[i:]:
        values.setdefault(row[0], []).append(",".join(row[1:]))
    return values


def number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def change(x: float, y: float) -> tuple:
    """The absolute and relative change between two numbers; infinite
    where one is not finite and they differ."""
    if x == y:
        return 0.0, 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf, math.inf
    return abs(x - y), abs(x - y) / max(abs(x), abs(y))


def within_reference(x: float, y: float) -> bool:
    """Whether x and y agree as the benchmark's reference check asks; never
    where one is not finite and they differ."""
    d = x - y
    return x == y or (math.isfinite(d) and abs(d) <= REFERENCE_RTOL * max(abs(x), abs(y)) + REFERENCE_ATOL)


def column_changes(ours: str, theirs: str) -> list:
    """One line per column or footer value of two CSVs that differs: the
    largest absolute and relative change of its numbers and whether every
    move is within the reference tolerance, or why there are no numbers."""
    a, b = csv_values(ours), csv_values(theirs)
    lines = []
    for name in list(a) + [n for n in b if n not in a]:
        if name == "wall_s" or a.get(name) == b.get(name):
            continue
        if name not in a or name not in b:
            lines.append(f"  {name}: only in {'this tree' if name in a else 'the ref'}")
            continue
        if len(a[name]) != len(b[name]):
            lines.append(f"  {name}: {len(a[name])} values against {len(b[name])}")
            continue
        pairs = [(number(x), number(y)) for x, y in zip(a[name], b[name]) if x != y]
        if any(x is None or y is None for x, y in pairs):
            lines.append(f"  {name}: a value that is not a number changed")
            continue
        absolute, relative = (max(c) for c in zip(*(change(x, y) for x, y in pairs)))
        within = "all" if all(within_reference(x, y) for x, y in pairs) else "not all"
        lines.append(f"  {name}: {len(pairs)} values moved, by at most {absolute:.3g} "
                     f"absolute and {relative:.3g} relative, {within} within "
                     f"rtol {REFERENCE_RTOL:g} + atol {REFERENCE_ATOL:g}")
    return lines


def differing(names, ours: dict, theirs: dict, strip) -> list:
    bad = []
    for name in names:
        if name not in ours or name not in theirs:
            bad.append(f"{name} (only in {'this tree' if name in ours else 'the ref'})")
            continue
        a, b = ours[name].read_bytes(), theirs[name].read_bytes()
        if name.endswith(".csv") and b"wall_s" in a.split(b"\n", 1)[0]:
            same = strip(a.decode()) == strip(b.decode())
        else:
            same = a == b
        if not same:
            bad.append(name)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ref", help="git ref to compare with, e.g. HEAD or a commit")
    ref = parser.parse_args(argv).ref
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        (tmp / "ref").mkdir()
        export(ref, tmp / "ref")
        run_tree(tmp / "ref", tmp / "ref_out")
        run_tree(ROOT, tmp / "tree_out")
        ours, theirs = outputs(tmp / "tree_out"), outputs(tmp / "ref_out")
        names = sorted(set(ours) | set(theirs))
        bad = differing(names, ours, theirs, without_wall_clock())
        for name in bad:
            print(f"differs: {name}")
            if name.endswith(".csv") and name in ours and name in theirs:
                for line in column_changes(ours[name].read_text(), theirs[name].read_text()):
                    print(line)
    print(f"{len(names) - len(bad)} of {len(names)} outputs identical to {ref}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
