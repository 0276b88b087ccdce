import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import check_references  # noqa: E402

REFERENCES = check_references.ROOT / "perfbench" / "reference"


@pytest.mark.parametrize("workload", check_references.WORKLOADS)
def test_full_size_workloads_match_their_references(tmp_path, workload):
    assert check_references.check(workload, tmp_path, REFERENCES / f"{workload}.csv") == []


def test_a_value_off_its_reference_is_reported(tmp_path):
    # one graph point's u_H2 moved by 1e-5 relative, beyond the 1e-6 tolerance
    lines = (REFERENCES / "manifold.csv").read_text(encoding="ascii").split("\n")
    header, row = lines[0].split(","), lines[1].split(",")
    col = header.index("u_H2")
    row[col] = repr(float(row[col]) * (1 + 1e-5))
    lines[1] = ",".join(row)
    moved = tmp_path / "moved.csv"
    moved.write_text("\n".join(lines), encoding="ascii")
    out = tmp_path / "out"
    out.mkdir()
    problems = check_references.check("manifold", out, moved)
    assert len(problems) == 1 and problems[0].startswith("u_H2: ")
