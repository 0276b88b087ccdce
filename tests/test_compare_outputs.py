import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from compare_outputs import column_changes  # noqa: E402

TOLERANCE = "rtol 1e-06 + atol 1e-13"

OURS = """t,u1_linf,label
0,1.0000000000000002,a
0.5,2,a
1,-3,a
order,1.5
seed,0
"""

THEIRS = """t,u1_linf,label
0,1,a
0.5,2.5,b
1,-3,a
order,1.25
seed,0
"""


def test_each_moved_column_reports_its_largest_absolute_and_relative_change():
    lines = column_changes(OURS, THEIRS)
    assert lines[0] == (
        f"  u1_linf: 2 values moved, by at most 0.5 absolute and 0.2 relative, not all within {TOLERANCE}"
    )
    assert lines[1] == "  label: a value that is not a number changed"
    assert lines[2] == (
        f"  order: 1 values moved, by at most 0.25 absolute and 0.167 relative, not all within {TOLERANCE}"
    )
    assert len(lines) == 3  # t and seed did not move


def test_a_column_of_another_length_or_only_in_one_csv_is_named():
    shorter = "\n".join(OURS.split("\n")[:3] + OURS.split("\n")[4:])
    assert "  t: 2 values against 3" in column_changes(shorter, THEIRS)
    assert column_changes("t,E\n1,2\n", "t\n1\n") == ["  E: only in this tree"]


def test_a_change_to_or_from_a_non_finite_value_is_infinite():
    lines = column_changes("x\nnan\n0\n", "x\n1\n-0\n")
    assert lines == [
        f"  x: 2 values moved, by at most {math.inf:.3g} absolute and {math.inf:.3g} relative, "
        f"not all within {TOLERANCE}"
    ]


def test_each_moved_column_says_whether_every_move_is_within_the_reference_tolerance():
    # the tolerance of perfbench/workloads.compare_reference: a roundoff-level
    # value (converge's eps_in) may move by a large relative amount inside the
    # absolute part, and a value at 1e-9 by 1e-12 relative inside the relative one
    ours = "eps_in,E,order,tail\n4.2e-18,1.000000000001e-09,2.00001,0\n"
    theirs = "eps_in,E,order,tail\n3.4e-17,1e-09,2,2e-13\n"
    lines = column_changes(ours, theirs)
    assert [line.rsplit(", ", 1)[1] for line in lines] == [
        f"all within {TOLERANCE}",
        f"all within {TOLERANCE}",
        f"not all within {TOLERANCE}",
        f"not all within {TOLERANCE}",
    ]
    assert column_changes("x\n1\n", "x\ninf\n")[0].endswith(f"not all within {TOLERANCE}")
