import math
import sys
from pathlib import Path

import pytest
from scipy.stats import binomtest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from bench_pair import sign_test, summarize  # noqa: E402


@pytest.mark.parametrize("won,lost", [(10, 0), (9, 1), (8, 2), (5, 5), (3, 4), (0, 10), (17, 3)])
def test_sign_test_is_the_exact_binomial_p_value(won, lost):
    assert math.isclose(sign_test(won, lost), binomtest(won, won + lost).pvalue, rel_tol=1e-12)


def test_sign_test_of_no_decided_pair_is_one():
    assert sign_test(0, 0) == 1.0


@pytest.mark.parametrize("n_pairs,verdict", [(3, "does not meet"), (10, "meets")])
def test_pairing_rule_needs_ten_pairs(n_pairs, verdict):
    def run(side, i):
        value = 1.0 + 0.01 * i if side == "parent" else 0.5
        return {"workload": "w", "seed": 0, "result": {"metrics": {"wall_s": {"value": value}}}}

    runs = {side: [run(side, i) for i in range(n_pairs)] for side in ("parent", "change")}
    lines = summarize(runs, [{"name": "wall_s", "better": "lower"}], "w", 0)
    assert lines[1].endswith(f"won {n_pairs}/{n_pairs} (sign test p {sign_test(n_pairs, 0):.3g})  "
                             f"{verdict} the pairing rule")
