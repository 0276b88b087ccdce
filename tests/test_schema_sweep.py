"""Edge inputs of every numeric CLI field, swept from the config schema.

Each numeric leaf of ``config._SCHEMA`` (a list field through its first
element) is set, one at a time, in each command's payload of
``test_cli.determinism_payloads()`` (converge's from ``converge_payload()``:
the same config, which also asks for the SVG) to each of a few edge values,
in process.  Every case must end in one of two ways: exit 0 with finite CSV
values, except the nans the README documents, or a typed error, that is one
``error:`` line (exit 1), or one ``divergence:`` (exit 2) or ``assumption
check failed:`` line (exit 3), and no exception out of ``main``.
"""

import contextlib
import copy
import io
import math
import signal
import warnings

import pytest

from fastslow.cli import main
from fastslow.config import _SCHEMA, _List
from test_cli import converge_payload, determinism_payloads, write_config

EDGE_VALUES = {
    float: [0.0, -1.0, 1e-300, 1e300, math.nan, math.inf],
    int: [0, -1, 1, 2, 3],
}
TYPED_ERRORS = {1: "error: ", 2: "divergence: ", 3: "assumption check failed: "}
# README: an order or fit_residual that cannot be fitted, a contraction that
# was never observed, a Lipschitz ratio without two distinct points, and an
# initial-layer deviation ratio of data whose eps_in is 0 to roundoff
DOCUMENTED_NANS = {
    "order_LinfL2", "order_L2H1", "order_LinfH2", "fit_residual",
    "contraction", "lipschitz_ratio", "deviation_ratio",
}
# seconds per case: the slowest take about 0.3 s
CASE_SECONDS = 10


def payloads():
    return {**determinism_payloads(), "converge": converge_payload()}


def numeric_leaves(table, path=()):
    """(path, kind, is a list) of every int or float field of a schema table."""
    for key, spec in table.items():
        kind = spec.kind
        if isinstance(kind, dict):
            yield from numeric_leaves(kind, path + (key,))
        elif kind in (int, float):
            yield path + (key,), kind, False
        elif isinstance(kind, _List) and kind.kind in (int, float):
            yield path + (key,), kind.kind, True


def with_leaf(payload, path, value, is_list):
    """A copy of ``payload`` with the field at ``path`` (a list's first
    element) set to ``value``; a missing block or field is added."""
    out = copy.deepcopy(payload)
    block = out
    for key in path[:-1]:
        block = block.setdefault(key, {})
    if is_list:
        value = [value] + list(block.get(path[-1]) or [])[1:]
    block[path[-1]] = value
    return out


def non_finite(cell):
    try:
        return not math.isfinite(float(cell))
    except ValueError:  # text: a boolean or a note
        return False


def csv_problems(text):
    """The values of a CSV of ``output.emit_csv`` that are not finite and
    that the README does not document."""
    header, *rows = [line.split(",") for line in text.strip().split("\n")]
    n_data = next((i for i, row in enumerate(rows) if len(row) != len(header)), len(rows))
    named = [pair for row in rows[:n_data] for pair in zip(header, row)]
    named += [(row[0], ",".join(row[1:])) for row in rows[n_data:]]  # the footer
    return [f"{name}={cell}" for name, cell in named if non_finite(cell) and name not in DOCUMENTED_NANS]


def outcome(tmp_path, payload):
    """The problem of one CLI run of ``payload``, or None."""
    cfg = write_config(tmp_path, payload)
    out, err = tmp_path / "out", io.StringIO()

    def timeout(signum, frame):
        raise TimeoutError(f"no exit within {CASE_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(CASE_SECONDS)
    try:
        # numpy's overflow warnings on the way to a typed error are not
        # findings: the outcome is the exit status and the CLI's own lines
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            status = main(["--config", cfg, "--out", str(out), "--quiet"])
    except BaseException as exc:  # noqa: BLE001 - every exception out of main is a finding
        return f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    lines = err.getvalue().strip().split("\n")
    if status == 0:
        problems = [p for csv in sorted(out.glob("*.csv")) for p in csv_problems(csv.read_text())]
        return f"exit 0 with {problems}" if problems else None
    if status in TYPED_ERRORS and len(lines) == 1 and lines[0].startswith(TYPED_ERRORS[status]):
        return None
    return f"exit {status} with stderr {lines}"


@pytest.mark.parametrize("command", list(payloads()))
def test_every_numeric_field_at_its_edge_values_exits_cleanly(tmp_path, command):
    payload = payloads()[command]
    findings, cases = [], 0
    for path, kind, is_list in numeric_leaves(_SCHEMA[command]):
        for value in EDGE_VALUES[kind]:
            cases += 1
            case = tmp_path / str(cases)
            case.mkdir()
            problem = outcome(case, with_leaf(payload, path, value, is_list))
            if problem:
                findings.append(f"{'.'.join(path)}={value}: {problem}")
    assert cases >= 30
    assert not findings, "\n".join(findings)
