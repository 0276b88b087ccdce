import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import yaml

import fastslow
from fastslow import _parallel
from fastslow.cli import main
from fastslow.errors import ShapeError
from fastslow.output import emit_csv, emit_svg, format_value


def write_config(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def base_model(kind="nonlinear", **kw):
    model = dict(kind=kind, d=1.0, delta=0.0, eps=0.01, kappa=1.0, a=1.0, b=1.0, c=1.0)
    model.update(kw)
    return model


# ---------------------------------------------------------------------------
# emit


def test_emit_empty_series(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv({"a": [], "b": []}, path)
    assert path.read_text() == "a,b\n"


def test_emit_rows_and_roundtrip(tmp_path):
    path = tmp_path / "two.csv"
    values = [0.1, 1.0 / 3.0, 7.25e-13]
    emit_csv({"x": [1, 2, 3], "y": values}, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4
    for line, expected in zip(lines[1:], values):
        assert float(line.split(",")[1]) == expected  # exact reparse at 17 digits


def test_emit_ragged_columns(tmp_path):
    with pytest.raises(ShapeError):
        emit_csv({"a": [1, 2], "b": [1]}, tmp_path / "bad.csv")


def test_format_value_kinds():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(3) == "3"
    assert float(format_value(math.pi)) == math.pi


def test_svg_well_formed(tmp_path):
    path = tmp_path / "plot.svg"
    emit_svg(
        {"eps": [1e-1, 1e-2, 1e-3], "err": [2e-2, 2e-3, 2e-4]},
        path,
        x_column="eps",
        log_log=True,
    )
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")


def test_svg_rejects_single_column(tmp_path):
    with pytest.raises(ShapeError):
        emit_svg({"x": [1.0, 2.0]}, tmp_path / "bad.svg")


# ---------------------------------------------------------------------------
# CLI commands


def test_unknown_command_exit_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"spec_version": 1, "command": "frobnicate", "seed": 1, "model": base_model(), "output": {}},
    )
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 1
    assert "command" in capsys.readouterr().err


def test_missing_block_exit_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"spec_version": 1, "command": "simulate", "seed": 1, "model": base_model(), "output": {}},
    )
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "grid" in err or "block" in err


def test_invalid_yaml_exit_1(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("a: [1,\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "broken.yaml" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gap-check", "simulate"])
def test_non_finite_model_parameter_exit_1(tmp_path, capsys, command):
    # not a row of nan (gap-check) nor a divergence (simulate)
    payload = determinism_payloads()[command]
    payload["model"] = {**payload["model"], "delta": math.nan}
    cfg = write_config(tmp_path, payload)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    assert "delta" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_wrong_spec_version_exit_1(tmp_path):
    cfg = write_config(tmp_path, {"spec_version": 2, "command": "gap-check", "seed": 1})
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 1


def gap_check_payload(eps=0.001, zeta_inv=26.0):
    return {
        "spec_version": 1,
        "command": "gap-check",
        "seed": 3,
        "model": base_model(kind="linear", eps=eps),
        "study": {"zeta_inv": zeta_inv, "lipschitz": [0.5, 0.0, 0.0]},
        "output": {"csv": "gap.csv"},
    }


def test_gap_check_csv(tmp_path):
    cfg = write_config(tmp_path, gap_check_payload())
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "gap.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == [
        "eps", "zeta_inv", "k0", "N_S", "N_F", "gap", "eta",
        "term1", "term2", "param_ineq", "passes",
    ]
    row = dict(zip(header, lines[1].split(",")))
    assert abs(float(row["term1"]) - 0.5 / 0.9305) < 1e-12
    assert row["passes"] == "true"


def test_gap_check_failing_still_exit_0(tmp_path):
    cfg = write_config(tmp_path, gap_check_payload(eps=0.01))
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    body = (tmp_path / "gap.csv").read_text()
    assert "false" in body.split("\n")[1]


def test_gap_check_at_a_zero_parameter_inequality_exit_0_and_fails(tmp_path, capsys):
    # eps zeta_inv = 0.4296875 makes the parameter inequality exactly 0: the
    # first gap summand is then inf, not a ZeroDivisionError
    payload = gap_check_payload(eps=1 / 32, zeta_inv=13.75)
    cfg = write_config(tmp_path, payload)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    header, row = (tmp_path / "gap.csv").read_text().split("\n")[:2]
    row = dict(zip(header.split(","), row.split(",")))
    assert (row["term1"], row["param_ineq"], row["passes"]) == ("inf", "0", "false")
    payload.update(command="manifold-galerkin", output={"csv": "mg.csv"})
    cfg = write_config(tmp_path, payload, name="mg.yaml")
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 3
    assert "spectral gap condition fails (total inf)" in capsys.readouterr().err
    assert not (tmp_path / "mg.csv").exists()


def determinism_payloads():
    simulate = {
        "spec_version": 1,
        "command": "simulate",
        "seed": 2,
        "model": base_model(eps=0.05, delta=0.01),
        "grid": {"L": math.pi, "N": 32},
        "time": {"T": 0.1, "dt": 0.004, "sample_every": 7},
        "initial": {"preset": "cosine"},
        "output": {"csv": "out.csv"},
    }
    galerkin = {
        "spec_version": 1,
        "command": "manifold-galerkin",
        "seed": 6,
        "model": base_model(kind="linear", eps=0.01, delta=0.001),
        "study": {
            "zeta_inv": 10.0,
            "lipschitz": [0.5, 0.0, 0.0],
            "n_graph_samples": 2,
            "sample_amplitude": 0.5,
            "n_t": 256,
            "tol": 1.0e-8,
        },
        "output": {"csv": "out.csv"},
    }
    linear = {
        "spec_version": 1,
        "command": "manifold-linear",
        "seed": 4,
        "model": base_model(kind="linear", eps=0.1, delta=0.1),
        "grid": {"L": math.pi},
        "time": {"T": 1.0},
        "study": {"modes": [1, 2, 3, 4]},
        "output": {"csv": "out.csv"},
    }
    layer = {
        "spec_version": 1,
        "command": "initial-layer",
        "seed": 8,
        "model": base_model(eps=0.01),
        "grid": {"L": math.pi, "N": 32},
        "initial": {"preset": "cosine"},
        "output": {"csv": "out.csv"},
    }
    return {
        "gap-check": {**gap_check_payload(), "output": {"csv": "out.csv"}},
        "simulate": simulate,
        "limit": {**simulate, "command": "limit"},
        "converge": {**converge_payload(), "output": {"csv": "out.csv"}},
        "manifold-galerkin": galerkin,
        "initial-layer": layer,
        "manifold-linear": linear,
    }


def without_wall_clock(text):
    # converge's wall_s column is the one CSV value that may differ between runs
    rows = [r.split(",") for r in text.strip().split("\n")]
    if "wall_s" not in rows[0]:
        return rows
    idx = rows[0].index("wall_s")
    return [[c for i, c in enumerate(r) if i != idx or len(r) != len(rows[0])] for r in rows]


def test_cli_determinism_byte_identical(tmp_path):
    # every command, run twice, writes the same bytes
    for command, payload in determinism_payloads().items():
        cfg = write_config(tmp_path, payload, name=f"{command}.yaml")
        out_a, out_b = tmp_path / command / "a", tmp_path / command / "b"
        assert main(["--config", cfg, "--out", str(out_a), "--quiet"]) == 0, command
        assert main(["--config", cfg, "--out", str(out_b), "--quiet"]) == 0, command
        a, b = (out_a / "out.csv").read_bytes(), (out_b / "out.csv").read_bytes()
        if command == "converge":
            assert without_wall_clock(a.decode()) == without_wall_clock(b.decode())
        else:
            assert a == b, command


NO_SCIPY_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import fastslow.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
sys.modules["scipy"] = None  # any later import of scipy raises ImportError
args = sys.argv[2:]
for cfg, out in zip(args[::2], args[1::2]):
    assert fastslow.cli.main(["--config", cfg, "--out", out, "--quiet"]) == 0, cfg
"""


def test_cli_runs_without_scipy(tmp_path):
    # a fresh isolated interpreter imports the CLI without loading SciPy, and
    # with SciPy blocked every command writes the bytes of an in-process run
    src = Path(fastslow.__file__).resolve().parents[1]
    args, outs = [], {}
    for command, payload in determinism_payloads().items():
        cfg = write_config(tmp_path, payload, name=f"{command}.yaml")
        outs[command] = tmp_path / command / "here", tmp_path / command / "blocked"
        assert main(["--config", cfg, "--out", str(outs[command][0]), "--quiet"]) == 0, command
        args += [cfg, str(outs[command][1])]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", NO_SCIPY_SCRIPT, str(src), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for command, (here, blocked) in outs.items():
        a, b = (here / "out.csv").read_bytes(), (blocked / "out.csv").read_bytes()
        if command == "converge":
            assert without_wall_clock(a.decode()) == without_wall_clock(b.decode())
        else:
            assert a == b, command


def converge_payload():
    return {
        "spec_version": 1,
        "command": "converge",
        "seed": 5,
        "model": base_model(kind="linear", eps=0.1, delta=0.1),
        "grid": {"L": math.pi, "N": 32},
        "time": {"T": 0.5},
        "study": {
            "eps_list": [1e-1, 3e-2, 1e-2, 3e-3],
            "delta_rule": {"type": "fixed", "value": 0.1},
            "n_samples": 40,
        },
        "initial": {"preset": "cosine", "well_prepared": True},
        "output": {"csv": "conv.csv", "svg": "conv.svg"},
    }


def test_converge_csv_structure(tmp_path):
    cfg = write_config(tmp_path, converge_payload())
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "conv.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[:3] == ["eps", "delta", "eps_in"]
    assert "wall_s" in header
    data = [l for l in lines[1:] if not l.split(",")[0].startswith(("order_", "fit_", "seed", "plateau"))]
    assert len(data) == 4
    footer_names = {l.split(",")[0] for l in lines[1 + len(data):]}
    assert {"order_LinfL2", "order_L2H1", "order_LinfH2", "fit_residual"} <= footer_names
    # deterministic apart from the wall-clock column
    out_b = tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out_b), "--quiet"]) == 0
    assert without_wall_clock((tmp_path / "conv.csv").read_text()) == without_wall_clock(
        (out_b / "conv.csv").read_text()
    )
    root = ET.parse(tmp_path / "conv.svg").getroot()
    assert root.tag.endswith("svg")


def test_simulate_and_limit_commands(tmp_path):
    payload = {
        "spec_version": 1,
        "command": "simulate",
        "seed": 2,
        "model": base_model(eps=0.05, delta=0.01),
        "grid": {"L": math.pi, "N": 32},
        "time": {"T": 0.2, "sample_every": 10},
        "initial": {"preset": "cosine"},
        "output": {"csv": "sim.csv"},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    header = (tmp_path / "sim.csv").read_text().split("\n")[0].split(",")
    assert header[0] == "t" and "u1_linf" in header

    payload["command"] = "limit"
    payload["output"] = {"csv": "limit.csv"}
    cfg = write_config(tmp_path, payload, name="limit.yaml")
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    assert (tmp_path / "limit.csv").exists()


def simulate_payload(command="simulate", N=32, **time):
    return {
        "spec_version": 1,
        "command": command,
        "seed": 2,
        "model": base_model(eps=0.05, delta=0.01),
        "grid": {"L": math.pi, "N": N},
        "time": time,
        "initial": {"preset": "cosine"},
        "output": {"csv": "out.csv"},
    }


@pytest.mark.parametrize("command", ["simulate", "limit"])
@pytest.mark.parametrize("N", [32, 256])  # the matrix path and the real FFT pair
@pytest.mark.parametrize("sample_every", [1, 7])  # 7: an off-stride final sample
def test_streamed_rows_equal_the_stored_trajectory(tmp_path, command, N, sample_every):
    from fastslow.config import build_initial_data, load_config
    from fastslow.integrator import FastSlowState, simulate
    from fastslow.reduction import solve_limit_system
    from fastslow.spectral_core import _sobolev_squares

    cfg_path = write_config(
        tmp_path, simulate_payload(command, N, T=0.1, dt=0.004, sample_every=sample_every)
    )
    assert main(["--config", cfg_path, "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "out.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("seed,")]

    cfg = load_config(cfg_path)
    u_in, v_in = build_initial_data(cfg)
    if command == "simulate":
        traj = simulate(FastSlowState(u_in, v_in, 0.0), cfg.model, 0.1, 0.004, sample_every)
    else:
        traj = solve_limit_system(v_in, cfg.model, 0.1, 0.004, sample_every)
    sq0, _, sq2 = _sobolev_squares(traj.grid, traj.coeffs, 2)
    expected = {
        "t": traj.times,
        "u_L2": np.sqrt(sq0[:, 0]),
        "v_L2": np.sqrt(sq0[:, 1]),
        "u_H2": np.sqrt(sq2[:, 0]),
        "v_H2": np.sqrt(sq2[:, 1]),
        "u1_linf": traj.u1_linf,
        "u2_linf": traj.u2_linf,
    }
    assert sorted(header) == sorted(expected)
    assert len(rows) == len(traj.times) == 1 + 25 // sample_every + (25 % sample_every != 0)
    for j, name in enumerate(header):
        assert [row[j] for row in rows] == [format_value(x) for x in expected[name]], name


@pytest.mark.parametrize("command", ["simulate", "limit"])
def test_streamed_rows_hold_no_trajectory(tmp_path, command):
    # numpy reports its buffers to tracemalloc; the stored trajectory alone
    # would take n_samples * 2 * N * 8 bytes, about 6.6 MB here
    import tracemalloc

    N, n_samples = 1024, 401
    cfg = write_config(tmp_path, simulate_payload(command, N, T=0.4, dt=0.001, sample_every=1))
    tracemalloc.start()
    try:
        assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "out.csv").read_text().strip().split("\n")) == 1 + n_samples + 1
    assert peak < n_samples * 2 * N * 8 / 4


@pytest.mark.parametrize("command", ["simulate", "limit"])
@pytest.mark.parametrize(
    "time",
    [{"T": 0.1, "dt": 0}, {"T": 0.1, "dt": -0.01}, {"T": float("inf"), "dt": 0.01},
     {"T": float("nan"), "dt": 0.01}],
    ids=["dt=0", "dt<0", "T=inf", "T=nan"],
)
def test_bad_horizon_or_step_exit_1(tmp_path, capsys, command, time):
    # a zero dt is rejected, not replaced by the default T / 1000
    cfg = write_config(tmp_path, simulate_payload(command, **time))
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def astronomical_payloads():
    converge = converge_payload()
    converge["model"] = base_model(eps=0.01)
    converge["study"].update(eps_list=[1e-2, 1e-300], delta_rule={"type": "zero"})
    linear = simulate_payload(T=0.1)
    linear["model"] = base_model(kind="linear", eps=1e-200, delta=0.01)
    linear_converge = converge_payload()
    linear_converge["study"]["eps_list"] = [1e-1, 1e-300]
    return {
        # more steps than the solvers take (integrator.MAX_STEPS)
        "simulate T=1e300": (simulate_payload(T=1e300), "more than the maximum"),
        "limit dt=1e-300": (simulate_payload("limit", T=0.1, dt=1e-300), "more than the maximum"),
        "converge eps=1e-300": (converge, "more than the maximum"),
        # an exact propagator that overflows
        "linear eps=1e-200": (linear, "propagator at dt=0.0001 is not finite"),
        "linear converge eps=1e-300": (linear_converge, "propagator at dt=0.00025 is not finite"),
    }


@pytest.mark.parametrize("case", list(astronomical_payloads()))
def test_astronomical_runs_stop_at_once_with_one_error_line(tmp_path, capsys, case):
    # no run without end, no RuntimeWarning from the phi functions and no
    # divergence reported for a step never taken: exit 1 within a second
    import time
    import warnings

    payload, message = astronomical_payloads()[case]
    cfg = write_config(tmp_path, payload)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert len(err.strip().split("\n")) == 1 and err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("T", [float("inf"), float("nan"), -1.0], ids=["T=inf", "T=nan", "T<0"])
def test_manifold_linear_bad_horizon_exit_1(tmp_path, capsys, T):
    # not a CSV whose invariance defects are all nan
    payload = determinism_payloads()["manifold-linear"]
    payload["time"] = {"T": T}
    cfg = write_config(tmp_path, payload)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    assert "T >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "block, key, value, message",
    [("model", "eps", 1e-300, "cannot be fitted"), ("model", "d", 1e300, "cannot be fitted"),
     ("model", "delta", 1e300, "beyond the range of floats"),
     ("model", "eps", 1e300, "beyond the range of floats"),
     ("grid", "L", 1e-300, "beyond the range of floats")],
)
def test_manifold_linear_out_of_range_parameters_exit_1_with_one_error_line(
    tmp_path, capfd, block, key, value, message
):
    # capfd, not capsys: LAPACK writes its own lines to the file descriptor
    payload = determinism_payloads()["manifold-linear"]
    payload[block][key] = value
    cfg = write_config(tmp_path, payload)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: mode 1: ") and message in err
    assert not (tmp_path / "out" / "out.csv").exists()


MISTYPED_FIELDS = [
    # (command, block, key, value)
    ("simulate", "time", "dt", "0.01"),
    ("simulate", "time", "dt", True),
    ("limit", "time", "dt", "0.01"),
    ("simulate", "time", "sample_every", "2"),
    ("simulate", "time", "sample_every", 2.9),
    ("simulate", "time", "sample_every", True),
    ("manifold-galerkin", "study", "n_t", "2048x"),
    ("manifold-galerkin", "study", "n_t", 256.0),
    ("manifold-galerkin", "study", "tol", True),
    ("manifold-galerkin", "study", "tol", 0.0),
    ("manifold-galerkin", "study", "tol", -1e-8),
    ("manifold-galerkin", "study", "tol", float("nan")),
    ("manifold-galerkin", "study", "tol", float("inf")),
    ("manifold-galerkin", "study", "n_graph_samples", 2.7),
    ("manifold-galerkin", "study", "n_graph_samples", -1),
    ("manifold-galerkin", "study", "n_graph_samples", 0),
    ("manifold-galerkin", "study", "sample_amplitude", "0.5"),
    ("manifold-galerkin", "study", "t_back", "1"),
    ("manifold-galerkin", "study", "fast_band", 7.5),
    ("manifold-galerkin", "study", "clip_bound", False),
    ("manifold-galerkin", "study", "M", "0.25"),
    ("converge", "study", "dt_factor", "0.5x"),
    ("converge", "study", "eps_list", ["a", 0.01]),
    ("converge", "study", "eps_list", [True, 0.01]),
    ("converge", "study", "delta_rule", "power"),
    ("converge", "study", "delta_rule", {"type": "power", "p": "x"}),
    ("converge", "study", "n_samples", "40"),
    ("converge", "study", "n_samples", 40.7),
    ("gap-check", "study", "lipschitz", [0.1, "x", 0]),
    ("gap-check", "study", "lipschitz", [0.1]),
    ("gap-check", None, "seed", True),
    ("manifold-linear", "study", "modes", ["a"]),
    ("manifold-linear", "study", "modes", 3),
    ("manifold-linear", "time", "T", "x"),
    ("manifold-linear", "grid", "N", 32),  # the command reads no grid but its L
    ("simulate", "initial", "v_coeffs", ["a"]),
    ("simulate", "output", "csv", 3),
    # misspelt keys and an unknown block
    ("manifold-galerkin", "study", "n_tt", 256),
    ("simulate", "time", "dtt", 0.004),
    ("simulate", None, "outputs", {"csv": "out.csv"}),
]


def mistyped_payload(command, block, key, value):
    # block None: a top-level key
    payload = determinism_payloads()[command]
    if block is None:
        payload[key] = value
    else:
        payload[block] = {**payload[block], key: value}
    return payload


@pytest.mark.parametrize(
    "command, block, key, value", MISTYPED_FIELDS,
    ids=[f"{c}-{k}={v!r}" for c, _, k, v in MISTYPED_FIELDS],
)
def test_mistyped_field_exit_1(tmp_path, capsys, command, block, key, value):
    # a bad value or an unknown key is a validation error naming the field's
    # path, found before any computation; a bool is never a number
    cfg = write_config(tmp_path, mistyped_payload(command, block, key, value))
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    path = f"{block}.{key}" if block else key
    assert f"field {path}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "command, block, key, value, spelled",
    [("simulate", "time", "sample_every", None, 1),
     ("manifold-galerkin", "study", "n_t", None, 512),
     ("manifold-galerkin", "study", "sample_amplitude", 1, 1.0),
     ("manifold-galerkin", "study", "n_graph_samples", None, 3)],
    ids=["sample_every=null", "n_t=null", "sample_amplitude=1", "n_graph_samples=null"],
)
def test_int_for_float_and_null_fields_keep_their_meaning(
    tmp_path, command, block, key, value, spelled
):
    # an int where a float is due is that float, and a null field takes the
    # command's default: the CSV is the one of the spelled-out config
    outs = []
    for name, v in (("given", value), ("spelled", spelled)):
        cfg = write_config(tmp_path, mistyped_payload(command, block, key, v), name=f"{name}.yaml")
        assert main(["--config", cfg, "--out", str(tmp_path / name), "--quiet"]) == 0
        outs.append((tmp_path / name / "out.csv").read_bytes())
    assert outs[0] == outs[1]


def test_divergence_exit_2(tmp_path):
    payload = {
        "spec_version": 1,
        "command": "simulate",
        "seed": 2,
        "model": base_model(a=40.0, b=0.0, c=0.0, eps=0.05),
        "grid": {"L": math.pi, "N": 16},
        "time": {"T": 2.0, "dt": 0.02},
        "initial": {"preset": "cosine"},
        "output": {"csv": "boom.csv"},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2


def test_manifold_linear_command(tmp_path):
    payload = {
        "spec_version": 1,
        "command": "manifold-linear",
        "seed": 4,
        "model": base_model(kind="linear", eps=0.1, delta=0.1),
        "grid": {"L": math.pi},
        "time": {"T": 1.0},
        "study": {"modes": [1, 2, 3, 4]},
        "output": {"csv": "ml.csv"},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "ml.csv").read_text().strip().split("\n")
    assert lines[0].split(",")[0] == "k"
    assert len([l for l in lines[1:] if not l.startswith("seed")]) == 4


def test_manifold_linear_without_grid_block(tmp_path):
    # the grid block is optional: L defaults to pi, the same run as L = pi
    payload = determinism_payloads()["manifold-linear"]
    with_grid = write_config(tmp_path, payload, name="with.yaml")
    del payload["grid"]
    without = write_config(tmp_path, payload, name="without.yaml")
    assert main(["--config", without, "--out", str(tmp_path / "without"), "--quiet"]) == 0
    assert main(["--config", with_grid, "--out", str(tmp_path / "with"), "--quiet"]) == 0
    assert (tmp_path / "without" / "out.csv").read_bytes() == (
        tmp_path / "with" / "out.csv"
    ).read_bytes()


def test_manifold_galerkin_command_and_failing_gap_exit_3(tmp_path):
    payload = {
        "spec_version": 1,
        "command": "manifold-galerkin",
        "seed": 6,
        "model": base_model(kind="linear", eps=0.01, delta=0.001),
        "study": {
            "zeta_inv": 10.0,
            "lipschitz": [0.5, 0.0, 0.0],
            "n_graph_samples": 2,
            "sample_amplitude": 0.5,
            "n_t": 256,
            "tol": 1.0e-8,
        },
        "output": {"csv": "mg.csv"},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "mg.csv").read_text().strip().split("\n")
    assert len([l for l in lines if l.startswith(("0,", "1,"))]) == 2

    payload["model"]["eps"] = 0.1  # spectral gap fails at eps zeta_inv = 1
    cfg = write_config(tmp_path, payload, name="bad_gap.yaml")
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 3


def test_manifold_galerkin_short_time_grid_exit_1_before_the_horizon(tmp_path, capsys):
    # t_back = 0.05 is too short as well; the bad n_t is the one reported
    payload = determinism_payloads()["manifold-galerkin"]
    payload["study"] = {**payload["study"], "n_t": 4, "t_back": 0.05}
    cfg = write_config(tmp_path, payload)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: n_t must be an integer >= 8, got 4\n"
    assert not (tmp_path / "out.csv").exists()


def nonlinear_manifold_payload(**study):
    # the benchmark's manifold workload at 2 points and n_t = 256: the
    # default clip_bound K0 comes from the constants chain at radius M
    return {
        "spec_version": 1,
        "command": "manifold-galerkin",
        "seed": 0,
        "model": base_model(delta=1e-3**1.5, eps=1e-3, kappa=0.003023359368106128,
                            a=0.05, b=0.05, c=0.05),
        "study": {"zeta_inv": 26.0, "M": 0.25, "n_graph_samples": 2, "n_t": 256,
                  "tol": 1.0e-10, **study},
        "output": {"csv": "out.csv"},
    }


# unchecked, a clip_bound <= 0 would clip every node to the bound (a fake
# graph, exit 0) and a nan or inf one would overflow the iterate (exit 3); a
# tol >= 1 gives a default horizon <= 0: a one-sweep "converged" graph
# (tol 5, exit 0) or a "no contraction" (tol 20, exit 3)
BAD_LP_FIELDS = [
    ("clip_bound", -1.0),
    ("clip_bound", 0.0),
    ("clip_bound", math.nan),
    ("clip_bound", math.inf),
    ("t_back", -1.0),
    ("t_back", math.nan),
    ("t_back", math.inf),
    ("sample_amplitude", math.nan),
    ("sample_amplitude", math.inf),
    ("tol", 0.0),
    ("tol", 1.0),
    ("tol", 5.0),
    ("tol", 20.0),
    ("tol", math.nan),
]


@pytest.mark.parametrize("key, value", BAD_LP_FIELDS, ids=[f"{k}={v!r}" for k, v in BAD_LP_FIELDS])
def test_bad_lyapunov_perron_option_exit_1(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, nonlinear_manifold_payload(**{key: value}))
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    assert f"field study.{key}: need a finite value" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["gap-check", "manifold-galerkin"])
@pytest.mark.parametrize("budgets", [[-5.0, 0, 0], [math.nan, 0, 0], [0.5, 0, math.inf]])
def test_negative_or_non_finite_lipschitz_budget_exit_1(tmp_path, capsys, command, budgets):
    # unchecked, [-5, 0, 0] passed a gap condition that [0.5, 0, 0] fails
    # (gap-check wrote term1 -16.39, passes true) and nan wrote a row of nan
    payload = determinism_payloads()[command]
    payload["model"] = {**payload["model"], "eps": 0.01}
    payload["study"] = {**payload["study"], "zeta_inv": 26.0, "lipschitz": budgets}
    cfg = write_config(tmp_path, payload)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    assert "field study.lipschitz: need a finite value >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["gap-check", "manifold-galerkin"])
def test_constants_chain_does_not_depend_on_the_seed(tmp_path, command):
    # without study.lipschitz the budgets come from the constants chain at
    # radius M, which once drew its smoothing estimate from the run's seed
    # (validated_total 0.8254 at seed 0, 0.8025 at seed 3); zero-amplitude
    # graph samples keep the manifold-galerkin rows free of the seed as well
    payload = nonlinear_manifold_payload(n_graph_samples=1, sample_amplitude=0.0, n_t=64)
    if command == "gap-check":
        payload.update(command=command, study={"zeta_inv": 26.0, "M": 0.25})
    cfg = write_config(tmp_path, payload)
    lines = {}
    for seed in (0, 3):
        out = tmp_path / f"seed{seed}"
        assert main(["--config", cfg, "--out", str(out), "--seed", str(seed), "--quiet"]) == 0
        lines[seed] = (out / "out.csv").read_text().split("\n")
        assert f"seed,{seed}" in lines[seed]
    assert [l for l in lines[0] if l != "seed,0"] == [l for l in lines[3] if l != "seed,3"]


def test_point_converged_before_any_ratio_reports_nan_contraction(tmp_path):
    # zero slow data converge in the first sweep, before two distances give
    # a ratio: the contraction was never observed, and 0 would read as perfect
    payload = nonlinear_manifold_payload(n_graph_samples=1, sample_amplitude=0.0, n_t=64)
    cfg = write_config(tmp_path, payload)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    header, row = (tmp_path / "out.csv").read_text().split("\n")[:2]
    point = dict(zip(header.split(","), row.split(",")))
    assert (point["iterations"], point["converged"]) == ("1", "true")
    assert point["contraction"] == "nan"


def test_manifold_galerkin_point_failure_exit_3_forked_or_not(
    tmp_path, capsys, monkeypatch, no_child_left
):
    # the gap condition passes with zero Lipschitz budgets, but without the
    # clip the quadratics make the points diverge; a point's ContractionError
    # comes back from a forked child as it is raised in process
    payload = {
        "spec_version": 1,
        "command": "manifold-galerkin",
        "seed": 6,
        "model": base_model(delta=1e-4, eps=0.01, kappa=3e-5),
        "study": {"zeta_inv": 10.0, "lipschitz": [0.0, 0.0, 0.0], "n_graph_samples": 3,
                  "sample_amplitude": 0.2, "n_t": 256, "tol": 1.0e-8},
        "output": {"csv": "out.csv"},
    }
    cfg = write_config(tmp_path, payload)
    errs = {}
    for workers in (1, 2):
        monkeypatch.setattr(_parallel, "_worker_count", lambda n, workers=workers: workers)
        assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 3
        assert no_child_left()
        errs[workers] = capsys.readouterr().err
    assert errs[1].startswith("assumption check failed: no contraction for 3 consecutive sweeps")
    assert errs[2] == errs[1]
    assert not (tmp_path / "out.csv").exists()


def test_initial_layer_command(tmp_path):
    payload = {
        "spec_version": 1,
        "command": "initial-layer",
        "seed": 8,
        "model": base_model(eps=0.01),
        "grid": {"L": math.pi, "N": 32},
        "initial": {"preset": "cosine"},
        "output": {"csv": "il.csv"},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "il.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["eps_in"]) > 0


def linear_payload(command, v_coeffs, **blocks):
    payload = {
        "spec_version": 1,
        "command": command,
        "seed": 8,
        "model": base_model(kind="linear", eps=0.01),
        "grid": {"L": math.pi, "N": 16},
        "initial": {"v_coeffs": v_coeffs, "well_prepared": True},
        "output": {"csv": "out.csv"},
    }
    payload.update(blocks)
    return payload


def test_linear_well_prepared_initial_layer_is_zero(tmp_path):
    # u = v/2 exactly: the linear constraint v - 2u has no residual, whatever kappa
    cfg = write_config(tmp_path, linear_payload("initial-layer", [1.0, 0.5]))
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    header, row = (tmp_path / "out.csv").read_text().split("\n")[:2]
    row = dict(zip(header.split(","), row.split(",")))
    assert row["eps_in"] == "0"
    assert float(row["u0_H2"]) == pytest.approx(0.5 * float(row["v_in_H2"]), rel=1e-15)


EITHER_SIGN_RUNS = [
    ("limit", {"time": {"T": 0.1, "dt": 0.01}}),
    ("initial-layer", {}),
    ("converge", {"time": {"T": 0.1}, "study": {"eps_list": [1e-1, 1e-2]}}),
]


@pytest.mark.parametrize("command, blocks", EITHER_SIGN_RUNS)
def test_linear_kind_takes_data_of_either_sign(tmp_path, capsys, command, blocks):
    # v = cos x changes sign; the linear limit u = v/2 holds for it
    cfg = write_config(tmp_path, linear_payload(command, [0.0, 1.0], **blocks))
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0, capsys.readouterr().err
    assert (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, blocks", EITHER_SIGN_RUNS)
def test_nonlinear_kind_rejects_data_of_either_sign(tmp_path, capsys, command, blocks):
    # the same v with u = 0 leaves the nonlinear kind's region v >= u >= 0
    payload = linear_payload(command, [0.0, 1.0], **blocks)
    payload["model"] = base_model(eps=0.01)
    payload["initial"]["well_prepared"] = False
    cfg = write_config(tmp_path, payload)
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == 1
    assert ">= 0 pointwise" in capsys.readouterr().err


def test_seed_override_changes_output_seed(tmp_path):
    cfg = write_config(tmp_path, gap_check_payload())
    assert main(["--config", cfg, "--out", str(tmp_path), "--quiet", "--seed", "99"]) == 0
    assert "seed,99" in (tmp_path / "gap.csv").read_text()


@pytest.mark.parametrize(
    "args", [[], ["--bogus", "1"], ["--threads", "3"], ["--seed", "abc"]],
    ids=["no-arguments", "unknown-flag", "threads", "seed=abc"],
)
def test_usage_error_exit_1(tmp_path, capsys, args):
    # a usage error is a validation error (1), never the divergence code (2)
    cfg = write_config(tmp_path, gap_check_payload())
    argv = [*args, "--config", cfg, "--out", str(tmp_path)] if args else []
    assert main(argv) == 1
    assert "usage: fastslow" in capsys.readouterr().err
    assert not (tmp_path / "gap.csv").exists()


def test_help_exit_0(capsys):
    assert main(["--help"]) == 0
    assert "--config" in capsys.readouterr().out


def test_svg_rejects_nonpositive_loglog(tmp_path):
    with pytest.raises(ShapeError):
        emit_svg({"x": [1.0, 2.0], "y": [0.0, 1.0]}, tmp_path / "bad.svg", log_log=True)


def test_svg_draws_only_finite_points(tmp_path):
    path = tmp_path / "gap.svg"
    emit_svg({"t": [0.0, 1.0, 2.0], "E": [1.0, float("nan"), 2.0]}, path)
    root = ET.parse(path).getroot()
    assert len([el for el in root.iter() if el.tag.endswith("circle")]) == 2
    with pytest.raises(ShapeError):
        emit_svg({"t": [0.0, 1.0], "E": [float("nan"), float("inf")]}, tmp_path / "none.svg")


def diverging_converge_payload(eps_list):
    # c = 0 removes the Lotka-Volterra saturation: at a = 40 a member with
    # eps = 0.01 blows up before T, and its row holds nan norms
    return {
        "spec_version": 1,
        "command": "converge",
        "seed": 5,
        "model": base_model(a=40.0, b=0.0, c=0.0, eps=0.1),
        "grid": {"L": math.pi, "N": 16},
        "time": {"T": 0.1},
        "study": {"eps_list": eps_list, "delta_rule": {"type": "zero"}},
        "initial": {"v_coeffs": [1.0], "u_coeffs": [0.5]},
        "output": {"csv": "conv.csv", "svg": "conv.svg"},
    }


def test_converge_svg_with_a_diverging_member(tmp_path, capsys):
    cfg = write_config(tmp_path, diverging_converge_payload([0.1, 0.03, 0.01]))
    assert main(["--config", cfg, "--out", str(tmp_path / "some"), "--quiet"]) == 0
    text = (tmp_path / "some" / "conv.csv").read_text()
    assert "failure_eps_0.01" in text
    # the diverging member keeps the eps_in that every member shares
    rows = [r.split(",") for r in text.splitlines()[1:4]]
    assert [float(r[0]) for r in rows] == [0.1, 0.03, 0.01]
    assert math.isfinite(float(rows[2][2])) and len({r[2] for r in rows}) == 1
    root = ET.parse(tmp_path / "some" / "conv.svg").getroot()
    assert len([el for el in root.iter() if el.tag.endswith("circle")]) == 3 * 2
    # no member finishes: nothing to draw is a validation error
    cfg = write_config(tmp_path, diverging_converge_payload([0.01, 0.005]), name="all.yaml")
    assert main(["--config", cfg, "--out", str(tmp_path / "all"), "--quiet"]) == 1
    assert "finite point" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate and limit rows, reduced a block at a time on the band the block holds


def banded_payload(command, N, n_samples):
    # data on three modes: the time loop steps them on a narrow band, so at
    # N = 4096 the rows of simulate take the folded sups from the second
    # block on (the initial u = h_kappa(v), and limit's u of every sample,
    # fill every mode at roundoff)
    payload = simulate_payload(command, N, T=0.004 * (n_samples - 1), dt=0.004)
    payload["model"] = base_model(eps=0.01, delta=0.001, kappa=1e-3)
    payload["initial"] = {"v_coeffs": [0.35, 0.2, 0.05], "well_prepared": True}
    return payload


def run_on_cpus(monkeypatch, cpus, cfg, out_dir):
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: cpus)
    return main(["--config", cfg, "--out", str(out_dir), "--quiet"])


@pytest.mark.parametrize("command", ["simulate", "limit"])
@pytest.mark.parametrize("N", [32, 256, 4096])
@pytest.mark.parametrize("n_samples", [1, 7, 8, 9, 17])  # blocks of 8, the last one short
def test_threaded_rows_equal_inline_rows_and_the_trajectory(
    tmp_path, monkeypatch, threads_started, command, N, n_samples
):
    # at two usable CPUs, where the rows of large grids once went to a
    # worker thread, they are reduced in line as at one: no thread starts,
    # and both runs write the bytes of the Trajectory's rows
    from fastslow.config import build_initial_data, load_config
    from fastslow.integrator import FastSlowState, _band_width, _block_len, simulate
    from fastslow.reduction import solve_limit_system
    from fastslow.spectral_core import _sobolev_squares, build_grid

    assert _block_len(build_grid(math.pi, N)) == 8
    cfg = write_config(tmp_path, banded_payload(command, N, n_samples))
    assert run_on_cpus(monkeypatch, 1, cfg, tmp_path / "inline") == 0
    assert run_on_cpus(monkeypatch, 2, cfg, tmp_path / "threaded") == 0
    assert threads_started == []
    threaded = (tmp_path / "threaded" / "out.csv").read_bytes()
    assert threaded == (tmp_path / "inline" / "out.csv").read_bytes()

    config = load_config(cfg)
    u_in, v_in = build_initial_data(config)
    T, dt = 0.004 * (n_samples - 1), 0.004
    if command == "simulate":
        traj = simulate(FastSlowState(u_in, v_in, 0.0), config.model, T, dt)
        assert _band_width(traj.coeffs[8:]) <= 64  # the folded sups
    else:
        traj = solve_limit_system(v_in, config.model, T, dt)
    assert len(traj.times) == n_samples
    sq0, _, sq2 = _sobolev_squares(traj.grid, traj.coeffs, 2)
    expected = {
        "t": traj.times,
        "u_L2": np.sqrt(sq0[:, 0]),
        "v_L2": np.sqrt(sq0[:, 1]),
        "u_H2": np.sqrt(sq2[:, 0]),
        "v_H2": np.sqrt(sq2[:, 1]),
        "u1_linf": traj.u1_linf,
        "u2_linf": traj.u2_linf,
    }
    emit_csv(expected, tmp_path / "trajectory.csv", footer=[("seed", 2)])
    assert threaded == (tmp_path / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("command", ["simulate", "limit"])
def test_a_run_that_diverges_raises_the_same_error_inline_and_threaded(
    tmp_path, monkeypatch, threads_started, command
):
    # c = 0 removes the saturation: both systems blow up after many blocks,
    # at one usable CPU and at two, with the rows in line at both
    from fastslow.cli import run
    from fastslow.config import load_config
    from fastslow.errors import DivergenceError

    payload = simulate_payload(command, 16, T=2.0, dt=0.01)
    payload["model"] = base_model(a=40.0, b=0.0, c=0.0, eps=0.05)
    cfg = load_config(write_config(tmp_path, payload))
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(_parallel, "_usable_cpus", lambda: cpus)
        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore"):
            run(cfg, tmp_path / f"cpus{cpus}", quiet=True)
        errors.append((str(err.value), err.value.t))
        assert not (tmp_path / f"cpus{cpus}" / "out.csv").exists()
    assert threads_started == []
    assert errors[0] == errors[1]
    assert 0.1 < errors[0][1] < 2.0  # mid-way: after more than one block of 8 samples


@pytest.mark.parametrize("N", [64, 4096])
def test_block_rows_have_the_bits_of_the_n_wide_norms(N):
    # random blocks on bands of 8 to 64 modes: their norms on the band have
    # the bits of the sums over all N modes
    from fastslow.cli import _block_rows
    from fastslow.integrator import _block_sups
    from fastslow.spectral_core import _sobolev_squares, build_grid

    grid, rng = build_grid(math.pi, N), np.random.default_rng(N)
    for W in (8, 16, 32, 64):
        states = np.zeros((8, 2, N))
        states[..., :W] = rng.standard_normal((8, 2, W)) * np.exp(-0.2 * np.arange(W))
        times = np.arange(8.0)
        rows = _block_rows(grid, (times, states), np.empty((2, 16, N // 2)))
        sq0, _, sq2 = _sobolev_squares(grid, states, 2)
        norms = [np.sqrt(sq0[:, 0]), np.sqrt(sq0[:, 1]), np.sqrt(sq2[:, 0]), np.sqrt(sq2[:, 1])]
        assert rows[0] == times.tolist()
        assert rows[1:5] == [col.tolist() for col in norms]
        assert rows[5:] == [col.tolist() for col in _block_sups(grid, states[..., :W])]


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_error_in_the_row_reduction_reaches_the_caller(tmp_path, monkeypatch, cpus):
    # the rows are reduced in line, whatever the usable CPUs
    from fastslow import cli

    calls = []
    block_rows = cli._block_rows

    def fails_on_the_second_block(grid, block, work):
        calls.append(len(block[0]))
        if len(calls) == 2:
            raise ArithmeticError("in the second block")
        return block_rows(grid, block, work)

    monkeypatch.setattr(cli, "_block_rows", fails_on_the_second_block)
    cfg = write_config(tmp_path, simulate_payload("simulate", 32, T=0.1, dt=0.004))
    with pytest.raises(ArithmeticError, match="in the second block"):
        run_on_cpus(monkeypatch, cpus, cfg, tmp_path)
    assert calls == [8, 8]
    assert not (tmp_path / "out.csv").exists()
