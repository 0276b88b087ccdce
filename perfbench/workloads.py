"""The benchmark's workloads: configs made from a seed, and output checks.

Pure standard library, so the orchestrating process never imports the
program.  Every workload is one ``fastslow`` CLI config; the seed only picks
the inputs (low cosine modes of the initial data, or the config seed), never
the problem size, so every seed does the same amount of solver work.
"""

from __future__ import annotations

import csv
import math
import random

WORKLOADS = ("converge", "simulate-wide", "manifold")
SIZES = ("full", "tiny")
DEFAULT_SEED = 0

# Why each workload is in the benchmark; BENCHMARK.json carries these lines.
WHY = {
    "converge": "rate study at N=128 with 4 eps values: many small steps, so per-call "
    "overhead in the integrator, reduction and rates layers sets the cost",
    "simulate-wide": "one simulate at N=4096 recording all 1000 steps: large DCTs and "
    "trajectory storage dominate; reduction, rates and Lyapunov-Perron are bypassed",
    "manifold": "16 Lyapunov-Perron graph points with n_t=2048: the galerkin_manifold "
    "recurrences and batched transforms dominate; no ETD stepping or error norms",
}

# 0.8 x the admissibility bound 1/(12 C* K_M) of reduction.theoretical_constants
# at the largest H2 norm the seeded data below can reach (amplitude 0.4,
# a1 = 0.7, |a2| = 0.25), the set-up of acceptance criterion 05.  Pinned so
# the config does not depend on the code under test.
CONVERGE_KAPPA = 7.713177011697525e-06
# 0.5 x the bound at M = 0.25 for the model of small_nonlinear() in
# tests/test_galerkin_manifold.py.
MANIFOLD_KAPPA = 0.003023359368106128

_SHAPES = {
    # converge: N, T, eps_list
    ("converge", "full"): dict(N=128, T=0.5, eps_list=[1.0e-2, 3.0e-3, 1.0e-3, 3.0e-4]),
    ("converge", "tiny"): dict(N=32, T=0.1, eps_list=[1.0e-2, 3.0e-3, 1.0e-3]),
    # simulate-wide: N, T, dt
    ("simulate-wide", "full"): dict(N=4096, T=1.0, dt=1.0e-3),
    ("simulate-wide", "tiny"): dict(N=64, T=0.05, dt=1.0e-3),
    # manifold: graph points, backward time nodes, fixed-point tolerance
    ("manifold", "full"): dict(n_graph_samples=16, n_t=2048, tol=1.0e-10),
    ("manifold", "tiny"): dict(n_graph_samples=2, n_t=256, tol=1.0e-10),
}

CONVERGE_DT_FACTOR = 0.5
CONVERGE_SAMPLES = 100
SIMULATE_EPS = 1.0e-2


def _low_modes(seed: int) -> list:
    """Cosine amplitudes A (1, a1, a2): positive on the nodes since a1 + |a2| < 1."""
    rng = random.Random(seed)
    amp = rng.uniform(0.3, 0.4)
    a1 = rng.uniform(0.4, 0.7)
    a2 = rng.uniform(-0.25, 0.25)
    return [amp, amp * a1, amp * a2]


def make_config(workload: str, seed: int, size: str = "full") -> dict:
    """The CLI config (a YAML mapping) of one workload for one seed."""
    shape = _SHAPES[(workload, size)]
    base = {"spec_version": 1, "seed": int(seed), "output": {"csv": f"{workload}.csv"}}
    if workload == "converge":
        return {
            **base,
            "command": "converge",
            "model": {"kind": "nonlinear", "d": 1.0, "delta": 0.0, "eps": 1.0e-2,
                      "kappa": CONVERGE_KAPPA, "a": 1.0, "b": 1.0, "c": 1.0},
            "grid": {"L": math.pi, "N": shape["N"]},
            "time": {"T": shape["T"]},
            "study": {"eps_list": list(shape["eps_list"]),
                      "delta_rule": {"type": "power", "p": 1.5},
                      "dt_factor": CONVERGE_DT_FACTOR, "n_samples": CONVERGE_SAMPLES},
            "initial": {"v_coeffs": _low_modes(seed), "well_prepared": True},
        }
    if workload == "simulate-wide":
        return {
            **base,
            "command": "simulate",
            "model": {"kind": "nonlinear", "d": 1.0, "delta": SIMULATE_EPS**1.5,
                      "eps": SIMULATE_EPS, "kappa": CONVERGE_KAPPA,
                      "a": 1.0, "b": 1.0, "c": 1.0},
            "grid": {"L": math.pi, "N": shape["N"]},
            "time": {"T": shape["T"], "dt": shape["dt"], "sample_every": 1},
            "initial": {"v_coeffs": _low_modes(seed), "well_prepared": True},
        }
    if workload == "manifold":
        return {
            **base,
            "command": "manifold-galerkin",
            "model": {"kind": "nonlinear", "d": 1.0, "delta": 1.0e-3**1.5, "eps": 1.0e-3,
                      "kappa": MANIFOLD_KAPPA, "a": 0.05, "b": 0.05, "c": 0.05},
            "study": {"zeta_inv": 26.0, "M": 0.25, **shape},
        }
    raise ValueError(f"unknown workload {workload!r}")


def _steps(T: float, dt: float) -> int:
    return max(1, math.ceil(T / dt - 1e-9))


def nominal_steps(config: dict) -> int:
    """ETD steps (full plus reduced) the config asks for.

    Follows the documented step policy: ``simulate`` shrinks dt so an integer
    number of steps lands on T; ``converge`` uses dt = dt_factor * eps for
    both systems, with the step count rounded up to a multiple of the
    sampling stride.  Zero for commands that do no ETD stepping.
    """
    if config["command"] == "simulate":
        return _steps(config["time"]["T"], config["time"]["dt"])
    if config["command"] != "converge":
        return 0
    T = config["time"]["T"]
    study = config["study"]
    total = 0
    for eps in study["eps_list"]:
        n = _steps(T, study["dt_factor"] * eps)
        stride = max(1, n // study["n_samples"])
        total += 2 * stride * math.ceil(n / stride)
    return total


# ---------------------------------------------------------------------------
# output checks


def read_csv(path):
    """(header, rows, footer) of a CLI CSV; footer rows are (name, value) pairs."""
    with open(path, newline="", encoding="ascii") as fh:
        lines = list(csv.reader(fh))
    header, body = lines[0], lines[1:]
    rows = [r for r in body if len(r) == len(header)]
    # no workload's CSV has two columns, so two-cell rows are the footer
    footer = {r[0]: r[1] for r in body if len(r) == 2}
    return header, rows, footer


def check_output(workload: str, csv_path, postlayer_h2_order=None) -> list:
    """Seed-independent checks of one run's CSV; returns the failures found."""
    header, rows, footer = read_csv(csv_path)
    col = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    problems = []
    if workload == "converge":
        if any(k.startswith("failure_") for k in footer):
            problems.append("a converge member diverged")
        for key in ("order_LinfL2", "order_L2H1"):
            value = float(footer.get(key, "nan"))
            if not 0.8 <= value <= 1.3:
                problems.append(f"{key}={value} outside [0.8, 1.3]")
        if postlayer_h2_order is None or not postlayer_h2_order >= 0.8:
            problems.append(f"post-layer E_LinfH2 order {postlayer_h2_order} below 0.8")
    elif workload == "manifold":
        if not rows or any(v != "true" for v in col["converged"]):
            problems.append("a graph point did not converge")
        bound = float(footer["validated_total"]) + 0.1
        worst = max(float(v) for v in col["contraction"])
        if not worst <= bound:
            problems.append(f"contraction {worst} above validated_total + 0.1 = {bound}")
    elif workload == "simulate-wide":
        for name in ("u_L2", "v_L2", "u_H2", "v_H2", "u1_linf", "u2_linf"):
            if not all(math.isfinite(float(v)) for v in col[name]):
                problems.append(f"non-finite value in {name}")
    return problems


REFERENCE_RTOL = 1e-6
# Absolute slack for values that are zero up to roundoff, such as eps_in of
# well-prepared data (about 1e-18); every other value in the CSVs is far above it.
REFERENCE_ATOL = 1e-13


def compare_reference(workload: str, csv_path, ref_path) -> list:
    """Every CSV value against the stored reference run of the default seed.

    Numbers agree to REFERENCE_RTOL (plus REFERENCE_ATOL); text (booleans, notes) must match
    exactly.  The wall-clock column of ``converge`` is skipped.
    """
    header, rows, footer = read_csv(csv_path)
    ref_header, ref_rows, ref_footer = read_csv(ref_path)
    if header != ref_header or len(rows) != len(ref_rows) or footer.keys() != ref_footer.keys():
        return ["CSV layout differs from the reference"]
    problems = []
    for i, name in enumerate(header):
        if name == "wall_s":
            continue
        got = [r[i] for r in rows]
        want = [r[i] for r in ref_rows]
        problems += _compare_values(name, got, want)
    for key in ref_footer:
        problems += _compare_values(key, [footer[key]], [ref_footer[key]])
    return problems


def _compare_values(name, got, want) -> list:
    try:
        g = [float(v) for v in got]
        w = [float(v) for v in want]
    except ValueError:
        return [] if got == want else [f"{name}: text differs from the reference"]
    for a, b in zip(g, w):
        if not (a == b or abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b)) + REFERENCE_ATOL):
            return [f"{name}: {a!r} differs from the reference {b!r}"]
    return []
