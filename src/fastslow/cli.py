"""Experiment orchestration: config in, CSV (and optional SVG) out.

Exit codes: 0 success, 1 validation or usage error, 2 numerical
divergence, 3 assumption-check failure.  A gap-check whose condition fails still exits 0
and records passes=false; assumption failures only abort commands that rely
on them (manifold-galerkin).  A run reports trouble through its exit code,
its one stderr line and its CSV values, so numpy's floating-point warnings
are off while it runs.

``simulate`` and ``limit`` write one row per sample without holding the
trajectory: the samples are copied into one block of a few samples as the
solver yields them, and each full block is reduced to its rows in line, in
one set of numpy calls (``_sample_series``).  A block is reduced on the
band its samples hold, the smallest power of two W >= 8 whose columns hold
every nonzero amplitude (``integrator._band_width``): the Sobolev sums run
over its first 2W columns and the node sups take W modes, which at
N = 4096 and W <= 64 are two half-size matrix products instead of an
N-point inverse FFT (``integrator._block_sups``).  Every row has the bits
of its sample's ``Trajectory``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import galerkin_manifold as gm
from . import linear_manifold as lm
from .config import ExperimentConfig, build_initial_data, load_config
from .errors import (
    ConfigurationError,
    ContractionError,
    DivergenceError,
    FastSlowError,
    HorizonError,
    SplittingError,
)
from .integrator import (
    FastSlowState,
    _band_width,
    _block_len,
    _block_sups,
    _simulate_samples,
)
from .output import emit_csv, emit_svg
from .rates import convergence_study
from .reduction import _limit_samples, initial_layer, lipschitz_estimates, theoretical_constants
from .spectral_core import SpectralField, _sobolev_squares

__all__ = ["main", "run"]


_SERIES = ("t", "u_L2", "v_L2", "u_H2", "v_H2", "u1_linf", "u2_linf")


def _block_rows(grid, block, work) -> list:
    """The ``_SERIES`` columns, as lists, of a block (times (n,), states (n, 2, N)).

    The block's band W (``_band_width``) holds all its nonzero amplitudes:
    one ``_sobolev_squares`` call on its first 2W columns, whose sums have
    the bits of the N-wide ones (numpy's pairwise sums group the terms by
    the length summed, and on W columns the sums over the modes >= 1
    grouped them otherwise), and one ``_block_sups`` call on its first W,
    whose products ``work`` receives; each value has the bits of its
    sample's own calls.
    """
    times, states = block
    width = _band_width(states)
    sq0, _, sq2 = _sobolev_squares(grid, states[..., : 2 * width], 2)
    l2, h2 = np.sqrt(sq0), np.sqrt(sq2)
    u1, u2 = _block_sups(grid, states[..., :width], work)
    return [col.tolist() for col in (times, l2[:, 0], l2[:, 1], h2[:, 0], h2[:, 1], u1, u2)]


def _sample_series(grid, n_samples: int, samples):
    """The CSV columns of a ``simulate`` or ``limit`` run, one row per sample.

    The ``n_samples`` samples (t, (u, v)) are copied, as the solver yields
    them, into one block of ``_block_len(grid)`` samples, and each full
    block (and the last, which may be short) is reduced to its rows by
    ``_block_rows`` before the solver steps on.  The run's trajectory is
    never held, and every row has the bits of its sample's own reduction.
    """
    length = min(n_samples, _block_len(grid))
    times, states = np.empty(length), np.empty((length, 2, grid.N))
    work = np.empty((2, 2 * length, grid.N // 2))  # for _block_sups
    cols = {name: [] for name in _SERIES}
    for i, (t, y) in enumerate(samples):
        j = i % length  # the sample's place in the block
        times[j], states[j] = t, y
        if j == length - 1 or i == n_samples - 1:
            for name, col in zip(_SERIES, _block_rows(grid, (times[: j + 1], states[: j + 1]), work)):
                cols[name] += col
    return cols


def _cmd_simulate(cfg: ExperimentConfig):
    u_in, v_in = build_initial_data(cfg)
    t = cfg.time
    n_samples, samples = _simulate_samples(
        FastSlowState(u_in, v_in, 0.0), cfg.model, t["T"], t["dt"], t["sample_every"]
    )
    return _sample_series(u_in.grid, n_samples, samples), [], {"x": "t"}


def _cmd_limit(cfg: ExperimentConfig):
    _, v_in = build_initial_data(cfg)
    t = cfg.time
    n_samples, samples = _limit_samples(v_in, cfg.model, t["T"], t["dt"], t["sample_every"])
    return _sample_series(v_in.grid, n_samples, samples), [], {"x": "t"}


def _cmd_converge(cfg: ExperimentConfig):
    u_in, v_in = build_initial_data(cfg)
    # the study fields are convergence_study's keyword arguments
    report = convergence_study(cfg.model, u_in, v_in, T=cfg.time["T"], **cfg.study)
    series = {
        "eps": [r.eps for r in report.runs],
        "delta": [r.delta for r in report.runs],
        "eps_in": [r.eps_in for r in report.runs],
        "E_LinfL2": [r.norms.E_LinfL2 if r.norms else float("nan") for r in report.runs],
        "E_L2H1": [r.norms.E_L2H1 if r.norms else float("nan") for r in report.runs],
        "E_LinfH2": [r.norms.E_LinfH2 if r.norms else float("nan") for r in report.runs],
        "E_LinfL2_postlayer": [
            r.norms.E_LinfL2_postlayer if r.norms else float("nan") for r in report.runs
        ],
        "wall_s": [r.wall_s for r in report.runs],
    }
    footer = [
        ("order_LinfL2", report.orders.get("E_LinfL2", float("nan"))),
        ("order_L2H1", report.orders.get("E_L2H1", float("nan"))),
        ("order_LinfH2", report.orders.get("E_LinfH2", float("nan"))),
        ("fit_residual", report.fit_residual),
    ]
    for r in report.runs:
        if r.failure:
            footer.append((f"failure_eps_{r.eps:g}", r.failure))
    if report.plateau:
        footer.append(("plateau", True))
    return series, footer, {"x": "eps", "y": ["E_LinfL2", "E_L2H1", "E_LinfH2"], "log": True}


def _cmd_manifold_linear(cfg: ExperimentConfig):
    if not cfg.model.is_linear:
        raise ConfigurationError("field model.kind: manifold-linear needs the linear kind")
    reports = lm.invariance_and_distance(cfg.model, cfg.study["modes"], cfg.time["T"])
    series = {
        "k": [r.k for r in reports],
        "slope": [r.slope for r in reports],
        "invariance_defect": [r.invariance_defect for r in reports],
        "slope_gap": [r.slope_gap for r in reports],
        "slope_gap_bound": [r.slope_gap_bound for r in reports],
        "slope_gap_certified": [r.slope_gap_certified for r in reports],
        "fitted_decay_rate": [r.fitted_decay_rate for r in reports],
        "fast_rate": [r.fast_rate for r in reports],
        "rate_rel_error": [r.rate_rel_error for r in reports],
    }
    return series, [], {"x": "k", "y": ["slope_gap", "slope_gap_bound"]}


def _lipschitz_budgets(cfg: ExperimentConfig):
    """The budgets (L_f, L_phi, L_psi) and the constants chain they came from.

    ``study.lipschitz`` is taken as given (the chain is then None);
    otherwise the chain is evaluated at radius ``study.M``.
    """
    lips, M = cfg.study["lipschitz"], cfg.study["M"]
    if lips is not None:
        return lips, None
    constants = theoretical_constants(cfg.model, M)
    return lipschitz_estimates(cfg.model, M, constants=constants), constants


def _cmd_gap_check(cfg: ExperimentConfig):
    split = gm.splitting_parameters(cfg.study["zeta_inv"])
    lips, _ = _lipschitz_budgets(cfg)
    rep = gm.validate_assumptions(cfg.model, split, lips)
    series = {
        "eps": [cfg.model.eps],
        "zeta_inv": [split.zeta_inv],
        "k0": [split.k0],
        "N_S": [split.N_S],
        "N_F": [split.N_F],
        "gap": [split.gap],
        "eta": [split.eta],
        "term1": [rep.term1],
        "term2": [rep.term2],
        "param_ineq": [rep.parameter_inequality_value],
        "passes": [rep.passes],
    }
    return series, [("gap_note", gm.GAP_FORMULA_NOTE)], {"x": "zeta_inv", "y": ["term1", "term2"]}


def _cmd_manifold_galerkin(cfg: ExperimentConfig):
    study = cfg.study
    split = gm.splitting_parameters(study["zeta_inv"])
    lips, constants = _lipschitz_budgets(cfg)
    clip_bound = study["clip_bound"]
    if clip_bound is None and constants is not None and not cfg.model.is_linear:
        clip_bound = constants.K0
    gaprep = gm.validate_assumptions(cfg.model, split, lips)
    if not gaprep.passes:
        raise ContractionError(
            f"spectral gap condition fails (total {gaprep.total:.4f}); "
            "refusing Lyapunov-Perron iteration",
            gap_report=gaprep,
        )
    amp = study["sample_amplitude"]
    rng = cfg.rng()
    samples = [amp * rng.standard_normal(split.k0) for _ in range(study["n_graph_samples"])]
    graph = gm.lyapunov_perron_sweep(
        samples,
        cfg.model,
        split,
        t_back=study["t_back"],
        n_t=study["n_t"],
        tol=study["tol"],
        fast_band=study["fast_band"],
        gap_report=gaprep,
        clip_bound=clip_bound,
    )
    points = graph.points

    def slow_norm(p):
        emb = np.zeros(p.grid.N)
        emb[: split.k0] = p.v_slow
        return SpectralField(p.grid, emb).sobolev_norm(2)

    series = {
        "sample": list(range(len(points))),
        "v_slow_H2": [slow_norm(p) for p in points],
        "u_H2": [p.u.sobolev_norm(2) for p in points],
        "v_fast_H2": [p.v_fast.sobolev_norm(2) for p in points],
        "iterations": [p.iterations for p in points],
        "contraction": [p.contraction for p in points],
        "converged": [p.converged for p in points],
    }
    footer = [
        ("lipschitz_ratio", graph.lipschitz_ratio),
        ("validated_total", gaprep.total),
        ("gap_note", gm.GAP_FORMULA_NOTE),
    ]
    return series, footer, {"x": "sample", "y": ["u_H2", "v_fast_H2"]}


def _cmd_initial_layer(cfg: ExperimentConfig):
    u_in, v_in = build_initial_data(cfg)
    rep = initial_layer(u_in, v_in, cfg.model)
    series = {
        "eps_in": [rep.eps_in],
        "deviation_ratio": [rep.deviation_ratio],
        "u_in_H2": [u_in.sobolev_norm(2)],
        "v_in_H2": [v_in.sobolev_norm(2)],
        "u0_H2": [rep.u0.sobolev_norm(2)],
    }
    return series, [], None


def run(cfg: ExperimentConfig, out_dir, quiet: bool = False) -> int:
    """Dispatch one validated config; writes CSV (and optional SVG)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dispatch = {
        "simulate": _cmd_simulate,
        "limit": _cmd_limit,
        "converge": _cmd_converge,
        "manifold-linear": _cmd_manifold_linear,
        "manifold-galerkin": _cmd_manifold_galerkin,
        "gap-check": _cmd_gap_check,
        "initial-layer": _cmd_initial_layer,
    }
    series, footer, svg_spec = dispatch[cfg.command](cfg)
    footer = list(footer) + [("seed", cfg.seed)]
    csv_name = cfg.output["csv"] or f"{cfg.command}.csv"
    csv_path = out_dir / csv_name
    emit_csv(series, csv_path, footer=footer)
    if not quiet:
        print(f"wrote {csv_path}")
    svg_name = cfg.output["svg"]
    if svg_name and svg_spec:
        y = svg_spec.get("y")
        cols = {svg_spec["x"]: series[svg_spec["x"]]}
        for name in y or [k for k in series if k != svg_spec["x"]]:
            cols[name] = series[name]
        svg_path = out_dir / svg_name
        emit_svg(cols, svg_path, x_column=svg_spec["x"], log_log=bool(svg_spec.get("log")))
        if not quiet:
            print(f"wrote {svg_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fastslow",
        description="Fast-slow reaction-diffusion experiments from a config file.",
    )
    parser.add_argument("--config", required=True, help="path to the YAML config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help, or the usage error
        return 0 if exc.code == 0 else 1
    try:
        cfg = load_config(args.config, seed_override=args.seed)
        with np.errstate(all="ignore"):
            return run(cfg, args.out, quiet=args.quiet)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2
    except (ContractionError, SplittingError, HorizonError) as exc:
        print(f"assumption check failed: {exc}", file=sys.stderr)
        return 3
    except (FastSlowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
