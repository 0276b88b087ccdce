"""Experiment configuration: a versioned YAML file, validated up front.

Every run file carries ``spec_version: 1``, a command, a mandatory seed and
the blocks the command needs; validation errors name the offending field
path before any computation starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigurationError
from .models import ModelParams
from .reduction import critical_map_u_of_v
from .spectral_core import Grid, SpectralField, build_grid

__all__ = ["ExperimentConfig", "load_config", "build_initial_data", "preset_fields", "COMMANDS"]

COMMANDS = (
    "simulate",
    "limit",
    "converge",
    "manifold-linear",
    "manifold-galerkin",
    "gap-check",
    "initial-layer",
)

_REQUIRED_BLOCKS = {
    "simulate": ("model", "grid", "time", "initial", "output"),
    "limit": ("model", "grid", "time", "initial", "output"),
    "converge": ("model", "grid", "time", "study", "initial", "output"),
    "manifold-linear": ("model", "grid", "output"),
    "manifold-galerkin": ("model", "study", "output"),
    "gap-check": ("model", "study", "output"),
    "initial-layer": ("model", "grid", "initial", "output"),
}


def _need(block: dict, path: str, key: str, types, default=None, required=False):
    if key not in block or block[key] is None:
        if required:
            raise ConfigurationError(f"missing required field {path}.{key}")
        return default
    value = block[key]
    if types is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise ConfigurationError(
            f"field {path}.{key} has wrong type {type(value).__name__}"
        )
    return value


# Optional numeric fields checked up front, with the type each must have:
# a float field takes an int too, no numeric field takes a bool or a string.
_TIME_FIELDS = {"dt": float, "sample_every": int}
_GALERKIN_FIELDS = {
    "n_t": int,
    "n_graph_samples": int,
    "tol": float,
    "sample_amplitude": float,
    "t_back": float,
    "fast_band": int,
    "clip_bound": float,
}


def _check_fields(block: dict, path: str, fields: dict) -> None:
    # each present field in place as its type (ints as floats where a float
    # is due); a null field is dropped, so the command's default applies
    for key, types in fields.items():
        value = _need(block, path, key, types)
        if value is None:
            block.pop(key, None)
        else:
            block[key] = value


@dataclass
class ExperimentConfig:
    command: str
    seed: int
    model: ModelParams
    grid: Grid | None
    time: dict = field(default_factory=dict)
    study: dict = field(default_factory=dict)
    initial: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def load_config(path, seed_override=None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigurationError("config file must hold a mapping at top level")
    version = raw.get("spec_version")
    if version != 1:
        raise ConfigurationError(f"spec_version must be 1, got {version!r}")
    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigurationError(
            f"field command: unknown command {command!r}; expected one of {', '.join(COMMANDS)}"
        )
    seed = seed_override if seed_override is not None else raw.get("seed")
    if not isinstance(seed, int) or seed < 0:
        raise ConfigurationError("field seed: a nonnegative integer seed is mandatory")
    for block in _REQUIRED_BLOCKS[command]:
        if block not in raw or not isinstance(raw[block], dict):
            raise ConfigurationError(f"missing required block {block!r} for {command}")

    gblock = raw.get("grid", {})
    L = _need(gblock, "grid", "L", float, default=math.pi)
    grid = None
    if "grid" in raw:
        N = _need(gblock, "grid", "N", int, required=True)
        grid = build_grid(L, N)

    mblock = raw["model"]
    kind = _need(mblock, "model", "kind", str, default="nonlinear")
    model = ModelParams(
        d=_need(mblock, "model", "d", float, required=True),
        delta=_need(mblock, "model", "delta", float, default=0.0),
        eps=_need(mblock, "model", "eps", float, required=True),
        kappa=_need(mblock, "model", "kappa", float, default=1.0),
        a=_need(mblock, "model", "a", float, default=1.0),
        b=_need(mblock, "model", "b", float, default=1.0),
        c=_need(mblock, "model", "c", float, default=1.0),
        L=L,
        model_kind=kind,
    )

    time_block = dict(raw.get("time", {}))
    if "time" in _REQUIRED_BLOCKS[command]:
        _need(time_block, "time", "T", float, required=True)
    _check_fields(time_block, "time", _TIME_FIELDS)
    study = dict(raw.get("study", {}))
    if command == "converge":
        eps_list = study.get("eps_list")
        if not isinstance(eps_list, list) or len(eps_list) < 2:
            raise ConfigurationError("field study.eps_list: need a list of >= 2 values")
        study["eps_list"] = [float(e) for e in eps_list]
    if command in ("manifold-galerkin", "gap-check"):
        _need(study, "study", "zeta_inv", float, required=True)
        _check_fields(study, "study", {"M": float})
    if command == "manifold-galerkin":
        _check_fields(study, "study", _GALERKIN_FIELDS)
        n_samples = study.get("n_graph_samples", 1)
        if n_samples < 1:
            raise ConfigurationError(
                f"field study.n_graph_samples: need at least 1 graph point, got {n_samples}"
            )
        tol = study.get("tol", 1.0)
        if not (math.isfinite(tol) and tol > 0):
            raise ConfigurationError(f"field study.tol: need a finite tolerance > 0, got {tol}")
    output = dict(raw.get("output", {}))
    return ExperimentConfig(
        command=command,
        seed=int(seed),
        model=model,
        grid=grid,
        time=time_block,
        study=study,
        initial=dict(raw.get("initial", {})),
        output=output,
    )


# ---------------------------------------------------------------------------
# named initial-data presets (all satisfy 0 <= u <= v on the nodes)


def preset_fields(name: str, grid: Grid, amplitude: float):
    x = grid.nodes * (math.pi / grid.L)  # presets are phrased on (0, pi)
    if name == "cosine":
        u = 0.2 * amplitude * (1.0 + np.cos(x))
        v = 0.6 * amplitude * (1.0 + np.cos(x))
    elif name == "two-mode":
        u = 0.1 * amplitude * (1.0 + np.cos(2 * x))
        v = amplitude * (0.6 + 0.3 * np.cos(x))
    elif name == "flat-ripple":
        u = amplitude * (0.25 + 0.05 * np.cos(x))
        v = amplitude * (0.75 + 0.1 * np.cos(3 * x))
    else:
        raise ConfigurationError(f"field initial.preset: unknown preset {name!r}")
    return u, v


def build_initial_data(cfg: ExperimentConfig):
    """(u_in, v_in) from the initial block: a preset or coefficient lists.

    ``well_prepared: true`` replaces u by the critical-manifold image of v
    (v/2 for the linear kind).
    """
    grid = cfg.grid
    if grid is None:
        raise ConfigurationError("missing required block 'grid'")
    block = cfg.initial
    if "preset" in block:
        amp = _need(block, "initial", "amplitude", float, default=1.0)
        u_vals, v_vals = preset_fields(block["preset"], grid, amp)
        u = SpectralField.from_values(grid, u_vals)
        v = SpectralField.from_values(grid, v_vals)
    else:
        v_c = block.get("v_coeffs")
        if not isinstance(v_c, list):
            raise ConfigurationError(
                "field initial: need either a preset or v_coeffs (+ u_coeffs)"
            )
        v = SpectralField(grid, _pad_coeffs(v_c, grid.N, "initial.v_coeffs"))
        u_c = block.get("u_coeffs")
        if u_c is None:
            u = SpectralField(grid, np.zeros(grid.N))
        else:
            u = SpectralField(grid, _pad_coeffs(u_c, grid.N, "initial.u_coeffs"))
    if block.get("well_prepared"):
        if cfg.model.is_linear:
            u = 0.5 * v
        else:
            u = critical_map_u_of_v(v, cfg.model.kappa)
    return u, v


def _pad_coeffs(values, n, path):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or len(arr) > n:
        raise ConfigurationError(f"field {path}: need at most {n} coefficients")
    out = np.zeros(n)
    out[: len(arr)] = arr
    return out
