"""Experiment configuration: a versioned YAML file, validated up front.

Every run file carries ``spec_version: 1``, a command, a mandatory seed and
the blocks the command needs.  One table per command (``_SCHEMA``) gives each
block and field its type, its default and, for some fields, a range (which
the library function that reads the field may check again).
``load_config`` applies the table before any computation:
an error names the offending field path, and the returned config holds every
field of its blocks, typed and with its default filled in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import yaml

from .errors import ConfigurationError
from .models import ModelParams
from .reduction import critical_map_u_of_v
from .spectral_core import Grid, SpectralField, build_grid

__all__ = ["ExperimentConfig", "load_config", "build_initial_data", "preset_fields", "COMMANDS"]

_REQUIRED = object()  # the default of a field that must be given


class _List(NamedTuple):
    kind: type
    min_len: int = 0
    max_len: float = math.inf


class _Field(NamedTuple):
    """``kind``: float (an int is taken too), int, str, bool, a _List or a
    nested table.  A missing or null field takes ``default``.  ``check``,
    (test, what it needs), is a range on the value or on each list element."""

    kind: object
    default: object = _REQUIRED
    check: tuple | None = None


_AT_LEAST_0 = (lambda x: x >= 0, ">= 0")
_AT_LEAST_1 = (lambda x: x >= 1, ">= 1")
_FINITE = (math.isfinite, "a finite value")
_FINITE_POSITIVE = (lambda x: math.isfinite(x) and x > 0, "a finite value > 0")
_IN_OPEN_UNIT = (lambda x: 0 < x < 1, "a finite value in (0, 1)")

_MODEL = _Field({
    "kind": _Field(str, "nonlinear"),
    "d": _Field(float),
    "delta": _Field(float, 0.0),
    "eps": _Field(float),
    "kappa": _Field(float, 1.0),
    "a": _Field(float, 1.0),
    "b": _Field(float, 1.0),
    "c": _Field(float, 1.0),
})
_GRID = _Field({"L": _Field(float, math.pi), "N": _Field(int)})
_INITIAL = _Field({
    "preset": _Field(str, None),
    "amplitude": _Field(float, 1.0),
    "v_coeffs": _Field(_List(float), None),
    "u_coeffs": _Field(_List(float), None),
    "well_prepared": _Field(bool, False),
})
_TIME = {"T": _Field(float), "dt": _Field(float, None), "sample_every": _Field(int, 1)}
_RUN = {"grid": _GRID, "time": _Field(_TIME), "initial": _INITIAL}
_GAP_STUDY = {
    "zeta_inv": _Field(float),
    "M": _Field(float, 1.0),
    "lipschitz": _Field(_List(float, 3, 3), None),
}
_DELTA_RULE = {"type": _Field(str, "power"), "p": _Field(float, 1.5), "value": _Field(float, None)}
_BLOCKS = {
    "simulate": _RUN,
    "limit": _RUN,
    "converge": {
        "grid": _GRID,
        "time": _Field({"T": _Field(float)}),
        "study": _Field({
            "eps_list": _Field(_List(float, 2)),
            "delta_rule": _Field(_DELTA_RULE, {}),
            "dt_factor": _Field(float, 0.5),
            "n_samples": _Field(int, 100),
        }),
        "initial": _INITIAL,
    },
    "manifold-linear": {
        "grid": _Field({"L": _Field(float, math.pi)}, {}),
        "time": _Field({"T": _Field(float, 1.0)}, {}),
        "study": _Field({"modes": _Field(_List(int, 1), tuple(range(1, 9)), _AT_LEAST_0)}, {}),
    },
    "manifold-galerkin": {
        "study": _Field({
            **_GAP_STUDY,
            "n_t": _Field(int, 512),
            "n_graph_samples": _Field(int, 3, _AT_LEAST_1),
            "tol": _Field(float, 1e-8, _IN_OPEN_UNIT),
            "sample_amplitude": _Field(float, 0.02, _FINITE),
            "t_back": _Field(float, None, _FINITE_POSITIVE),
            "fast_band": _Field(int, None),
            "clip_bound": _Field(float, None, _FINITE_POSITIVE),
        }),
    },
    "gap-check": {"study": _Field(_GAP_STUDY)},
    "initial-layer": {"grid": _GRID, "initial": _INITIAL},
}
_SCHEMA = {
    command: {
        "spec_version": _Field(int),
        "command": _Field(str),
        "seed": _Field(int, check=_AT_LEAST_0),
        "model": _MODEL,
        **blocks,
        "output": _Field({"csv": _Field(str, None), "svg": _Field(str, None)}),
    }
    for command, blocks in _BLOCKS.items()
}
COMMANDS = tuple(_SCHEMA)


def _resolve(table: dict, block: dict, prefix: str) -> dict:
    """Every field of ``table``, typed, checked and defaulted; a key of
    ``block`` outside the table is an error."""
    for key in block:
        if key not in table:
            raise ConfigurationError(f"field {prefix}{key}: unknown key")
    return {key: _value(spec, block.get(key), f"{prefix}{key}") for key, spec in table.items()}


def _value(spec: _Field, value, path: str):
    if value is None:
        if spec.default is _REQUIRED:
            raise ConfigurationError(f"missing required field {path}")
        if not isinstance(spec.kind, dict):
            return spec.default
        value = spec.default
    value = _typed(spec.kind, value, path)
    if spec.check is not None:
        test, needs = spec.check
        for x in value if isinstance(value, list) else [value]:
            if not test(x):
                raise ConfigurationError(f"field {path}: need {needs}, got {x!r}")
    return value


def _typed(kind, value, path: str):
    if isinstance(kind, dict) and isinstance(value, dict):
        return _resolve(kind, value, f"{path}.")
    if isinstance(kind, _List) and isinstance(value, list):
        if not kind.min_len <= len(value) <= kind.max_len:
            more = "" if kind.max_len == kind.min_len else " or more"
            raise ConfigurationError(
                f"field {path}: need {kind.min_len}{more} values, got {len(value)}"
            )
        return [_typed(kind.kind, x, f"{path}[{i}]") for i, x in enumerate(value)]
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is kind:
        return value
    raise ConfigurationError(f"field {path} has wrong type {type(value).__name__}")


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
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"config file {path} is not valid YAML: {exc}") from exc
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
    if seed_override is not None:
        raw["seed"] = seed_override
    cfg = _resolve(_SCHEMA[command], raw, "")
    grid_block = cfg.get("grid", {"L": math.pi})
    grid = build_grid(grid_block["L"], grid_block["N"]) if "N" in grid_block else None
    model = cfg["model"]
    kind = model.pop("kind")
    return ExperimentConfig(
        command=command,
        seed=cfg["seed"],
        model=ModelParams(**model, L=grid_block["L"], model_kind=kind),
        grid=grid,
        output=cfg["output"],
        **{name: cfg[name] for name in ("time", "study", "initial") if name in cfg},
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
    grid, block = cfg.grid, cfg.initial
    if block["preset"] is not None:
        u_vals, v_vals = preset_fields(block["preset"], grid, block["amplitude"])
        u = SpectralField.from_values(grid, u_vals)
        v = SpectralField.from_values(grid, v_vals)
    elif block["v_coeffs"] is not None:
        v = SpectralField(grid, _pad_coeffs(block["v_coeffs"], grid.N, "initial.v_coeffs"))
        u = SpectralField(grid, _pad_coeffs(block["u_coeffs"] or [], grid.N, "initial.u_coeffs"))
    else:
        raise ConfigurationError("field initial: need either a preset or v_coeffs (+ u_coeffs)")
    if block["well_prepared"]:
        if cfg.model.is_linear:
            u = 0.5 * v
        else:
            u = critical_map_u_of_v(v, cfg.model.kappa)
    return u, v


def _pad_coeffs(values, n, path):
    if len(values) > n:
        raise ConfigurationError(f"field {path}: need at most {n} coefficients")
    out = np.zeros(n)
    out[: len(values)] = values
    return out
