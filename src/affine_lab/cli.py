"""Command-line driver: parse a JSON config, dispatch subcommands, write
CSV/JSON artifacts with full reproducibility metadata.

The configuration document is a single JSON object with optional blocks
``params``, ``grid``, ``mc``, ``transform``, ``simulate``, ``validate``,
``limit`` and ``output``; every omitted field takes a documented default,
and unknown keys are rejected with the path to the offending key.  Given
the same config bytes and seed, every subcommand writes byte-identical
output files: paths are simulated sequentially, so the bytes depend only
on the config and the seed.

Exit status: 0 when every report row passes, 1 when some row fails (the
first failing row is named on stderr), 2 for configuration or usage
errors, including an ``mc.u_bound`` too small for the thinning-bound
retries to recover.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import RNG_ID, __version__
from .noise import generate_noise, steps_for, substream_seed
from .params import (AdmissibilityError, FiniteAtomicMeasure,
                     ProductExponentialMeasure, UPoint, validate_admissible)
from .presets import builtin_params
from .sde import (STABILITY_LIMIT, ParameterSplit, ThinningBoundError,
                  simulate_affine, simulate_catalytic,
                  simulate_reactant_pair, write_paths_csv)
from .transform import solve_transform, write_transform_csv
from .validate import (check_affine_formula, check_generator, check_moments,
                       fluctuation_experiment, sc_semigroup_check,
                       uniqueness_experiment)

ARTIFACT_VERSION = 1

COMMANDS = ("transform", "simulate", "validate", "limit")

_CHECK_NAMES = ("semigroup", "affine_formula", "moments", "generator",
                "uniqueness")
_GENERATOR_MODES = ("affine", "cbi", "catalytic")
_SPLIT_KEYS = ("sigma0_pos", "sigma0_neg", "sigma21_pos", "sigma21_neg",
               "sigma22_pos", "sigma22_neg", "b2_pos", "b2_neg",
               "beta21_pos", "beta21_neg")


class ConfigError(ValueError):
    """A structural or semantic problem in a configuration document."""


# -- low-level field readers ------------------------------------------------

def _reject_unknown(block: dict, allowed, path: str) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key at {path}.{key}")


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    return value


def _as_pos(value, path: str) -> float:
    value = _as_float(value, path)
    if value <= 0.0:
        raise ConfigError(f"{path}: must be positive")
    return value


def _as_nonneg(value, path: str) -> float:
    value = _as_float(value, path)
    if value < 0.0:
        raise ConfigError(f"{path}: must be nonnegative")
    return value


def _as_int(value, path: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    if value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return value


def _as_seed(value, path: str) -> int:
    # Path seeds are derived modulo 2**64, so a larger seed would alias.
    value = _as_int(value, path)
    if value >= 1 << 64:
        raise ConfigError(f"{path}: must be < 2**64")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false")
    return value


def _as_choice(value, choices, path: str) -> str:
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{path}: expected one of {sorted(choices)}")
    return value


def _as_vec(value, length: int, path: str) -> list:
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(f"{path}: expected a list of {length} numbers")
    return [_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_matrix(value, path: str) -> list:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected a 2x2 matrix as nested lists")
    return [_as_vec(row, 2, f"{path}[{i}]") for i, row in enumerate(value)]


# -- measures and parameter records ----------------------------------------

def _parse_measure(value, path: str):
    """A jump measure from its JSON form; ``null`` means no jumps."""
    if value is None:
        return FiniteAtomicMeasure([]), None
    block = _as_object(value, path)
    kind = _as_choice(block.get("kind"),
                      ("finite_atomic", "product_exponential"),
                      f"{path}.kind")
    if kind == "finite_atomic":
        _reject_unknown(block, {"kind", "atoms"}, path)
        raw = block.get("atoms", [])
        if not isinstance(raw, list):
            raise ConfigError(f"{path}.atoms: expected a list of "
                              f"[xi1, xi2, weight] rows")
        atoms = [_as_vec(row, 3, f"{path}.atoms[{i}]")
                 for i, row in enumerate(raw)]
        try:
            measure = FiniteAtomicMeasure(atoms)
        except ValueError as exc:
            raise ConfigError(f"{path}.atoms: {exc}") from None
        return measure, {"kind": kind, "atoms": atoms}
    _reject_unknown(block, {"kind", "total_rate", "rate1", "rate2",
                            "sign_mix"}, path)
    total = _as_nonneg(block.get("total_rate", 1.0), f"{path}.total_rate")
    rate1 = _as_pos(block.get("rate1", 1.0), f"{path}.rate1")
    rate2 = _as_pos(block.get("rate2", 1.0), f"{path}.rate2")
    mix = _as_float(block.get("sign_mix", 1.0), f"{path}.sign_mix")
    try:
        measure = ProductExponentialMeasure(total, rate1, rate2, mix)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return measure, {"kind": kind, "total_rate": total, "rate1": rate1,
                     "rate2": rate2, "sign_mix": mix}


_PARAM_SCALARS = {
    "alpha11": ("alpha", 0, 0), "alpha12": ("alpha", 0, 1),
    "alpha22": ("alpha", 1, 1),
    "b1": ("b", 0), "b2": ("b", 1),
    "beta11": ("beta", 0, 0), "beta12": ("beta", 0, 1),
    "beta21": ("beta", 1, 0), "beta22": ("beta", 1, 1),
}


def _parse_params(value, path: str):
    """An :class:`AdmissibleParams` plus its canonical JSON form.

    Either ``{"preset": name}`` or an explicit record.  The record takes
    ``a``, a matrix ``alpha`` (or scalars ``alpha11``/``alpha12``/
    ``alpha22``), a vector ``b`` (or ``b1``/``b2``), a matrix ``beta`` (or
    ``beta11``/``beta12``/``beta21``/``beta22``) and measures ``m``,
    ``mu``; omitted coefficients are zero and omitted measures empty.
    Admissibility violations surface with their clause names.
    """
    block = _as_object(value, path)
    if "preset" in block:
        _reject_unknown(block, {"preset"}, path)
        name = block["preset"]
        if not isinstance(name, str):
            raise ConfigError(f"{path}.preset: expected a string")
        try:
            params = builtin_params(name)
        except ValueError as exc:
            raise ConfigError(f"{path}.preset: {exc}") from None
        return params, {"preset": name}

    allowed = {"a", "alpha", "b", "beta", "m", "mu", *_PARAM_SCALARS}
    _reject_unknown(block, allowed, path)
    a = _as_nonneg(block.get("a", 0.0), f"{path}.a")
    fields = {"alpha": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.0],
              "beta": [[0.0, 0.0], [0.0, 0.0]]}
    for name in ("alpha", "b", "beta"):
        scalars = [k for k, slot in _PARAM_SCALARS.items()
                   if slot[0] == name and k in block]
        if name in block and scalars:
            raise ConfigError(
                f"{path}: give either {name!r} or the scalar entries "
                f"{scalars}, not both")
        if name in block:
            if name == "b":
                fields[name] = _as_vec(block[name], 2, f"{path}.{name}")
            else:
                fields[name] = _as_matrix(block[name], f"{path}.{name}")
        for key in scalars:
            slot = _PARAM_SCALARS[key]
            entry = _as_float(block[key], f"{path}.{key}")
            if len(slot) == 2:
                fields[slot[0]][slot[1]] = entry
            else:
                fields[slot[0]][slot[1]][slot[2]] = entry
                if slot[0] == "alpha":  # symmetric diffusion matrix
                    fields[slot[0]][slot[2]][slot[1]] = entry
    m, m_doc = _parse_measure(block.get("m"), f"{path}.m")
    mu, mu_doc = _parse_measure(block.get("mu"), f"{path}.mu")
    params = validate_admissible(a, fields["alpha"], fields["b"],
                                 fields["beta"], m, mu)
    resolved = {"a": a, "alpha": fields["alpha"], "b": fields["b"],
                "beta": fields["beta"], "m": m_doc, "mu": mu_doc}
    return params, resolved


def _parse_u_list(value, path: str):
    """Transform arguments from ``[[re1, im1], [re2, im2]]`` rows."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of "
                          f"[[re1, im1], [re2, im2]] rows")
    points, doc = [], []
    for i, row in enumerate(value):
        here = f"{path}[{i}]"
        if not isinstance(row, list) or len(row) != 2:
            raise ConfigError(f"{here}: expected [[re1, im1], [re2, im2]]")
        u1 = _as_vec(row[0], 2, f"{here}[0]")
        u2 = _as_vec(row[1], 2, f"{here}[1]")
        try:
            points.append(UPoint(complex(*u1), complex(*u2)))
        except ValueError as exc:
            raise ConfigError(f"{here}: {exc}") from None
        doc.append([u1, u2])
    return tuple(points), doc


def _parse_split(value, path: str):
    if value is None:
        return None, None
    block = _as_object(value, path)
    _reject_unknown(block, set(_SPLIT_KEYS), path)
    missing = [k for k in _SPLIT_KEYS if k not in block]
    if missing:
        raise ConfigError(f"{path}: missing split parts {missing}")
    parts = {k: _as_nonneg(block[k], f"{path}.{k}") for k in _SPLIT_KEYS}
    return ParameterSplit(**parts), dict(parts)


# -- the configuration record ----------------------------------------------

_DEFAULT_U_LIST = [[[-1.0, 0.0], [0.0, 0.0]],
                   [[-0.5, 0.0], [0.0, 1.0]],
                   [[0.0, 0.0], [0.0, 1.0]]]

_BLOCK_KEYS = {
    "params": None,  # handled by _parse_params
    "grid": {"t_max", "dt"},
    "mc": {"n_paths", "seed", "eps", "u_bound"},
    "transform": {"tol", "u_list"},
    "simulate": {"system", "x0", "z0", "y0", "l", "theta", "mode",
                 "n_saved_paths"},
    "validate": {"checks", "x0", "z0", "x0_b", "t_list", "delta",
                 "generator_modes", "generator_states", "flow_r", "flow_t"},
    "limit": {"theta_ladder", "mode", "x0", "z0",
              "deterministic_rate_check", "split"},
    "output": {"directory", "formats"},
}


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A fully validated run configuration.

    ``resolved`` is the canonical plain-JSON mirror with every default
    filled in; :func:`serialize_config` dumps it and parsing the dump
    reproduces an equal config.  ``params``, ``u_list`` and ``split`` are
    the constructed objects the resolved document describes.
    """

    params: object
    u_list: tuple
    split: object
    resolved: dict

    def __eq__(self, other):
        if not isinstance(other, RunConfig):
            return NotImplemented
        return self.resolved == other.resolved

    def with_seed(self, seed: int) -> "RunConfig":
        """A copy whose Monte Carlo seed is replaced by ``seed``."""
        doc = copy.deepcopy(self.resolved)
        doc["mc"]["seed"] = int(seed)
        return _config_from_dict(doc)

    # convenience accessors into the resolved document ------------------
    @property
    def t_max(self):
        return self.resolved["grid"]["t_max"]

    @property
    def dt(self):
        return self.resolved["grid"]["dt"]

    @property
    def n_paths(self):
        return self.resolved["mc"]["n_paths"]

    @property
    def seed(self):
        return self.resolved["mc"]["seed"]

    @property
    def eps(self):
        return self.resolved["mc"]["eps"]

    @property
    def u_bound(self):
        return self.resolved["mc"]["u_bound"]

    @property
    def tol(self):
        return self.resolved["transform"]["tol"]

    @property
    def out_dir(self):
        return self.resolved["output"]["directory"]

    @property
    def formats(self):
        return self.resolved["output"]["formats"]


def parse_config(text: str) -> RunConfig:
    """A :class:`RunConfig` from a UTF-8 JSON document.

    Unknown keys are rejected with the path to the offending key; syntax
    errors report line and column; parameter records failing the
    admissibility clauses raise :class:`AdmissibilityError` naming them.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config syntax error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError("$: the config must be a JSON object")
    return _config_from_dict(doc)


def serialize_config(config: RunConfig) -> str:
    """The canonical JSON document for ``config`` (reparses to an equal
    config)."""
    return json.dumps(config.resolved, indent=2, sort_keys=True) + "\n"


def _config_from_dict(doc: dict) -> RunConfig:
    _reject_unknown(doc, set(_BLOCK_KEYS), "$")
    blocks = {name: _as_object(doc.get(name, {}), f"$.{name}")
              for name in _BLOCK_KEYS}
    for name, allowed in _BLOCK_KEYS.items():
        if allowed is not None:
            _reject_unknown(blocks[name], allowed, f"$.{name}")

    params, params_doc = _parse_params(blocks["params"] or
                                       {"preset": "jump_affine"}, "$.params")

    grid = blocks["grid"]
    t_max = _as_pos(grid.get("t_max", 1.0), "$.grid.t_max")
    dt = _as_pos(grid.get("dt", 2.0 ** -10), "$.grid.dt")
    try:
        steps_for(t_max, dt)
    except ValueError as exc:
        raise ConfigError(f"$.grid: {exc}") from None

    mc = blocks["mc"]
    n_paths = _as_int(mc.get("n_paths", 1000), "$.mc.n_paths", minimum=1)
    seed = _as_seed(mc.get("seed", 0), "$.mc.seed")
    eps = _as_nonneg(mc.get("eps", 1e-4), "$.mc.eps")
    u_bound = _as_pos(mc.get("u_bound", 16.0), "$.mc.u_bound")

    tr = blocks["transform"]
    tol = _as_pos(tr.get("tol", 1e-9), "$.transform.tol")
    u_list, u_doc = _parse_u_list(tr.get("u_list", _DEFAULT_U_LIST),
                                  "$.transform.u_list")

    sim = blocks["simulate"]
    sim_doc = {
        "system": _as_choice(sim.get("system", "affine"),
                             ("affine", "catalytic", "reactant"),
                             "$.simulate.system"),
        "x0": _as_nonneg(sim.get("x0", 1.0), "$.simulate.x0"),
        "z0": _as_float(sim.get("z0", 0.0), "$.simulate.z0"),
        "y0": _as_nonneg(sim.get("y0", 1.0), "$.simulate.y0"),
        "l": _as_pos(sim.get("l", 1.0), "$.simulate.l"),
        "theta": _as_pos(sim.get("theta", 16.0), "$.simulate.theta"),
        "mode": _as_choice(sim.get("mode", "pair"), ("single", "pair"),
                           "$.simulate.mode"),
        "n_saved_paths": _as_int(sim.get("n_saved_paths", 8),
                                 "$.simulate.n_saved_paths", minimum=1),
    }
    if sim_doc["theta"] < 1.0:
        raise ConfigError("$.simulate.theta: must be >= 1")

    val = blocks["validate"]
    checks = val.get("checks", list(_CHECK_NAMES))
    if not isinstance(checks, list):
        raise ConfigError("$.validate.checks: expected a list")
    checks = [_as_choice(c, _CHECK_NAMES, f"$.validate.checks[{i}]")
              for i, c in enumerate(checks)]
    if len(set(checks)) != len(checks):
        raise ConfigError("$.validate.checks: duplicate entries")
    half = t_max / 2.0 if steps_for(t_max, dt) % 2 == 0 else None
    t_list_raw = val.get("t_list",
                         [t_max] if half is None else [half, t_max])
    if not isinstance(t_list_raw, list) or not t_list_raw:
        raise ConfigError("$.validate.t_list: expected a nonempty list")
    t_list = []
    for i, t in enumerate(t_list_raw):
        t = _as_pos(t, f"$.validate.t_list[{i}]")
        if t > t_max:
            raise ConfigError(f"$.validate.t_list[{i}]: {t!r} exceeds "
                              f"grid.t_max = {t_max!r}")
        steps = t / dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigError(f"$.validate.t_list[{i}]: {t!r} is not a "
                              f"positive multiple of grid.dt = {dt!r}")
        t_list.append(t)
    delta = _as_pos(val.get("delta", 2.0 ** -10), "$.validate.delta")
    modes = val.get("generator_modes", list(_GENERATOR_MODES))
    if not isinstance(modes, list):
        raise ConfigError("$.validate.generator_modes: expected a list")
    modes = [_as_choice(m_, _GENERATOR_MODES,
                        f"$.validate.generator_modes[{i}]")
             for i, m_ in enumerate(modes)]
    states_block = _as_object(val.get("generator_states", {}),
                              "$.validate.generator_states")
    _reject_unknown(states_block, set(_GENERATOR_MODES),
                    "$.validate.generator_states")
    states = {
        "affine": _as_vec(states_block.get("affine", [0.7, -0.4]), 2,
                          "$.validate.generator_states.affine"),
        "cbi": _as_nonneg(states_block.get("cbi", 0.7),
                          "$.validate.generator_states.cbi"),
        "catalytic": _as_vec(states_block.get("catalytic", [1.2, 0.5]), 2,
                             "$.validate.generator_states.catalytic"),
    }
    for key in ("affine", "catalytic"):
        if states[key][0] < 0.0:
            raise ConfigError(f"$.validate.generator_states.{key}[0]: "
                              f"must be nonnegative")
    if states["catalytic"][1] < 0.0:
        raise ConfigError("$.validate.generator_states.catalytic[1]: "
                          "must be nonnegative")
    val_doc = {
        "checks": checks,
        "x0": _as_nonneg(val.get("x0", 1.0), "$.validate.x0"),
        "z0": _as_float(val.get("z0", 0.0), "$.validate.z0"),
        "x0_b": _as_nonneg(val.get("x0_b", 1.5), "$.validate.x0_b"),
        "t_list": t_list,
        "delta": delta,
        "generator_modes": modes,
        "generator_states": states,
        "flow_r": _as_pos(val.get("flow_r", 0.5), "$.validate.flow_r"),
        "flow_t": _as_pos(val.get("flow_t", 0.75), "$.validate.flow_t"),
    }

    lim = blocks["limit"]
    ladder_raw = lim.get("theta_ladder", [4.0, 16.0, 64.0, 256.0])
    if not isinstance(ladder_raw, list) or len(ladder_raw) < 2:
        raise ConfigError("$.limit.theta_ladder: expected a list of at "
                          "least two scales")
    ladder = [_as_pos(t, f"$.limit.theta_ladder[{i}]")
              for i, t in enumerate(ladder_raw)]
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("$.limit.theta_ladder: must be strictly "
                          "increasing")
    if ladder[0] < 1.0:
        raise ConfigError("$.limit.theta_ladder: entries must be >= 1")
    split, split_doc = _parse_split(lim.get("split"), "$.limit.split")
    if split is not None:
        try:
            split.check_against(params)
        except ValueError as exc:
            raise ConfigError(f"$.limit.split: {exc}") from None
    lim_doc = {
        "theta_ladder": ladder,
        "mode": _as_choice(lim.get("mode", "pair"), ("single", "pair"),
                           "$.limit.mode"),
        "x0": _as_nonneg(lim.get("x0", 1.0), "$.limit.x0"),
        "z0": _as_float(lim.get("z0", 0.0), "$.limit.z0"),
        "deterministic_rate_check": _as_bool(
            lim.get("deterministic_rate_check", False),
            "$.limit.deterministic_rate_check"),
        "split": split_doc,
    }

    outb = blocks["output"]
    directory = outb.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError("$.output.directory: expected a nonempty string")
    formats_raw = outb.get("formats", ["csv", "json"])
    if not isinstance(formats_raw, list):
        raise ConfigError("$.output.formats: expected a list")
    formats = sorted(_as_choice(f, ("csv", "json"),
                                f"$.output.formats[{i}]")
                     for i, f in enumerate(formats_raw))

    # every simulated grid must satisfy the explicit-Euler stability rule
    for label, step in (("$.grid.dt", dt), ("$.validate.delta", delta)):
        if step * params.beta_bar > STABILITY_LIMIT:
            raise ConfigError(
                f"{label}: explicit-Euler stability rule violated: "
                f"dt*max|beta| = {step * params.beta_bar!r} exceeds "
                f"{STABILITY_LIMIT!r}")

    resolved = {
        "params": params_doc,
        "grid": {"t_max": t_max, "dt": dt},
        "mc": {"n_paths": n_paths, "seed": seed, "eps": eps,
               "u_bound": u_bound},
        "transform": {"tol": tol, "u_list": u_doc},
        "simulate": sim_doc,
        "validate": val_doc,
        "limit": lim_doc,
        "output": {"directory": directory, "formats": formats},
    }
    return RunConfig(params=params, u_list=u_list, split=split,
                     resolved=resolved)


# -- artifact helpers -------------------------------------------------------

def _metadata(config: RunConfig) -> dict:
    return {"artifact_version": ARTIFACT_VERSION, "rng": RNG_ID,
            "seed": config.seed, "dt": config.dt, "eps": config.eps,
            "u_bound": config.u_bound}


def _csv_metadata(config: RunConfig) -> dict:
    meta = _metadata(config)
    return {key: repr(meta[key]) if isinstance(meta[key], float)
            else meta[key] for key in meta}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    newline="\n")


def _write_report(out: Path, config: RunConfig, report) -> None:
    payload = dict(_metadata(config))
    payload["report"] = json.loads(report.to_json())
    _write_json(out / f"{report.name}.json", payload)


def _first_failure(reports):
    for report in reports:
        for row in report.rows:
            if not row.passed:
                return f"{report.name}: {row.quantity}"
    return None


# -- subcommands ------------------------------------------------------------

def _cmd_transform(config, out, stdout):
    grid = np.arange(steps_for(config.t_max, config.dt) + 1) * config.dt
    meta = _csv_metadata(config)
    for i, u in enumerate(config.u_list):
        solution = solve_transform(config.params, u, grid, tol=config.tol)
        if "csv" in config.formats:
            write_transform_csv(solution, out / f"transform_u{i:02d}.csv",
                                extra_metadata=meta)
    print(f"transform: {len(config.u_list)} argument(s) sampled on "
          f"[0, {config.t_max:g}] with dt = {config.dt:g}", file=stdout)
    return []


def _cmd_simulate(config, out, stdout):
    sim = config.resolved["simulate"]
    n_saved = min(sim["n_saved_paths"], config.n_paths)
    bundles = []
    for i in range(n_saved):
        noise = generate_noise(config.params.m, config.params.mu,
                               config.t_max, config.dt,
                               substream_seed(config.seed, i),
                               config.u_bound, config.eps)
        if sim["system"] == "affine":
            bundle = simulate_affine(config.params, sim["x0"], sim["z0"],
                                     noise)
        elif sim["system"] == "catalytic":
            bundle = simulate_catalytic(config.params, sim["x0"],
                                        sim["y0"], sim["l"], noise)
        else:
            theta = sim["theta"]
            bundle = simulate_reactant_pair(
                config.params, theta, sim["x0"],
                theta + max(sim["z0"], 0.0), theta + max(-sim["z0"], 0.0),
                noise, mode=sim["mode"], split=config.split)
        bundles.append(bundle)
    if "csv" in config.formats:
        write_paths_csv(bundles, out / "paths.csv",
                        extra_metadata=_csv_metadata(config))
    aborted = [i for i, b in enumerate(bundles) if b.aborted_at is not None]
    line = (f"simulate: {n_saved} {sim['system']} path(s) on "
            f"[0, {config.t_max:g}]")
    if aborted:
        line += (f"; thinning bound exceeded on path(s) {aborted} "
                 f"(NaN tails recorded)")
    print(line, file=stdout)
    return []


def _cmd_validate(config, out, stdout):
    val = config.resolved["validate"]
    mc = dict(n_paths=config.n_paths, master_seed=config.seed,
              u_bound=config.u_bound)
    reports = []
    for check in val["checks"]:
        if check == "semigroup":
            reports.append(sc_semigroup_check(
                config.params, val["flow_r"], val["flow_t"], config.u_list,
                tol=config.tol))
        elif check == "affine_formula":
            reports.append(check_affine_formula(
                config.params, val["x0"], val["z0"], val["t_list"],
                config.u_list, dt=config.dt, eps=config.eps,
                tol=config.tol, **mc))
        elif check == "moments":
            reports.append(check_moments(
                config.params, val["x0"], val["z0"], val["t_list"],
                dt=config.dt, eps=config.eps, **mc))
        elif check == "generator":
            for mode in val["generator_modes"]:
                state = val["generator_states"][mode]
                if mode != "cbi":
                    state = tuple(state)
                reports.append(check_generator(
                    config.params, state, which=mode, delta=val["delta"],
                    **mc))
        else:
            reports.append(uniqueness_experiment(
                config.params, val["x0"], val["x0_b"], t_max=config.t_max,
                dt=config.dt, z0=val["z0"], eps=config.eps, **mc))
    for report in reports:
        print(report.table(), file=stdout)
        print(file=stdout)
        if "json" in config.formats:
            _write_report(out, config, report)
    return reports


def _cmd_limit(config, out, stdout):
    lim = config.resolved["limit"]
    report = fluctuation_experiment(
        config.params, lim["theta_ladder"], mode=lim["mode"],
        t_max=config.t_max, n_paths=config.n_paths,
        master_seed=config.seed, dt=config.dt, x0=lim["x0"], z0=lim["z0"],
        u_bound=config.u_bound, eps=config.eps,
        deterministic_rate_check=lim["deterministic_rate_check"],
        split=config.split)
    print(report.table(), file=stdout)
    print(file=stdout)
    if "json" in config.formats:
        _write_report(out, config, report)
    return [report]


_DISPATCH = {"transform": _cmd_transform, "simulate": _cmd_simulate,
             "validate": _cmd_validate, "limit": _cmd_limit}


def run(command: str, config: RunConfig, *, out_dir=None, workers=None,
        stdout=None, stderr=None) -> int:
    """Execute one subcommand; returns the process exit status.

    Output lands in ``out_dir`` (default: the config's output directory).
    ``workers`` is accepted and ignored: paths always run sequentially.
    It stays only because the benchmark harness (``bench/child.py``)
    still passes it.
    """
    if command not in _DISPATCH:
        raise ValueError(f"unknown subcommand {command!r}; choose from "
                         f"{sorted(_DISPATCH)}")
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    out = Path(out_dir if out_dir is not None else config.out_dir)
    created = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)

    try:
        reports = _DISPATCH[command](config, out, stdout)
        if "json" in config.formats:
            meta = dict(_metadata(config))
            meta.update(command=command, config=config.resolved)
            _write_json(out / "run_meta.json", meta)
    except BaseException:
        # leave no empty directory behind; existing ones are never touched
        for d in created:
            if any(d.iterdir()):
                break
            d.rmdir()
        raise
    failure = _first_failure(reports)
    if failure is not None:
        print(f"affine-lab: first failing row: {failure}", file=stderr)
        return 1
    return 0


# -- entry point ------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affine-lab",
        description="Exact transforms, path simulation and cross-"
                    "validation for two-dimensional affine processes.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{transform,simulate,validate,limit}")
    help_lines = {
        "transform": "sample exact characteristic exponents as CSV curves",
        "simulate": "write Euler paths of the configured system as CSV",
        "validate": "run the configured closed-form cross-checks",
        "limit": "run the reactant fluctuation ladder",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=help_lines[name])
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file (default: built-in defaults)")
        p.add_argument("--seed", type=int, metavar="U64",
                       help="override mc.seed from the config")
        p.add_argument("--out", metavar="DIR",
                       help="override output.directory from the config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            text = Path(args.config).read_text(encoding="utf-8")
        else:
            text = "{}"
    except OSError as exc:
        print(f"affine-lab: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        config = parse_config(text)
        if args.seed is not None:
            config = config.with_seed(_as_seed(args.seed, "--seed"))
        return run(args.command, config, out_dir=args.out)
    except (ConfigError, AdmissibilityError) as exc:
        print(f"affine-lab: {exc}", file=sys.stderr)
        return 2
    except ThinningBoundError as exc:
        print(f"affine-lab: {exc}; raise mc.u_bound", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"affine-lab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
