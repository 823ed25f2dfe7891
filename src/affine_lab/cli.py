"""Command-line driver: parse a JSON config, dispatch subcommands, write
CSV/JSON artifacts with full reproducibility metadata.

This module alone decides the artifact format: every CSV goes through
``_write_csv`` (the run metadata as ``# key = value`` lines, 17-digit
rows, LF endings) and every JSON file through ``_write_json``.  The
writer takes its table as columns and formats a block of rows with one
``%`` call; a column several tables share, such as the time grid of the
transform curves or of each saved path, is formatted once and passed in
as text.

The configuration document is a single JSON object with optional blocks
``params``, ``grid``, ``mc``, ``transform``, ``simulate``, ``validate``,
``limit`` and ``output``.  Every key of every block but ``params`` is
declared once, with its reader and its default, in ``_SCHEMA``; unknown
keys are rejected with the path to the offending key.  Given the same
config bytes and seed, every subcommand writes byte-identical output
files: each path is a pure function of its substream seed, so the bytes
depend only on the config and the seed.  ``simulate`` runs its saved
paths as one batch.

Exit status: 0 when every report row passes, 1 when some row fails (the
first failing row is named on stderr), 2 for configuration or usage
errors, including an ``mc.u_bound`` too small for the thinning-bound
retries to recover and a frequency whose transform solve fails
(``TransformError``).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import RNG_ID, __version__
from .noise import generate_noise, steps_for, substream_seed_array
from .params import (FiniteAtomicMeasure, ProductExponentialMeasure, UPoint,
                     validate_admissible)
from .presets import builtin_params
from .sde import (ParameterSplit, ThinningBoundError, _check_dt, _check_init,
                  _check_reactant, _reactant_starts, simulate_affine,
                  simulate_catalytic, simulate_reactant_pair)
from .transform import TransformError, _check_tol, solve_transforms
from .validate import (GENERATOR_MODES, _check_ladder, _check_n_paths,
                       _grid_indices, _u_labels, check_affine_formula,
                       check_generators, check_moments,
                       fluctuation_experiment, sc_semigroup_check,
                       uniqueness_experiment)

ARTIFACT_VERSION = 4

_CHECK_NAMES = ("semigroup", "affine_formula", "moments", "generator",
                "uniqueness")


class ConfigError(ValueError):
    """A structural or semantic problem in a configuration document."""


# -- readers: each takes (value, key path) and returns the canonical value -

def _rule(path: str, check, *args):
    """``check(*args)``: a library input rule, its failure reported with
    the key path."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _reject_unknown(block: dict, allowed, path: str) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key at {path}.{key}")


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return value


def _read(block, schema: dict, path: str) -> dict:
    """``block`` read by ``schema``, a table of key -> (reader, default).

    Unknown keys are rejected.  An absent key's default goes through its
    reader like a given value, except that a ``None`` default stays
    ``None``: no value, or one the caller derives.
    """
    block = _as_object(block, path)
    _reject_unknown(block, schema, path)
    out = {}
    for key, (reader, default) in schema.items():
        if key in block or default is not None:
            out[key] = reader(block.get(key, default), f"{path}.{key}")
        else:
            out[key] = None
    return out


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


def _as_name(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a nonempty string")
    return value


def _one_of(*choices):
    """A reader of one string out of ``choices``."""
    def read(value, path: str) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"{path}: expected one of {sorted(choices)}")
        return value
    return read


def _list_of(reader):
    """A reader of a list whose entries ``reader`` reads."""
    def read(value, path: str) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list")
        return [reader(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return read


def _as_vec(value, path: str, length: int = 2) -> list:
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(f"{path}: expected a list of {length} numbers")
    return [_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_matrix(value, path: str) -> list:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected a 2x2 matrix as nested lists")
    return [_as_vec(row, f"{path}[{i}]") for i, row in enumerate(value)]


def _as_atoms(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of "
                          f"[xi1, xi2, weight] rows")
    return [_as_vec(row, f"{path}[{i}]", 3) for i, row in enumerate(value)]


def _as_u_list(value, path: str) -> list:
    """Transform arguments as ``[[re1, im1], [re2, im2]]`` rows."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of "
                          f"[[re1, im1], [re2, im2]] rows")
    rows = []
    for i, row in enumerate(value):
        here = f"{path}[{i}]"
        if not isinstance(row, list) or len(row) != 2:
            raise ConfigError(f"{here}: expected [[re1, im1], [re2, im2]]")
        rows.append([_as_vec(row[0], f"{here}[0]"),
                     _as_vec(row[1], f"{here}[1]")])
    return rows


def _as_times(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list")
    return _list_of(_as_pos)(value, path)


def _as_split(value, path: str):
    """The parts of a :class:`ParameterSplit`, all required; ``null``
    means the canonical split."""
    if value is None:
        return None
    parts = _read(value, {f.name: (_as_nonneg, None)
                          for f in fields(ParameterSplit)}, path)
    missing = [k for k, v in parts.items() if v is None]
    if missing:
        raise ConfigError(f"{path}: missing split parts {missing}")
    return parts


# -- the schema: every key of every block but params, with its default ----

_GENERATOR_STATES = {"affine": (_as_vec, [0.7, -0.4]),
                     "cbi": (_as_nonneg, 0.7),
                     "catalytic": (_as_vec, [1.2, 0.5])}

_SCHEMA = {
    "grid": {"t_max": (_as_pos, 1.0), "dt": (_as_pos, 2.0 ** -10)},
    "mc": {"n_paths": (partial(_as_int, minimum=1), 1000),
           "seed": (_as_seed, 0), "u_bound": (_as_pos, 16.0)},
    "transform": {"tol": (_as_pos, 1e-9),
                  "u_list": (_as_u_list, [[[-1.0, 0.0], [0.0, 0.0]],
                                          [[-0.5, 0.0], [0.0, 1.0]],
                                          [[0.0, 0.0], [0.0, 1.0]]])},
    "simulate": {
        "system": (_one_of("affine", "catalytic", "reactant"), "affine"),
        "x0": (_as_nonneg, 1.0), "z0": (_as_float, 0.0),
        "y0": (_as_nonneg, 1.0), "l": (_as_nonneg, 1.0),
        "theta": (_as_pos, 16.0), "mode": (_one_of("single", "pair"), "pair"),
        "n_saved_paths": (partial(_as_int, minimum=1), 8)},
    "validate": {
        "checks": (_list_of(_one_of(*_CHECK_NAMES)), list(_CHECK_NAMES)),
        "t_list": (_as_times, None),  # default derived from the grid
        "delta": (_as_pos, 2.0 ** -10),
        "generator_modes": (_list_of(_one_of(*GENERATOR_MODES)),
                            list(GENERATOR_MODES)),
        "generator_states": (
            lambda value, path: _read(value, _GENERATOR_STATES, path), {}),
        "x0": (_as_nonneg, 1.0), "z0": (_as_float, 0.0),
        "x0_b": (_as_nonneg, 1.5),
        "flow_r": (_as_nonneg, 0.5), "flow_t": (_as_nonneg, 0.75)},
    "limit": {
        "theta_ladder": (_list_of(_as_pos), [4.0, 16.0, 64.0, 256.0]),
        "split": (_as_split, None),
        "mode": (_one_of("single", "pair"), "pair"),
        "x0": (_as_nonneg, 1.0), "z0": (_as_float, 0.0),
        "deterministic_rate_check": (_as_bool, False)},
    "output": {
        "directory": (_as_name, "out"),
        "formats": (lambda value, path: sorted(
            _list_of(_one_of("csv", "json"))(value, path)), ["csv", "json"])},
}


# -- measures and parameter records ----------------------------------------

_MEASURES = {
    "finite_atomic": {"kind": (_one_of("finite_atomic"), None),
                      "atoms": (_as_atoms, [])},
    "product_exponential": {"kind": (_one_of("product_exponential"), None),
                            "total_rate": (_as_nonneg, 1.0),
                            "rate1": (_as_pos, 1.0), "rate2": (_as_pos, 1.0),
                            "sign_mix": (_as_float, 1.0)},
}


def _parse_measure(value, path: str):
    """A jump measure from its JSON form; ``null`` means no jumps."""
    if value is None:
        return FiniteAtomicMeasure([]), None
    block = _as_object(value, path)
    kind = _one_of(*_MEASURES)(block.get("kind"), f"{path}.kind")
    doc = _read(block, _MEASURES[kind], path)
    if kind == "finite_atomic":
        return _rule(f"{path}.atoms", FiniteAtomicMeasure, doc["atoms"]), doc
    return _rule(path, ProductExponentialMeasure, doc["total_rate"],
                 doc["rate1"], doc["rate2"], doc["sign_mix"]), doc


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
        return _rule(f"{path}.preset", builtin_params, name), {"preset": name}

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
                fields[name] = _as_vec(block[name], f"{path}.{name}")
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


# -- the configuration record ----------------------------------------------

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
    # Errors come in a fixed order: unknown blocks, a nonzero mc.eps,
    # unknown keys in any block, then the parameter record, then each
    # value, then the rules across keys.
    names = ("params", *_SCHEMA)
    _reject_unknown(doc, names, "$")
    blocks = {name: _as_object(doc.get(name, {}), f"$.{name}")
              for name in names}
    # both streams sample the full jump measures, which the transform
    # integrates; a config may still state the removed cut as 0
    mc = blocks["mc"] = dict(blocks["mc"])
    eps = mc.pop("eps", 0)
    if isinstance(eps, bool) or eps != 0:
        raise ConfigError("$.mc.eps: the small-jump truncation was removed; "
                          "only 0 is accepted")
    for name, schema in _SCHEMA.items():
        _reject_unknown(blocks[name], schema, f"$.{name}")
    params, params_doc = _parse_params(blocks["params"] or
                                       {"preset": "jump_affine"}, "$.params")
    resolved = {"params": params_doc}
    for name, schema in _SCHEMA.items():
        resolved[name] = _read(blocks[name], schema, f"$.{name}")
    grid, tr, sim, val, lim = (resolved[name] for name in (
        "grid", "transform", "simulate", "validate", "limit"))

    t_max, dt = grid["t_max"], grid["dt"]
    n_steps = _rule("$.grid", steps_for, t_max, dt)
    _rule("$.transform.tol", _check_tol, tr["tol"])
    u_list = tuple(_rule(f"$.transform.u_list[{i}]", UPoint, complex(*u1),
                         complex(*u2))
                   for i, (u1, u2) in enumerate(tr["u_list"]))
    _rule("$.transform.u_list", _u_labels, u_list, tr["u_list"])
    if sim["system"] == "reactant":
        _rule("$.simulate", _check_reactant, params, sim["theta"],
              sim["mode"])
        _rule("$.simulate.z0", _reactant_starts, sim["theta"], sim["z0"],
              sim["mode"])

    for key in ("checks", "generator_modes"):
        if not val[key]:
            raise ConfigError(f"$.validate.{key}: empty: a run that checks "
                              f"nothing would pass")
        if len(set(val[key])) != len(val[key]):
            raise ConfigError(f"$.validate.{key}: duplicate entries")
    if val["t_list"] is None:
        val["t_list"] = [t_max] if n_steps % 2 else [t_max / 2.0, t_max]
    for i, t in enumerate(val["t_list"]):
        if t > t_max:
            raise ConfigError(f"$.validate.t_list[{i}]: {t!r} exceeds "
                              f"grid.t_max = {t_max!r}")
    _rule("$.validate.t_list", _grid_indices, val["t_list"], dt)
    states = val["generator_states"]
    for key, i in (("affine", 0), ("catalytic", 0), ("catalytic", 1)):
        _rule(f"$.validate.generator_states.{key}", _check_init,
              f"state[{i}]", states[key][i])

    ladder = _rule("$.limit.theta_ladder", _check_ladder,
                   lim["theta_ladder"])
    _rule("$.limit.z0", _reactant_starts, ladder[0], lim["z0"], lim["mode"])
    split = None
    if lim["split"] is not None:
        # the limit ladder and a simulated reactant read the split; a
        # single reactant has none to take
        readers = {"$.limit.mode": lim["mode"]}
        if sim["system"] == "reactant":
            readers["$.simulate.mode"] = sim["mode"]
        for key, mode in readers.items():
            if mode == "single":
                raise ConfigError(f"$.limit.split: a split applies only in "
                                  f"pair mode, but {key} is \"single\"")
        split = ParameterSplit(**lim["split"])
        _rule("$.limit.split", split.check_against, params)

    # every simulated grid must satisfy the explicit-Euler stability rule
    for label, step in (("$.grid.dt", dt), ("$.validate.delta",
                                             val["delta"])):
        _rule(label, _check_dt, step, params)
    return RunConfig(params=params, u_list=u_list, split=split,
                     resolved=resolved)


# -- artifacts: every output file is written here --------------------------

def _metadata(config: RunConfig) -> dict:
    return {"artifact_version": ARTIFACT_VERSION, "rng": RNG_ID,
            "seed": config.seed, "dt": config.dt, "u_bound": config.u_bound}


# rows per ``%`` call of the CSV writer
_BLOCK_ROWS = 4096


def _text(values) -> list:
    """The floats of ``values`` as 17-digit text, for a column that several
    tables share: format it once, pass the text to each."""
    return ["%.17g" % v for v in values.tolist()]


def _write_csv(path: Path, config: RunConfig, comments, columns) -> None:
    """One CSV artifact with LF endings: the run metadata as ``# key =
    value`` lines, then ``comments`` as ``# `` lines, the header and the
    rows.

    ``columns`` lists ``(name, format, values)`` per column, the values a
    1-d array or a list of text already formatted (format ``%s``).  Each
    block of up to ``_BLOCK_ROWS`` rows is formatted by one ``%`` call on
    the row template repeated per row, its values laid out row by row.
    """
    names, formats, values = zip(*columns)
    width, n_rows = len(values), len(values[0])
    template = ",".join(formats) + "\n"
    with open(path, "w", newline="\n") as fh:
        for key, value in _metadata(config).items():
            fh.write(f"# {key} = {value}\n")
        fh.writelines(f"# {line}\n" for line in comments)
        fh.write(",".join(names) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            flat = [None] * ((stop - start) * width)
            for j, column in enumerate(values):
                block = column[start:stop]
                flat[j::width] = (block.tolist()
                                  if isinstance(block, np.ndarray) else block)
            fh.write((template * (stop - start)) % tuple(flat))


def write_transform_csv(solution, path: Path, config: RunConfig,
                        t_text=None) -> None:
    """One ``TransformSolution`` as CSV, its frequency and tolerance as
    comments.  ``t_text`` is its time column as ``_text(solution.t_grid)``
    gives it, for callers that write several curves on one grid."""
    if t_text is None:
        t_text = _text(solution.t_grid)
    _write_csv(path, config,
               [f"u = ({solution.u.u1!r}, {solution.u.u2!r})",
                f"tol = {solution.tol_used:.17g}"],
               [("t", "%s", t_text),
                ("re_psi1", "%.17g", solution.psi1.real),
                ("im_psi1", "%.17g", solution.psi1.imag),
                ("re_psi2", "%.17g", solution.psi2.real),
                ("im_psi2", "%.17g", solution.psi2.imag),
                ("re_phi", "%.17g", solution.phi.real),
                ("im_phi", "%.17g", solution.phi.imag)])


def write_paths_csv(noise, paths: dict, path: Path,
                    config: RunConfig) -> None:
    """A batch of paths as one flat CSV table, path by path.

    ``paths`` maps component names to ``(n_paths, n_steps + 1)`` arrays
    on the grid of ``noise``, as the simulators return them.  The time
    column and each path id are formatted once and repeated.
    """
    names = list(paths)
    n_paths, n_grid = paths[names[0]].shape
    path_ids = [text for i in range(n_paths) for text in [str(i)] * n_grid]
    _write_csv(path, config, [],
               [("path_id", "%s", path_ids),
                ("t", "%s", _text(noise.grid) * n_paths)] + [
                   (name, "%.17g", paths[name].ravel()) for name in names])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    newline="\n")


def _write_report(out: Path, config: RunConfig, report) -> None:
    payload = dict(_metadata(config))
    payload["report"] = report.payload()
    _write_json(out / f"{report.name}.json", payload)


def _first_failure(reports):
    for report in reports:
        for row in report.rows:
            if not row.passed:
                return f"{report.name}: {row.quantity}"
    return None


# -- subcommands: each returns its reports ----------------------------------

def _cmd_transform(config, out, stdout):
    grid = np.arange(steps_for(config.t_max, config.dt) + 1) * config.dt
    solutions = solve_transforms(config.params, config.u_list, grid,
                                 tol=config.tol)
    if "csv" in config.formats:
        t_text = _text(grid)
        for i, solution in enumerate(solutions):
            write_transform_csv(solution, out / f"transform_u{i:02d}.csv",
                                config, t_text)
    print(f"transform: {len(config.u_list)} argument(s) sampled on "
          f"[0, {config.t_max:g}] with dt = {config.dt:g}", file=stdout)
    return []


def _cmd_simulate(config, out, stdout):
    sim = config.resolved["simulate"]
    n_saved = min(sim["n_saved_paths"], config.n_paths)
    seeds = substream_seed_array(config.seed, np.arange(n_saved))
    noise = generate_noise(config.params.m, config.params.mu, config.t_max,
                           config.dt, seeds, config.u_bound)
    if sim["system"] == "affine":
        paths, aborted_at, _ = simulate_affine(config.params, sim["x0"],
                                               sim["z0"], noise)
    elif sim["system"] == "catalytic":
        paths, aborted_at, _ = simulate_catalytic(
            config.params, sim["x0"], sim["y0"], sim["l"], noise)
    else:
        theta = sim["theta"]
        paths, aborted_at, _ = simulate_reactant_pair(
            config.params, theta, sim["x0"],
            *_reactant_starts(theta, sim["z0"], sim["mode"]), noise,
            sim["mode"], config.split)
    if "csv" in config.formats:
        write_paths_csv(noise, paths, out / "paths.csv", config)
    aborted = np.flatnonzero(~np.isnan(aborted_at)).tolist()
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
    if any(check != "semigroup" for check in val["checks"]):
        _rule("$.mc.n_paths", _check_n_paths, config.n_paths)
    reports = []
    for check in val["checks"]:
        if check == "semigroup":
            reports.append(sc_semigroup_check(
                config.params, val["flow_r"], val["flow_t"], config.u_list,
                tol=config.tol))
        elif check == "affine_formula":
            reports.append(check_affine_formula(
                config.params, val["x0"], val["z0"], val["t_list"],
                config.u_list, dt=config.dt, tol=config.tol, **mc))
        elif check == "moments":
            reports.append(check_moments(
                config.params, val["x0"], val["z0"], val["t_list"],
                dt=config.dt, **mc))
        elif check == "generator":
            reports.extend(check_generators(config.params, {
                mode: val["generator_states"][mode]
                for mode in val["generator_modes"]}, delta=val["delta"], **mc))
        else:
            reports.append(uniqueness_experiment(
                config.params, val["x0"], val["x0_b"], t_max=config.t_max,
                dt=config.dt, z0=val["z0"], **mc))
    return reports


def _cmd_limit(config, out, stdout):
    lim = config.resolved["limit"]
    return [fluctuation_experiment(
        config.params, lim["theta_ladder"], mode=lim["mode"],
        t_max=config.t_max, n_paths=config.n_paths,
        master_seed=config.seed, dt=config.dt, x0=lim["x0"], z0=lim["z0"],
        u_bound=config.u_bound,
        deterministic_rate_check=lim["deterministic_rate_check"],
        split=config.split)]


# subcommand name -> (function, help line), in the order --help lists them
COMMANDS = {
    "transform": (_cmd_transform,
                  "sample exact characteristic exponents as CSV curves"),
    "simulate": (_cmd_simulate,
                 "write Euler paths of the configured system as CSV"),
    "validate": (_cmd_validate, "run the configured closed-form cross-checks"),
    "limit": (_cmd_limit, "run the reactant fluctuation ladder"),
}


def run(command: str, config: RunConfig, *, out_dir=None, workers=None,
        stdout=None, stderr=None) -> int:
    """Execute one subcommand; returns the process exit status.

    The reports the subcommand returns are printed and, with the json
    format, written one file each.  Output lands in ``out_dir`` (default:
    the config's output directory).
    ``workers`` is accepted and ignored: paths always run sequentially.
    It stays only because the benchmark harness (``bench/child.py``)
    still passes it.
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown subcommand {command!r}; choose from "
                         f"{sorted(COMMANDS)}")
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    out = Path(out_dir if out_dir is not None else config.out_dir)
    created = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)

    try:
        reports = COMMANDS[command][0](config, out, stdout)
        for report in reports:
            print(report.table(), file=stdout)
            print(file=stdout)
            if "json" in config.formats:
                _write_report(out, config, report)
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
                                metavar="{" + ",".join(COMMANDS) + "}")
    for name, (_, help_line) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
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
    except ThinningBoundError as exc:
        print(f"affine-lab: {exc}; raise mc.u_bound", file=sys.stderr)
        return 2
    except (TransformError, ValueError) as exc:
        print(f"affine-lab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
