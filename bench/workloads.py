"""The benchmark's workloads: CLI configs generated from a seed.

Each workload is one ``affine_lab.cli`` subcommand on a config document
built here from the benchmark seed, so the same seed always gives the
same config bytes.  ``base_counts`` derives the work a config asks for
(paths, path-steps, Riccati solves, report rows) from the config alone,
never from program internals; per-layer rates are divided by these.

Only the standard library is imported here: the workload process loads
this module before it starts timing the program's own imports.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Every Monte Carlo workload runs without a truncation band and at the
# CLI's default thinning bound, where no path needs a retry.
EPS = 0.0
U_BOUND = 16.0

# Criterion 4's six frequencies, as [[re1, im1], [re2, im2]] rows.
SIX_FREQUENCIES = [
    [[-1.0, 0.0], [0.0, 0.0]],
    [[-2.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 1.0]],
    [[0.0, 0.0], [0.0, -1.0]],
    [[-0.5, 0.0], [0.0, 2.0]],
    [[-0.5, 0.5], [0.0, 1.0]],
]

# Rows per generator report at the CLI's default states (criterion 8).
GENERATOR_ROWS = {"affine": 9, "cbi": 4, "catalytic": 9}
GENERATOR_MODES = ("affine", "cbi", "catalytic")
THETA_LADDER = [4.0, 16.0, 64.0, 256.0]


# A failed row of a Monte Carlo check whose error exceeds FAR_OUT times
# its tolerance is a failed operation (see Workload.sigma_rows).
FAR_OUT = 2.0


@dataclass(frozen=True)
class Workload:
    """One subcommand run.

    ``sigma_rows``: every report row is a Monte Carlo check with tolerance
    ``3 * stderr + bias budget``, which a correct program misses by chance
    on a fraction of a percent of rows; which rows depends on the seed.
    Such a row only counts as a failed operation when its error exceeds
    ``FAR_OUT`` times its tolerance, at least 6 standard errors, which
    chance does not reach.  On other workloads every failed row counts.
    """

    name: str
    command: str
    workers: int
    sigma_rows: bool = False


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("generator-1step", "validate", 1, sigma_rows=True),
    Workload("charfn-long", "validate", 2, sigma_rows=True),
    Workload("limit-ladder", "limit", 1),
    Workload("transform-grid", "transform", 1),
)}

# Path counts (frequencies for transform-grid) at scale 1.
FULL_SIZE = {"generator-1step": 2000, "charfn-long": 4096,
             "limit-ladder": 1000, "transform-grid": 41}


def _size(name: str, scale: float) -> int:
    return max(2, round(FULL_SIZE[name] * scale))


def _u_list(seed: int, n: int) -> list:
    """``n`` frequencies with ``Re u1 in [-4, 0]`` and ``|Im| <= 32``.

    The points follow a low-discrepancy lattice (the additive recurrence
    of the plastic number) jittered by the seed, so every seed asks for
    about the same number of RK steps.
    """
    rng = random.Random(seed)
    g = 1.32471795724474602596  # plastic number
    alpha = (1.0 / g, 1.0 / g ** 2, 1.0 / g ** 3)
    out = []
    for k in range(n):
        a, b, c = (((0.5 + (k + 1) * s) % 1.0
                    + rng.uniform(-0.01, 0.01)) % 1.0 for s in alpha)
        out.append([[-4.0 * a, 64.0 * b - 32.0], [0.0, 64.0 * c - 32.0]])
    return out


def config_doc(name: str, seed: int, scale: float = 1.0) -> dict:
    """The config document of workload ``name`` for benchmark ``seed``."""
    n = _size(name, scale)
    mc = {"n_paths": n, "seed": seed, "eps": EPS, "u_bound": U_BOUND}
    if name == "generator-1step":
        return {"params": {"preset": "jump_affine"}, "mc": mc,
                "validate": {"checks": ["generator"], "delta": 2.0 ** -10,
                             "generator_modes": list(GENERATOR_MODES)}}
    if name == "charfn-long":
        return {"params": {"preset": "jump_affine"},
                "grid": {"t_max": 1.0, "dt": 2.0 ** -10}, "mc": mc,
                "transform": {"u_list": SIX_FREQUENCIES},
                "validate": {"checks": ["affine_formula"],
                             "t_list": [0.5, 1.0]}}
    if name == "limit-ladder":
        return {"params": {"preset": "symmetric_split"},
                "grid": {"t_max": 1.0, "dt": 2.0 ** -8}, "mc": mc,
                "limit": {"theta_ladder": THETA_LADDER, "mode": "pair"}}
    if name == "transform-grid":
        return {"params": {"preset": "jump_affine"},
                "grid": {"t_max": 1.0, "dt": 2.0 ** -10},
                "mc": {"seed": seed, "eps": EPS, "u_bound": U_BOUND},
                "transform": {"u_list": _u_list(seed, n)}}
    raise ValueError(f"unknown workload {name!r}; choose from "
                     f"{sorted(WORKLOADS)}")


def config_text(name: str, seed: int, scale: float = 1.0) -> str:
    return json.dumps(config_doc(name, seed, scale), sort_keys=True)


def base_counts(name: str, doc: dict) -> dict:
    """Work the config asks for, with no path retried.

    ``paths``: noise systems generated; ``coarse_path_steps``: paths x
    coarse grid steps x ensembles (a coupled ``dt/2`` control does not
    count again); ``kernel_path_steps``: steps every Euler kernel call
    takes, by kernel, fine controls included; ``refine_path_steps``:
    steps the bridge refinement produces; ``solves``: Riccati solves;
    ``operations``: report rows, or transform curves written.
    """
    n = doc.get("mc", {}).get("n_paths", 0)
    zero = {"affine": 0, "cbi": 0, "catalytic": 0, "reactant": 0}
    if name == "generator-1step":
        modes = doc["validate"]["generator_modes"]
        kernel = dict(zero, **{m: 3 * n for m in modes})  # 1 + 2 steps
        return {"paths": n * len(modes), "coarse_path_steps": n * len(modes),
                "kernel_path_steps": kernel,
                "refine_path_steps": 2 * n * len(modes), "solves": 0,
                "operations": sum(GENERATOR_ROWS[m] for m in modes)}
    if name == "charfn-long":
        t_list = doc["validate"]["t_list"]
        steps = round(max(t_list) / doc["grid"]["dt"])
        pairs = len(t_list) * len(doc["transform"]["u_list"])
        return {"paths": n, "coarse_path_steps": n * steps,
                "kernel_path_steps": dict(zero, affine=3 * n * steps),
                "refine_path_steps": 2 * n * steps, "solves": pairs,
                "operations": pairs}
    if name == "limit-ladder":
        steps = round(doc["grid"]["t_max"] / doc["grid"]["dt"])
        rungs = len(doc["limit"]["theta_ladder"])
        return {"paths": n * rungs, "coarse_path_steps": n * steps * rungs,
                "kernel_path_steps": dict(zero, reactant=n * steps * rungs),
                "refine_path_steps": 0, "solves": 0,
                "operations": rungs}  # rungs-1 ratios + total drop
    if name == "transform-grid":
        k = len(doc["transform"]["u_list"])
        return {"paths": 0, "coarse_path_steps": 0,
                "kernel_path_steps": zero, "refine_path_steps": 0,
                "solves": k, "operations": k}
    raise ValueError(f"unknown workload {name!r}")
