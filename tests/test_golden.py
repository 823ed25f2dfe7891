"""Golden digests: SHA-256 of CLI artifacts and batch-kernel outputs.

Every kernel digest was pinned from the per-system batch cores before they
were merged into one step loop.  The CLI digests were re-pinned at
``ARTIFACT_VERSION = 2``, when the transform solver moved from SciPy's
``solve_ivp`` to the package's own lane-batched Dormand-Prince stepper,
and again at ``ARTIFACT_VERSION = 3``, when the coupled checks moved to
the two-level estimate (new rows and ``details``) and ``paths.csv``
dropped its repeated ``# dt = ..., eps = ..., u_bound = ...`` line; the
``cross_validation.py`` demo digest changed with the rows it prints.  They
were re-pinned once more at ``ARTIFACT_VERSION = 4``, when the small-jump
truncation ``eps`` was removed: the artifacts lost their ``# eps = ...``
lines and ``eps`` fields (and with them each report's ``digest``), while
every drawn number, row and curve stayed the same.  The kernel digests,
pinned at ``eps = 1e-4``, pass unedited without it, since no atom of the
presets or of the clamping measures lies in that box.  A
refactor of the simulators or drivers must leave every digest unchanged; a
change that alters bytes on purpose bumps ``RNG_ID`` or
``ARTIFACT_VERSION`` and re-pins.  The demo digests pin the stdout of
each script under ``demos/``.  Print the current digests with
``PYTHONPATH=src python tests/test_golden.py``.

The transform-lane digest pins the Riccati solve that the benchmark's
``transform-grid`` workload runs: all 41 frequencies of its seed-1 config
on the 1025-point grid, where the CLI ``transform`` case solves only the
three default frequencies.

The product-exponential noise digest pins the per-path code that draws
every product-exponential mark, at counts below and above the 16 draws
each sampler call makes at least.

The kernel cases cover every preset at a thinning bound that never binds
(16) and one that aborts paths (1.2), refined and unrefined noise, both
jump regions of the pair system, both reactant modes with and without the
fused limit equation, branching coefficients away from 1, and a non-dyadic step (0.01) where products such
as ``dt * l * x`` round differently under reassociation.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from affine_lab.cli import parse_config, run
from affine_lab.noise import generate_noise, refine, substream_seed_array
from affine_lab.params import (FiniteAtomicMeasure,
                               ProductExponentialMeasure, validate_admissible)
from affine_lab.presets import builtin_params
from affine_lab.sde import (simulate_affine, simulate_catalytic,
                            simulate_cbi, simulate_reactant_pair)
from affine_lab.transform import solve_transforms
from test_transform import grid_workload_frequencies

PRESETS = ("ou", "cir", "jump_affine", "symmetric_split")
U_BOUNDS = (16.0, 1.2)
T_MAX = 0.5
DT = 2.0 ** -6
N_PATHS = 6
ROOT = Path(__file__).resolve().parents[1]


# -- digests ----------------------------------------------------------------

def triple_digest(result) -> str:
    """Digest of a kernel's ``(components, aborted_at, clamps)`` triple."""
    comps, aborted_at, clamps = result
    h = hashlib.sha256()
    for name in sorted(comps):
        arr = np.ascontiguousarray(comps[name], dtype="<f8")
        h.update(f"{name}:{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(np.ascontiguousarray(aborted_at, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(clamps, dtype="<i8").tobytes())
    return h.hexdigest()


def transform_lanes_digest() -> str:
    """Digest of ``psi1``, ``psi2``, ``phi`` and ``steps_taken`` of every
    lane of the benchmark's ``transform-grid`` solve (seed 1)."""
    h = hashlib.sha256()
    for sol in solve_transforms(builtin_params("jump_affine"),
                                grid_workload_frequencies(1),
                                np.arange(1025) * 2.0 ** -10):
        for name in ("psi1", "psi2", "phi"):
            h.update(np.ascontiguousarray(getattr(sol, name),
                                          dtype="<c16").tobytes())
        h.update(np.int64(sol.steps_taken).astype("<i8").tobytes())
    return h.hexdigest()


def product_exponential_noise_digest() -> str:
    """Digest of the event fields of 64 paths with product-exponential
    ``m`` and ``mu``, drawn by the per-path code: N0 counts 0-6, below
    the 16 marks each sampler call draws at least, and N1 counts 4-23."""
    m = ProductExponentialMeasure(total_rate=1.0, rate1=2.0, rate2=3.0,
                                  sign_mix=0.7)
    mu = ProductExponentialMeasure(total_rate=1.5, rate1=1.5, rate2=0.8,
                                   sign_mix=0.4)
    ns = generate_noise(m, mu, 2.0, 0.25,
                        substream_seed_array(17, np.arange(64)), 4.0)
    h = hashlib.sha256()
    for name in ("n0_path", "n0_times", "n0_marks", "n1_path", "n1_times",
                 "n1_umarks", "n1_marks"):
        arr = getattr(ns, name)
        h.update(f"{name}:{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def directory_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


# -- kernel cases -------------------------------------------------------------

def clamping_params():
    """No drift at zero and a strong first diffusion: starts near zero
    step below it, so every kernel's clamp fires."""
    return validate_admissible(
        a=0.2, alpha=[[0.8, 0.1], [0.1, 0.4]], b=[0.0, 0.0],
        beta=[[-0.6, 0.0], [0.4, -0.8]],
        m=FiniteAtomicMeasure([(0.5, 0.3, 0.6), (0.0, -0.8, 0.4)]),
        mu=FiniteAtomicMeasure([(0.4, 0.2, 0.5), (0.9, -0.3, 0.25)]))


def params_for(preset):
    return clamping_params() if preset == "clamping" \
        else builtin_params(preset)


_NOISE_CACHE = {}


def noises(preset, u_bound, refined, dt=DT, seed=11):
    key = (preset, u_bound, refined, dt, seed)
    if key not in _NOISE_CACHE:
        p = params_for(preset)
        out = generate_noise(p.m, p.mu, T_MAX, dt,
                             substream_seed_array(seed, np.arange(N_PATHS)),
                             u_bound)
        _NOISE_CACHE[key] = refine(out) if refined else out
    return _NOISE_CACHE[key]


def cbi(params, x0, noise):
    """The scalar equation at branching coefficients away from 1."""
    return simulate_cbi(params, x0, 0.7, 1.6, 1.4, noise)


def kernel_cases():
    """Name -> zero-argument callable returning a kernel triple."""
    cases = {}
    for preset in PRESETS:
        p = builtin_params(preset)
        for ub in U_BOUNDS:
            for refined in (False, True):
                tag = f"{preset}/u{ub:g}/{'fine' if refined else 'coarse'}"
                ns = noises(preset, ub, refined)
                for region in ("all", "plus"):
                    cases[f"affine/{tag}/{region}"] = (
                        lambda p=p, ns=ns, region=region:
                        simulate_affine(p, 1.0, 0.3, ns, z_region=region))
                cases[f"catalytic/{tag}"] = (
                    lambda p=p, ns=ns:
                    simulate_catalytic(p, 1.0, 0.8, 1.3, ns))
                cases[f"cbi/{tag}"] = lambda p=p, ns=ns: cbi(p, 1.0, ns)
                for mode in ("single", "pair"):
                    for limit in (False, True):
                        name = f"reactant/{tag}/{mode}" + \
                            ("/limit" if limit else "")
                        cases[name] = (
                            lambda p=p, ns=ns, mode=mode, limit=limit:
                            simulate_reactant_pair(
                                p, 4.0, 1.0, 4.25, 4.0, ns, mode, None,
                                with_limit=limit,
                                z0=0.25 if limit else None))
    p = clamping_params()
    for refined, dt in ((False, DT), (True, DT), (False, 0.01)):
        tag = f"clamping/{'fine' if refined else 'coarse'}" + \
            ("" if dt == DT else "/dt0.01")
        ns = noises("clamping", 16.0, refined, dt=dt)
        cases[f"affine/{tag}"] = (
            lambda p=p, ns=ns: simulate_affine(p, 0.02, 0.3, ns))
        cases[f"catalytic/{tag}"] = (
            lambda p=p, ns=ns: simulate_catalytic(p, 0.02, 0.02, 1.3, ns))
        cases[f"cbi/{tag}"] = lambda p=p, ns=ns: cbi(p, 0.02, ns)
        cases[f"reactant/{tag}/pair/limit"] = (
            lambda p=p, ns=ns: simulate_reactant_pair(
                p, 1.0, 0.02, 1.0, 0.05, ns, "pair", None, with_limit=True,
                z0=0.1))
        cases[f"reactant/{tag}/single/limit"] = (
            lambda p=p, ns=ns: simulate_reactant_pair(
                p, 1.0, 0.02, 0.05, 1.0, ns, "single", None, with_limit=True,
                z0=-0.95))
    p = builtin_params("jump_affine")
    for ub in U_BOUNDS:
        ns = noises("jump_affine", ub, False, dt=0.01)
        tag = f"dt0.01/u{ub:g}"
        cases[f"affine/{tag}"] = lambda ns=ns: simulate_affine(p, 1.0, 0.3, ns)
        cases[f"catalytic/{tag}"] = (
            lambda ns=ns: simulate_catalytic(p, 1.0, 0.8, 1.3, ns))
        cases[f"cbi/{tag}"] = lambda ns=ns: cbi(p, 1.0, ns)
        cases[f"reactant/{tag}/pair/limit"] = (
            lambda ns=ns: simulate_reactant_pair(
                p, 4.0, 1.0, 4.25, 4.0, ns, "pair", None, with_limit=True,
                z0=0.25))
    return cases


# -- CLI cases ----------------------------------------------------------------

_GRID = {"t_max": T_MAX, "dt": DT}

CLI_CASES = {
    "transform": ("transform", {
        "params": {"preset": "jump_affine"}, "grid": _GRID,
        "mc": {"seed": 3}}),
    "simulate-affine": ("simulate", {
        "params": {"preset": "jump_affine"}, "grid": _GRID,
        "mc": {"n_paths": 3, "seed": 5},
        "simulate": {"system": "affine", "z0": 0.2, "n_saved_paths": 3}}),
    "simulate-catalytic": ("simulate", {
        "params": {"preset": "jump_affine"}, "grid": _GRID,
        "mc": {"n_paths": 3, "seed": 5},
        "simulate": {"system": "catalytic", "y0": 0.6, "l": 1.3,
                     "n_saved_paths": 3}}),
    "simulate-reactant-single": ("simulate", {
        "params": {"preset": "symmetric_split"}, "grid": _GRID,
        "mc": {"n_paths": 3, "seed": 5},
        "simulate": {"system": "reactant", "mode": "single", "z0": 0.3,
                     "theta": 8.0, "n_saved_paths": 3}}),
    "simulate-reactant-pair": ("simulate", {
        "params": {"preset": "symmetric_split"}, "grid": _GRID,
        "mc": {"n_paths": 3, "seed": 5},
        "simulate": {"system": "reactant", "mode": "pair", "z0": -0.3,
                     "theta": 8.0, "n_saved_paths": 3}}),
    "validate": ("validate", {
        "params": {"preset": "jump_affine"}, "grid": _GRID,
        "mc": {"n_paths": 64, "seed": 9},
        "validate": {"delta": DT}}),
    "limit-single": ("limit", {
        "params": {"preset": "symmetric_split"}, "grid": _GRID,
        "mc": {"n_paths": 32, "seed": 13},
        "limit": {"theta_ladder": [4.0, 16.0], "mode": "single",
                  "z0": 0.2}}),
    "limit-pair": ("limit", {
        "params": {"preset": "symmetric_split"}, "grid": _GRID,
        "mc": {"n_paths": 32, "seed": 13},
        "limit": {"theta_ladder": [4.0, 16.0], "mode": "pair",
                  "deterministic_rate_check": True}}),
}


def cli_digest(name, out_dir: Path) -> str:
    command, doc = CLI_CASES[name]
    run(command, parse_config(json.dumps(doc)), out_dir=out_dir,
        stdout=io.StringIO(), stderr=io.StringIO())
    return directory_digest(out_dir)


# -- pinned values ------------------------------------------------------------

KERNEL_DIGESTS = {
    "affine/ou/u16/coarse/all":
        "4f2a67625db3d884f25ee01dfdfa11f001b60b248347e75310530f903f8072ba",
    "affine/ou/u16/coarse/plus":
        "4f2a67625db3d884f25ee01dfdfa11f001b60b248347e75310530f903f8072ba",
    "catalytic/ou/u16/coarse":
        "308533e802d73a65131a9738e113ed7d84c427cf539eb0b28df8ef5e58bd428c",
    "cbi/ou/u16/coarse":
        "9c15905fb1b09a9476d42ed2793a43bd8ab42031415236282e04686511d55c62",
    "reactant/ou/u16/coarse/single":
        "c75b5ddda1706ed48bfd4d85ff8660a33590e8113cf4cf3b5fb7c1e277d0934a",
    "reactant/ou/u16/coarse/single/limit":
        "e2af233be9e933a9c10faac2d2995c0db66cfa1e5d50b1ef5c7014a82a6d9c36",
    "reactant/ou/u16/coarse/pair":
        "a8652c76b3f9cdd1ee6bc3c1deaecf56f140c1cb4a2135d43591c2134349538f",
    "reactant/ou/u16/coarse/pair/limit":
        "4932dcf160a6ee5d8b315468ba3c0383bfadf95e7cec80cb0eea673ad11f6f96",
    "affine/ou/u16/fine/all":
        "b361c5a57c0997b0f8ce143b220069d10510d83670fd731c23ba07595625132e",
    "affine/ou/u16/fine/plus":
        "b361c5a57c0997b0f8ce143b220069d10510d83670fd731c23ba07595625132e",
    "catalytic/ou/u16/fine":
        "ea6b4d81bba1f992ea3b53e56ac078e08c346c1d5f7315de0465a659ec8cc78a",
    "cbi/ou/u16/fine":
        "55b7c39cdae5817d2339ed7be3457f58792eccf2869cc336ef43d5b842b552e0",
    "reactant/ou/u16/fine/single":
        "07b4a66f78760894f46ef07c6178dee3fe47976a7591b3dbfb36c6a0e4447e8a",
    "reactant/ou/u16/fine/single/limit":
        "38eca779a63dd1f86cead366458ca9a1d52f5d1ffbeff525b224a72f53442c35",
    "reactant/ou/u16/fine/pair":
        "54261b9df670b4bd8e0d059694d733bb6ad240be3ada795c917fd057d1ea8a1e",
    "reactant/ou/u16/fine/pair/limit":
        "ff436f8784d6f0baaa426f38c9d93921284d8d4fbf42723e8ee5b5b2795f77dc",
    "affine/ou/u1.2/coarse/all":
        "4f2a67625db3d884f25ee01dfdfa11f001b60b248347e75310530f903f8072ba",
    "affine/ou/u1.2/coarse/plus":
        "4f2a67625db3d884f25ee01dfdfa11f001b60b248347e75310530f903f8072ba",
    "catalytic/ou/u1.2/coarse":
        "308533e802d73a65131a9738e113ed7d84c427cf539eb0b28df8ef5e58bd428c",
    "cbi/ou/u1.2/coarse":
        "9c15905fb1b09a9476d42ed2793a43bd8ab42031415236282e04686511d55c62",
    "reactant/ou/u1.2/coarse/single":
        "c75b5ddda1706ed48bfd4d85ff8660a33590e8113cf4cf3b5fb7c1e277d0934a",
    "reactant/ou/u1.2/coarse/single/limit":
        "e2af233be9e933a9c10faac2d2995c0db66cfa1e5d50b1ef5c7014a82a6d9c36",
    "reactant/ou/u1.2/coarse/pair":
        "a8652c76b3f9cdd1ee6bc3c1deaecf56f140c1cb4a2135d43591c2134349538f",
    "reactant/ou/u1.2/coarse/pair/limit":
        "4932dcf160a6ee5d8b315468ba3c0383bfadf95e7cec80cb0eea673ad11f6f96",
    "affine/ou/u1.2/fine/all":
        "b361c5a57c0997b0f8ce143b220069d10510d83670fd731c23ba07595625132e",
    "affine/ou/u1.2/fine/plus":
        "b361c5a57c0997b0f8ce143b220069d10510d83670fd731c23ba07595625132e",
    "catalytic/ou/u1.2/fine":
        "ea6b4d81bba1f992ea3b53e56ac078e08c346c1d5f7315de0465a659ec8cc78a",
    "cbi/ou/u1.2/fine":
        "55b7c39cdae5817d2339ed7be3457f58792eccf2869cc336ef43d5b842b552e0",
    "reactant/ou/u1.2/fine/single":
        "07b4a66f78760894f46ef07c6178dee3fe47976a7591b3dbfb36c6a0e4447e8a",
    "reactant/ou/u1.2/fine/single/limit":
        "38eca779a63dd1f86cead366458ca9a1d52f5d1ffbeff525b224a72f53442c35",
    "reactant/ou/u1.2/fine/pair":
        "54261b9df670b4bd8e0d059694d733bb6ad240be3ada795c917fd057d1ea8a1e",
    "reactant/ou/u1.2/fine/pair/limit":
        "ff436f8784d6f0baaa426f38c9d93921284d8d4fbf42723e8ee5b5b2795f77dc",
    "affine/cir/u16/coarse/all":
        "a61048d9232d69f545603577129543e2bfcb220981b9f41c3f854c8f778f3b04",
    "affine/cir/u16/coarse/plus":
        "a61048d9232d69f545603577129543e2bfcb220981b9f41c3f854c8f778f3b04",
    "catalytic/cir/u16/coarse":
        "d4b0ae9d3b05d271ca327e4562443f3ffd6dbf580957d70fd453026d23f3a205",
    "cbi/cir/u16/coarse":
        "79cff0926684199e47a26042670f18f7aa5ae92f0f945521021a46c662186401",
    "reactant/cir/u16/coarse/single":
        "ff6561e03d8f9f19b4d1fe5cbe00b1729c67677631d7863c5284c5073315b5a0",
    "reactant/cir/u16/coarse/single/limit":
        "13cd45fcddafc7d5fa3c0cc5c18e09678dc630da0c32ead6bacb2d71fc268c8a",
    "reactant/cir/u16/coarse/pair":
        "35b38d10cf554fe095edab668b712af07fe992d46f4d71f9241797ffa562b6a9",
    "reactant/cir/u16/coarse/pair/limit":
        "78c1ef7f58a3d3b9567af1e29d1135ac17facd3112888c6880011bd929c16714",
    "affine/cir/u16/fine/all":
        "a9cabde31f01f636130d891b0e17a52567138c51596511bcab09f5eadaf64ee7",
    "affine/cir/u16/fine/plus":
        "a9cabde31f01f636130d891b0e17a52567138c51596511bcab09f5eadaf64ee7",
    "catalytic/cir/u16/fine":
        "2392bace9ff5c2f7b808fee89213a714325245d77fad5f21f8d13a782e2268ae",
    "cbi/cir/u16/fine":
        "4fa29afad83ca18c52545942ca3f997ae09375a92e64c0617e4d42d16e436672",
    "reactant/cir/u16/fine/single":
        "94b7e9d6d7b7b4452b882e859cfffc60e906b34a9a44f1d14e9bfd51b737ba89",
    "reactant/cir/u16/fine/single/limit":
        "3a1e42d2d56cd416f09824d0fa41f73902870e9ea80c53cee03b2f9d438df157",
    "reactant/cir/u16/fine/pair":
        "e37a14a9b44109dffca369d1b3b794cd1ff603f83fa080ec53443e14ebdbf163",
    "reactant/cir/u16/fine/pair/limit":
        "4237c3be519a8c49bf511daee1f324e005a73a97630a730e60fe4c1cf46f0be2",
    "affine/cir/u1.2/coarse/all":
        "a61048d9232d69f545603577129543e2bfcb220981b9f41c3f854c8f778f3b04",
    "affine/cir/u1.2/coarse/plus":
        "a61048d9232d69f545603577129543e2bfcb220981b9f41c3f854c8f778f3b04",
    "catalytic/cir/u1.2/coarse":
        "d4b0ae9d3b05d271ca327e4562443f3ffd6dbf580957d70fd453026d23f3a205",
    "cbi/cir/u1.2/coarse":
        "79cff0926684199e47a26042670f18f7aa5ae92f0f945521021a46c662186401",
    "reactant/cir/u1.2/coarse/single":
        "ff6561e03d8f9f19b4d1fe5cbe00b1729c67677631d7863c5284c5073315b5a0",
    "reactant/cir/u1.2/coarse/single/limit":
        "13cd45fcddafc7d5fa3c0cc5c18e09678dc630da0c32ead6bacb2d71fc268c8a",
    "reactant/cir/u1.2/coarse/pair":
        "35b38d10cf554fe095edab668b712af07fe992d46f4d71f9241797ffa562b6a9",
    "reactant/cir/u1.2/coarse/pair/limit":
        "78c1ef7f58a3d3b9567af1e29d1135ac17facd3112888c6880011bd929c16714",
    "affine/cir/u1.2/fine/all":
        "a9cabde31f01f636130d891b0e17a52567138c51596511bcab09f5eadaf64ee7",
    "affine/cir/u1.2/fine/plus":
        "a9cabde31f01f636130d891b0e17a52567138c51596511bcab09f5eadaf64ee7",
    "catalytic/cir/u1.2/fine":
        "2392bace9ff5c2f7b808fee89213a714325245d77fad5f21f8d13a782e2268ae",
    "cbi/cir/u1.2/fine":
        "4fa29afad83ca18c52545942ca3f997ae09375a92e64c0617e4d42d16e436672",
    "reactant/cir/u1.2/fine/single":
        "94b7e9d6d7b7b4452b882e859cfffc60e906b34a9a44f1d14e9bfd51b737ba89",
    "reactant/cir/u1.2/fine/single/limit":
        "3a1e42d2d56cd416f09824d0fa41f73902870e9ea80c53cee03b2f9d438df157",
    "reactant/cir/u1.2/fine/pair":
        "e37a14a9b44109dffca369d1b3b794cd1ff603f83fa080ec53443e14ebdbf163",
    "reactant/cir/u1.2/fine/pair/limit":
        "4237c3be519a8c49bf511daee1f324e005a73a97630a730e60fe4c1cf46f0be2",
    "affine/jump_affine/u16/coarse/all":
        "10fa5797014b597898b4abcf3c9f9cc18b1db415035ced236b4c0c69479da7d5",
    "affine/jump_affine/u16/coarse/plus":
        "e2c3ca892d2f09d0a9043064dfd6cae42227fe29cdd1cbb35b585b9301801623",
    "catalytic/jump_affine/u16/coarse":
        "7545137540e667c02647e130cc557e2c41684ba51ab8cd511647cf03f367c1cd",
    "cbi/jump_affine/u16/coarse":
        "2f0d7c64f2aa74e634af9214b86601ddf45723b5dff61e9f178676586896d121",
    "reactant/jump_affine/u16/coarse/single":
        "75931b5eefbb4cb39cfcb216937ea1e43906b6086000bb876b53fb0f28cf1ba8",
    "reactant/jump_affine/u16/coarse/single/limit":
        "4d6749ee145f9f2c7c2123f6d122340a00b7cf0abca12d09df5944e7df90678e",
    "reactant/jump_affine/u16/coarse/pair":
        "6c5f50df54b0dac2016110888d53a56dc48aa3d07d55b23cd245ec4b9257c4aa",
    "reactant/jump_affine/u16/coarse/pair/limit":
        "f3cd54a28a0cc8667f7657a3c0843b0eddf260b65fe3568bf383a1f4aafa07c1",
    "affine/jump_affine/u16/fine/all":
        "213d73af1cc81893ce25c1bbc76e6c0e67dcc17cf409d92cb8112f170cfebaeb",
    "affine/jump_affine/u16/fine/plus":
        "1ed57fbd66d20665404fe6e9e9237a47aca3ccb535f864822651b8fad064a01e",
    "catalytic/jump_affine/u16/fine":
        "950f34df55c952477edf2183c3fbef43c4b69bce9a2f2ebd4ce7104d36fa8560",
    "cbi/jump_affine/u16/fine":
        "f3887f27a3a6b5cfd4f86ccb936af158388222cd4d8f529c3659ce3216dc6601",
    "reactant/jump_affine/u16/fine/single":
        "4d69793c04d80a6069c77098db636125545d93b369b0cff0f7f97559d51e1cac",
    "reactant/jump_affine/u16/fine/single/limit":
        "de6f9b7c424946b8c463d442c87b027da21678dc7b2d2b5d6a18571aa3908e45",
    "reactant/jump_affine/u16/fine/pair":
        "69e235d6de2191ca4d88b0867cb43d4ee57d34d7d45cbdf60ebce5002538268f",
    "reactant/jump_affine/u16/fine/pair/limit":
        "39b136fc5f865a07a11ce1ea531c2a399f350976033450cbfd9c6c97fd73170e",
    "affine/jump_affine/u1.2/coarse/all":
        "da0dbd4642a8012f09da4843979345eb149cbf984f2716f20c328aeac79ed1ee",
    "affine/jump_affine/u1.2/coarse/plus":
        "376a800ffb1e24b465bc1ea1ee7b7e2bac1f9ae77456096b25d5974609d8bba7",
    "catalytic/jump_affine/u1.2/coarse":
        "5913970b4eda8b8c1430392511f1107bc77e645340a9e22667eff56f461e5672",
    "cbi/jump_affine/u1.2/coarse":
        "fc93b720c6a88071b9d50c6c8243f0e2b94c6c977881646c95e0043abb0d2909",
    "reactant/jump_affine/u1.2/coarse/single":
        "abbb9a775f3982d792322cc3ff6d253b88aab6620e1cb10f02e3191882e8381f",
    "reactant/jump_affine/u1.2/coarse/single/limit":
        "6ea8f49fa29802be97ce5ecb415d6984716c0c4ef8d3edfb96b7e8eb68d973ed",
    "reactant/jump_affine/u1.2/coarse/pair":
        "6b04506ba911f833e2582a722379df455e77d884dbe3dc3b18e30dace2061fd0",
    "reactant/jump_affine/u1.2/coarse/pair/limit":
        "12998a74dd66a3352444f1574740a8df96a236a7898ae1e56d2e59f215d60b9e",
    "affine/jump_affine/u1.2/fine/all":
        "fcf0a0b14b59078fb8033226dfd4b70328a26ddfe9c9db25cb5b3221b885f1ab",
    "affine/jump_affine/u1.2/fine/plus":
        "4e5945ff6684d34de41af8ef0c8c3d94dd32ddbc54eb6a9d421bd2d2b3c7428b",
    "catalytic/jump_affine/u1.2/fine":
        "aaa8cbda173c84a7a79cb41193eef374990dd017ba06b659478b83cab31cc4a7",
    "cbi/jump_affine/u1.2/fine":
        "0dfb6c1272bcc8064c1b2aa7d57204274e89c04bc2b1216f51aa971f6f2a7030",
    "reactant/jump_affine/u1.2/fine/single":
        "f125bc2f2d2ebfd6e1c0a9f12559dfa9c1e94377039152a87fa8487d4b2214f5",
    "reactant/jump_affine/u1.2/fine/single/limit":
        "72dd1c5dc729ec63c3d02dfcad84286d3eede5c5ae8fc0b302e23a8c8296a4e8",
    "reactant/jump_affine/u1.2/fine/pair":
        "69ac52d8560004e516c6a863a74f1ffc116c1f6afa5bc0792b9bc486753ab62d",
    "reactant/jump_affine/u1.2/fine/pair/limit":
        "ee7fec9ab339b7b6fe9d3e0e701c90f3e5af31e4fae4d27c38047456e66dbd5a",
    "affine/symmetric_split/u16/coarse/all":
        "c1fc464efa00815424597d08daa0fcb1fb7c217b553a4d6fe7b97f7f3270dbdf",
    "affine/symmetric_split/u16/coarse/plus":
        "33b32a8229b7ae8dc1b9e1c73b991473dc3b3f85ade90a247e9a6693c61627bf",
    "catalytic/symmetric_split/u16/coarse":
        "cd0912be8a9f1e41068b7ab4c3c61c15e3b55fea4e9f8a663a2e099062e3832f",
    "cbi/symmetric_split/u16/coarse":
        "005737fd4c8c844b98d67cb64ee4a760d08ae2ea7ea1c165f57656d00932a1d6",
    "reactant/symmetric_split/u16/coarse/single":
        "b8d184d9d6dbb82029971106a5408a38fc5984f1e385c98055f581ed3e6b1517",
    "reactant/symmetric_split/u16/coarse/single/limit":
        "8299a48c4ae629c8d5e49a4b114ff2bf21cd4f4b7bae4151bc35728340e23f46",
    "reactant/symmetric_split/u16/coarse/pair":
        "6afbac3240386957a95ea6a51da13c0b602a11dfa40901f72b7f798b0841cf3c",
    "reactant/symmetric_split/u16/coarse/pair/limit":
        "76921181069df8ded4b00ca4f764b777fe30fe3f6eabc085c20bd61d20b1069f",
    "affine/symmetric_split/u16/fine/all":
        "df94c7eb765615f47068e68dc33f02e3ab20b5959edfea2c4f0d8c1b5fd3163f",
    "affine/symmetric_split/u16/fine/plus":
        "7e11896997d720e9dddf59e51d5de2b4457893316013c5f1f1170b823274af03",
    "catalytic/symmetric_split/u16/fine":
        "43041d85e73c5b8c77a382a9288be5c50a22268bb2a934cb8d049a2fb48c5117",
    "cbi/symmetric_split/u16/fine":
        "c77c9d35fe83a9a7ff391807f96cac709d101848504ea65a5a10f09a5c9c5a53",
    "reactant/symmetric_split/u16/fine/single":
        "4888f400db1ad9343ff874b165f02344f969a4901cdf98ec2e5bb0c6a612bb90",
    "reactant/symmetric_split/u16/fine/single/limit":
        "aab08911942d557a33da9152a9ba6f4302d1247599a78b6841710e4374570450",
    "reactant/symmetric_split/u16/fine/pair":
        "09f21104bf2ace5be9468215263d4d785a9b87cd13feea62487d54719d9661cb",
    "reactant/symmetric_split/u16/fine/pair/limit":
        "60c88120592509797a2bec4bf8968afcfd40df27915686927dda9ee444b6073d",
    "affine/symmetric_split/u1.2/coarse/all":
        "006eb556832f39183061dd57135d5382b17b7ae3f50d3849a2947ce15f0d16e7",
    "affine/symmetric_split/u1.2/coarse/plus":
        "32a735271a20249c64999d64aca5c409ea2d0ebbe4bd7e6d98d64e18d85f358a",
    "catalytic/symmetric_split/u1.2/coarse":
        "b97233d3dec5a364219bdbf24d0d714053acd52d63493bdbad6718eb4009f857",
    "cbi/symmetric_split/u1.2/coarse":
        "fc93b720c6a88071b9d50c6c8243f0e2b94c6c977881646c95e0043abb0d2909",
    "reactant/symmetric_split/u1.2/coarse/single":
        "4bd99664d6bcb4a30bea1b9f43f514e4e9238fa9a10578c64ca1d17641f60d85",
    "reactant/symmetric_split/u1.2/coarse/single/limit":
        "25d93d0727af7fd4415061ea80e3cc182f1e2f139f17c047d92f7b5ce7f874c1",
    "reactant/symmetric_split/u1.2/coarse/pair":
        "5d16432eb2b4a308783f5963c154259484a46c93a500f0d45dd517e5a675e804",
    "reactant/symmetric_split/u1.2/coarse/pair/limit":
        "514bd17a6c8d7472262436975701eb8128142cd9ec952bbba9ba243ba84635f9",
    "affine/symmetric_split/u1.2/fine/all":
        "f50d274c6f0060cf28967af6fb67e21b03e259d769242d4fda56c154d22aa365",
    "affine/symmetric_split/u1.2/fine/plus":
        "c55bd1faa432365a0de64453d4abbda6572133a3e12d55f20f106dd0da30fef7",
    "catalytic/symmetric_split/u1.2/fine":
        "8c4d06474af0b13c7e1325c822d8c3e9396f926496f35e0af321faf9937b6ba5",
    "cbi/symmetric_split/u1.2/fine":
        "0dfb6c1272bcc8064c1b2aa7d57204274e89c04bc2b1216f51aa971f6f2a7030",
    "reactant/symmetric_split/u1.2/fine/single":
        "00531a8c30460cc2fbec436f82b472111ca304ed0a04c2bcd7c066a67eba1e5a",
    "reactant/symmetric_split/u1.2/fine/single/limit":
        "92e1e3f8d4a6ed4230df618f1a81de31c3c9a7c540d2345a49e96cc3111972eb",
    "reactant/symmetric_split/u1.2/fine/pair":
        "75c17e8a3419a90fade6f3116bae9c19fe95fb282af2bb0112bde44cb6cea024",
    "reactant/symmetric_split/u1.2/fine/pair/limit":
        "b594cb13417580087ea311a0a7a0fd74e8fa77f82a79101f8fc6adacbda6842f",
    "affine/clamping/coarse":
        "634dad3fda061ab7fc8c1bfa2d13560488c46768a63b500baf0cb234e824cbeb",
    "catalytic/clamping/coarse":
        "cd8236dca5e530efd2730ee568a8caeacb7f908433875c9c59aefff972d62df5",
    "cbi/clamping/coarse":
        "14196cb7f773327d50f46a98b5276120065cf413ccd1de3f154b2a3359da35cb",
    "reactant/clamping/coarse/pair/limit":
        "b719a704f8f3b20764815c3f028db50b403926908c86c0ab6ab086ea88f8c91c",
    "reactant/clamping/coarse/single/limit":
        "9489db949809f9c6213f69096ef6039bc369b343beefd03fbd931878511b2ab9",
    "affine/clamping/fine":
        "3585c36719cd6b2b143f8f476c0e2323249ea09058cb9a8460650922344f435f",
    "catalytic/clamping/fine":
        "1ef90e2c49c0a0f411a9b010c19dadd2dad898d0f918d96d336d8fcd0e135954",
    "cbi/clamping/fine":
        "665aefca1d3b60a6ad7321da258e7c234bbc2955cd51ffab64ef124b6753fe44",
    "reactant/clamping/fine/pair/limit":
        "bc4171fc5c8f957b8edc50f2ffb0cd1cbd3dc30eab7425bab47be059cb40fd6d",
    "reactant/clamping/fine/single/limit":
        "affe2f25782e9e137e5a502f32c96b419f126d27dbfdbca5888796ff6718d6f5",
    "affine/clamping/coarse/dt0.01":
        "0acf75bc1180c1f1e1820f6d413a8c9139cc7a724b6c24081fa47bf3d65e58b6",
    "catalytic/clamping/coarse/dt0.01":
        "7f27f233df33b4fc3be73afec40fabf95422cb68e49251d0a7291d53b7e7adbe",
    "cbi/clamping/coarse/dt0.01":
        "e9df0ea7f2dda3ee7b03f75ca9ec5201c4631d284e3d7b7f8576c312690cf8f9",
    "reactant/clamping/coarse/dt0.01/pair/limit":
        "c49e82e0b20f50d740d63334fd66d58ab56a9b5195e1fec120515a1d6782041f",
    "reactant/clamping/coarse/dt0.01/single/limit":
        "f312baafd36354d23a287c6161724e354b8334b3d4bd2429aa8ef4bae748d2ad",
    "affine/dt0.01/u16":
        "0604c03cab593c76d1ab4af91ac86e0db3e7460ea3ae4713f8abc430d55ba6af",
    "catalytic/dt0.01/u16":
        "c8371713070c22feb1a99857ee34c0a8eb334faf5326638f248741620d1aafab",
    "cbi/dt0.01/u16":
        "6b02e7e3ecc57f6253acf7766feb1c1e6779481cf282f60a87405f59622b305a",
    "reactant/dt0.01/u16/pair/limit":
        "30f20d463dc14b568aed089d9bb22457b7eb5821e7c33cf155d96c215091b778",
    "affine/dt0.01/u1.2":
        "cde0c64b80d3cce5d5172b09d7e44e0893fa79cf2b5ae8ef5c29c206260b1a93",
    "catalytic/dt0.01/u1.2":
        "6b685570a9c1a877e747edd54b02da6b84773a3337c6972382f2a0dbfd928c02",
    "cbi/dt0.01/u1.2":
        "c6791f18bc0244a287d017ea7a7d5ae8e6a152e055230e43b17cba7f7b4e3918",
    "reactant/dt0.01/u1.2/pair/limit":
        "03e310bc33ba4b9363456b6af884bb3191959d8bbb9950fcbb14c7fec7e4c2a1",
}

CLI_DIGESTS = {
    "transform":
        "f54c687cc69f1c9e315e411a27e92500d035221f2929ac19166226b5b9c13d8a",
    "simulate-affine":
        "5efb120448381693ec05024ec4542a1c6ebc1abd51a1dc8a2ccfd743a973e7fe",
    "simulate-catalytic":
        "6097cd9e10e7c438fc57a313895db4d72dbcd3a3fb61b0897d663cfda2c76331",
    "simulate-reactant-single":
        "6b7c07fd5ed5e84ab13f6ec27a1bd9eb6e8d3b5fa4a08a8e3de353a353282976",
    "simulate-reactant-pair":
        "70434b80f81ed3dcb1746e65c8c7462607185782e6d5dd2bd6508ddce0884f46",
    "validate":
        "502015b9eb3d143296b1ca31e101f9c355e195b7c4df524eef43d3b1df0f87f6",
    "limit-single":
        "23ac69543e55e9ba334a30aabc72e3e34906bbef1ae2bc0356d1bc14109494a4",
    "limit-pair":
        "58e04b91261206314d5be40fee3376fccf6c23ea451625196df9155e8ed41438",
}

PRODUCT_EXPONENTIAL_NOISE_DIGEST = \
    "7ba24c9a486c6d168ad6993b87f39576592006c1edde27f98497250786d532a8"

TRANSFORM_LANES_DIGEST = \
    "55ed37b2d309a8a63a526560872c4f95cebaec6ac8071861f9e2faaa2f42228d"

DEMO_DIGESTS = {
    "cross_validation.py":
        "19517a92559da3c744be66d13a4e7ca6e8cab2835d76828206f9e2812a1d5a63",
    "fluctuation_ladder.py":
        "5992918bef40566407615ff4b348645d468ec6c82ec1f4317df0da2a677ee4e3",
    "simulate_paths.py":
        "2523682291a93f8dba3c696e9897b705acf0abbb8c46c8dd2bc49ddd8089d210",
    "transform_curves.py":
        "6e3ce0e6888ff70bba0072bf73497dcaaf4d6b3db894ad1d8bced12a8375e3d5",
}


def demo_digest(name) -> str:
    """SHA-256 of the stdout of ``demos/<name>`` run on this checkout."""
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         capture_output=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return hashlib.sha256(out.stdout).hexdigest()


# -- tests --------------------------------------------------------------------

def _family(name):
    return name.split("/")[0]


@pytest.mark.parametrize("family", ["affine", "catalytic", "cbi", "reactant"])
def test_kernel_digests_unchanged(family):
    cases = {n: fn for n, fn in kernel_cases().items() if _family(n) == family}
    pinned = {n: d for n, d in KERNEL_DIGESTS.items() if _family(n) == family}
    assert sorted(cases) == sorted(pinned)
    changed, aborted, clamped = [], 0, 0
    for name, fn in cases.items():
        result = fn()
        aborted += int(np.sum(~np.isnan(result[1])))
        clamped += int(np.sum(result[2]))
        if triple_digest(result) != pinned[name]:
            changed.append(name)
    assert changed == []
    assert aborted > 0 and clamped > 0     # both bookkeeping paths pinned


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_artifact_digests_unchanged(name, tmp_path):
    assert cli_digest(name, tmp_path) == CLI_DIGESTS[name]


def test_product_exponential_noise_unchanged():
    assert product_exponential_noise_digest() == \
        PRODUCT_EXPONENTIAL_NOISE_DIGEST


def test_benchmark_transform_lanes_unchanged():
    assert transform_lanes_digest() == TRANSFORM_LANES_DIGEST


def test_every_demo_is_pinned():
    assert sorted(DEMO_DIGESTS) == sorted(
        p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_unchanged(name):
    assert demo_digest(name) == DEMO_DIGESTS[name]


def _print_digests():
    print("KERNEL_DIGESTS = {")
    for name, fn in kernel_cases().items():
        print(f'    "{name}":\n        "{triple_digest(fn())}",')
    print("}\n\nCLI_DIGESTS = {")
    for name in CLI_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{name}":\n        "{cli_digest(name, Path(tmp))}",')
    print("}\n\nPRODUCT_EXPONENTIAL_NOISE_DIGEST = \\\n"
          f'    "{product_exponential_noise_digest()}"')
    print("\nTRANSFORM_LANES_DIGEST = \\\n"
          f'    "{transform_lanes_digest()}"')
    print("\nDEMO_DIGESTS = {")
    for name in DEMO_DIGESTS:
        print(f'    "{name}":\n        "{demo_digest(name)}",')
    print("}")


if __name__ == "__main__":
    sys.exit(_print_digests())
