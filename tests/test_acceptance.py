"""Acceptance gate: ten end-to-end criteria at fixed sizes and tolerances.

Each test records one ``ACCEPTANCE n <name>: PASS|FAIL`` line (re-emitted
after the run by the terminal-summary hook in ``conftest.py``, so the
summary survives output capture) and then asserts.  Monte Carlo criteria
use fixed seeds with honest statistical tolerances: three standard errors
plus a calibrated discretization budget.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from affine_lab.cli import main
from affine_lab.noise import generate_noise
from affine_lab.params import (FiniteAtomicMeasure, UPoint,
                               validate_admissible)
from affine_lab.presets import (cir_params, jump_affine_params, ou_params,
                                symmetric_split_params)
from affine_lab.sde import simulate_affine
from affine_lab.transform import flow_residual, solve_transforms
from affine_lab.validate import (check_affine_formula, check_generators,
                                 check_moments, fluctuation_experiment,
                                 uniqueness_experiment)

TOL = 1e-9

# the six standard test frequencies: Laplace directions, both oscillatory
# directions, a joint point, and a fully complex first argument
SIX_FREQUENCIES = (
    UPoint(-1.0, 0.0),
    UPoint(-2.0, 0.0),
    UPoint(0.0, 1j),
    UPoint(0.0, -1j),
    UPoint(-0.5, 2j),
    UPoint(-0.5 + 0.5j, 1j),
)

FLOW_GRID = {
    "r": (0.1, 0.5, 1.0),
    "t": (0.1, 0.5, 1.0),
    "u": (UPoint(-1.0, 0.0), UPoint(0.0, 1j), UPoint(-0.5, 2j)),
}


# one line per criterion, re-emitted post-capture by conftest.py
RESULT_LINES = []


def emit(number, name, passed):
    line = f"ACCEPTANCE {number:2d} {name}: {'PASS' if passed else 'FAIL'}"
    RESULT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


@pytest.fixture(scope="module")
def moment_report():
    return check_moments(jump_affine_params(), 1.0, 0.0, [0.5, 1.0],
                         n_paths=20_000, master_seed=55, dt=2.0 ** -8)


def test_criterion_01_transform_flow_property():
    worst = 0.0
    for params in (ou_params(), cir_params(), jump_affine_params()):
        for r in FLOW_GRID["r"]:
            for t in FLOW_GRID["t"]:
                for u in FLOW_GRID["u"]:
                    res = flow_residual(params, u, r, t, TOL)
                    worst = max(worst, res.psi, res.phi)
    emit(1, "transform flow property", worst <= 10.0 * TOL)


def test_criterion_02_cir_closed_form():
    params = cir_params()
    beta = params.beta[0, 0]
    alpha = params.alpha[0, 0]
    b1 = params.b[0]
    times = (0.25, 0.5, 1.0, 2.0)
    worst = 0.0
    u1_list = (-0.5, -1.0, -2.0)
    solutions = solve_transforms(params, [UPoint(u1, 0.0) for u1 in u1_list],
                                 np.array((0.0,) + times), tol=TOL)
    for u1, solution in zip(u1_list, solutions):
        for i, t in enumerate(times, start=1):
            # separated variables: with g(t) = beta + alpha*u1*(1 - e^{beta t}),
            # psi1 = beta*u1*e^{beta t}/g and phi = -(b1/alpha)*log(g/beta)
            g = beta + alpha * u1 * (1.0 - math.exp(beta * t))
            psi = beta * u1 * math.exp(beta * t) / g
            phi = -(b1 / alpha) * math.log(g / beta)
            worst = max(worst, abs(solution.psi1[i] - psi),
                        abs(solution.phi[i] - phi))
    emit(2, "CIR closed form", worst <= 1e-8)


def test_criterion_03_ou_closed_form():
    params = ou_params()
    a = params.a
    b22 = params.beta[1, 1]
    times = (0.5, 1.0, 2.0)
    worst = 0.0
    z_list = (0.5, 1.0, 2.0)
    # the 1e-9 budget is for the match against the exact formula, so the
    # solver itself runs two orders tighter
    solutions = solve_transforms(params, [UPoint(0.0, 1j * z) for z in z_list],
                                 np.array((0.0,) + times), tol=1e-11)
    for z, solution in zip(z_list, solutions):
        for i, t in enumerate(times, start=1):
            want = -z * z * (1.0 - math.exp(2.0 * b22 * t)) / (-2.0 * b22) * a
            worst = max(worst, abs(solution.phi[i] - want))
    emit(3, "OU closed form", worst <= 1e-9)


def test_criterion_04_affine_formula_monte_carlo():
    started = time.perf_counter()
    report = check_affine_formula(
        jump_affine_params(), 1.0, 0.0, [1.0], SIX_FREQUENCIES,
        n_paths=100_000, master_seed=2026, dt=2.0 ** -10)
    runtime = time.perf_counter() - started
    assert len(report.rows) == 6
    emit(4, "affine-formula Monte Carlo",
         report.overall and runtime <= 300.0)


def test_criterion_05_moment_laws(moment_report):
    rows = [row for row in moment_report.rows
            if not row.quantity.startswith("mean_x_bound")]
    times = {q.split("t=")[1] for q in (r.quantity for r in rows)}
    assert times == {"0.5", "1"}
    emit(5, "moment laws", all(row.passed for row in rows))


def test_criterion_06_gronwall_bound(moment_report):
    rows = [row for row in moment_report.rows
            if row.quantity.startswith("mean_x_bound")]
    assert len(rows) == 2 and all(row.sided == "upper" for row in rows)
    emit(6, "Gronwall bound", all(row.passed for row in rows))


def test_criterion_07_pathwise_uniqueness_and_contraction():
    params = jump_affine_params()
    # seeds 0..99 as one batch; each row is the one-path batch of its seed
    noise = generate_noise(params.m, params.mu, 1.0, 2.0 ** -8,
                           np.arange(100), 16.0)
    first, _, _ = simulate_affine(params, 1.0, 0.0, noise)
    second, _, _ = simulate_affine(params, 1.0, 0.0, noise)
    bitwise = all(np.array_equal(first[c], second[c]) for c in ("x", "z"))
    contraction = uniqueness_experiment(params, 1.0, 1.6, t_max=1.0,
                                        n_paths=2000, master_seed=77,
                                        dt=2.0 ** -8)
    emit(7, "pathwise uniqueness + contraction",
         bitwise and contraction.overall)


def test_criterion_08_generator_consistency():
    params = jump_affine_params()
    plan = {"affine": ((1.2, -0.4), (0.8, 2.0)),
            "cbi": (1.2, 0.8),
            "catalytic": ((1.2, 0.5), (0.8, 2.0))}
    ok = True
    for k in range(2):
        # one seed's modes in one call, each mode's report as if run alone
        reports = check_generators(
            params, {which: states[k] for which, states in plan.items()},
            n_paths=100_000, master_seed=314 + k, delta=2.0 ** -10)
        for which, report in zip(plan, reports):
            expected_rows = 4 if which == "cbi" else 9
            ok = ok and report.overall and len(report.rows) == expected_rows
    emit(8, "generator consistency", ok)


def test_criterion_09_fluctuation_ladder():
    started = time.perf_counter()
    ladder = [4.0, 16.0, 64.0, 256.0]
    single = fluctuation_experiment(jump_affine_params(), ladder,
                                    mode="single", n_paths=2000,
                                    master_seed=41, dt=2.0 ** -8)
    pair = fluctuation_experiment(symmetric_split_params(), ladder,
                                  mode="pair", n_paths=2000,
                                  master_seed=42, dt=2.0 ** -8)
    empty = FiniteAtomicMeasure([])
    deterministic = validate_admissible(
        0.0, [[0.0, 0.0], [0.0, 0.0]], [0.5, 1.0],
        [[0.0, 0.0], [0.0, -1.0]], empty, empty)
    rate = fluctuation_experiment(deterministic, ladder, mode="single",
                                  n_paths=2, master_seed=1, dt=2.0 ** -8,
                                  deterministic_rate_check=True)
    runtime = time.perf_counter() - started
    emit(9, "fluctuation ladder",
         single.overall and pair.overall and rate.overall
         and runtime <= 600.0)


def test_criterion_10_command_determinism(tmp_path):
    doc = {
        "params": {"preset": "symmetric_split"},
        "grid": {"t_max": 0.5, "dt": 2.0 ** -8},
        "mc": {"n_paths": 60, "seed": 13, "u_bound": 16.0},
        "validate": {"checks": ["semigroup", "moments"]},
        "limit": {"theta_ladder": [4.0, 16.0]},
        "simulate": {"n_saved_paths": 2},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    identical = True
    for command in ("transform", "simulate", "validate", "limit"):
        runs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{command}_{attempt}"
            status = main([command, "--config", str(config_path),
                           "--out", str(out)])
            identical = identical and status == 0
            runs.append({p.name: p.read_bytes()
                         for p in sorted(out.iterdir())})
        identical = identical and runs[0] == runs[1] and len(runs[0]) > 0
    emit(10, "command determinism", identical)
