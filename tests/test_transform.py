"""Transform solver against closed-form and quadrature oracles."""

import cmath
import importlib.util
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import affine_lab
from affine_lab.cli import _metadata, parse_config, write_transform_csv
from affine_lab.params import (FiniteAtomicMeasure, ProductExponentialMeasure,
                               UPoint, validate_admissible)
from affine_lab.presets import (builtin_params, cir_params,
                                jump_affine_params, ou_params)
from affine_lab.transform import (
    FlowResidual,
    TransformError,
    TransformSolution,
    char_fn,
    eval_F,
    eval_R,
    flow_residual,
    moment_functionals,
    solve_transforms,
)

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("ou", "cir", "jump_affine", "symmetric_split")


# -- F and R spot values ---------------------------------------------------

def test_eval_F_matches_hand_sum():
    p = jump_affine_params()
    u = UPoint(-1.0, 0.5j)
    # independent route: assemble F atom by atom
    expect = p.b[0] * u.u1 + p.b[1] * u.u2 + p.a * u.u2 ** 2
    for xi1, xi2, w in [(0.5, 0.3, 0.6), (1.2, -0.4, 0.3), (0.0, 0.8, 0.4)]:
        expect += w * (cmath.exp(u.u1 * xi1 + u.u2 * xi2) - 1 - u.u2 * xi2)
    assert eval_F(p, u.u1, u.u2) == pytest.approx(expect, abs=1e-14)


def test_eval_R_matches_hand_sum():
    p = jump_affine_params()
    u = UPoint(-0.5, 2.0j)
    al = p.alpha
    expect = (p.beta[0, 0] * u.u1 + p.beta[1, 0] * u.u2
              + al[0, 0] * u.u1 ** 2 + 2 * al[0, 1] * u.u1 * u.u2
              + al[1, 1] * u.u2 ** 2)
    for xi1, xi2, w in [(0.4, 0.2, 0.5), (0.9, -0.3, 0.25), (0.3, 0.6, 0.25)]:
        expect += w * (cmath.exp(u.u1 * xi1 + u.u2 * xi2) - 1
                       - u.u1 * xi1 - u.u2 * xi2)
    assert eval_R(p, u.u1, u.u2) == pytest.approx(expect, abs=1e-14)


def test_F_and_R_vanish_at_origin():
    for p in (ou_params(), cir_params(), jump_affine_params()):
        assert eval_F(p, 0j, 0j) == 0
        assert eval_R(p, 0j, 0j) == 0


# -- closed-form solutions -------------------------------------------------

def cir_psi1_oracle(u1, t, beta11, alpha11):
    """Separated-variables solution of psi' = beta11 psi + alpha11 psi^2."""
    if beta11 == 0.0:
        return u1 / (1.0 - alpha11 * u1 * t)
    e = math.exp(beta11 * t)
    return beta11 * u1 * e / (beta11 + alpha11 * u1 * (1.0 - e))


@pytest.mark.parametrize("u1", [-0.5, -1.0, -2.0])
@pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 2.0])
def test_cir_matches_separated_variables(u1, t):
    p = cir_params()
    (sol,) = solve_transforms(p, [UPoint(u1, 0.0)], [0.0, t], tol=1e-10)
    want = cir_psi1_oracle(u1, t, p.beta[0, 0], p.alpha[0, 0])
    assert sol.psi1[-1].imag == 0.0
    assert abs(sol.psi1[-1].real - want) < 1e-8


def test_cir_zero_mean_reversion_limit():
    p = validate_admissible(0.0, [[0.5, 0.0], [0.0, 0.0]], [1.0, 0.0],
                            np.zeros((2, 2)), FiniteAtomicMeasure([]),
                            FiniteAtomicMeasure([]))
    u1, t = -1.5, 0.8
    (sol,) = solve_transforms(p, [UPoint(u1, 0.0)], [0.0, t], tol=1e-10)
    assert abs(sol.psi1[-1] - cir_psi1_oracle(u1, t, 0.0, 0.5)) < 1e-8


@pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
def test_ou_phi_closed_form(z):
    p = ou_params()
    for t in (0.3, 1.0, 2.0):
        (sol,) = solve_transforms(p, [UPoint(0.0, 1j * z)], [0.0, t],
                                  tol=1e-9)
        want = -z * z * (1.0 - math.exp(-2.0 * t)) / 2.0
        assert abs(sol.psi1[-1]) == 0.0
        assert abs(sol.phi[-1] - want) < 1e-9


def test_zero_frequency_is_fixed_point():
    for p in (ou_params(), jump_affine_params()):
        (sol,) = solve_transforms(p, [UPoint(0.0, 0.0)],
                                  np.linspace(0, 2, 9))
        assert np.all(sol.psi1 == 0)
        assert np.all(sol.phi == 0)
        assert np.all(sol.psi2 == 0)


def test_psi2_is_exact_exponential():
    p = jump_affine_params()
    grid = np.linspace(0.0, 1.5, 7)
    (sol,) = solve_transforms(p, [UPoint(-1.0, 2.0j)], grid)
    assert np.array_equal(sol.psi2, np.exp(p.beta[1, 1] * grid) * 2.0j)


# -- char_fn properties ----------------------------------------------------

def test_char_fn_at_time_zero():
    p = jump_affine_params()
    u = UPoint(-0.5, 1.0j)
    x = (0.7, -0.3)
    assert char_fn(p, x, 0.0, u) == pytest.approx(
        cmath.exp(-0.5 * 0.7 + 1.0j * (-0.3)))


def test_char_fn_modulus_bounded_by_one():
    for p in (ou_params(), cir_params(), jump_affine_params()):
        for u in (UPoint(-1, 0), UPoint(0, 1j), UPoint(-0.5, 2j)):
            for t in (0.1, 0.5, 1.0):
                assert abs(char_fn(p, (0.8, 0.4), t, u)) <= 1.0 + 1e-12


def test_char_fn_conjugate_symmetry():
    p = jump_affine_params()
    u = UPoint(-0.4, 1.3j)
    a = char_fn(p, (0.5, -0.2), 0.7, u)
    b = char_fn(p, (0.5, -0.2), 0.7, u.conj())
    assert b == pytest.approx(a.conjugate(), rel=1e-10)


def test_homogeneous_regime_has_zero_phi():
    # no immigration: b = 0, a = 0, m empty -> F == 0 -> phi == 0
    p = validate_admissible(0.0, [[0.5, 0.1], [0.1, 0.4]], [0.0, 0.0],
                            [[-1.0, 0.0], [0.3, -0.5]], FiniteAtomicMeasure([]),
                            FiniteAtomicMeasure([(0.4, 0.2, 0.5)]))
    (sol,) = solve_transforms(p, [UPoint(-1.0, 1.0j)], [0.0, 0.5, 1.0])
    assert np.max(np.abs(sol.phi)) < 1e-12
    # char fn factorizes through the state only
    val = char_fn(p, (0.9, 0.1), 1.0, UPoint(-1.0, 1.0j))
    assert val == pytest.approx(
        cmath.exp(0.9 * sol.psi1[-1] + 0.1 * sol.psi2[-1]), rel=1e-9)


def test_char_fn_rejects_bad_state():
    with pytest.raises(ValueError):
        char_fn(jump_affine_params(), (-0.1, 0.0), 1.0, UPoint(-1, 0))


@pytest.mark.parametrize("x, t, name", [
    ((1.0, 0.0), math.inf, "t"), ((1.0, 0.0), math.nan, "t"),
    ((math.nan, 0.0), 1.0, r"x\[0\]"), ((1.0, -math.inf), 1.0, r"x\[1\]"),
])
def test_char_fn_rejects_non_finite_time_and_start(x, t, name):
    # an infinite time used to run the solver without end
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        char_fn(jump_affine_params(), x, t, UPoint(-1.0, 0.5j))


# -- flow identities -------------------------------------------------------

@pytest.mark.parametrize("r, t, name", [
    (math.inf, 0.5, "r"), (0.5, math.inf, "t"), (math.nan, 0.5, "r"),
    (0.5, math.nan, "t"),
])
def test_flow_residual_rejects_non_finite_times(r, t, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        flow_residual(jump_affine_params(), UPoint(-1.0, 0.5j), r, t)


def test_flow_residual_trivial_legs():
    p = jump_affine_params()
    u = UPoint(-1.0, 1.0j)
    res = flow_residual(p, u, 0.0, 0.7)
    assert res.psi < 1e-12 and res.phi < 1e-12
    res = flow_residual(p, u, 0.7, 0.0)
    assert res.psi < 1e-8 and res.phi < 1e-8


@pytest.mark.parametrize("maker", [ou_params, cir_params, jump_affine_params])
def test_flow_residual_small_on_presets(maker):
    p = maker()
    res = flow_residual(p, UPoint(-0.5, 2.0j), 0.5, 0.5, tol=1e-9)
    assert isinstance(res, FlowResidual)
    assert res.psi <= 1e-8
    assert res.phi <= 1e-8


def test_chapman_kolmogorov_through_char_fn():
    p = jump_affine_params()
    u = UPoint(-1.0, 1.0j)
    r, t, x = 0.6, 0.9, (0.8, -0.5)
    direct = char_fn(p, x, r + t, u)
    (sol_t,) = solve_transforms(p, [u], [0.0, t])
    v = UPoint(sol_t.psi1[-1], sol_t.psi2[-1])
    (sol_r,) = solve_transforms(p, [v], [0.0, r])
    composed = cmath.exp(x[0] * sol_r.psi1[-1] + x[1] * sol_r.psi2[-1]
                         + sol_r.phi[-1] + sol_t.phi[-1])
    assert abs(direct - composed) <= 1e-8


# -- domain handling -------------------------------------------------------

def test_psi1_real_part_stays_nonpositive():
    for p in (cir_params(), jump_affine_params()):
        u_list = (UPoint(-1, 0), UPoint(0, 2j), UPoint(-0.5, -1j))
        for sol in solve_transforms(p, u_list, np.linspace(0, 2, 33)):
            assert np.all(sol.psi1.real <= 0.0)
            assert np.all(sol.phi.real <= 0.0)


def test_solver_rejects_bad_tolerances_and_grids():
    p = ou_params()
    u = UPoint(-1, 0)
    with pytest.raises(ValueError):
        solve_transforms(p, [u], [0, 1], tol=1e-13)
    with pytest.raises(ValueError):
        solve_transforms(p, [u], [0, 1], tol=1e-3)
    with pytest.raises(ValueError):
        solve_transforms(p, [u], [0.5, 1.0])
    with pytest.raises(ValueError):
        solve_transforms(p, [u], [0.0, 1.0, 1.0])
    # a NaN time used to end in a step-size underflow, an infinite one
    # never to end
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^t_grid must be finite"):
            solve_transforms(p, [u], [0.0, 0.5, bad])


# -- the lane-batched Dormand-Prince stepper ------------------------------

def scipy_oracle(params, u, grid, tol):
    """``(psi1, phi, steps)`` from SciPy's RK45 on the same system, with
    SciPy's own arithmetic and no domain clamps."""
    beta22 = params.beta[1, 1]

    def rhs(s, y):
        p1, p2 = complex(y[0], y[1]), cmath.exp(beta22 * s) * u.u2
        dp, df = eval_R(params, p1, p2), eval_F(params, p1, p2)
        return (dp.real, dp.imag, df.real, df.imag)

    sol = integrate.solve_ivp(rhs, (0.0, grid[-1]),
                              [u.u1.real, u.u1.imag, 0.0, 0.0],
                              method="RK45", rtol=tol, atol=tol * 1e-3,
                              dense_output=True)
    assert sol.success
    y = sol.sol(grid)
    return y[0] + 1j * y[1], y[2] + 1j * y[3], len(sol.t) - 1


def assert_matches_scipy(params, u_list, grid, tol):
    for u, sol in zip(u_list, solve_transforms(params, u_list, grid, tol)):
        psi1, phi, steps = scipy_oracle(params, u, grid, tol)
        assert sol.steps_taken == steps
        assert np.max(np.abs(sol.psi1 - psi1)) <= tol
        assert np.max(np.abs(sol.phi - phi)) <= tol


PRESET_FREQUENCIES = [UPoint(-1.0, 0.0), UPoint(0.0, 2.0j),
                      UPoint(-0.5, -1.0j), UPoint(-2.0 + 3.0j, 0.7j)]


@pytest.mark.parametrize("preset", PRESETS)
def test_batch_matches_scipy_rk45_on_presets(preset):
    assert_matches_scipy(builtin_params(preset), PRESET_FREQUENCIES,
                         np.linspace(0.0, 2.0, 33), 1e-9)


def grid_workload_frequencies(seed):
    """The ``u_list`` of the benchmark's ``transform-grid`` workload."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "bench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    doc = sys.modules[name].config_doc("transform-grid", seed)
    return [UPoint(complex(*u1), complex(*u2))
            for u1, u2 in doc["transform"]["u_list"]]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batch_matches_scipy_rk45_on_benchmark_grid(seed):
    grid = np.arange(1025) * 2.0 ** -10
    assert_matches_scipy(jump_affine_params(), grid_workload_frequencies(seed),
                         grid, 1e-9)


def test_lane_alone_equals_its_lane_in_a_batch():
    p = jump_affine_params()
    u_list = grid_workload_frequencies(1)[:12]
    grid = np.linspace(0.0, 1.5, 49)
    batch = solve_transforms(p, u_list, grid)
    for u, in_batch in zip(u_list, batch):
        (alone,) = solve_transforms(p, [u], grid)
        assert alone.steps_taken == in_batch.steps_taken
        for name in ("psi1", "psi2", "phi"):
            assert getattr(alone, name).tobytes() == \
                getattr(in_batch, name).tobytes()


def test_batch_without_domain_enforcement():
    p = cir_params()
    grid = [0.0, 0.5, 1.0]
    lanes = [(1e-5, 0.0), (-1e-5, 0.0), (-1.0, 0.0)]
    batch = solve_transforms(p, lanes, grid, _enforce_domain=False)
    assert [s.u for s in batch] == [None, None, None]
    for u, sol in zip(lanes, batch):
        (alone,) = solve_transforms(p, [u], grid, _enforce_domain=False)
        assert np.array_equal(alone.psi1, sol.psi1)
    assert np.all(batch[0].psi1.real > 0.0)   # no clamp without the domain
    with pytest.raises(ValueError, match="u1 must have Re"):
        solve_transforms(p, lanes, grid)


def test_empty_batch_and_zero_horizon():
    p = jump_affine_params()
    assert solve_transforms(p, [], [0.0, 1.0]) == []
    sols = solve_transforms(p, [UPoint(-1.0, 1j), UPoint(0.0, 2j)], [0.0])
    assert [s.steps_taken for s in sols] == [0, 0]
    assert sols[1].psi2[0] == 2j and sols[0].phi[0] == 0


def test_divergent_lane_raises_value_error():
    nu = ProductExponentialMeasure(total_rate=1.0, rate1=2.0, rate2=3.0,
                                   sign_mix=0.6)
    with pytest.raises(ValueError, match="diverges"):
        nu.exp_integral(np.array([-1.0, 0.0, 2.5]), np.zeros(3))
    with pytest.raises(ValueError, match="diverges"):
        nu.exp_integral(np.zeros(2), np.array([0.0, 3.5 + 1j]))
    p = validate_admissible(0.0, [[0.5, 0.0], [0.0, 0.0]], [1.0, 0.0],
                            [[-1.0, 0.0], [0.0, -1.0]], nu, nu)
    with pytest.raises(ValueError, match="diverges"):
        solve_transforms(p, [(-1.0, 0.0), (2.5, 0.0)], [0.0, 1.0],
                         _enforce_domain=False)


def test_exp_integral_lanes_equal_scalar_calls():
    u1 = np.array([0.0, -1.0, -0.5 + 2.0j, -3.0])
    u2 = np.array([0.0, 1.5j, -0.7j, 0.0])
    full = dict(compensate_xi1=True, compensate_xi2=True)
    for nu in (jump_affine_params().m,
               ProductExponentialMeasure(1.3, 2.0, 3.0, 0.6)):
        lanes = nu.exp_integral(u1, u2, **full)
        assert lanes.shape == (4,) and lanes[0] == 0
        for i in range(4):
            assert lanes[i] == pytest.approx(
                nu.exp_integral(complex(u1[i]), complex(u2[i]), **full),
                abs=1e-15)


def test_step_size_underflow_raises_transform_error():
    # psi1' = psi1**2 / 2 from psi1(0) = 2 blows up at t = 1
    p = validate_admissible(0.0, [[0.5, 0.0], [0.0, 0.0]], [1.0, 0.0],
                            np.zeros((2, 2)), FiniteAtomicMeasure([]),
                            FiniteAtomicMeasure([]))
    with pytest.raises(TransformError,
                       match=r"u = \(\(2\+0j\), 0j\) after t=1:"):
        solve_transforms(p, [(-1.0, 0.0), (2.0, 0.0)], [0.0, 2.0],
                         _enforce_domain=False)


def test_char_fn_and_flow_residual_take_a_batch():
    p = jump_affine_params()
    u_list = [UPoint(-1.0, 1.0j), UPoint(-0.3, 2.0j)]
    x = (0.8, -0.5)
    for t in (0.0, 0.7):
        assert char_fn(p, x, t, u_list) == [char_fn(p, x, t, u)
                                            for u in u_list]
    assert flow_residual(p, u_list, 0.5, 0.25) == \
        [flow_residual(p, u, 0.5, 0.25) for u in u_list]
    # a pair is one frequency, as a UPoint is
    assert flow_residual(p, (-1.0, 1.0j), 0.5, 0.25) == \
        flow_residual(p, u_list[0], 0.5, 0.25)
    assert char_fn(p, x, 0.0, (-1.0, 1.0j)) == char_fn(p, x, 0.0, u_list[0])


def test_char_fn_and_flow_residual_take_an_empty_batch():
    p = jump_affine_params()
    for u in ([], ()):
        for t in (0.0, 0.7):
            assert char_fn(p, (0.8, -0.5), t, u) == []
        assert flow_residual(p, u, 0.5, 0.5) == []


def test_import_does_not_load_scipy():
    code = "import sys, affine_lab; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(affine_lab.__path__)))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"affine_lab.{module}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


# -- moment functionals ----------------------------------------------------

def _q12_ivp_oracle(beta, t):
    """Independent route: integrate q12' = beta21 e^{beta11 s} + beta22 q12."""
    b11, b21, b22 = beta[0][0], beta[1][0], beta[1][1]
    out = integrate.solve_ivp(
        lambda s, y: [b21 * math.exp(b11 * s) + b22 * y[0]],
        (0, t), [0.0], rtol=1e-12, atol=1e-14)
    return out.y[0][-1]


@pytest.mark.parametrize("beta", [
    [[-0.6, 0.0], [0.4, -0.8]],
    [[0.0, 0.0], [1.0, -1.0]],
    [[0.3, 0.0], [-0.7, 0.2]],
    [[-0.5, 0.0], [2.0, -0.5]],     # degenerate: beta11 == beta22
    [[0.0, 0.0], [1.3, 0.0]],       # doubly degenerate at zero
])
def test_q12_matches_ode_oracle(beta):
    p = validate_admissible(0.0, np.zeros((2, 2)), [0.0, 0.0], beta,
                            FiniteAtomicMeasure([]), FiniteAtomicMeasure([]))
    mf = moment_functionals(p)
    for t in (0.2, 1.0, 2.5):
        assert mf.q12(t) == pytest.approx(_q12_ivp_oracle(beta, t), abs=1e-9)


def test_q12_equal_rates_closed_form():
    # beta11 == beta22 == -0.5: q12(t) = beta21 * t * e^{-0.5 t}
    p = validate_admissible(0.0, np.zeros((2, 2)), [0.0, 0.0],
                            [[-0.5, 0.0], [2.0, -0.5]],
                            FiniteAtomicMeasure([]), FiniteAtomicMeasure([]))
    mf = moment_functionals(p)
    for t in (0.1, 1.0, 3.0):
        assert mf.q12(t) == pytest.approx(2.0 * t * math.exp(-0.5 * t), rel=1e-13)


def test_q12_near_degenerate_is_stable():
    # beta22 = beta11 + 1e-9 must agree with the degenerate formula to ~1e-12
    b11 = -0.4
    # b1 = 1 and b2 = 0 make h2(t) = int_0^t q12(s) ds exactly
    p = validate_admissible(0.0, np.zeros((2, 2)), [1.0, 0.0],
                            [[b11, 0.0], [1.0, b11 + 1e-9]],
                            FiniteAtomicMeasure([]), FiniteAtomicMeasure([]))
    mf = moment_functionals(p)
    for t in (0.5, 2.0):
        assert mf.q12(t) == pytest.approx(t * math.exp(b11 * t), rel=1e-7)
        assert mf.h2(t) == pytest.approx(
            integrate.quad(lambda s: mf.q12(s), 0, t)[0], rel=1e-9)


def test_h1_h2_match_quadrature():
    p = jump_affine_params()
    mf = moment_functionals(p)
    inflow = p.b[0] + 0.5 * 0.6 + 1.2 * 0.3  # b1 + int xi1 m(dxi)
    b11, b21, b22 = p.beta[0, 0], p.beta[1, 0], p.beta[1, 1]
    for t in (0.25, 1.0, 2.0):
        h1_oracle, _ = integrate.quad(lambda s: inflow * math.exp(b11 * s), 0, t)
        assert mf.h1(t) == pytest.approx(h1_oracle, abs=1e-11)
        q12_oracle = lambda s: b21 * (math.exp(b22 * s) - math.exp(b11 * s)) / (b22 - b11)
        h2_oracle, _ = integrate.quad(
            lambda s: inflow * q12_oracle(s) + p.b[1] * math.exp(b22 * s), 0, t)
        assert mf.h2(t) == pytest.approx(h2_oracle, abs=1e-10)


def test_q11_q12_cocycles():
    p = jump_affine_params()
    mf = moment_functionals(p)
    b22 = p.beta[1, 1]
    for r, t in [(0.3, 0.8), (1.1, 0.4), (2.0, 2.0)]:
        assert mf.q11(r + t) == pytest.approx(mf.q11(r) * mf.q11(t), rel=1e-12)
        assert mf.q12(r + t) == pytest.approx(
            mf.q11(r) * mf.q12(t) + mf.q12(r) * math.exp(b22 * t), rel=1e-11)
        assert mf.h2(r + t) == pytest.approx(
            mf.h1(r) * mf.q12(t) + mf.h2(r) * math.exp(b22 * t) + mf.h2(t),
            rel=1e-10)


def test_mean_helper_consistency():
    p = cir_params()
    mf = moment_functionals(p)
    ex, ez = mf.mean(1.0, 2.0, -1.0)
    assert ex == pytest.approx(2.0 * mf.q11(1.0) + mf.h1(1.0))
    assert ez == pytest.approx(2.0 * mf.q12(1.0) - math.exp(p.beta[1, 1]) + mf.h2(1.0))


@pytest.mark.parametrize("maker", [cir_params, jump_affine_params])
def test_transform_derivative_recovers_moment_functionals(maker):
    # d psi1 / d u1 at u = 0 equals q11; d phi / d u1 equals h1
    p = maker()
    mf = moment_functionals(p)
    h = 1e-5
    grid = [0.0, 0.5, 1.0]
    up, dn = solve_transforms(p, [(h, 0.0), (-h, 0.0)], grid,
                              _enforce_domain=False)
    dpsi = (up.psi1 - dn.psi1) / (2 * h)
    dphi = (up.phi - dn.phi) / (2 * h)
    for i, t in enumerate(grid):
        assert abs(dpsi[i] - mf.q11(t)) < 1e-6
        assert abs(dphi[i] - mf.h1(t)) < 1e-6


# -- CSV dump --------------------------------------------------------------

def test_transform_csv_round_trip(tmp_path):
    p = jump_affine_params()
    (sol,) = solve_transforms(p, [UPoint(-1.0, 1.5j)], np.linspace(0, 1, 5))
    path = tmp_path / "transform.csv"
    write_transform_csv(sol, path, parse_config("{}"))
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "t,re_psi1,im_psi1,re_psi2,im_psi2,re_phi,im_phi"
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in data[1:]])
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(parsed[:, 1], sol.psi1.real)
    assert np.array_equal(parsed[:, 6], sol.phi.imag)


def test_csv_rows_match_the_per_value_formatter(tmp_path):
    """The row template writes what ``f"{v:.17g}"`` wrote for each value."""
    edge = np.array([0.0, -0.0, 1.0, -1.0, 3.0, 5e-324, -5e-324,
                     2.2250738585072009e-308, 1e300, -1e300, 1e-300,
                     1.7976931348623157e308, 0.1, 1 / 3,
                     123456789012345680.0, 2.0 ** 53, -7.0])

    def cplx(re, im):
        z = np.empty(re.shape, dtype=complex)
        z.real, z.imag = re, im
        return z

    sol = TransformSolution(u=UPoint(-1.0, 0.5j), t_grid=edge,
                            psi1=cplx(edge, edge[::-1]),
                            psi2=cplx(-edge, np.roll(edge, 3)),
                            phi=cplx(np.roll(edge, 5), np.roll(edge, 9)),
                            tol_used=1e-9, steps_taken=0)
    path = tmp_path / "edge.csv"
    config = parse_config("{}")
    write_transform_csv(sol, path, config)
    rows = np.column_stack([sol.t_grid, sol.psi1.real, sol.psi1.imag,
                            sol.psi2.real, sol.psi2.imag, sol.phi.real,
                            sol.phi.imag])
    want = [",".join(f"{v:.17g}" for v in row) + "\n" for row in rows]
    text = path.read_text()
    assert text.endswith("".join(want))
    # metadata, u, tol and header lines first
    assert text.count("\n") == len(_metadata(config)) + 3 + len(want)
    assert want[1].startswith("-0,") and want[2].startswith("1,")
