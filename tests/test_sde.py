"""Simulator semantics: hand-stepped oracles, ODE limits, and couplings."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from affine_lab import noise as noise_module, sde
from affine_lab.cli import parse_config, write_paths_csv
from affine_lab.noise import (NoiseSystem, generate_noise, refine,
                              substream_seed, substream_seed_array)
from affine_lab.params import FiniteAtomicMeasure, ProductExponentialMeasure, \
    validate_admissible
from affine_lab.presets import (builtin_params, cir_params,
                                jump_affine_params, symmetric_split_params)
from affine_lab.sde import (
    ParameterSplit,
    ThinningBoundError,
    simulate_affine,
    simulate_catalytic,
    simulate_cbi,
    simulate_reactant_pair,
    CHUNK,
    run_ensemble,
)
from affine_lab.transform import moment_functionals

EMPTY = FiniteAtomicMeasure([])


def make_params(a=0.0, alpha=((0, 0), (0, 0)), b=(0, 0),
                beta=((0, 0), (0, 0)), m=None, mu=None):
    return validate_admissible(a, alpha, b, beta,
                               EMPTY if m is None else m,
                               EMPTY if mu is None else mu)


def manual_noise(t_max, dt, *, n0=(), n1=(), u_bound=10.0, eps=0.0,
                 n_components=3, brownian=None):
    """Hand-built one-path noise: rows (t, xi1, xi2) for N0, (t, xi1, xi2,
    u) for N1, and ``brownian`` of shape (n_components, n_steps), stored
    time-major as the system's ``(n_steps, n_components, 1)`` array."""
    n_steps = round(t_max / dt)
    b = np.zeros((n_components, n_steps)) if brownian is None \
        else np.asarray(brownian, dtype=float)
    e0 = np.asarray(n0, dtype=float).reshape(-1, 3)
    e1 = np.asarray(n1, dtype=float).reshape(-1, 4)
    return NoiseSystem(seeds=np.zeros(1, dtype=np.uint64), t_max=t_max,
                       dt=dt, u_bound=u_bound, eps=eps,
                       brownian=np.ascontiguousarray(b.T[:, :, np.newaxis]),
                       n0_path=np.zeros(len(e0), dtype=np.intp),
                       n0_times=e0[:, 0], n0_marks=e0[:, 1:3],
                       n1_path=np.zeros(len(e1), dtype=np.intp),
                       n1_times=e1[:, 0], n1_umarks=e1[:, 3],
                       n1_marks=e1[:, 1:3])


def path(result):
    """The components of the first path of a simulator's result."""
    comps, _, _ = result
    return {name: arr[0] for name, arr in comps.items()}


def affine_model(params, x0, z0):
    """The pair system as a ``run_ensemble`` model."""
    return lambda noise, keep: simulate_affine(params, x0, z0, noise,
                                               keep=keep)


def quiet_noise(t_max=1.0, dt=2.0 ** -8, **kw):
    return manual_noise(t_max, dt, **kw)


# -- hand-stepped jump semantics ------------------------------------------

class TestHandStepped:
    """Pin the exact per-step arithmetic against literal formulas."""

    def setup_method(self):
        self.m = FiniteAtomicMeasure([(1.0, -0.5, 2.0)])
        self.mu = FiniteAtomicMeasure([(0.5, 0.25, 4.0)])
        self.params = make_params(b=(0, 0), m=self.m, mu=self.mu)
        self.noise = manual_noise(
            1.0, 0.5,
            n0=[(0.3, 1.0, -0.5)],
            n1=[(0.4, 0.5, 0.25, 1.2), (0.9, 0.5, 0.25, 3.0)])

    def test_two_steps_by_hand(self):
        dt = 0.5
        mu_x1 = 0.5 * 4.0          # int xi1 dmu
        mu_x2 = 0.25 * 4.0
        m_x2 = -0.5 * 2.0
        out = path(simulate_affine(self.params, 2.0, 0.0, self.noise))
        x, z = out["x"], out["z"]
        # step 0: immigration adds 1.0; candidate umark 1.2 <= x=2 accepted
        x1 = 2.0 + 1.0 + 0.5 - dt * 2.0 * mu_x1
        z1 = 0.0 + (-0.5) - dt * m_x2 + 0.25 - dt * 2.0 * mu_x2
        assert x[1] == pytest.approx(x1, abs=1e-15)
        assert z[1] == pytest.approx(z1, abs=1e-15)
        # step 1: candidate umark 3.0 > x rejected; compensators continue
        x2 = max(x1 - dt * x1 * mu_x1, 0.0)
        z2 = z1 - dt * m_x2 - dt * x1 * mu_x2
        assert x[2] == pytest.approx(x2, abs=1e-15)
        assert z[2] == pytest.approx(z2, abs=1e-15)

    def test_half_open_step_window(self):
        # An event exactly at a grid time belongs to the step ending there.
        noise = manual_noise(1.0, 0.5, n0=[(0.5, 1.0, 0.0)])
        out = path(simulate_affine(make_params(m=self.m), 0.0, 0.0, noise))
        assert out["x"][1] == 1.0

    def test_positive_region_restriction(self):
        full = path(simulate_affine(self.params, 2.0, 0.0, self.noise))
        pos = path(simulate_affine(self.params, 2.0, 0.0, self.noise,
                                   z_region="plus"))
        # m's only mark is negative: with plus-restriction z skips the
        # jump and its compensator; x is untouched by the restriction.
        assert np.array_equal(full["x"], pos["x"])
        dt = 0.5
        z1 = 0.25 - dt * 2.0 * (0.25 * 4.0)
        assert pos["z"][1] == pytest.approx(z1, abs=1e-15)

    def test_acceptance_uses_step_start_state(self):
        # Both candidates in one step; the jump from the first must not
        # raise the threshold for the second within the same step.
        noise = manual_noise(1.0, 1.0, n1=[(0.4, 5.0, 0.0, 1.0),
                                           (0.6, 5.0, 0.0, 1.5)])
        params = make_params(mu=FiniteAtomicMeasure([(5.0, 0.0, 1.0)]))
        out = path(simulate_affine(params, 1.2, 0.0, noise))
        # x0 = 1.2 accepts umark 1.0, rejects 1.5 even though the first
        # jump lifted the state to 6.2.
        assert out["x"][1] == pytest.approx(
            1.2 + 5.0 - 1.0 * 1.2 * 5.0, abs=1e-14)

    def test_clamp_counts_negative_excursions(self):
        # Strong negative compensator drives x below zero pre-clamp.
        mu = FiniteAtomicMeasure([(10.0, 0.0, 1.0)])
        params = make_params(mu=mu)
        noise = manual_noise(1.0, 0.5, u_bound=100.0)
        comps, _, clamps = simulate_affine(params, 0.5, 0.0, noise)
        # step 0: x1 = 0.5 - 0.5*0.5*10 = -2 -> clamped
        assert comps["x"][0, 1] == 0.0
        assert clamps[0] >= 1


# -- deterministic ODE oracles --------------------------------------------

class TestOdeOracles:
    def test_affine_linear_ode(self):
        params = make_params(b=(1.0, 0.3), beta=((0, 0), (0.5, 0)))
        noise = quiet_noise()
        out = path(simulate_affine(params, 0.25, 1.0, noise))
        t = noise.grid
        x_exact = 0.25 + t
        z_exact = 1.0 + 0.3 * t + 0.5 * (0.25 * t + t * t / 2.0)
        assert np.allclose(out["x"], x_exact, atol=1e-12)
        assert np.max(np.abs(out["z"] - z_exact)) < 5 * noise.dt

    def test_cbi_constant_drift_exact(self):
        params = make_params(b=(1.0, 0.0))
        noise = quiet_noise()
        out = path(simulate_cbi(params, 0.0, 1.0, 1.0, 0.0, noise))
        assert np.allclose(out["x"], noise.grid, atol=1e-12)

    def test_catalytic_linear_ode(self):
        params = make_params(b=(1.0, 0.4), beta=((0, 0), (0.3, -0.5)))
        noise = quiet_noise()
        out = path(simulate_catalytic(params, 0.5, 0.7, 1.0, noise))

        def rhs(t, y):
            x = 0.5 + t
            return 0.4 + 0.3 * x * y[0] - 0.5 * y[0]

        ref = solve_ivp(rhs, (0.0, 1.0), [0.7], t_eval=noise.grid,
                        rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(out["y"] - ref.y[0])) < 5 * noise.dt

    def test_reactant_theta_cancellation(self):
        # With b2 = beta21 = 0 and no noise the centered variable solves
        # z' = beta22 z for every theta: the -theta*beta22 drift cancels.
        params = make_params(b=(0.5, 0.0), beta=((0, 0), (0, -1.0)))
        noise = quiet_noise()
        zs = []
        for theta in (4.0, 64.0):
            out = path(simulate_reactant_pair(params, theta, 1.0,
                                              theta + 0.3, 0.0, noise,
                                              mode="single"))
            zs.append(out["z_k"])
        # z is recovered from y = theta + z, so agreement across theta is
        # exact only up to roundoff that scales with theta.
        assert np.allclose(zs[0], zs[1], rtol=0.0, atol=1e-10)
        factor = 1.0 - noise.dt
        expect = 0.3 * factor ** np.arange(noise.n_steps + 1)
        assert np.allclose(zs[0], expect, rtol=1e-12)

    def test_reactant_deterministic_rate(self):
        # b2 > 0 makes the gap to the limit equation scale like 1/theta.
        params = make_params(b=(0.5, 1.0), beta=((0, 0), (0, -1.0)))
        noise = quiet_noise()
        sups = {}
        for theta in (4.0, 16.0):
            out = path(simulate_reactant_pair(params, theta, 1.0, theta,
                                              0.0, noise, mode="single"))
            lim = path(simulate_affine(params, 1.0, 0.0, noise,
                                       z_region="plus"))
            sups[theta] = np.max(np.abs(out["z_k"] - lim["z"]))
        ratio = sups[4.0] / sups[16.0]
        assert 3.6 < ratio < 4.4


# -- absorbing boundaries --------------------------------------------------

def test_x_absorbed_at_zero():
    m = FiniteAtomicMeasure([(0.0, 0.8, 0.4)])      # no xi1 mass
    params = make_params(a=1.0, alpha=((0.3, 0), (0, 0.2)), b=(0.0, 0.1),
                         beta=((0, 0), (0.2, -0.5)), m=m)
    noise = generate_noise(m, EMPTY, 1.0, 2.0 ** -6, 3, 1.0, 0.0)
    out = path(simulate_affine(params, 0.0, 0.5, noise))
    assert np.all(out["x"] == 0.0)
    assert np.std(out["z"]) > 0.0         # z still diffuses


def test_catalytic_reactant_absorbed():
    m = FiniteAtomicMeasure([(0.6, -0.4, 0.5)])     # no positive xi2 mass
    mu = FiniteAtomicMeasure([(0.3, 0.5, 0.5)])
    params = make_params(b=(1.0, 0.0), beta=((-0.5, 0), (0, -0.5)),
                         m=m, mu=mu)
    noise = generate_noise(m, mu, 1.0, 2.0 ** -6, 9, 8.0, 0.0)
    out = path(simulate_catalytic(params, 1.0, 0.0, 1.0, noise))
    assert np.all(out["y"] == 0.0)
    assert out["x"][-1] >= 0.0


# -- determinism and couplings ---------------------------------------------

def preset_noise(seed=5, dt=2.0 ** -8, u_bound=24.0):
    p = jump_affine_params()
    return p, generate_noise(p.m, p.mu, 1.0, dt, seed, u_bound, 0.0)


def test_bitwise_repeatability():
    p, noise = preset_noise()
    a = path(simulate_affine(p, 1.0, 0.5, noise))
    b = path(simulate_affine(p, 1.0, 0.5, noise))
    for name in ("x", "z"):
        assert np.array_equal(a[name], b[name])


def test_catalyst_shared_across_systems():
    p, noise = preset_noise()
    xa = path(simulate_affine(p, 1.0, 0.5, noise))["x"]
    xc = path(simulate_catalytic(p, 1.0, 0.8, 1.0, noise))["x"]
    xr = path(simulate_reactant_pair(p, 8.0, 1.0, 8.0, 8.0, noise))["x"]
    assert np.array_equal(xa, xc)
    assert np.array_equal(xa, xr)


def test_cbi_equals_affine_margin():
    """At theta0 = theta1 = l = 1 the scalar equation is the pair's first
    coordinate: the same arithmetic on the same noise, bit for bit."""
    for preset in ("ou", "cir", "jump_affine", "symmetric_split"):
        p = builtin_params(preset)
        noise = generate_noise(p.m, p.mu, 1.0, 2.0 ** -7,
                               substream_seed_array(5, np.arange(256)), 24.0,
                               0.0)
        cbi = simulate_cbi(p, 1.0, 1.0, 1.0, 1.0, noise)
        affine = simulate_affine(p, 1.0, 0.5, noise)
        assert cbi[0]["x"].tobytes() == affine[0]["x"].tobytes(), preset
        for got, want in zip(cbi[1:], affine[1:]):   # aborts, clamps
            assert got.tobytes() == want.tobytes(), preset


def test_monotone_coupling_in_initial_state():
    p = cir_params()
    for seed in range(60):
        noise = generate_noise(EMPTY, EMPTY, 1.0, 2.0 ** -7, seed, 1.0, 0.0)
        lo = path(simulate_affine(p, 1.0, 0.0, noise))["x"]
        hi = path(simulate_affine(p, 1.5, 0.0, noise))["x"]
        assert np.all(hi - lo >= 0.0)


def test_contraction_in_mean():
    p, _ = preset_noise()

    def coupled(noise, keep):
        lo, ab_lo, cl = simulate_affine(p, 1.0, 0.0, noise, keep=keep)
        hi, ab_hi, _ = simulate_affine(p, 1.6, 0.0, noise, keep=keep)
        comps = {"gap": np.abs(hi["x"] - lo["x"])}
        aborted = np.where(np.isnan(ab_lo), ab_hi, ab_lo)
        return comps, aborted, cl

    ens = run_ensemble(coupled, m=p.m, mu=p.mu, n_paths=2000,
                       master_seed=17, t_max=1.0, dt=2.0 ** -8,
                       u_bound=24.0, eps=0.0, keep_idx=[-1])
    gap = ens.components["gap"][:, 0]
    bound = 0.6 * np.exp(max(p.beta[0, 0], 0.0) * 1.0)
    slack = 3.0 * gap.std(ddof=1) / np.sqrt(len(gap)) + 50 * ens.dt
    assert gap.mean() <= bound + slack


def test_mean_matches_moment_functionals():
    p, _ = preset_noise()
    ens = run_ensemble(affine_model(p, 1.0, 0.5),
                       m=p.m, mu=p.mu, n_paths=4000, master_seed=23,
                       t_max=1.0, dt=2.0 ** -9, u_bound=24.0, eps=0.0,
                       keep_idx=[-1])
    mx, mz = moment_functionals(p).mean(1.0, 1.0, 0.5)
    for name, target in (("x", mx), ("z", mz)):
        vals = ens.components[name][:, 0]
        stderr = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - target) < 4.0 * stderr + 100 * ens.dt


def test_gronwall_mean_bound():
    p, _ = preset_noise()
    ens = run_ensemble(affine_model(p, 1.0, 0.5),
                       m=p.m, mu=p.mu, n_paths=2000, master_seed=29,
                       t_max=1.0, dt=2.0 ** -8, u_bound=24.0, eps=0.0)
    m1 = p.m.poly_moment(1, 0)
    beta_bar = max(p.beta[0, 0], 0.0)
    for idx in (64, 128, 256):
        t = ens.times[idx]
        vals = ens.components["x"][:, idx]
        bound = (1.0 + t * p.b[0] + t * m1) * np.exp(t * beta_bar)
        stderr = vals.std(ddof=1) / np.sqrt(len(vals))
        assert vals.mean() <= bound + 3.0 * stderr


# -- variation of constants ------------------------------------------------

def voc_z(params, x_path, z0, noise):
    """Oracle for ``z`` of one path: the variation-of-constants
    (integrating-factor) form on the noise grid, fed the same Brownian
    increments, events and acceptance decisions as the direct scheme, the
    candidates thinned against the given ``x`` path."""
    assert noise.n_paths == 1
    dt, eps, grid = noise.dt, noise.eps, noise.grid
    b2 = params.b[1]
    b21, b22 = params.beta[1, 0], params.beta[1, 1]
    s21, s22 = params.sigma[1]
    rt2s0 = math.sqrt(2.0) * params.sigma0
    m_z = params.m.poly_moment(0, 1, eps=eps)
    mu_z = params.mu.poly_moment(0, 1, eps=eps)
    # an event at time t falls in the step (t_k, t_{k+1}] holding it
    step0 = np.searchsorted(grid, noise.n0_times, side="left") - 1
    step1 = np.searchsorted(grid, noise.n1_times, side="left") - 1
    weight = np.exp(-b22 * grid[:-1])           # integrating factor at t_k

    z = np.empty(noise.n_steps + 1)
    z[0] = z0
    acc_sum = 0.0
    for k in range(noise.n_steps):
        xk = x_path[k]
        db = noise.increment(k)[:, 0]
        inc = dt * (b2 + b21 * xk) \
            + rt2s0 * db[0] \
            + math.sqrt(2.0 * max(xk, 0.0)) * (s21 * db[1] + s22 * db[2])
        inc += noise.n0_marks[step0 == k, 1].sum()
        inc -= dt * m_z
        here = step1 == k
        acc = noise.n1_umarks[here] <= xk
        inc += noise.n1_marks[here, 1][acc].sum()
        inc -= dt * xk * mu_z
        acc_sum += weight[k] * inc
        z[k + 1] = math.exp(b22 * grid[k + 1]) * (z0 + acc_sum)
    return z


def test_voc_trivial_integrator():
    params = make_params(b=(1.0, 0.3), beta=((0, 0), (0.5, 0)))
    noise = quiet_noise()
    x = path(simulate_affine(params, 0.25, 1.0, noise))["x"]
    z = voc_z(params, x, 1.0, noise)
    assert z[0] == 1.0
    t = noise.grid
    exact = 1.0 + 0.3 * t + 0.5 * (0.25 * t + t * t / 2)
    assert np.max(np.abs(z - exact)) < 5 * noise.dt


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_voc_consistency_improves_with_dt(seed):
    p = jump_affine_params()
    noise = generate_noise(p.m, p.mu, 1.0, 2.0 ** -7, seed, 24.0, 0.0)
    gaps = []
    for ns in (noise, refine(noise)):
        out = path(simulate_affine(p, 1.0, 0.5, ns))
        z = voc_z(p, out["x"], 0.5, ns)
        gaps.append(np.max(np.abs(z - out["z"])))
    assert gaps[0] / gaps[1] > 1.3


# -- aborts, retries, stability --------------------------------------------

def test_u_bound_abort_records_time():
    p, _ = preset_noise()
    noise = generate_noise(p.m, p.mu, 1.0, 2.0 ** -6, 11, 1.5, 0.0)
    comps, aborted, _ = simulate_affine(p, 2.0, 0.0, noise)  # x0 above it
    assert aborted[0] == 0.0
    assert np.isnan(comps["x"][0, 1:]).all()
    assert np.isnan(comps["z"][0, -1])


def test_run_ensemble_retries_with_doubled_bound():
    p, _ = preset_noise()
    ens = run_ensemble(affine_model(p, 1.0, 0.0),
                       m=p.m, mu=p.mu, n_paths=64, master_seed=3,
                       t_max=1.0, dt=2.0 ** -8, u_bound=2.0, eps=0.0,
                       keep_idx=[-1])
    assert ens.n_retried > 0
    assert np.isfinite(ens.components["x"]).all()


def test_run_ensemble_raises_when_bound_stays_small(monkeypatch):
    p, _ = preset_noise()
    monkeypatch.setattr(sde, "MAX_DOUBLINGS", 1)
    with pytest.raises(ThinningBoundError, match="after 1 doublings"):
        run_ensemble(affine_model(p, 30.0, 0.0),
                     m=p.m, mu=p.mu, n_paths=8, master_seed=3,
                     t_max=1.0, dt=2.0 ** -8, u_bound=1.0, eps=0.0)


@pytest.mark.parametrize("n_paths", [0, -3])
@pytest.mark.parametrize("several", [False, True])
def test_run_ensemble_rejects_fewer_than_one_path(monkeypatch, n_paths,
                                                  several):
    p, _ = preset_noise()
    model = affine_model(p, 1.0, 0.0)
    if several:             # one model with two results
        model = lambda noise, keep, one=model: [one(noise, keep),
                                                one(noise, keep)]

    def draw(*args):
        raise AssertionError("noise was drawn")

    monkeypatch.setattr(sde, "generate_noise", draw)
    with pytest.raises(ValueError, match="n_paths must be at least 1"):
        run_ensemble(model, m=p.m, mu=p.mu, n_paths=n_paths, master_seed=3,
                     t_max=1.0, dt=2.0 ** -8, u_bound=16.0, eps=0.0)


@pytest.fixture
def no_stream(monkeypatch):
    """Make opening any Philox stream fail: a path's noise is drawn from
    its streams, so a rule that fires first raises its own error."""
    def refuse(*args):
        raise AssertionError("a noise stream was opened")
    monkeypatch.setattr(noise_module, "_stream", refuse)


@pytest.mark.parametrize("n_fine", [-1, 9])
def test_run_ensemble_rejects_n_fine_out_of_range(no_stream, n_fine):
    """``n_fine`` outside ``[0, n_paths]`` is refused before any noise is
    drawn: above ``n_paths`` the coupled ensemble would be labelled with
    more paths than it stacks."""
    p = jump_affine_params()
    with pytest.raises(ValueError, match=rf"^n_fine must lie in \[0, "
                                         rf"n_paths = 8\], got {n_fine}$"):
        run_ensemble(affine_model(p, 1.0, 0.0), m=p.m, mu=p.mu, n_paths=8,
                     master_seed=3, t_max=1.0, dt=2.0 ** -8, u_bound=16.0,
                     eps=0.0, n_fine=n_fine)


def test_stability_refusal():
    params = make_params(beta=((-8.0, 0), (0, -1.0)))
    noise = quiet_noise(dt=2.0 ** -4)
    with pytest.raises(ValueError, match="stability"):
        simulate_affine(params, 1.0, 0.0, noise)


def test_reactant_rejects_nonnegative_beta22():
    params = make_params(beta=((0, 0), (0, 0.5)))
    # the value prints as a plain float, not as np.float64(0.5)
    with pytest.raises(ValueError,
                       match=r"^reactant scaling requires beta22 < 0, "
                             r"got 0\.5$"):
        simulate_reactant_pair(params, 4.0, 1.0, 4.0, 4.0, quiet_noise())


def test_catalytic_rejects_negative_b2():
    params = make_params(b=(1.0, 0.0), beta=((0, 0), (0, -1.0)))
    object.__setattr__(params, "b", np.array([1.0, -0.2]))
    with pytest.raises(ValueError,
                       match=r"^catalytic reactant requires b2 >= 0, "
                             r"got -0\.2$"):
        simulate_catalytic(params, 1.0, 1.0, 1.0, quiet_noise())


# -- ensembles are scalar runs, stacked ------------------------------------

@pytest.mark.parametrize("kernel", ["affine", "cbi", "catalytic", "reactant"])
def test_ensemble_reproduces_scalar_paths(kernel):
    # Row i of a batch is the one-path batch of seed i, aborts and clamp
    # counts included; at u_bound 1.2 some paths abort.
    p, batch = aborting_noise(False)
    run = batch_kernels(p)[kernel]
    comps, aborted, clamps = run(batch, None)
    assert 0 < np.isnan(aborted).sum() < batch.n_paths
    for i in range(batch.n_paths):
        one = generate_noise(p.m, p.mu, 1.0, batch.dt, batch.seeds[i:i + 1],
                             batch.u_bound, 0.0)
        comps_i, aborted_i, clamps_i = run(one, None)
        assert sorted(comps_i) == sorted(comps)
        for name, arr in comps.items():
            assert arr[i:i + 1].tobytes() == comps_i[name].tobytes()
        assert aborted[i:i + 1].tobytes() == aborted_i.tobytes()
        assert clamps[i] == clamps_i[0]


@pytest.mark.parametrize("master_seed", [-1, 2 ** 64])
def test_ensemble_rejects_out_of_range_master_seed(master_seed):
    p, _ = preset_noise()
    with pytest.raises(ValueError,
                       match=f"master_seed {master_seed} is outside"):
        run_ensemble(affine_model(p, 1.0, 0.5),
                     m=p.m, mu=p.mu, n_paths=2, master_seed=master_seed,
                     t_max=1.0, dt=2.0 ** -4, u_bound=24.0, eps=0.0)


def test_chunk_boundary_paths_match_scalar_runs():
    p, _ = preset_noise()
    master, dt = 17, 2.0 ** -8
    ens = run_ensemble(affine_model(p, 1.0, 0.5),
                       m=p.m, mu=p.mu, n_paths=CHUNK + 3, master_seed=master,
                       t_max=dt, dt=dt, u_bound=24.0, eps=0.0)
    for i in (CHUNK - 1, CHUNK, CHUNK + 2):
        noise = generate_noise(p.m, p.mu, dt, dt, substream_seed(master, i),
                               24.0, 0.0)
        out = path(simulate_affine(p, 1.0, 0.5, noise))
        assert np.array_equal(ens.components["x"][i], out["x"])
        assert np.array_equal(ens.components["z"][i], out["z"])


def test_ensemble_counts_clamps_of_kept_attempts():
    # no drift at zero and a strong first diffusion: starts near zero step
    # below it, and u_bound = 2 makes some paths retry
    p = validate_admissible(
        a=0.2, alpha=[[0.8, 0.1], [0.1, 0.4]], b=[0.0, 0.0],
        beta=[[-0.6, 0.0], [0.4, -0.8]],
        m=FiniteAtomicMeasure([(0.5, 0.3, 0.6), (0.0, -0.8, 0.4)]),
        mu=FiniteAtomicMeasure([(0.4, 0.2, 0.5), (0.9, -0.3, 0.25)]))
    master, dt, n = 5, 2.0 ** -6, 40
    ens = run_ensemble(affine_model(p, 0.01, 0.0),
                       m=p.m, mu=p.mu, n_paths=n, master_seed=master,
                       t_max=1.0, dt=dt, u_bound=2.0, eps=0.0)
    expected = 0
    for i in range(n):
        bound = 2.0
        while True:
            noise = generate_noise(p.m, p.mu, 1.0, dt,
                                   substream_seed(master, i), bound, 0.0)
            _, aborted, clamps = simulate_affine(p, 0.01, 0.0, noise)
            if np.isnan(aborted[0]):
                break
            bound *= 2.0
        expected += clamps[0]
    assert ens.n_retried > 0
    assert ens.n_clamped == expected > 0


# -- reactant pair details -------------------------------------------------

def test_pair_mode_splits_and_reassembles():
    p, noise = preset_noise()
    split = ParameterSplit.from_params(p)
    split.check_against(p)
    out = path(simulate_reactant_pair(p, 16.0, 1.0, 16.0, 16.0, noise,
                                      mode="pair", split=split))
    zk = out["z_k"]
    assert np.array_equal(zk, out["y_plus"] - out["y_minus"])
    assert np.all(out["y_plus"] >= 0.0)
    assert np.all(out["y_minus"] >= 0.0)


def test_bad_split_rejected():
    p, _ = preset_noise()
    split = ParameterSplit.from_params(p)
    broken = ParameterSplit(**{**split.__dict__, "b2_pos": split.b2_pos + 1})
    with pytest.raises(ValueError, match="reassemble"):
        simulate_reactant_pair(p, 4.0, 1.0, 4.0, 4.0, preset_noise()[1],
                               mode="pair", split=broken)


def test_negative_split_part_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        ParameterSplit(-0.1, 0, 0, 0, 0, 0, 0, 0, 0, 0)


def test_minus_reactant_reads_flipped_marks():
    # One lower-quadrant immigration mark: y_minus jumps by |xi2|.
    m = FiniteAtomicMeasure([(0.2, -0.7, 1.0)])
    params = make_params(b=(0.0, 0.0), beta=((0, 0), (0, -0.1)), m=m)
    noise = manual_noise(1.0, 0.5, n0=[(0.2, 0.2, -0.7)])
    theta = 4.0
    out = path(simulate_reactant_pair(params, theta, 0.0, theta, theta,
                                      noise, mode="pair"))
    dt = 0.5
    # y_plus sees no plus-quadrant marks, and at y = theta the drift
    # -theta*beta22 + beta22*y cancels: it stays put.
    assert out["y_plus"][1] == pytest.approx(theta)
    # y_minus adds |xi2| = 0.7 and subtracts the band compensator dt*0.7.
    assert out["y_minus"][1] == pytest.approx(
        theta + 0.7 - dt * 0.7)


def test_fused_limit_gap_matches_components():
    p, noise = preset_noise(seed=31)
    comps, aborted, _ = simulate_reactant_pair(
        p, 16.0, 1.0, 16.0, 16.0, noise, "pair", None,
        with_limit=True, z0=0.0)
    assert np.isnan(aborted[0])
    gap = np.max(np.abs(comps["z_k"][0] - comps["z_lim"][0]))
    assert comps["gap"][0, 0] == pytest.approx(gap, rel=1e-12)


def test_fused_limit_equals_direct_affine():
    p, noise = preset_noise(seed=37)
    comps, _, _ = simulate_reactant_pair(
        p, 16.0, 1.0, 16.0, 16.0, noise, "pair", None,
        with_limit=True, z0=0.25)
    direct = path(simulate_affine(p, 1.0, 0.25, noise))
    assert np.array_equal(comps["z_lim"][0], direct["z"])


# -- recording only the kept grid points ----------------------------------

def aborting_noise(refined):
    """64 paths of the jump preset at u_bound 1.2, where many abort."""
    p = jump_affine_params()
    noise = generate_noise(p.m, p.mu, 1.0, 2.0 ** -6,
                           substream_seed_array(7, np.arange(64)), 1.2, 0.0)
    return p, refine(noise) if refined else noise


def batch_kernels(p):
    """The four simulators as ``(noise, keep) -> triple``."""
    return {
        "affine": lambda ns, keep: simulate_affine(p, 1.0, 0.3, ns, keep=keep),
        "cbi": lambda ns, keep: simulate_cbi(p, 1.0, 0.7, 1.6, 1.0, ns, keep),
        "catalytic": lambda ns, keep: simulate_catalytic(p, 1.0, 0.8, 1.3,
                                                         ns, keep),
        "reactant": lambda ns, keep: simulate_reactant_pair(
            p, 4.0, 1.0, 4.25, 4.0, ns, "pair", None, with_limit=True,
            z0=0.25, keep=keep),
    }


@pytest.mark.parametrize("refined", [False, True])
@pytest.mark.parametrize("kernel", ["affine", "cbi", "catalytic", "reactant"])
def test_kept_columns_equal_full_paths(kernel, refined):
    p, noise = aborting_noise(refined)
    run = batch_kernels(p)[kernel]
    full, aborted_full, clamps_full = run(noise, None)
    n = noise.n_steps
    keep = np.array([n, 3, 0, n // 2, 1, n - 1, 3])     # unsorted, a repeat
    kept, aborted, clamps = run(noise, keep)
    assert 0 < (~np.isnan(aborted_full)).sum() < noise.n_paths
    assert aborted.tobytes() == aborted_full.tobytes()
    assert clamps.tobytes() == clamps_full.tobytes()
    assert sorted(kept) == sorted(full)
    assert np.isnan(kept["x"]).any()
    for name, arr in full.items():
        want = arr if name == "gap" else arr[:, keep]
        assert kept[name].shape == want.shape
        assert kept[name].tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["single", "pair"])
def test_limit_gap_is_the_sup_over_full_paths(mode):
    p, noise = aborting_noise(False)
    comps, aborted, _ = simulate_reactant_pair(
        p, 4.0, 1.0, 4.25, 4.0, noise, mode, None, with_limit=True, z0=0.25)
    sup = np.abs(comps["z_k"][:, 1:] - comps["z_lim"][:, 1:]).max(axis=1)
    want = np.where(np.isnan(aborted), sup, np.nan)
    assert np.isnan(want).any() and not np.isnan(want).all()
    assert comps["gap"][:, 0].tobytes() == want.tobytes()


@pytest.mark.parametrize("mode, z0", [("pair", 0.25), ("single", -0.5)])
def test_reactant_ladder_equals_one_rung_runs(mode, z0):
    """The rungs of a ladder run as copies of one step loop; each equals
    its one-rung run bit for bit, aborts and clamps included, although
    scale and starts differ per copy and the rungs abort different
    paths."""
    p, noise = aborting_noise(False)
    ladder = [2.0, 4.0, 16.0]
    starts = [sde._reactant_starts(theta, z0, mode) for theta in ladder]
    y_plus0, y_minus0 = zip(*starts)
    kw = dict(with_limit=True, z0=z0, keep=None)
    rungs = simulate_reactant_pair(p, ladder, 1.0, y_plus0, y_minus0, noise,
                                   mode, **kw)
    assert len(rungs) == len(ladder)
    aborts = set()
    for theta, (yp, ym), got in zip(ladder, starts, rungs):
        want = simulate_reactant_pair(p, theta, 1.0, yp, ym, noise, mode,
                                      **kw)
        assert sorted(got[0]) == sorted(want[0])
        for name, arr in want[0].items():
            assert got[0][name].shape == arr.shape
            assert got[0][name].tobytes() == arr.tobytes(), name
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()
        assert 0 < (~np.isnan(got[1])).sum() < noise.n_paths
        aborts.add(got[1].tobytes())
    assert len(aborts) == len(ladder)        # each rung aborts other paths


def test_ladder_advances_shared_coordinates_once(monkeypatch):
    """The catalyst and the limit equation read no per-rung value, so a
    ladder advances them once for all rungs: their updates are
    ``(n_paths,)`` arrays and only the reactants' are ``(rungs,
    n_paths)``."""
    shapes = {}
    step_loop = sde._step_loop

    def spy(noise, coords, *args):
        def watched(c):
            def euler(s, dB, k):
                new = c.euler(s, dB, k)
                shapes.setdefault(c.name, set()).update(
                    {s[c.name].shape, new.shape})
                return new
            return dataclasses.replace(c, euler=euler)
        return step_loop(noise, [watched(c) for c in coords], *args)
    monkeypatch.setattr(sde, "_step_loop", spy)
    p = symmetric_split_params()
    n = 50
    noise = generate_noise(p.m, p.mu, 1.0, 2.0 ** -6, np.arange(n), 16.0,
                           0.0)
    ladder = [4.0, 16.0, 64.0, 256.0]
    rungs = simulate_reactant_pair(p, ladder, 1.0, ladder, ladder, noise,
                                   with_limit=True, z0=0.0, keep=[-1])
    assert shapes == {"x": {(n,)}, "z_lim": {(n,)},
                      "y_plus": {(4, n)}, "y_minus": {(4, n)}}
    assert [rung[0]["x"].shape for rung in rungs] == [(n, 1)] * 4


@pytest.mark.parametrize("n_steps", [4, 1 << 17])
def test_event_table_order_equals_step_path_key(n_steps):
    """The table sorts by step alone, stably, in the smallest unsigned type
    that holds ``n_steps`` (``uint8`` and ``uint32`` here).  That gives
    the ``(step, path)`` key's permutation, also where a path has several
    events in one step."""
    p = jump_affine_params()
    ns = generate_noise(p.m, p.mu, 1.0, 0.25, range(5), 16.0, 0.0)
    ns = dataclasses.replace(ns, dt=1.0 / n_steps, brownian=np.broadcast_to(
        ns.brownian[:1], (n_steps, 3, 5)))
    for which in ("n0", "n1"):
        path = getattr(ns, which + "_path")
        marks = getattr(ns, which + "_marks")
        step = np.searchsorted(ns.grid, getattr(ns, which + "_times"),
                               side="left") - 1
        order = np.argsort(step * ns.n_paths + path, kind="stable")
        table = sde._EventTable(ns, which)
        assert np.array_equal(table.path, path[order])
        assert np.array_equal(table.xi1, marks[order, 0])
        assert np.array_equal(table.xi2, marks[order, 1])
        if which == "n1":
            assert np.array_equal(table.umark, ns.n1_umarks[order])
        assert np.array_equal(table.offsets, np.searchsorted(
            step[order], np.arange(n_steps + 1)))
    if n_steps == 4:    # several N1 events of one path in one step
        assert np.unique(step * 5 + path, return_counts=True)[1].max() > 1


@pytest.mark.parametrize("case", ["one-copy", "ladder-sup", "keep-all"])
def test_empty_batch_returns_shaped_outputs_without_tables(monkeypatch,
                                                           case):
    """An empty batch returns at once, building no event table, with the
    shapes and dtypes a batch of paths has, its path axis empty."""
    p = symmetric_split_params()
    outs = []
    step_loop = sde._step_loop

    def spy(*args):
        outs.append(step_loop(*args))
        return outs[-1]
    monkeypatch.setattr(sde, "_step_loop", spy)

    def run(seeds):
        noise = generate_noise(p.m, p.mu, 0.25, 2.0 ** -6, seeds, 16.0, 0.0)
        if case == "one-copy":
            simulate_affine(p, 1.0, 0.5, noise, keep=np.array([0, 3, -1]))
        elif case == "ladder-sup":
            simulate_reactant_pair(p, [4.0, 16.0, 64.0], 1.0,
                                   [4.0, 16.0, 64.0], [4.0, 16.0, 64.0],
                                   noise, with_limit=True, z0=0.0,
                                   keep=np.array([-1]))
        else:
            simulate_catalytic(p, 1.0, 0.5, 1.0, noise, keep=None)
        return outs.pop()

    full = run(np.arange(2, dtype=np.uint64))

    def no_table(*args):
        raise AssertionError("an empty batch built an event table")
    monkeypatch.setattr(sde, "_EventTable", no_table)
    empty = run([])
    lanes = (3, 0) if case == "ladder-sup" else (0,)
    cols = {"one-copy": 3, "ladder-sup": 1, "keep-all": 17}[case]
    assert list(empty[0]) == list(full[0])     # ladder: gap, then z_k
    for name, arr in empty[0].items():
        assert arr.shape == lanes + (cols,), name
        assert arr.dtype == full[0][name].dtype, name
    for got, want in zip(empty[1:], full[1:]):  # aborted_at, clamps
        assert got.shape == lanes and got.dtype == want.dtype


def test_reactant_ladder_rejects_unmatched_starts():
    p, noise = aborting_noise(False)
    with pytest.raises(ValueError, match="one y_plus0 and one y_minus0 per "
                                         "theta, got 2, 2 and 1"):
        simulate_reactant_pair(p, [4.0, 16.0], 1.0, [4.0, 16.0], [4.0],
                               noise)


def test_single_reactant_refuses_a_split():
    """A split was silently ignored in single mode; it is refused before
    any noise is drawn, also the canonical one."""
    p, noise = aborting_noise(False)
    with pytest.raises(ValueError, match="^a split applies only in pair "
                                         "mode"):
        simulate_reactant_pair(p, 4.0, 1.0, 4.0, 4.0, noise, "single",
                               ParameterSplit.from_params(p))


# -- product-exponential jumps in the loop --------------------------------

def test_product_exponential_round():
    pe_m = ProductExponentialMeasure(total_rate=1.0, rate1=2.0, rate2=2.5,
                                     sign_mix=0.6)
    pe_mu = ProductExponentialMeasure(total_rate=0.8, rate1=3.0, rate2=2.0,
                                      sign_mix=0.5)
    params = make_params(a=0.1, alpha=((0.2, 0), (0, 0.1)), b=(0.5, 0.0),
                         beta=((-0.5, 0), (0.2, -0.5)), m=pe_m, mu=pe_mu)
    noise = generate_noise(pe_m, pe_mu, 1.0, 2.0 ** -8, 19, 16.0, 1e-3)
    comps, aborted, _ = simulate_affine(params, 1.0, 0.0, noise)
    assert np.isnan(aborted[0])
    assert np.all(comps["x"] >= 0.0)
    assert np.isfinite(comps["z"]).all()


# -- the scalar equation's scales ------------------------------------------

def test_cbi_rejects_negative_scale():
    with pytest.raises(ValueError, match=r"^theta0 must be nonnegative, "
                                         r"got -1\.0$"):
        simulate_cbi(make_params(), 1.0, -1.0, 0.0, 0.0, quiet_noise())


NAN, INF = float("nan"), float("inf")
P = jump_affine_params()


def _cbi(ns, keep, x0=1.0, theta0=1.0, theta1=1.0, l=1.0):
    return simulate_cbi(P, x0, theta0, theta1, l, ns, keep)


@pytest.mark.parametrize("match, model", [
    ("x0 must be finite, got nan",
     lambda ns, keep: simulate_affine(P, NAN, 0.5, ns, keep=keep)),
    ("z0 must be finite, got inf",
     lambda ns, keep: simulate_affine(P, 1.0, INF, ns, keep=keep)),
    ("x0 must be finite, got inf",
     lambda ns, keep: _cbi(ns, keep, x0=INF)),
    ("theta0 must be finite, got nan",
     lambda ns, keep: _cbi(ns, keep, theta0=NAN)),
    ("theta1 must be finite, got inf",
     lambda ns, keep: _cbi(ns, keep, theta1=INF)),
    ("l must be finite, got nan",
     lambda ns, keep: _cbi(ns, keep, l=NAN)),
    ("l must be finite, got inf",
     lambda ns, keep: _cbi(ns, keep, l=INF)),
    ("y0 must be finite, got nan",
     lambda ns, keep: simulate_catalytic(P, 1.0, NAN, 1.0, ns, keep)),
    ("l must be finite, got nan",
     lambda ns, keep: simulate_catalytic(P, 1.0, 1.0, NAN, ns, keep)),
    ("y_plus0 must be finite, got nan",
     lambda ns, keep: simulate_reactant_pair(P, 4.0, 1.0, NAN, 4.0, ns,
                                             keep=keep)),
    ("y_minus0 must be finite, got inf",
     lambda ns, keep: simulate_reactant_pair(P, 4.0, 1.0, 4.0, INF, ns,
                                             keep=keep)),
    ("z0 must be finite, got nan",
     lambda ns, keep: simulate_reactant_pair(P, 4.0, 1.0, 4.0, 4.0, ns,
                                             with_limit=True, z0=NAN,
                                             keep=keep)),
], ids=["x0", "z0", "cbi-x0", "theta0", "theta1", "cbi-l-nan", "cbi-l-inf",
        "y0", "catalytic-l-nan", "y_plus0", "y_minus0", "limit-z0"])
def test_non_finite_input_named_before_any_noise(monkeypatch, match, model):
    """A non-finite start, scale or coupling constant raises a ValueError
    that names it, and ``run_ensemble`` draws no path's noise first (each
    used to abort every path and draw the noise seven times)."""
    drawn = []

    def spy(*args):
        drawn.append(len(args[4]))
        return generate_noise(*args)
    monkeypatch.setattr(sde, "generate_noise", spy)
    with pytest.raises(ValueError, match=f"^{match}"):
        run_ensemble(model, m=P.m, mu=P.mu, n_paths=4, master_seed=0,
                     t_max=0.25, dt=2.0 ** -6, u_bound=16.0, eps=0.0)
    assert drawn == [0]                 # the empty batch only


def _clamped_components(params, noise):
    """Every clamped component of every simulator, as ``(name, array)``
    pairs."""
    out = [("affine.x", simulate_affine(params, 1.0, 0.5, noise)[0]["x"]),
           ("cbi.x", simulate_cbi(params, 0.2, 1.0, 1.0, 1.0, noise)[0]["x"])]
    comps = simulate_catalytic(params, 1.0, 0.3, 1.0, noise)[0]
    out += [("catalytic.x", comps["x"]), ("catalytic.y", comps["y"])]
    for mode, names in (("pair", ("x", "y_plus", "y_minus")),
                        ("single", ("x", "y"))):
        comps = simulate_reactant_pair(
            params, 1.0, 1.0, *sde._reactant_starts(1.0, -0.5, mode), noise,
            mode, with_limit=True, z0=-0.5)[0]
        out += [(f"reactant_{mode}.{n}", comps[n]) for n in names]
    return out


@pytest.mark.parametrize("preset", ["ou", "cir", "jump_affine",
                                    "symmetric_split"])
@pytest.mark.parametrize("u_bound", [16.0, 1.2])
def test_clamped_components_stay_nonnegative(preset, u_bound):
    """A clamped coordinate is >= 0 on every kept point of a path, or NaN
    after it aborts."""
    params = builtin_params(preset)
    noise = generate_noise(params.m, params.mu, 1.0, 2.0 ** -6,
                           substream_seed_array(7, np.arange(64)), u_bound,
                           0.0)
    for name, arr in _clamped_components(params, noise):
        assert np.all((arr >= 0.0) | np.isnan(arr)), name


def test_write_paths_csv(tmp_path):
    p, noise = preset_noise(dt=2.0 ** -3)
    out = path(simulate_affine(p, 1.0, 0.5, noise))
    fname = tmp_path / "paths.csv"
    paths = {name: np.stack([c, c]) for name, c in out.items()}
    write_paths_csv(noise, paths, fname, parse_config("{}"))
    text = fname.read_text()
    assert "\r" not in text and text.startswith("# ")
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "path_id,t,x,z"
    body = [ln.split(",") for ln in lines[1:]]
    n = noise.n_steps + 1
    assert [r[0] for r in body] == ["0"] * n + ["1"] * n
    x_back = np.array([float(r[2]) for r in body[:n]])
    assert np.array_equal(x_back, out["x"])
