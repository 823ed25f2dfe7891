"""Experiment drivers: estimator laws, report plumbing, oracle configs."""

import cmath
import json

import numpy as np
import pytest

from affine_lab.params import FiniteAtomicMeasure, UPoint, validate_admissible
from affine_lab.presets import jump_affine_params, symmetric_split_params
from affine_lab import sde, validate
from affine_lab.sde import (EnsembleResult, run_ensemble, simulate_affine,
                            simulate_reactant_pair)
from affine_lab.transform import solve_transforms
from affine_lab.validate import (
    CheckRow,
    ExperimentReport,
    check_affine_formula,
    check_generator,
    check_moments,
    empirical_char_fn,
    fluctuation_experiment,
    sc_semigroup_check,
    uniqueness_experiment,
)

EMPTY = FiniteAtomicMeasure([])


def make_params(a=0.0, alpha=((0, 0), (0, 0)), b=(0, 0),
                beta=((0, 0), (0, 0)), m=None, mu=None):
    return validate_admissible(a, alpha, b, beta,
                               EMPTY if m is None else m,
                               EMPTY if mu is None else mu)


def fake_ensemble(x, z, dt=0.5):
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    times = np.arange(x.shape[1]) * dt
    return EnsembleResult(times=times, components={"x": x, "z": z},
                          master_seed=0, dt=dt, eps=0.0, u_bound=1.0,
                          n_paths=x.shape[0], n_retried=0, n_clamped=0)


class Simulated(Exception):
    pass


@pytest.fixture
def no_simulation(monkeypatch):
    """Make any ensemble run raise :class:`Simulated`."""
    def refuse(*args, **kwargs):
        raise Simulated
    monkeypatch.setattr(validate, "run_ensemble", refuse)


@pytest.fixture
def ensemble_runs(monkeypatch):
    """Record every ensemble run; each one still goes ahead."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return run_ensemble(*args, **kwargs)
    monkeypatch.setattr(validate, "run_ensemble", spy)
    return calls


MC = dict(n_paths=20, master_seed=0)


# -- empirical characteristic function -------------------------------------

class TestEmpiricalCharFn:
    def test_zero_frequency_is_exact(self):
        ens = fake_ensemble([[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]])
        est = empirical_char_fn(ens, 0.5, (0.0, 0.0))
        assert est.estimate == 1.0 + 0.0j
        assert est.stderr == 0.0

    def test_constant_ensemble_is_exact(self):
        ens = fake_ensemble(np.full((4, 2), 1.5), np.full((4, 2), -2.0))
        est = empirical_char_fn(ens, 0.0, (-2.0, 1j))
        assert est.estimate == pytest.approx(cmath.exp(-3.0 - 2.0j))
        assert est.stderr == 0.0

    def test_clt_scaling(self):
        rng = np.random.default_rng(11)
        ratios = []
        for rep in range(5):
            big_x = rng.exponential(size=(4000, 1))
            big_z = rng.normal(size=(4000, 1))
            small = empirical_char_fn(fake_ensemble(big_x[:1000], big_z[:1000]),
                                      0.0, (-1.0, 0.5j))
            large = empirical_char_fn(fake_ensemble(big_x, big_z),
                                      0.0, (-1.0, 0.5j))
            ratios.append(large.stderr / small.stderr)
        assert all(0.4 < r < 0.6 for r in ratios)

    def test_modulus_bound_on_simulated_paths(self):
        p = jump_affine_params()
        ens = run_ensemble(lambda n, keep: simulate_affine(p, 1.0, 0.5, n,
                                                           keep=keep),
                           m=p.m, mu=p.mu, n_paths=500, master_seed=8,
                           t_max=0.5, dt=2.0 ** -7, u_bound=24.0, eps=0.0,
                           keep_idx=[-1])
        for u in ((-0.5, 0.0), (0.0, 2j), (-3.0, -1j)):
            est = empirical_char_fn(ens, 0.5, u)
            assert abs(est.estimate) <= 1.0 + 3.0 * est.stderr

    def test_errors(self):
        ens = fake_ensemble([[1.0, 2.0]], [[0.0, 1.0]])
        with pytest.raises(ValueError, match="2 paths"):
            empirical_char_fn(ens, 0.5, (0.0, 0.0))
        ens = fake_ensemble([[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(ValueError, match="retained grid time"):
            empirical_char_fn(ens, 0.3, (0.0, 0.0))
        with pytest.raises(ValueError, match="u1"):
            empirical_char_fn(ens, 0.5, (1.0, 0.0))


# -- report plumbing -------------------------------------------------------

def test_report_overall_and_json_round_trip():
    rows = (
        CheckRow("good", 1.0, 1.0 + 1e-12, 1e-12, 1e-9, True),
        CheckRow("cplx", 1 + 2j, 1 + 2.1j, 0.1, 0.2, True),
    )
    rep = ExperimentReport("demo", {"n": 3}, rows)
    assert rep.overall
    data = json.loads(json.dumps(rep.payload()))
    assert data["rows"][1]["predicted"] == [1.0, 2.0]
    assert data["overall"] is True
    bad = ExperimentReport("demo", {"n": 3},
                           rows + (CheckRow("bad", 0.0, 1.0, 1.0, 0.1,
                                            False),))
    assert not bad.overall
    assert "FAIL" in bad.table()


def test_report_serialization_excludes_runtime():
    p = jump_affine_params()
    kw = dict(n_paths=400, master_seed=11, dt=2.0 ** -7)
    a = check_moments(p, 1.0, 0.5, [0.5], **kw)
    b = check_moments(p, 1.0, 0.5, [0.5], **kw)
    assert a.runtime != b.runtime or a.runtime > 0.0
    assert json.dumps(a.payload(), sort_keys=True) == \
        json.dumps(b.payload(), sort_keys=True)
    assert a.digest == b.digest


# -- affine formula --------------------------------------------------------

def test_affine_formula_stochastic():
    p = jump_affine_params()
    rep = check_affine_formula(
        p, 1.0, 0.5, [0.5, 1.0], [(-0.5, 0.0), (0.0, 1j), (-1.0, 0.5j)],
        n_paths=3000, master_seed=7, dt=2.0 ** -8)
    assert rep.overall
    assert len(rep.rows) == 6
    assert rep.details["bias_budget"] > 0.0


def test_affine_formula_deterministic_regime():
    params = make_params(b=(1.0, 0.3), beta=((-0.5, 0.0), (0.4, -0.8)))
    rep = check_affine_formula(params, 0.5, -0.2, [1.0],
                               [(-1.0, 0.0), (-0.5, 1j)],
                               n_paths=4, master_seed=1, dt=2.0 ** -9)
    assert rep.overall


def test_affine_formula_homogeneous_submodel():
    mu = FiniteAtomicMeasure([(0.3, 0.2, 0.5), (0.5, -0.1, 0.5)])
    params = make_params(alpha=((0.4, 0.0), (0.0, 0.2)),
                         beta=((-0.5, 0.0), (0.3, -0.6)), mu=mu)
    rep = check_affine_formula(params, 1.2, 0.4, [0.5],
                               [(-1.0, 0.0), (-0.5, 1j)],
                               n_paths=3000, master_seed=13, dt=2.0 ** -8)
    assert rep.overall


def test_affine_formula_rejects_off_grid_time():
    p = jump_affine_params()
    with pytest.raises(ValueError, match="multiple of dt"):
        check_affine_formula(p, 1.0, 0.0, [0.3], [(-1.0, 0.0)],
                             n_paths=4, master_seed=1, dt=0.25)


# -- moments ---------------------------------------------------------------

def test_moments_stochastic():
    p = jump_affine_params()
    rep = check_moments(p, 1.0, 0.5, [0.5, 1.0], n_paths=3000,
                        master_seed=11, dt=2.0 ** -8)
    assert rep.overall
    kinds = [r.quantity.split(" ")[0] for r in rep.rows]
    assert kinds.count("mean_x") == 2
    assert kinds.count("mean_z") == 2
    assert kinds.count("mean_x_bound") == 2


def test_moments_all_zero_parameters():
    params = make_params()
    rep = check_moments(params, 0.7, -0.3, [0.5, 1.0], n_paths=8,
                        master_seed=2, dt=2.0 ** -6)
    assert rep.overall
    for row in rep.rows:
        if row.quantity.startswith("mean_x "):
            assert row.observed == pytest.approx(0.7, abs=1e-14)
        if row.quantity.startswith("mean_z "):
            assert row.observed == pytest.approx(-0.3, abs=1e-14)


def test_moments_linear_growth_oracle():
    # b1 = 1, beta11 = 0, no jumps: E[x(t)] = x0 + t exactly.
    params = make_params(a=0.1, alpha=((0.3, 0), (0, 0.2)), b=(1.0, 0.0),
                         beta=((0.0, 0.0), (0.2, -0.5)))
    rep = check_moments(params, 0.5, 0.0, [1.0], n_paths=2000,
                        master_seed=19, dt=2.0 ** -8)
    assert rep.overall
    (row,) = [r for r in rep.rows if r.quantity == "mean_x t=1"]
    assert row.predicted == pytest.approx(1.5, abs=1e-12)


# -- generator -------------------------------------------------------------

class TestGenerator:
    def test_affine_catalog(self):
        p = jump_affine_params()
        rep = check_generator(p, (0.7, -0.4), which="affine",
                              n_paths=20000, master_seed=5, delta=2.0 ** -8)
        assert rep.overall
        assert len(rep.rows) == 9          # 8 functions, complex one split

    def test_cbi_catalog(self):
        p = jump_affine_params()
        rep = check_generator(p, 0.7, which="cbi", n_paths=20000,
                              master_seed=5, delta=2.0 ** -8)
        assert rep.overall
        assert len(rep.rows) == 4

    def test_catalytic_catalog_both_branches(self):
        p = jump_affine_params()
        # (1.2, 0.5): acceptance set for the reactant is the thinner one;
        # (0.8, 2.0): the catalyst's set is.  Both branches of the joint
        # jump coefficient get exercised.
        for state, seed in (((1.2, 0.5), 5), ((0.8, 2.0), 6)):
            rep = check_generator(p, state, which="catalytic",
                                  n_paths=20000, master_seed=seed,
                                  delta=2.0 ** -8)
            assert rep.overall, rep.table()

    def test_constant_function_is_exact(self):
        p = jump_affine_params()
        rep = check_generator(p, (1.0, 0.0), which="affine", f="1",
                              n_paths=50, master_seed=1, delta=2.0 ** -8)
        (row,) = rep.rows
        assert row.observed == 0.0 and row.predicted == 0.0

    def test_linear_drift_deterministic(self):
        params = make_params(b=(0.7, 0.2), beta=((-0.4, 0), (0.3, -0.5)))
        rep = check_generator(params, (1.3, 0.6), which="affine", f="x1",
                              n_paths=3, master_seed=4, delta=2.0 ** -8)
        (row,) = rep.rows
        # One Euler step reproduces a linear drift rate exactly.
        assert row.observed == pytest.approx(row.predicted, abs=1e-9)

    def test_catalog_errors(self):
        p = jump_affine_params()
        with pytest.raises(ValueError, match="catalog"):
            check_generator(p, (1.0, 0.0), which="affine", f="x1^3",
                            n_paths=4, master_seed=1)
        with pytest.raises(ValueError, match="cbi"):
            check_generator(p, 1.0, which="cbi", f="x2",
                            n_paths=4, master_seed=1)
        with pytest.raises(ValueError, match="mode"):
            check_generator(p, (1.0, 0.0), which="exact", n_paths=4,
                            master_seed=1)


# -- uniqueness ------------------------------------------------------------

def test_uniqueness_distinct_starts():
    p = jump_affine_params()
    rep = uniqueness_experiment(p, 1.0, 1.6, t_max=1.0, n_paths=800,
                                master_seed=3, dt=2.0 ** -8)
    assert rep.overall
    assert rep.rows[0].quantity.startswith("bitwise")
    assert rep.rows[0].observed == 1.0


def test_uniqueness_identical_starts_exact():
    p = jump_affine_params()
    rep = uniqueness_experiment(p, 1.0, 1.0, t_max=1.0, n_paths=100,
                                master_seed=9, dt=2.0 ** -8)
    assert rep.overall
    (row,) = [r for r in rep.rows if "identical" in r.quantity]
    assert row.observed == 0.0


def test_uniqueness_deterministic_decay_oracle():
    # Noise-free: the separation is exactly |dx0| e^{beta11 t} up to
    # first-order scheme error.
    params = make_params(b=(1.0, 0.0), beta=((-0.8, 0.0), (0.0, -0.5)))
    dt = 2.0 ** -9
    rep = uniqueness_experiment(params, 1.0, 1.5, t_max=1.0, n_paths=3,
                                master_seed=7, dt=dt)
    assert rep.overall
    for row in rep.rows:
        if row.quantity.startswith("mean separation"):
            t = float(row.quantity.split("=")[1])
            assert row.observed == pytest.approx(
                0.5 * np.exp(-0.8 * t), abs=20 * dt)


def test_uniqueness_zero_beta_contraction():
    params = make_params(a=0.2, alpha=((0.4, 0), (0, 0.1)), b=(0.5, 0.0))
    rep = uniqueness_experiment(params, 0.5, 1.0, t_max=1.0, n_paths=400,
                                master_seed=15, dt=2.0 ** -8)
    assert rep.overall
    for row in rep.rows:
        if row.quantity.startswith("mean separation"):
            assert row.predicted == pytest.approx(0.5)


# -- fluctuation -----------------------------------------------------------

def test_fluctuation_single_mode():
    p = jump_affine_params()
    rep = fluctuation_experiment(p, [4.0, 16.0, 64.0], mode="single",
                                 n_paths=300, master_seed=21, dt=2.0 ** -8)
    assert rep.overall
    e = [rep.details["e_theta"][k] for k in ("4", "16", "64")]
    assert e[0] > e[1] > e[2] > 0.0


def test_fluctuation_pair_mode_symmetric_split():
    sp = symmetric_split_params()
    rep = fluctuation_experiment(sp, [4.0, 16.0, 64.0], mode="pair",
                                 n_paths=300, master_seed=22, dt=2.0 ** -8)
    assert rep.overall


def test_fluctuation_exact_cancellation():
    # b2 = beta21 = 0 and no noise: the centered reactant solves the limit
    # equation exactly for every theta.
    params = make_params(b=(0.5, 0.0), beta=((0.0, 0.0), (0.0, -0.5)))
    rep = fluctuation_experiment(params, [4.0, 16.0], mode="single",
                                 n_paths=2, master_seed=1, dt=2.0 ** -8)
    assert rep.overall
    assert all(v < 1e-10 for v in rep.details["e_theta"].values())


def test_fluctuation_deterministic_rate():
    params = make_params(b=(0.5, 1.0), beta=((0.0, 0.0), (0.0, -1.0)))
    rep = fluctuation_experiment(params, [4.0, 16.0, 64.0], mode="single",
                                 n_paths=2, master_seed=1, dt=2.0 ** -8,
                                 deterministic_rate_check=True)
    assert rep.overall
    (row,) = [r for r in rep.rows if "spread" in r.quantity]
    assert row.observed < 0.10


def test_fluctuation_shared_noise_matches_per_rung_runs(monkeypatch):
    # At u_bound 3 a different number of paths retries on each rung, and
    # 64-path chunks make every rung span several chunks of shared noise.
    monkeypatch.setattr(sde, "CHUNK", 64)
    sp = symmetric_split_params()
    ladder = [4.0, 16.0, 64.0]
    kw = dict(n_paths=200, master_seed=5, t_max=1.0, dt=2.0 ** -6,
              u_bound=3.0, eps=0.0)
    rep = fluctuation_experiment(sp, ladder, mode="pair", **kw)
    retried = []
    for theta in ladder:
        def model(noise, keep, theta=theta):
            comps, aborted, clamps = simulate_reactant_pair(
                sp, theta, 1.0, theta, theta, noise, "pair", None,
                with_limit=True, z0=0.0, keep=keep)
            return {"gap": comps["gap"]}, aborted, clamps

        ens = run_ensemble(model, m=sp.m, mu=sp.mu, **kw)
        assert rep.details["e_theta"][f"{theta:g}"] == \
            float(ens.components["gap"][:, 0].mean())
        retried.append(ens.n_retried)
    assert min(retried) > 0 and len(set(retried)) == len(ladder)
    assert rep.details["n_retried"] == sum(retried)


def test_fluctuation_single_mode_negative_start():
    # the single reactant starts at theta + z0, like its limit equation
    rep = fluctuation_experiment(jump_affine_params(), [4.0, 16.0, 64.0],
                                 mode="single", z0=-0.5, t_max=0.25,
                                 n_paths=200, master_seed=3, dt=2.0 ** -8)
    assert rep.overall, rep.table()
    e = [rep.details["e_theta"][k] for k in ("4", "16", "64")]
    assert e[0] > e[1] > e[2] > 0.0
    assert e[0] < 0.1


def test_fluctuation_rejects_bad_inputs(no_simulation):
    p = jump_affine_params()
    for beta22 in (0.5, 0.0):
        bad = make_params(beta=((0.0, 0.0), (0.0, beta22)))
        with pytest.raises(ValueError, match="beta22"):
            fluctuation_experiment(bad, [4.0, 16.0], n_paths=2,
                                   master_seed=1)
    with pytest.raises(ValueError, match="at least two"):
        fluctuation_experiment(p, [4.0], n_paths=2, master_seed=1)
    with pytest.raises(ValueError, match="increasing"):
        fluctuation_experiment(p, [16.0, 4.0], n_paths=2, master_seed=1)
    with pytest.raises(ValueError, match=">= 1"):
        fluctuation_experiment(p, [0.5, 4.0], n_paths=2, master_seed=1)
    with pytest.raises(ValueError, match="mode"):
        fluctuation_experiment(p, [4.0, 16.0], mode="both", n_paths=2,
                               master_seed=1)


# -- inputs are checked before anything is simulated ----------------------

def test_duplicate_t_list_rejected_up_front(no_simulation):
    p = jump_affine_params()
    for t_list in ([0.5, 0.5], [0.5, 0.25, 0.5 + 1e-13]):
        with pytest.raises(ValueError, match="duplicate entries"):
            check_moments(p, 1.0, 0.0, t_list, dt=2.0 ** -4, **MC)
        with pytest.raises(ValueError, match="duplicate entries"):
            check_affine_formula(p, 1.0, 0.0, t_list, [(-1.0, 0.0)],
                                 dt=2.0 ** -4, **MC)
    with pytest.raises(Simulated):       # distinct times go on to simulate
        check_moments(p, 1.0, 0.0, [0.25, 0.5], dt=2.0 ** -4, **MC)


def test_stability_rule_checked_before_simulation(ensemble_runs):
    p = jump_affine_params()
    runs = [
        lambda: check_moments(p, 1.0, 0.0, [0.5], dt=0.5, **MC),
        lambda: check_affine_formula(p, 1.0, 0.0, [0.5], [(-1.0, 0.0)],
                                     dt=0.5, **MC),
        lambda: uniqueness_experiment(p, 1.0, 1.5, t_max=1.0, dt=0.5, **MC),
        lambda: fluctuation_experiment(p, [4.0, 16.0], dt=0.5, **MC),
        lambda: check_generator(p, (0.7, -0.4), which="affine", delta=0.5,
                                **MC),
        # the scalar equation's rule is its spec's beta_bar guard
        lambda: check_generator(p, 0.7, which="cbi", delta=0.5, **MC),
        lambda: check_generator(p, (1.2, 0.5), which="catalytic",
                                delta=0.5, **MC),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="explicit-Euler stability rule"):
            run()
    assert ensemble_runs == []


@pytest.mark.parametrize("run", [
    lambda p: check_moments(p, 1.0, 0.0, [0.5], n_paths=1, master_seed=0),
    lambda p: check_affine_formula(p, 1.0, 0.0, [0.5], [(-1.0, 0.0)],
                                   n_paths=1, master_seed=0),
    lambda p: check_generator(p, (0.7, -0.4), which="affine", n_paths=1,
                              master_seed=0),
    lambda p: uniqueness_experiment(p, 1.0, 1.5, t_max=1.0, n_paths=1,
                                    master_seed=0),
], ids=["moments", "affine-formula", "generator", "uniqueness"])
def test_one_path_rejected_up_front(no_simulation, run):
    with pytest.raises(ValueError, match="need at least 2 paths"):
        run(jump_affine_params())


def test_pair_split_checked_before_simulation(ensemble_runs):
    p = symmetric_split_params()
    split = sde.ParameterSplit.from_params(p)
    broken = sde.ParameterSplit(**{**split.__dict__,
                                   "b2_pos": split.b2_pos + 1.0})
    with pytest.raises(ValueError) as err:
        fluctuation_experiment(p, [4.0, 16.0], mode="pair", split=broken,
                               **MC)
    assert str(err.value) == "split does not reassemble b2: 1.0 != 0.0"
    assert ensemble_runs == []
    # single mode has no second reactant, so it ignores the split
    fluctuation_experiment(p, [4.0, 16.0], mode="single", split=broken,
                           n_paths=2, master_seed=0, dt=2.0 ** -4)
    assert len(ensemble_runs) == 1


@pytest.mark.parametrize("run,name", [
    (lambda p: check_generator(p, (-0.5, 0.0), which="affine", **MC),
     r"state\[0\]"),
    (lambda p: check_generator(p, -0.5, which="cbi", **MC), "state"),
    (lambda p: check_generator(p, (-0.5, 1.0), which="catalytic", **MC),
     r"state\[0\]"),
    (lambda p: check_generator(p, (1.0, -0.5), which="catalytic", **MC),
     r"state\[1\]"),
    (lambda p: check_moments(p, -0.5, 0.0, [0.25], **MC), "x0"),
    (lambda p: check_affine_formula(p, -0.5, 0.0, [0.25], [(-1.0, 0.0)],
                                    **MC), "x0"),
    (lambda p: uniqueness_experiment(p, -0.5, 1.0, t_max=1.0, **MC),
     "x0_a"),
    (lambda p: uniqueness_experiment(p, 1.0, -0.5, t_max=1.0, **MC),
     "x0_b"),
    (lambda p: fluctuation_experiment(p, [4.0, 16.0], x0=-0.5, **MC), "x0"),
    (lambda p: fluctuation_experiment(p, [1.0, 4.0], mode="single", z0=-1.5,
                                      **MC), r"theta \+ z0"),
], ids=["generator-affine", "generator-cbi", "generator-catalytic-x",
        "generator-catalytic-y", "moments", "affine-formula",
        "uniqueness-a", "uniqueness-b", "fluctuation",
        "fluctuation-single-start"])
def test_negative_start_rejected_up_front(no_simulation, run, name):
    with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
        run(jump_affine_params())


# -- semigroup flow --------------------------------------------------------

def test_sc_semigroup_check():
    p = jump_affine_params()
    rep = sc_semigroup_check(p, 0.5, 0.75, [(-1.0, 0.0), (-0.3, 2j)])
    assert rep.overall
    assert len(rep.rows) == 4


def test_sc_semigroup_r_zero():
    p = jump_affine_params()
    rep = sc_semigroup_check(p, 0.0, 0.5, [(-1.0, 1j)])
    assert rep.overall


def test_chapman_kolmogorov_against_composition():
    # The analytic two-stage composition reproduces the one-shot
    # transform: exponent additivity in both the state-linear and the
    # constant part.
    p = jump_affine_params()
    u = UPoint(-0.8, 1.5j)
    r, t = 0.4, 0.6
    (one,) = solve_transforms(p, [u], [0.0, r + t])
    (stage1,) = solve_transforms(p, [u], [0.0, t])
    v = UPoint(stage1.psi1[-1], stage1.psi2[-1])
    (stage2,) = solve_transforms(p, [v], [0.0, r])
    x1, x2 = 1.1, -0.7
    direct = cmath.exp(x1 * one.psi1[-1] + x2 * one.psi2[-1] + one.phi[-1])
    composed = cmath.exp(x1 * stage2.psi1[-1] + x2 * stage2.psi2[-1]
                         + stage2.phi[-1] + stage1.phi[-1])
    assert abs(direct - composed) < 1e-8
