"""Experiment drivers: estimator laws, report plumbing, oracle configs."""

import cmath
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest

from affine_lab.noise import generate_noise, refine, substream_seed_array
from affine_lab.params import (AdmissibilityError, FiniteAtomicMeasure,
                               UPoint, validate_admissible)
from affine_lab.presets import (cir_params, jump_affine_params,
                                symmetric_split_params)
from affine_lab import noise as noise_module, sde, validate
from affine_lab.cli import parse_config, run
from affine_lab.sde import (EnsembleResult, run_ensemble, simulate_affine,
                            simulate_reactant_pair)
from affine_lab.transform import solve_transforms
from affine_lab.validate import (
    CheckRow,
    ExperimentReport,
    check_affine_formula,
    check_generators,
    check_moments,
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
    return EnsembleResult(times=times, components={"x": x, "z": z}, dt=dt,
                          n_paths=x.shape[0], n_retried=0, n_clamped=0)


class Simulated(Exception):
    pass


@pytest.fixture
def no_noise(monkeypatch):
    """Make opening any Philox stream raise :class:`Simulated`: a path's
    noise is drawn from its streams, so a rule that fires first raises
    its own error."""
    def refuse(*args):
        raise Simulated
    monkeypatch.setattr(noise_module, "_stream", refuse)


MC = dict(n_paths=20, master_seed=0)


# -- empirical characteristic function -------------------------------------

def char_estimate(ensemble, col, u, components=("x", "z")):
    """Sample mean of ``exp(u1 c1 + u2 c2)`` in kept column ``col`` and
    its standard error, as each check forms them."""
    u = u if isinstance(u, UPoint) else UPoint(*u)
    return validate._mean_se(validate._char_samples(ensemble, col, u,
                                                    components))


class TestEmpiricalCharFn:
    def test_zero_frequency_is_exact(self):
        ens = fake_ensemble([[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [2.0, 3.0]])
        assert char_estimate(ens, 1, (0.0, 0.0)) == (1.0 + 0.0j, 0.0)

    def test_constant_ensemble_is_exact(self):
        ens = fake_ensemble(np.full((4, 2), 1.5), np.full((4, 2), -2.0))
        estimate, stderr = char_estimate(ens, 0, (-2.0, 1j))
        assert estimate == pytest.approx(cmath.exp(-3.0 - 2.0j))
        assert stderr == 0.0

    def test_clt_scaling(self):
        rng = np.random.default_rng(11)
        ratios = []
        for rep in range(5):
            big_x = rng.exponential(size=(4000, 1))
            big_z = rng.normal(size=(4000, 1))
            _, small = char_estimate(fake_ensemble(big_x[:1000],
                                                   big_z[:1000]),
                                     0, (-1.0, 0.5j))
            _, large = char_estimate(fake_ensemble(big_x, big_z),
                                     0, (-1.0, 0.5j))
            ratios.append(large / small)
        assert all(0.4 < r < 0.6 for r in ratios)

    def test_modulus_bound_on_simulated_paths(self):
        p = jump_affine_params()
        ens = run_ensemble(lambda n, keep: simulate_affine(p, 1.0, 0.5, n,
                                                           keep=keep),
                           m=p.m, mu=p.mu, n_paths=500, master_seed=8,
                           t_max=0.5, dt=2.0 ** -7, u_bound=24.0,
                           keep_idx=[-1])
        for u in ((-0.5, 0.0), (0.0, 2j), (-3.0, -1j)):
            estimate, stderr = char_estimate(ens, 0, u)
            assert abs(estimate) <= 1.0 + 3.0 * stderr


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
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="not a positive multiple"):
            check_affine_formula(p, 1.0, 0.0, [0.5, t], [(-1.0, 0.0)],
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


# -- two-level estimate ----------------------------------------------------

@pytest.fixture
def ensemble_results(monkeypatch):
    """Record every ensemble run with its result (a two-level run's is
    the pair of its plain and coupled ensembles)."""
    runs = []

    def spy(model, **kwargs):
        result = run_ensemble(model, **kwargs)
        runs.append((model, kwargs, result))
        return result
    monkeypatch.setattr(validate, "run_ensemble", spy)
    return runs


def test_two_level_runs_share_paths(ensemble_results):
    """The coupled run repeats the plain run's first paths bit for bit, and
    its fine columns are those of a coupled run over every path."""
    p = jump_affine_params()
    n = 2100                             # the plain run spans two chunks
    u_list = [(-1.0, 0.0), (-0.5, 1j)]
    rep = check_affine_formula(p, 1.0, 0.0, [0.25, 0.5], u_list,
                               n_paths=n, master_seed=3, dt=2.0 ** -4,
                               u_bound=16.0)
    ((model, kw, (coarse, coupled)),) = ensemble_results
    n_fine = -(-n // validate.FINE_FRACTION)
    assert coarse.n_paths == n and coupled.n_paths == n_fine
    assert kw["n_paths"] == n and kw["n_fine"] == n_fine
    assert coarse.n_retried == coupled.n_retried == 0
    every_path = run_ensemble(model, **dict(kw, n_fine=n))[1]
    for name in ("x", "z"):
        assert np.array_equal(coupled.components[name],
                              coarse.components[name][:n_fine])
        assert np.array_equal(coupled.components[name + "_fine"],
                              every_path.components[name + "_fine"][:n_fine])

    assert rep.details["n_fine_paths"] == n_fine
    diffs = rep.details["differences"]
    assert list(diffs) == [row.quantity for row in rep.rows]
    for row, (col, u) in zip(rep.rows, [(col, u) for col in (0, 1)
                                        for u in u_list]):
        u = UPoint(*u)
        w = (validate._char_samples(coupled, col, u, ("x_fine", "z_fine"))
             - validate._char_samples(coupled, col, u))
        d = diffs[row.quantity]
        assert d["diff"] == pytest.approx(w.mean(), abs=1e-15)
        assert d["stderr"] == pytest.approx(
            np.sqrt((w.real.var(ddof=1) + w.imag.var(ddof=1)) / n_fine))
        assert row.observed == pytest.approx(
            char_estimate(coarse, col, u)[0] + d["diff"])
    budget = 2.0 * max(abs(d["diff"]) for d in diffs.values())
    assert rep.details["bias_budget"] == pytest.approx(budget + 1e-10)


def test_two_level_stderr_close_to_coarse_only(ensemble_results):
    """At dt = 2^-10 the coupled difference varies so little from path to
    path that running it on one path in sixteen barely widens a row."""
    p = jump_affine_params()
    six = [(-1.0, 0.0), (-2.0, 0.0), (0.0, 1j), (0.0, -1j), (-0.5, 2j),
           (-0.5 + 0.5j, 1j)]
    rep = check_affine_formula(p, 1.0, 0.0, [0.5, 1.0], six, n_paths=2048,
                               master_seed=1, dt=2.0 ** -10)
    coarse = ensemble_results[0][2][0]
    budget = rep.details["bias_budget"]
    for row, (col, u) in zip(rep.rows, [(col, u) for col in (0, 1)
                                        for u in six]):
        coarse_only = char_estimate(coarse, col, u)[1]
        stderr = (row.tolerance - budget) / 3.0
        assert coarse_only <= stderr <= 1.05 * coarse_only, row.quantity


def affine_checks(p, t_list, **kw):
    """The affine-formula and moment reports at ``t_list``."""
    return [check_affine_formula(p, 1.0, 0.0, t_list,
                                 [(-1.0, 0.0), (-0.5, 1j)], **kw),
            check_moments(p, 1.0, 0.0, t_list, **kw)]


def test_checks_read_columns_on_a_fine_grid():
    """At dt = 1e-9 the kept times lie closer together than a time search
    with an absolute tolerance of 1e-9 can tell apart; each check reads
    column j as the time t_list[j] it kept there."""
    p = jump_affine_params()
    formula, moments = affine_checks(p, [1e-9, 2e-9], n_paths=50,
                                     master_seed=1, dt=1e-9)
    assert [r.quantity for r in formula.rows] == [
        f"char_fn t={t} u={u}" for t in ("1e-09", "2e-09")
        for u in ("(-1,0)", "(-0.5,0+1j)")]
    assert [r.quantity for r in moments.rows] == [
        "mean_x t=1e-09", "mean_z t=1e-09", "mean_x t=2e-09",
        "mean_z t=2e-09", "mean_x_bound t=1e-09", "mean_x_bound t=2e-09"]
    assert formula.overall and moments.overall


def test_unordered_t_list_reorders_rows():
    """Rows for t_list = [1.0, 0.5] are those for [0.5, 1.0] with the two
    times swapped, field for field, under the same bias budget."""
    p = jump_affine_params()
    kw = dict(n_paths=64, master_seed=5, dt=2.0 ** -5)

    def swapped(quantity):
        return re.sub(r"t=(1|0\.5)\b",
                      lambda m: "t=0.5" if m[1] == "1" else "t=1", quantity)
    for fwd, back in zip(affine_checks(p, [0.5, 1.0], **kw),
                         affine_checks(p, [1.0, 0.5], **kw)):
        assert back.rows[0].quantity.split(" ")[1] == "t=1"
        by_quantity = {r.quantity: r for r in fwd.rows}
        assert [swapped(r.quantity) for r in back.rows] == \
            [r.quantity for r in fwd.rows]
        assert list(back.rows) == [by_quantity[r.quantity]
                                   for r in back.rows]
        assert back.details["bias_budget"] == fwd.details["bias_budget"]


def test_two_level_check_keeps_its_power():
    """Below the Feller condition the projected Euler scheme is biased
    where the budget cannot absorb it (b1 = 0.05 < alpha11 = 0.5).  At
    this size the all-path coupled check failed the u = (-4, 0) row too,
    by 3.10e-2 against a tolerance of 2.45e-2."""
    p = dataclasses.replace(cir_params(), b=np.array([0.05, 0.0]))
    rep = check_affine_formula(p, 0.2, 0.0, [1.0], [(-4.0, 0.0), (-1.0, 0.0)],
                               n_paths=8192, master_seed=3, dt=2.0 ** -9)
    row = rep.rows[0]
    assert row.quantity == "char_fn t=1 u=(-4,0)"
    assert not row.passed


# -- generator -------------------------------------------------------------

class TestGenerator:
    def test_affine_catalog(self):
        p = jump_affine_params()
        (rep,) = check_generators(p, {"affine": (0.7, -0.4)}, n_paths=20000,
                                  master_seed=5, delta=2.0 ** -8)
        assert rep.overall
        assert len(rep.rows) == 9          # 8 functions, complex one split

    def test_cbi_catalog(self):
        p = jump_affine_params()
        (rep,) = check_generators(p, {"cbi": 0.7}, n_paths=20000,
                                  master_seed=5, delta=2.0 ** -8)
        assert rep.overall
        assert len(rep.rows) == 4

    def test_catalytic_catalog_both_branches(self):
        p = jump_affine_params()
        # (1.2, 0.5): acceptance set for the reactant is the thinner one;
        # (0.8, 2.0): the catalyst's set is.  Both branches of the joint
        # jump coefficient get exercised.
        for state, seed in (((1.2, 0.5), 5), ((0.8, 2.0), 6)):
            (rep,) = check_generators(p, {"catalytic": state},
                                      n_paths=20000, master_seed=seed,
                                      delta=2.0 ** -8)
            assert rep.overall, rep.table()

    def test_constant_function_is_exact(self):
        p = jump_affine_params()
        (rep,) = check_generators(p, {"affine": (1.0, 0.0)}, f="1",
                                  n_paths=50, master_seed=1, delta=2.0 ** -8)
        (row,) = rep.rows
        assert row.observed == 0.0 and row.predicted == 0.0

    def test_linear_drift_deterministic(self):
        params = make_params(b=(0.7, 0.2), beta=((-0.4, 0), (0.3, -0.5)))
        (rep,) = check_generators(params, {"affine": (1.3, 0.6)}, f="x1",
                                  n_paths=3, master_seed=4, delta=2.0 ** -8)
        (row,) = rep.rows
        # One Euler step reproduces a linear drift rate exactly; the
        # two-level estimate adds the coupled difference of two half steps.
        d = rep.details["differences"]["affine:x1"]
        assert row.observed - d["diff"] == pytest.approx(row.predicted,
                                                         abs=1e-9)
        h, x0 = 2.0 ** -9, 1.3
        x_half = x0 + (0.7 - 0.4 * x0) * h
        x_end = x_half + (0.7 - 0.4 * x_half) * h
        assert row.observed == pytest.approx((x_end - x0) / (2 * h),
                                             abs=1e-9)
        assert d["stderr"] == 0.0 and row.passed

    def test_catalog_errors(self):
        p = jump_affine_params()
        with pytest.raises(ValueError, match="catalog"):
            check_generators(p, {"affine": (1.0, 0.0)}, f="x1^3",
                             n_paths=4, master_seed=1)
        with pytest.raises(ValueError, match="cbi"):
            check_generators(p, {"cbi": 1.0}, f="x2",
                             n_paths=4, master_seed=1)
        with pytest.raises(ValueError, match="mode"):
            check_generators(p, {"exact": (1.0, 0.0)}, n_paths=4,
                             master_seed=1)


@pytest.mark.parametrize("states, u_bound", [
    (parse_config("{}").resolved["validate"]["generator_states"], 0.5),
    ({"affine": (0.8, 2.0), "cbi": 0.8, "catalytic": (0.8, 2.0)}, None),
], ids=["cli-states-retrying", "default-bounds"])
def test_grouped_generators_equal_one_mode_runs(states, u_bound):
    """Modes sharing a thinning bound share their noise, and each report
    is its one-mode report bit for bit: at u_bound 0.5 every mode
    retries paths, and the default bounds 14.4, 14.4 and 20.8 of the
    second plan make two groups."""
    p = jump_affine_params()
    kw = dict(n_paths=600, master_seed=17, delta=2.0 ** -10,
              u_bound=u_bound)
    reports = check_generators(p, states, **kw)
    assert [r.name for r in reports] == [f"generator-{w}" for w in states]
    for (which, state), report in zip(states.items(), reports):
        (alone,) = check_generators(p, {which: state}, **kw)
        assert report.payload() == alone.payload()
    if u_bound is None:
        assert len({r.inputs["u_bound"] for r in reports}) == 2
    else:
        assert all(r.details["n_retried"] > 0 for r in reports)


def test_validate_draws_generator_noise_once(monkeypatch, tmp_path):
    """A three-mode ``validate`` run draws each level's noise once for all
    modes, all paths and then the coupled ones, and refines it once."""
    draws, refined = [], []

    def spy(m, mu, t_max, dt, seed, u_bound):
        if len(seed):
            draws.append(len(seed))
        return generate_noise(m, mu, t_max, dt, seed, u_bound)

    def refine_spy(noise):
        if noise.n_paths:
            refined.append(noise.n_paths)
        return noise_module.refine(noise)
    monkeypatch.setattr(sde, "generate_noise", spy)
    monkeypatch.setattr(sde, "refine", refine_spy)
    n = 300
    config = parse_config(json.dumps({
        "mc": {"n_paths": n, "seed": 1},
        "validate": {"checks": ["generator"]}}))
    assert len(config.resolved["validate"]["generator_modes"]) == 3
    assert run("validate", config, out_dir=tmp_path,
               stdout=io.StringIO()) == 0
    n_fine = max(2, -(-n // validate.FINE_FRACTION))
    assert draws == [n, n_fine]
    assert refined == [n_fine]


def test_validate_builds_event_tables_once_per_noise(monkeypatch, tmp_path):
    """The three generator modes run on one noise system per level and
    share its event tables: a ``validate`` run builds the N0 and N1
    tables once for each nonempty system it runs a model on (plain and
    control fine; the control reuses the plain run's coarse rows) and
    none for the empty batches of the input checks."""
    built = []

    class Spy(sde._EventTable):
        __slots__ = ()

        def __init__(self, noise, which):
            built.append((noise, which))
            super().__init__(noise, which)
    monkeypatch.setattr(sde, "_EventTable", Spy)
    n = 300
    config = parse_config(json.dumps({
        "mc": {"n_paths": n, "seed": 1},
        "validate": {"checks": ["generator"]}}))
    assert len(config.resolved["validate"]["generator_modes"]) == 3
    assert run("validate", config, out_dir=tmp_path,
               stdout=io.StringIO()) == 0
    systems = []
    for noise, which in built:
        if not systems or systems[-1][0] is not noise:
            systems.append((noise, []))
        systems[-1][1].append(which)
    n_fine = max(2, -(-n // validate.FINE_FRACTION))
    assert [(ns.n_paths, ns.refinement_level, tables)
            for ns, tables in systems] == [(n, 0, ["n0", "n1"]),
                                           (n_fine, 1, ["n0", "n1"])]


# -- two-level reuse -------------------------------------------------------

def join(coarse, fine):
    """A coupled triple (a list from lists): the fine components as
    ``<name>_fine``, the earlier abort time, the summed clamps."""
    if isinstance(coarse, list):
        return [join(c, f) for c, f in zip(coarse, fine)]
    comps = dict(coarse[0], **{n + "_fine": a for n, a in fine[0].items()})
    return comps, np.fmin(coarse[1], fine[1]), coarse[2] + fine[2]


def oracle_two_level_runs(core, n_paths, **kwargs):
    """The two-level runs without reuse: the plain run, then the coupled
    model with its own coarse level on the first paths."""
    n_fine = max(2, -(-n_paths // validate.FINE_FRACTION))

    def coupled(noise, keep):
        return join(core(noise, keep), core(refine(noise), 2 * keep))
    return (run_ensemble(core, n_paths=n_paths, **kwargs),
            run_ensemble(coupled, n_paths=n_fine, **kwargs))


def assert_same_ensemble(got, want):
    assert (got.n_paths, got.dt, got.n_retried, got.n_clamped) == \
        (want.n_paths, want.dt, want.n_retried, want.n_clamped)
    assert np.array_equal(got.times, want.times)
    assert list(got.components) == list(want.components)
    for name, arr in want.components.items():
        g = got.components[name]
        assert (g.dtype, g.shape, g.tobytes()) == \
            (arr.dtype, arr.shape, arr.tobytes()), name


def first_round_aborts(core, n_fine, *, m, mu, master_seed, t_max, dt,
                       u_bound, keep):
    """Which of the first ``n_fine`` paths abort at the bound ``u_bound``
    on the coarse and on the fine level."""
    seeds = substream_seed_array(master_seed, np.arange(n_fine))
    noise = generate_noise(m, mu, t_max, dt, seeds, u_bound)
    return tuple(~np.isnan(core(ns, k)[1])
                 for ns, k in ((noise, keep), (refine(noise), 2 * keep)))


# master seed and bound of the pair core, and the generator modes' bound
# (their start intensity is 1): no path aborts; a path among the first
# n_fine aborts on the plain run's coarse level only, so the plain run
# retries it and the control need not; a path aborts on the fine level
# only
REUSE_CASES = {"no-retries": (1, 16.0, None),
               "plain-retry": (2, 2.0, 0.5),
               "fine-only-abort": (3, 2.5, 1.0)}


@pytest.mark.parametrize("chunk", [sde.CHUNK, 8], ids=["chunk", "8-path"])
@pytest.mark.parametrize("case", list(REUSE_CASES))
def test_two_level_reuse_matches_oracle(monkeypatch, case, chunk):
    """The control run reusing the plain run's coarse rows gives the
    ensembles of the coupled run that reruns them, field for field, also
    when the coupled paths span several chunks."""
    monkeypatch.setattr(sde, "CHUNK", chunk)
    seed, u_bound, _ = REUSE_CASES[case]
    p = jump_affine_params()
    n, keep = 200, np.array([32, 64])
    kw = dict(m=p.m, mu=p.mu, master_seed=seed, t_max=1.0, dt=2.0 ** -6,
              u_bound=u_bound)

    def core(noise, keep):
        return simulate_affine(p, 1.0, 0.0, noise, keep=keep)
    n_fine = -(-n // validate.FINE_FRACTION)
    coarse, fine = first_round_aborts(core, n_fine, keep=keep, **kw)
    assert coarse.any() == (case != "no-retries")
    assert (coarse & ~fine).any() == (case == "plain-retry")
    assert (fine & ~coarse).any() == (case == "fine-only-abort")
    got = validate._two_level_runs(core, n, keep_idx=keep, **kw)
    want = oracle_two_level_runs(core, n, keep_idx=keep, **kw)
    for g, w in zip(got, want):
        assert_same_ensemble(g, w)
    assert (want[1].n_retried > 0) == (case != "no-retries")


@pytest.mark.parametrize("case", list(REUSE_CASES))
def test_two_level_reports_match_oracle(monkeypatch, case):
    """The affine-formula, moment and generator reports equal those of
    the coupled runs that rerun the coarse rows, payload for payload."""
    seed, u_bound, gen_bound = REUSE_CASES[case]
    p = jump_affine_params()
    n, t_list, dt = 200, [0.5, 1.0], 2.0 ** -6
    u_list = [(-1.0, 0.0), (-0.5, 1j)]
    states = {"affine": (1.0, 0.5), "cbi": 1.0, "catalytic": (1.0, 1.0)}
    checks = [
        lambda: [check_affine_formula(p, 1.0, 0.0, t_list, u_list,
                                      n_paths=n, master_seed=seed, dt=dt,
                                      u_bound=u_bound)],
        lambda: [check_moments(p, 1.0, 0.0, t_list, n_paths=n,
                               master_seed=seed, dt=dt, u_bound=u_bound)],
        lambda: check_generators(p, states, n_paths=n, master_seed=seed,
                                 u_bound=gen_bound)]
    reports = [check() for check in checks]
    monkeypatch.setattr(validate, "_two_level_runs", oracle_two_level_runs)
    for check, got in zip(checks, reports):
        assert [r.payload() for r in got] == \
            [r.payload() for r in check()]
    assert all((r.details["n_retried"] > 0) == (gen_bound is not None)
               for r in reports[2])


def test_control_joins_first_round_rows(monkeypatch):
    """A core on which every path aborts on the coarse level at the
    first bound and on no other: the plain run retries every path, and
    the control joins its fine level with the plain run's first-round
    rows, not with those its retry round wrote, so it retries every path
    as the coupled run does."""
    monkeypatch.setattr(sde, "CHUNK", 8)

    def core(noise, keep):
        level, n = noise.refinement_level, noise.n_paths
        first = noise.u_bound == 2.0 and level == 0
        return ({"x": noise.seeds[:, None] * noise.u_bound + level + keep},
                np.full(n, 0.0 if first else np.nan),
                np.full(n, 1 + level, dtype=np.intp))
    kw = dict(m=EMPTY, mu=EMPTY, master_seed=6, t_max=0.5, dt=0.5,
              u_bound=2.0)
    got = validate._two_level_runs(core, 200, **kw)
    want = oracle_two_level_runs(core, 200, **kw)
    assert [e.n_retried for e in want] == [200, 13]
    for g, w in zip(got, want):
        assert_same_ensemble(g, w)


def test_two_level_reuse_spans_chunks():
    """Above ``FINE_FRACTION * CHUNK`` paths the coupled paths span two
    chunks, and the control reuses the plain rows of both."""
    p = jump_affine_params()
    n = validate.FINE_FRACTION * sde.CHUNK + 1
    kw = dict(m=p.m, mu=p.mu, master_seed=4, t_max=2.0 ** -10,
              dt=2.0 ** -10, u_bound=16.0, keep_idx=[1])

    def core(noise, keep):
        return simulate_affine(p, 1.0, 0.5, noise, keep=keep)
    got = validate._two_level_runs(core, n, **kw)
    want = oracle_two_level_runs(core, n, **kw)
    assert got[1].n_paths == sde.CHUNK + 1
    for g, w in zip(got, want):
        assert_same_ensemble(g, w)


@pytest.mark.parametrize("chunk", [sde.CHUNK, 8], ids=["chunk", "8-path"])
def test_control_runs_no_coarse_level(monkeypatch, chunk):
    """Without retries the control's batches run the step loop on their
    refined noise only: the level-0 calls cover the plain run's paths
    once and the level-1 calls the coupled ones, at any chunk size."""
    monkeypatch.setattr(sde, "CHUNK", chunk)
    calls = []

    def spy(noise, *args, **kwargs):
        calls.append((noise.n_paths, noise.refinement_level))
        return step_loop(noise, *args, **kwargs)
    step_loop = sde._step_loop
    monkeypatch.setattr(sde, "_step_loop", spy)
    n = 200
    n_fine = -(-n // validate.FINE_FRACTION)
    rep = check_affine_formula(jump_affine_params(), 1.0, 0.0, [0.5],
                               [(-1.0, 0.0)], n_paths=n, master_seed=1,
                               dt=2.0 ** -6, u_bound=16.0)
    assert rep.details["n_retried"] == 0
    assert [sum(k for k, level in calls if level == i) for i in (0, 1)] \
        == [n, n_fine]


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


@pytest.mark.parametrize("t_max", [math.inf, math.nan, 0.3])
def test_uniqueness_rejects_off_grid_horizon(t_max):
    # the grid-time rule is steps_for's; an infinite horizon used to
    # raise OverflowError
    with pytest.raises(ValueError, match="not a positive multiple of dt"):
        uniqueness_experiment(jump_affine_params(), 1.0, 1.5, t_max=t_max,
                              n_paths=2, master_seed=1, dt=0.25)


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
    # At one grid step every quarter-horizon index is that step: no row
    # reads t = 0, where the separation equals its prediction by
    # construction.
    rep = uniqueness_experiment(params, 1.0, 1.5, t_max=dt, n_paths=3,
                                master_seed=7, dt=dt)
    assert [r.quantity for r in rep.rows[1:]] == \
        [f"mean separation t={dt:g}"]
    assert rep.rows[1].observed == pytest.approx(0.5 * np.exp(-0.8 * dt),
                                                 abs=20 * dt)


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
              u_bound=3.0)
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


def _draws_by_chunk(draws, u_bound):
    """``(seeds, bound)`` of each nonempty ``generate_noise`` call, as one
    list per chunk: its first draw at ``u_bound``, then its retry rounds."""
    chunks = []
    for seeds, bound in draws:
        if bound == u_bound:
            chunks.append([])
        chunks[-1].append((seeds, bound))
    return chunks


def test_fluctuation_retry_round_draws_noise_once(monkeypatch):
    """Each retry round draws noise once, for the union of the paths the
    rungs aborted; every rung keeps its own retries."""
    monkeypatch.setattr(sde, "CHUNK", 64)
    draws = []

    def spy(m, mu, t_max, dt, seed, u_bound):
        if len(seed):
            draws.append((tuple(np.asarray(seed).tolist()), u_bound))
        return generate_noise(m, mu, t_max, dt, seed, u_bound)
    monkeypatch.setattr(sde, "generate_noise", spy)
    ensembles = []

    def keep_ensembles(*args, **kwargs):
        ensembles.extend(run_ensemble(*args, **kwargs))
        return ensembles
    monkeypatch.setattr(validate, "run_ensemble", keep_ensembles)
    sp = symmetric_split_params()
    ladder = [4.0, 16.0, 64.0]
    kw = dict(n_paths=200, master_seed=5, t_max=1.0, dt=2.0 ** -6,
              u_bound=3.0)
    fluctuation_experiment(sp, ladder, mode="pair", **kw)
    together = _draws_by_chunk(draws, 3.0)

    alone, retried = [], []
    for theta in ladder:
        draws.clear()
        ens = run_ensemble(
            lambda noise, keep, theta=theta: simulate_reactant_pair(
                sp, theta, 1.0, theta, theta, noise, "pair", None,
                with_limit=True, z0=0.0, keep=keep),
            m=sp.m, mu=sp.mu, keep_idx=[], **kw)
        alone.append(_draws_by_chunk(draws, 3.0))
        retried.append(ens.n_retried)
    assert [ens.n_retried for ens in ensembles] == retried

    assert len(together) == 4                   # 200 paths in 64-path chunks
    for i, chunk in enumerate(together):
        rounds = max(len(rung[i]) for rung in alone)
        assert len(chunk) == rounds > 1         # 1 + (retry rounds) draws
        for j, (seeds, bound) in enumerate(chunk):
            own = [rung[i][j] for rung in alone if len(rung[i]) > j]
            assert {b for _, b in own} == {bound} == {3.0 * 2 ** j}
            union = set().union(*(s for s, _ in own))
            assert len(seeds) == len(union) and set(seeds) == union
    # the rungs retried different paths, so a union saved draws
    assert sum(len(seeds) for chunk in together for seeds, _ in chunk[1:]) \
        < sum(len(seeds) for rung in alone for chunk in rung
              for seeds, _ in chunk[1:])


def test_fluctuation_single_mode_negative_start():
    # the single reactant starts at theta + z0, like its limit equation
    rep = fluctuation_experiment(jump_affine_params(), [4.0, 16.0, 64.0],
                                 mode="single", z0=-0.5, t_max=0.25,
                                 n_paths=200, master_seed=3, dt=2.0 ** -8)
    assert rep.overall, rep.table()
    e = [rep.details["e_theta"][k] for k in ("4", "16", "64")]
    assert e[0] > e[1] > e[2] > 0.0
    assert e[0] < 0.1


def test_fluctuation_rejects_bad_inputs(no_noise):
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


@pytest.mark.parametrize("rung", [np.nan, np.inf])
def test_fluctuation_rejects_nonfinite_rung(monkeypatch, rung):
    batches = []

    def spy(m, mu, t_max, dt, seed, *args):
        batches.append(len(np.atleast_1d(seed)))
        return generate_noise(m, mu, t_max, dt, seed, *args)
    monkeypatch.setattr(sde, "generate_noise", spy)
    p = symmetric_split_params()
    with pytest.raises(ValueError, match=r"^theta_ladder entries must be "
                                         r"finite"):
        fluctuation_experiment(p, [4.0, rung], n_paths=4, master_seed=1)
    assert all(n == 0 for n in batches)


# -- inputs are checked before anything is simulated ----------------------

def test_duplicate_t_list_rejected_up_front(no_noise):
    p = jump_affine_params()
    for t_list in ([0.5, 0.5], [0.5, 0.25, 0.5 + 1e-13]):
        with pytest.raises(ValueError, match="duplicate entries"):
            check_moments(p, 1.0, 0.0, t_list, dt=2.0 ** -4, **MC)
        with pytest.raises(ValueError, match="duplicate entries"):
            check_affine_formula(p, 1.0, 0.0, t_list, [(-1.0, 0.0)],
                                 dt=2.0 ** -4, **MC)
    with pytest.raises(Simulated):       # distinct times go on to simulate
        check_moments(p, 1.0, 0.0, [0.25, 0.5], dt=2.0 ** -4, **MC)
    # a report keys its rows by label, printed to 6 significant digits:
    # distinct grid steps or frequencies with one label would overwrite
    # each other's rows
    label = (r"^duplicate entries: t_list\[0\] = 1.000001 and "
             r"t_list\[1\] = 1.0000011 share row label t=1$")
    for t_list in ([1.000001, 1.0000011], [1.000001, 1.0000011, 0.5]):
        with pytest.raises(ValueError, match=label):
            check_moments(p, 1.0, 0.0, t_list, dt=1e-7, **MC)
        with pytest.raises(ValueError, match=label):
            check_affine_formula(p, 1.0, 0.0, t_list, [(-1.0, 0.0)],
                                 dt=1e-7, **MC)
    u_list = [(-1.0, 0.0), (-1.0000001, 0.0), (-1.0, 0.0)]
    with pytest.raises(ValueError, match=(
            r"^duplicate entries: u_list\[0\] = \(-1.0, 0.0\) and "
            r"u_list\[1\] = \(-1.0000001, 0.0\) share row label "
            r"u=\(-1,0\)$")):
        check_affine_formula(p, 1.0, 0.0, [0.5], u_list, n_paths=50,
                             master_seed=1, dt=2.0 ** -6)
    with pytest.raises(ValueError, match=r"^duplicate entries: u_list"):
        sc_semigroup_check(p, 0.5, 0.5, u_list)
    # an empty list would give a report with no rows, which passes
    for t_list, u_list, name in (([0.5], [], "u_list"),
                                 ([], [(-1.0, 0.0)], "t_list")):
        with pytest.raises(ValueError, match=f"^{name} is empty"):
            check_affine_formula(p, 1.0, 0.0, t_list, u_list, n_paths=300,
                                 master_seed=1, dt=2.0 ** -4)
    with pytest.raises(ValueError, match="^t_list is empty"):
        check_moments(p, 1.0, 0.0, [], dt=2.0 ** -4, **MC)
    with pytest.raises(ValueError, match="^u_list is empty"):
        sc_semigroup_check(p, 0.5, 0.5, [])
    with pytest.raises(ValueError, match="^states is empty"):
        check_generators(p, {}, **MC)
    # the transform's tolerance is read after the simulation
    with pytest.raises(ValueError, match=r"^tol must lie in \[1e-12, "):
        check_affine_formula(p, 1.0, 0.0, [0.5], [(-1.0, 0.0)], n_paths=300,
                             master_seed=1, dt=2.0 ** -6, tol=1e-2)


def test_stability_rule_checked_before_simulation(no_noise):
    p = jump_affine_params()
    runs = [
        lambda: check_moments(p, 1.0, 0.0, [0.5], dt=0.5, **MC),
        lambda: check_affine_formula(p, 1.0, 0.0, [0.5], [(-1.0, 0.0)],
                                     dt=0.5, **MC),
        lambda: uniqueness_experiment(p, 1.0, 1.5, t_max=1.0, dt=0.5, **MC),
        lambda: fluctuation_experiment(p, [4.0, 16.0], dt=0.5, **MC),
        lambda: check_generators(p, {"affine": (0.7, -0.4)}, delta=0.5,
                                 **MC),
        # the scalar equation's rule reads |beta11|
        lambda: check_generators(p, {"cbi": 0.7}, delta=0.5, **MC),
        lambda: check_generators(p, {"catalytic": (1.2, 0.5)},
                                 delta=0.5, **MC),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="explicit-Euler stability rule"):
            run()


def test_system_rules_checked_before_simulation(no_noise):
    p = jump_affine_params()
    negative_b2 = dataclasses.replace(p, b=np.array([p.b[0], -0.2]))
    with pytest.raises(ValueError, match=r"^catalytic reactant requires "
                                         r"b2 >= 0, got -0\.2$"):
        check_generators(negative_b2, {"catalytic": (1.2, 0.5)}, **MC)
    with pytest.raises(ValueError, match=r"^l must be nonnegative, "
                                         r"got -1\.0$"):
        check_generators(p, {"catalytic": (1.2, 0.5)}, l=-1.0, **MC)
    # the catalytic mode's default bound puts it in a group after the
    # others; its rule still fires before the first group draws
    with pytest.raises(ValueError, match="^catalytic reactant requires"):
        check_generators(negative_b2, {"affine": (0.7, -0.4), "cbi": 0.7,
                                       "catalytic": (1.2, 0.5)}, **MC)
    # the default bound 8 (1 + l x) is not positive here; the simulator's
    # rule must fire before any noise is drawn with it
    for l in (-1.0, -2.0):
        with pytest.raises(ValueError, match=rf"^l must be nonnegative, "
                                             rf"got {l}$"):
            check_generators(p, {"cbi": 1.0}, l=l, **MC)
    # a non-finite l is named by both modes' simulators, not read as a
    # bound (l = inf made it infinite) or run until the retries give up
    for which, state in (("cbi", 1.0), ("catalytic", (1.2, 0.5))):
        for l in (np.nan, np.inf):
            with pytest.raises(ValueError, match=rf"^l must be finite, "
                                                 rf"got {l}$"):
                check_generators(p, {which: state}, l=l, **MC)
    # a parameter set is finite, so b1 = inf is rejected where it is built
    with pytest.raises(AdmissibilityError,
                       match=r"^clause \(iii\): b must be finite"):
        dataclasses.replace(p, b=np.array([np.inf, p.b[1]]))


@pytest.mark.parametrize("which, state", [
    ("affine", (0.7, -0.4)), ("cbi", 0.7), ("catalytic", (1.2, 0.5))])
def test_parse_time_stable_delta_runs(which, state):
    """``delta * max|beta_ij| <= 0.1``, the CLI's parse-time rule, implies
    every generator mode's own stability rule."""
    p = jump_affine_params()
    assert 0.1 * p.beta_bar <= 0.1
    (report,) = check_generators(p, {which: state}, delta=0.1, **MC)
    assert report.name == f"generator-{which}"


@pytest.mark.parametrize("run", [
    lambda p: check_moments(p, 1.0, 0.0, [0.5], n_paths=1, master_seed=0),
    lambda p: check_affine_formula(p, 1.0, 0.0, [0.5], [(-1.0, 0.0)],
                                   n_paths=1, master_seed=0),
    lambda p: check_generators(p, {"affine": (0.7, -0.4)}, n_paths=1,
                               master_seed=0),
    lambda p: uniqueness_experiment(p, 1.0, 1.5, t_max=1.0, n_paths=1,
                                    master_seed=0),
], ids=["moments", "affine-formula", "generator", "uniqueness"])
def test_one_path_rejected_up_front(no_noise, run):
    with pytest.raises(ValueError, match="need at least 2 paths"):
        run(jump_affine_params())


def test_pair_split_checked_before_simulation(no_noise):
    p = symmetric_split_params()
    split = sde.ParameterSplit.from_params(p)
    broken = sde.ParameterSplit(**{**split.__dict__,
                                   "b2_pos": split.b2_pos + 1.0})
    with pytest.raises(ValueError) as err:
        fluctuation_experiment(p, [4.0, 16.0], mode="pair", split=broken,
                               **MC)
    assert str(err.value) == "split does not reassemble b2: 1.0 != 0.0"
    # single mode has no second reactant, so any split is refused, also
    # the canonical one
    for given in (broken, split):
        with pytest.raises(ValueError, match="^a split applies only in "
                                             "pair mode"):
            fluctuation_experiment(p, [4.0, 16.0], mode="single",
                                   split=given, n_paths=2, master_seed=0,
                                   dt=2.0 ** -4)


@pytest.mark.parametrize("run,name", [
    (lambda p: check_generators(p, {"affine": (-0.5, 0.0)}, **MC),
     r"state\[0\]"),
    (lambda p: check_generators(p, {"cbi": -0.5}, **MC), "state"),
    (lambda p: check_generators(p, {"catalytic": (-0.5, 1.0)}, **MC),
     r"state\[0\]"),
    (lambda p: check_generators(p, {"catalytic": (1.0, -0.5)}, **MC),
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
    # the default bound 8 (1 + x0) is negative here: the start is named
    # before the bound is read
    (lambda p: check_moments(p, -2.0, 0.0, [0.25], **MC), r"^x0"),
    (lambda p: check_affine_formula(p, -2.0, 0.0, [0.25], [(-1.0, 0.0)],
                                    **MC), r"^x0"),
    (lambda p: fluctuation_experiment(p, [4.0, 16.0], x0=-2.0, **MC),
     r"^x0"),
], ids=["generator-affine", "generator-cbi", "generator-catalytic-x",
        "generator-catalytic-y", "moments", "affine-formula",
        "uniqueness-a", "uniqueness-b", "fluctuation",
        "fluctuation-single-start", "moments-negative-bound",
        "affine-formula-negative-bound", "fluctuation-negative-bound"])
def test_negative_start_rejected_up_front(no_noise, run, name):
    with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
        run(jump_affine_params())


@pytest.mark.parametrize("run", [
    lambda p: check_moments(p, np.nan, 0.0, [0.25], **MC),
    lambda p: check_affine_formula(p, np.nan, 0.0, [0.25], [(-1.0, 0.0)],
                                   **MC),
    lambda p: fluctuation_experiment(p, [4.0, 16.0], x0=np.nan, **MC),
], ids=["moments", "affine-formula", "fluctuation"])
def test_nan_start_rejected_up_front(no_noise, run):
    """The default bound ``8 (1 + x0)`` is NaN too; the start is named."""
    with pytest.raises(ValueError, match=r"^x0 must be finite, got nan$"):
        run(jump_affine_params())


@pytest.mark.parametrize("run, message", [
    (lambda p: check_moments(p, 1.0, 0.0, [0.25], u_bound=np.nan, **MC),
     r"^u_bound must be finite, got nan$"),
    (lambda p: check_generators(p, {"affine": (0.7, -0.4)}, u_bound=0.0,
                                **MC),
     r"^u_bound must be positive when mu is nonempty$"),
], ids=["nan", "zero"])
def test_bad_u_bound_rejected_before_any_noise(no_noise, run, message):
    """Valid models pass the empty batch; the first batch with a path
    checks ``u_bound`` before it draws."""
    with pytest.raises(ValueError, match=message):
        run(jump_affine_params())


# -- semigroup flow --------------------------------------------------------

def test_sc_semigroup_check():
    p = jump_affine_params()
    rep = sc_semigroup_check(p, 0.5, 0.75, [(-1.0, 0.0), (-0.3, 2j)])
    assert rep.overall
    assert len(rep.rows) == 4


def test_sc_semigroup_rejects_non_finite_time():
    with pytest.raises(ValueError, match="^t must be finite"):
        sc_semigroup_check(jump_affine_params(), 0.5, math.inf, [(-1.0, 0.0)])


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
