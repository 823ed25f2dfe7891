"""Monte Carlo validation: simulated paths against closed-form predictions.

Every experiment in this module produces an :class:`ExperimentReport` whose
rows compare an observed quantity with an independent prediction under an
explicit tolerance.  Tolerances split into a statistical part (a multiple
of the Monte Carlo standard error) and a scheme-bias budget.

The coupled checks use Giles's two-level estimator.  The scheme runs at
``dt`` on all ``N`` paths and, coupled through bridge refinement, at
``dt`` and ``dt/2`` on the first ``max(2, ceil(N / FINE_FRACTION))`` of
them.  A row's estimate is the coarse mean over ``N`` plus the mean
``dt/2``-minus-``dt`` difference ``d`` over the coupled paths, so it
targets the ``dt/2`` level; its standard error combines both means in
quadrature.  If the scheme error is first order in ``dt``, the bias left
at ``dt/2`` is about ``|d|``, so the bias budget ``2 max|d|`` (plus a
small floor) bounds it with a safety factor of two.  One
``run_ensemble`` call runs both, and its coupled ``dt`` level starts as
a copy of the plain run's rows (:func:`_two_level_runs`).
:func:`check_generators` runs the generator modes that share a thinning
bound on one noise draw per level.

Reports are deterministic functions of their inputs (including the master
seed): rerunning an experiment reproduces every row bit for bit.

An experiment checks only the inputs its simulators do not see under the
same name: the starts it names itself (``state``, ``x0_a``, ...), the
path count, the times, the catalog names and the theta ladder.  Every
other rule (starts, coefficients, stability, the split) is the
simulator's own, and fires when ``run_ensemble`` runs the models on an
empty batch, before any path's noise is drawn.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .noise import generate_noise, steps_for
from .params import (AdmissibleParams, FiniteAtomicMeasure,
                     ProductExponentialMeasure, UPoint)
from .sde import (_check_finite, _check_init, _reactant_starts, run_ensemble,
                  simulate_affine, simulate_catalytic, simulate_cbi,
                  simulate_reactant_pair)
from .transform import (_X_ONLY, _affine_generator_value, _as_batch,
                        _catalytic_generator_value, _cbi_generator_value,
                        _check_tol, char_fn, flow_residual, moment_functionals)

__all__ = [
    "CheckRow",
    "ExperimentReport",
    "check_affine_formula",
    "check_moments",
    "check_generators",
    "uniqueness_experiment",
    "fluctuation_experiment",
    "sc_semigroup_check",
    "GENERATOR_CATALOG",
    "GENERATOR_MODES",
]

DEFAULT_DT = 2.0 ** -10
#: Additive floor under calibrated bias budgets, so a row with a perfectly
#: resolved control run still tolerates representation-level noise.
BIAS_FLOOR = 1e-10
GENERATOR_BIAS_FLOOR = 1e-8
#: A coupled check runs its ``dt/2`` control on one path in this many.
FINE_FRACTION = 16
#: Scheme-bias allowance for the contraction check, in units of dt times
#: the initial separation (first-order Euler error with a wide margin).
CONTRACTION_BIAS_RATE = 20.0


# -- reports ---------------------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    """One predicted-versus-observed comparison.

    ``sided`` records how ``error`` was formed: ``"two"`` compares by
    modulus, ``"upper"`` penalizes only ``observed > predicted`` and
    ``"lower"`` only ``observed < predicted`` (used for exact-equality
    targets such as bitwise reproduction counts).
    """

    quantity: str
    predicted: object
    observed: object
    error: float
    tolerance: float
    passed: bool
    sided: str = "two"


def _row(quantity, predicted, observed, tolerance, sided="two") -> CheckRow:
    if sided == "two":
        err = abs(complex(observed) - complex(predicted))
    elif sided == "upper":
        err = max(0.0, float(np.real(observed)) - float(np.real(predicted)))
    elif sided == "lower":
        err = max(0.0, float(np.real(predicted)) - float(np.real(observed)))
    else:
        raise ValueError(f"unknown sidedness {sided!r}")
    err = float(err)
    return CheckRow(quantity=quantity, predicted=predicted,
                    observed=observed, error=err,
                    tolerance=float(tolerance),
                    passed=bool(err <= tolerance), sided=sided)


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, UPoint):
        return [_jsonable(value.u1), _jsonable(value.u2)]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _fmt(value) -> str:
    if isinstance(value, complex):
        if value.imag == 0.0:
            value = value.real
        else:
            return f"{value.real:.6g}{value.imag:+.6g}j"
    return f"{float(value):.6g}"


@dataclass(frozen=True)
class ExperimentReport:
    """Named collection of check rows with reproducibility metadata."""

    name: str
    inputs: dict
    rows: tuple
    details: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def digest(self) -> str:
        blob = json.dumps(_jsonable(self.inputs), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def payload(self) -> dict:
        """Plain-JSON form; reruns match bytewise."""
        return {
            "name": self.name,
            "digest": self.digest,
            "inputs": _jsonable(self.inputs),
            "details": _jsonable(self.details),
            "overall": self.overall,
            "rows": [
                {
                    "quantity": r.quantity,
                    "predicted": _jsonable(r.predicted),
                    "observed": _jsonable(r.observed),
                    "error": r.error,
                    "tolerance": r.tolerance,
                    "sided": r.sided,
                    "passed": r.passed,
                }
                for r in self.rows
            ],
        }

    def table(self) -> str:
        """Human-readable fixed-width summary."""
        head = ["quantity", "predicted", "observed", "error", "tolerance",
                "status"]
        body = [[r.quantity, _fmt(r.predicted), _fmt(r.observed),
                 _fmt(r.error), _fmt(r.tolerance),
                 "pass" if r.passed else "FAIL"] for r in self.rows]
        widths = [max(len(h), *(len(row[i]) for row in body)) if body
                  else len(h) for i, h in enumerate(head)]
        lines = [f"{self.name}: {'PASS' if self.overall else 'FAIL'}"]
        lines.append("  ".join(h.ljust(w) for h, w in zip(head, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    __str__ = table


def _measure_fingerprint(measure) -> dict:
    if isinstance(measure, FiniteAtomicMeasure):
        table = np.column_stack([measure.atoms, measure.weights])
        return {"kind": "finite_atomic", "atoms": table.tolist()}
    if isinstance(measure, ProductExponentialMeasure):
        return {"kind": "product_exponential",
                "total_rate": measure.total_rate, "rate1": measure.rate1,
                "rate2": measure.rate2, "sign_mix": measure.sign_mix}
    raise TypeError(f"unsupported measure type {type(measure).__name__}")


def _params_fingerprint(params: AdmissibleParams) -> dict:
    return {
        "a": params.a,
        "alpha": params.alpha.tolist(),
        "b": params.b.tolist(),
        "beta": params.beta.tolist(),
        "m": _measure_fingerprint(params.m),
        "mu": _measure_fingerprint(params.mu),
    }


# -- sample estimates ------------------------------------------------------

def _check_n_paths(n_paths):
    if n_paths < 2:
        raise ValueError("need at least 2 paths for a standard error")


def _char_samples(ensemble, col, u, components=("x", "z")):
    """Per-path ``exp(u1 c1 + u2 c2)`` of the two named components in kept
    column ``col``; a check's column ``j`` holds time ``t_list[j]``."""
    c1, c2 = components
    return np.exp(u.u1 * ensemble.components[c1][:, col]
                  + u.u2 * ensemble.components[c2][:, col])


def _mean_se(w):
    """Sample mean of ``w`` (complex for complex samples) and its standard
    error, the real- and imaginary-part errors combined in quadrature."""
    se = math.sqrt((np.var(w.real, ddof=1) + np.var(w.imag, ddof=1))
                   / len(w))
    return w.mean().item(), se


# -- shared ensemble plumbing ----------------------------------------------

def _two_level_runs(core, n_paths, **kwargs):
    """The plain and the coupled ensemble of a two-level estimate:
    ``core`` on all ``n_paths`` paths, and at ``dt`` and ``dt/2`` on the
    first ``max(2, ceil(n_paths / FINE_FRACTION))`` of them (see
    ``run_ensemble``).  A ``core`` returning a list of triples gives a
    list of each."""
    return run_ensemble(core, n_paths=n_paths,
                        n_fine=max(2, -(-n_paths // FINE_FRACTION)),
                        **kwargs)


@dataclass(frozen=True)
class _TwoLevel:
    """Two-level estimate of a ``dt/2`` mean and its parts (real for real
    samples)."""

    estimate: complex
    stderr: float
    diff: complex
    diff_stderr: float


def _two_level(samples, fine, coarse) -> _TwoLevel:
    """The mean of ``samples`` (all paths at ``dt``) plus the mean of
    ``fine - coarse`` (the coupled paths at ``dt/2`` and ``dt``)."""
    mean, se = _mean_se(samples)
    diff, diff_se = _mean_se(fine - coarse)
    return _TwoLevel(mean + diff, math.hypot(se, diff_se), diff, diff_se)


def _two_level_details(coarse, coupled, stats, scale=1.0) -> dict:
    """``details`` entries shared by the two-level checks: the coupled
    path count, each row's difference and its standard error (divided by
    ``scale``), and the paths retried over both runs."""
    return {"n_fine_paths": coupled.n_paths,
            "differences": {q: {"diff": s.diff / scale,
                                "stderr": s.diff_stderr / scale}
                            for q, s in stats.items()},
            "n_retried": coarse.n_retried + coupled.n_retried}


def _distinct(name, entries, keys, kind):
    """``keys``, one per entry of the list ``name``: refused if there are
    none, as a report without rows would pass, or if two are equal."""
    if not keys:
        raise ValueError(f"{name} is empty: a report without rows would pass")
    for i, j in enumerate(map(keys.index, keys)):
        if j < i:
            raise ValueError(f"duplicate entries: {name}[{j}] = "
                             f"{entries[j]!r} and {name}[{i}] = "
                             f"{entries[i]!r} share {kind} {keys[i]}")
    return keys


def _grid_indices(t_list, dt):
    """The grid step of each time in ``t_list``: at least one, distinct
    positive multiples of ``dt``, with distinct row labels."""
    steps = _distinct("t_list", t_list, [steps_for(t, dt) for t in t_list],
                      "grid step")
    _distinct("t_list", t_list, [f"t={t:g}" for t in t_list], "row label")
    return steps


def _u_labels(u_list, entries=None):
    """The frequencies of ``u_list`` and their distinct row labels; a
    collision names two of ``entries`` (by default ``u_list``)."""
    u_pts = _as_batch(u_list)[0]
    labels = [f"u=({_fmt(u.u1)},{_fmt(u.u2)})" for u in u_pts]
    return u_pts, _distinct("u_list", entries or u_list, labels, "row label")


def _thinning_bound(u_bound, intensity):
    """``u_bound``, or by default ``8 (1 + intensity)`` for a start
    intensity."""
    return 8.0 * (1.0 + intensity) if u_bound is None else u_bound


def _coupled_affine(params, x0, z0, t_list, dt, u_bound, n_paths,
                    master_seed):
    """The two-level pair ensembles kept at ``t_list``, and their thinning
    bound (default ``8 (1 + x0)``)."""
    _check_n_paths(n_paths)
    keep_idx = _grid_indices(t_list, dt)
    u_bound = _thinning_bound(u_bound, x0)
    return _two_level_runs(
        lambda ns, keep: simulate_affine(params, x0, z0, ns, keep=keep),
        n_paths, m=params.m, mu=params.mu, t_max=max(t_list), dt=dt,
        u_bound=u_bound, keep_idx=keep_idx, master_seed=master_seed), u_bound


# -- transform-versus-simulation checks ------------------------------------

def check_affine_formula(params, x0, z0, t_list, u_list, *, n_paths,
                         master_seed, dt=DEFAULT_DT, u_bound=None,
                         tol=1e-9) -> ExperimentReport:
    """Empirical characteristic function against the exact transform.

    One pair of two-level ensembles serves every ``(t, u)`` pair.  Each
    row's estimate targets the ``dt/2`` level; the bias budget is
    calibrated once per report as twice the largest mean coupled
    ``dt/2``-minus-``dt`` difference, plus a small floor.
    """
    _check_tol(tol)
    u_pts, labels = _u_labels(u_list)
    (ens, ctl), u_bound = _coupled_affine(
        params, x0, z0, t_list, dt, u_bound, n_paths=n_paths,
        master_seed=master_seed)
    stats, predicted = {}, {}
    for col, t in enumerate(t_list):
        values = char_fn(params, (x0, z0), t, u_pts, tol)  # one lane batch
        for u, label, value in zip(u_pts, labels, values):
            quantity = f"char_fn t={t:g} {label}"
            stats[quantity] = _two_level(
                _char_samples(ens, col, u),
                _char_samples(ctl, col, u, ("x_fine", "z_fine")),
                _char_samples(ctl, col, u))
            predicted[quantity] = value
    budget = 2.0 * max(abs(s.diff) for s in stats.values()) + BIAS_FLOOR
    rows = [_row(q, predicted[q], s.estimate, 3.0 * s.stderr + budget)
            for q, s in stats.items()]
    inputs = {"params": _params_fingerprint(params), "x0": x0, "z0": z0,
              "t_list": list(t_list), "u_list": _jsonable(u_pts),
              "n_paths": n_paths, "master_seed": master_seed, "dt": dt,
              "u_bound": u_bound, "tol": tol}
    details = {"bias_budget": budget,
               **_two_level_details(ens, ctl, stats)}
    return ExperimentReport("affine-formula", inputs, tuple(rows), details)


def check_moments(params, x0, z0, t_list, *, n_paths, master_seed,
                  dt=DEFAULT_DT, u_bound=None) -> ExperimentReport:
    """First moments against their closed forms, plus the a-priori bound.

    Two-sided rows compare two-level estimates of ``E[x(t)]`` and
    ``E[z(t)]`` with the moment functionals, under the same budget as
    :func:`check_affine_formula`; one extra one-sided row per time checks
    the ``E[x(t)]`` estimate against the exponential a-priori bound
    ``E[x(t)] <= (x0 + t(b1 + int xi1 m)) e^{t max(b11,0)}``.
    """
    (ens, ctl), u_bound = _coupled_affine(
        params, x0, z0, t_list, dt, u_bound, n_paths=n_paths,
        master_seed=master_seed)
    mf = moment_functionals(params)
    stats, predicted = {}, {}
    for col, t in enumerate(t_list):
        for name, value in zip("xz", mf.mean(t, x0, z0)):
            quantity = f"mean_{name} t={t:g}"
            stats[quantity] = _two_level(
                ens.components[name][:, col],
                ctl.components[name + "_fine"][:, col],
                ctl.components[name][:, col])
            predicted[quantity] = value
    budget = 2.0 * max(abs(s.diff) for s in stats.values()) + BIAS_FLOOR
    rows = [_row(q, predicted[q], s.estimate, 3.0 * s.stderr + budget)
            for q, s in stats.items()]
    m1 = params.m.poly_moment(1, 0)
    growth = max(params.beta[0, 0], 0.0)
    for t in t_list:
        est = stats[f"mean_x t={t:g}"]
        bound = (x0 + t * (params.b[0] + m1)) * math.exp(t * growth)
        rows.append(_row(f"mean_x_bound t={t:g}", bound, est.estimate,
                         3.0 * est.stderr + budget, sided="upper"))
    inputs = {"params": _params_fingerprint(params), "x0": x0, "z0": z0,
              "t_list": list(t_list), "n_paths": n_paths,
              "master_seed": master_seed, "dt": dt, "u_bound": u_bound}
    details = {"bias_budget": budget,
               **_two_level_details(ens, ctl, stats)}
    return ExperimentReport("moments", inputs, tuple(rows), details)


# -- generator checks ------------------------------------------------------

GENERATOR_MODES = ("affine", "cbi", "catalytic")

_F_EVAL = {
    "1": lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
    "x1": lambda x, y: x,
    "x2": lambda x, y: y,
    "x1^2": lambda x, y: np.square(x),
    "x2^2": lambda x, y: np.square(y),
    "x1*x2": lambda x, y: np.asarray(x) * y,
    "exp(-x1)": lambda x, y: np.exp(-np.asarray(x, dtype=float)),
    "exp(-x1+i*x2)": lambda x, y: np.exp(-np.asarray(x) + 1j * np.asarray(y)),
}
GENERATOR_CATALOG = tuple(_F_EVAL)


def check_generators(params, states, *, n_paths, master_seed,
                     delta=DEFAULT_DT, f=None, theta0=1.0, theta1=1.0,
                     l=1.0, u_bound=None) -> list:
    """One-step weak error against the closed-form generator, one report
    per mode of ``states``, a mapping from mode to start state, in the
    order of ``states``.

    Each mode simulates a single Euler step of size ``delta`` from its
    state and compares ``(E[f(X(delta))] - f(state)) / delta`` with the
    generator applied to ``f``.  The mode selects the dynamics:
    ``"affine"`` (the two-coordinate process from ``(x1, x2)``), ``"cbi"``
    (the scalar branching equation of the first coordinate from ``x1``,
    its marks scaled by ``theta0`` and ``theta1`` and its branching
    intensity by ``l``), or ``"catalytic"`` (the modulated reactant pair
    from ``(x, y)``).  ``f=None`` runs the whole catalog applicable to
    each mode.

    The expectation is the two-level estimate of the ``delta/2`` level
    (see the module docstring); each catalog function gets its own bias
    budget ``(2 |d| + floor) / delta`` from its mean coupled difference
    ``d``.

    An empty ``states`` is refused.  Every mode's inputs are checked, and
    its simulator's rules by a run on an empty batch, before any noise is
    drawn.  Modes with the same thinning bound (all of them when
    ``u_bound`` is given; the default ``8 (1 + intensity)`` depends on
    mode and state) run as one model, on one noise draw and refinement
    per batch and retry round; each report equals its one-mode report
    bit for bit.
    """
    if not states:
        raise ValueError("states is empty: no mode would be checked")
    modes = {which: _generator_mode(
        params, which, state, delta=delta, f=f, n_paths=n_paths,
        master_seed=master_seed, theta0=theta0, theta1=theta1, l=l,
        u_bound=u_bound) for which, state in states.items()}
    _check_n_paths(n_paths)
    groups = {}
    for which, (bound, core, _) in modes.items():
        core(generate_noise(params.m, params.mu, delta, delta, [], bound),
             np.array([1]))
        groups.setdefault(bound, []).append(which)
    runs = {}
    for bound, group in groups.items():
        def cores(noise, keep, group=group):
            return [modes[which][1](noise, keep) for which in group]
        ens, ctl = _two_level_runs(cores, n_paths, m=params.m, mu=params.mu,
                                   master_seed=master_seed, t_max=delta,
                                   dt=delta, u_bound=bound, keep_idx=[1])
        runs.update(zip(group, zip(ens, ctl)))
    return [report(*runs[which]) for which, (_, _, report) in modes.items()]


def _generator_mode(params, which, state, *, delta, f, n_paths, master_seed,
                    theta0, theta1, l, u_bound):
    """One mode of :func:`check_generators`, its inputs checked: its
    thinning bound, its batch core, and ``report(ens, ctl)``, which builds
    its report from its plain and coupled ensembles."""
    catalog = GENERATOR_CATALOG
    if which == "affine":
        x1 = _check_init("state[0]", state[0])
        x2 = _check_finite("state[1]", state[1])
        intensity, second, start = x1, "z", list(state)

        def core(noise, keep):
            return simulate_affine(params, x1, x2, noise, keep=keep)

        def value(name):
            return _affine_generator_value(params, name, x1, x2)
    elif which == "cbi":
        x1, x2 = _check_init("state", state), None
        intensity, second, start = l * x1, None, state
        catalog = tuple(n for n in GENERATOR_CATALOG if n in _X_ONLY)

        def core(noise, keep):
            return simulate_cbi(params, x1, theta0, theta1, l, noise, keep)

        def value(name):
            return _cbi_generator_value(params, name, x1, theta0, theta1, l)
    elif which == "catalytic":
        x1 = _check_init("state[0]", state[0])
        x2 = _check_init("state[1]", state[1])
        intensity, second, start = max(x1, l * x1 * x2), "y", list(state)

        def core(noise, keep):
            return simulate_catalytic(params, x1, x2, l, noise, keep)

        def value(name):
            return _catalytic_generator_value(params, name, x1, x2, l)
    else:
        raise ValueError(f"unknown generator mode {which!r}")
    if f not in (None, *catalog):
        raise ValueError(f"unknown catalog function {f!r} for mode "
                         f"{which!r}; choose from {catalog}")
    names = catalog if f is None else [f]
    u_bound = _thinning_bound(u_bound, intensity)

    def at_end(f_eval, ensemble, suffix=""):
        """``f_eval`` on every path's state at ``delta``."""
        x = ensemble.components["x" + suffix][:, 0]
        y = ensemble.components[second + suffix][:, 0] if second else None
        return f_eval(x, y)

    def report(ens, ctl):
        rows, stats = [], {}
        for name in names:
            samples = at_end(_F_EVAL[name], ens)
            fine = at_end(_F_EVAL[name], ctl, "_fine")
            coarse = at_end(_F_EVAL[name], ctl)
            at_start = complex(_F_EVAL[name](x1, x2))
            predicted = value(name)
            diff = abs(np.mean(fine - coarse))
            budget = (2.0 * diff + GENERATOR_BIAS_FLOOR) / delta
            if name == "exp(-x1+i*x2)":
                parts = ((np.real, f"{which}:{name}:re"),
                         (np.imag, f"{which}:{name}:im"))
            else:
                parts = ((np.real, f"{which}:{name}"),)
            for part, quantity in parts:
                est = _two_level(part(samples), part(fine), part(coarse))
                stats[quantity] = est
                rows.append(_row(
                    quantity, float(part(complex(predicted))),
                    (est.estimate - float(part(at_start))) / delta,
                    3.0 * est.stderr / delta + budget))
        inputs = {"params": _params_fingerprint(params), "state": start,
                  "which": which, "delta": delta, "f": f,
                  "n_paths": n_paths, "master_seed": master_seed,
                  "theta0": theta0, "theta1": theta1, "l": l,
                  "u_bound": u_bound}
        details = _two_level_details(ens, ctl, stats, scale=delta)
        return ExperimentReport(f"generator-{which}", inputs, tuple(rows),
                                details)

    return u_bound, core, report


# -- pathwise uniqueness and contraction -----------------------------------

def uniqueness_experiment(params, x0_a, x0_b, *, t_max, n_paths,
                          master_seed, dt=2.0 ** -8, z0=0.0,
                          u_bound=None) -> ExperimentReport:
    """Shared-noise coupling of two starting points.

    Rows: (i) rerunning the whole experiment reproduces every path bit
    for bit; (ii) with equal starts the two solutions coincide exactly;
    (iii) with distinct starts the mean separation at quarter-horizon
    times stays under ``|x0_b - x0_a| e^{t max(b11, 0)}`` — compensated
    branching jumps leave the mean gap unaffected, and the coupled scheme
    keeps the gap one-signed.
    """
    _check_init("x0_a", x0_a)
    _check_init("x0_b", x0_b)
    _check_n_paths(n_paths)
    u_bound = _thinning_bound(u_bound, max(x0_a, x0_b))
    n_steps = steps_for(t_max, dt)
    keep_idx = sorted({max(1, j * n_steps // 4) for j in range(1, 5)})

    def model(noise, keep):
        av, aa, ac = simulate_affine(params, x0_a, z0, noise, keep=keep)
        bv, ba, bc = simulate_affine(params, x0_b, z0, noise, keep=keep)
        comps = {"x_a": av["x"], "x_b": bv["x"]}
        return comps, np.fmin(aa, ba), ac + bc

    kwargs = dict(m=params.m, mu=params.mu, n_paths=n_paths,
                  master_seed=master_seed, t_max=t_max, dt=dt,
                  u_bound=u_bound, keep_idx=keep_idx)
    ens = run_ensemble(model, **kwargs)
    rerun = run_ensemble(model, **kwargs)
    same = np.ones(n_paths, dtype=bool)
    for name in ens.components:
        same &= np.all(ens.components[name] == rerun.components[name],
                       axis=1)
    rows = [_row("bitwise rerun (fraction of paths)", 1.0,
                 float(same.mean()), 0.0, sided="lower")]
    gap = np.abs(ens.components["x_b"] - ens.components["x_a"])
    if x0_a == x0_b:
        rows.append(_row("identical starts: sup separation", 0.0,
                         float(gap.max()), 0.0, sided="upper"))
    growth = max(params.beta[0, 0], 0.0)
    spread = abs(x0_b - x0_a)
    slack_bias = CONTRACTION_BIAS_RATE * dt * max(1.0, spread)
    for j, k in enumerate(keep_idx):
        t = ens.times[j]
        vals = gap[:, j]
        bound = spread * math.exp(growth * t)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        rows.append(_row(f"mean separation t={t:g}", bound,
                         float(vals.mean()), 3.0 * se + slack_bias,
                         sided="upper"))
    inputs = {"params": _params_fingerprint(params), "x0_a": x0_a,
              "x0_b": x0_b, "z0": z0, "t_max": t_max, "n_paths": n_paths,
              "master_seed": master_seed, "dt": dt, "u_bound": u_bound}
    details = {"n_retried": ens.n_retried}
    return ExperimentReport("uniqueness", inputs, tuple(rows), details)


# -- scaling-limit fluctuations --------------------------------------------

def _check_ladder(theta_ladder):
    """``theta_ladder`` as floats: at least two finite scales, strictly
    increasing, none below 1."""
    ladder = [float(t) for t in theta_ladder]
    if len(ladder) < 2:
        raise ValueError("theta_ladder needs at least two scales")
    if not all(math.isfinite(t) for t in ladder):
        raise ValueError(f"theta_ladder entries must be finite, got {ladder}")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("theta_ladder must be strictly increasing")
    if ladder[0] < 1.0:
        raise ValueError("theta_ladder entries must be >= 1")
    return ladder


def fluctuation_experiment(params, theta_ladder, *, mode="pair", t_max=1.0,
                           n_paths, master_seed, dt=2.0 ** -8, x0=1.0,
                           z0=0.0, u_bound=None,
                           deterministic_rate_check=False, split=None
                           ) -> ExperimentReport:
    """Distance from the rescaled reactant to its limit along a ladder.

    For each ``theta`` the centered reactant and the limit equation run on
    the same noise, and ``e_theta`` is the mean over paths of the sup-norm
    gap on the grid.  The checks are ordinal: each rung may not exceed the
    previous by more than 5%, and the last rung must be at most a quarter
    of the first.  With ``deterministic_rate_check`` an extra row asserts
    ``theta * e_theta`` is constant to 10%, the first-order rate of the
    noise-free expansion.  ``split`` overrides the canonical nonnegative
    coefficient decomposition; only pair mode takes one.  The rungs run
    as copies of one step loop on shared noise, with one retry draw per
    round for the paths any rung aborted.
    """
    ladder = _check_ladder(theta_ladder)
    u_bound = _thinning_bound(u_bound, x0)
    y_plus0, y_minus0 = zip(*(_reactant_starts(theta, z0, mode)
                              for theta in ladder))

    def model(noise, keep):
        # the rungs are copies of one step loop on each batch's noise
        return [({"gap": comps["gap"]}, aborted, clamps)
                for comps, aborted, clamps in simulate_reactant_pair(
                    params, ladder, x0, y_plus0, y_minus0, noise, mode,
                    split, with_limit=True, z0=z0, keep=keep)]

    ensembles = run_ensemble(model, m=params.m, mu=params.mu,
                             n_paths=n_paths, master_seed=master_seed,
                             t_max=t_max, dt=dt, u_bound=u_bound,
                             keep_idx=[])
    e_theta = {theta: float(ens.components["gap"][:, 0].mean())
               for theta, ens in zip(ladder, ensembles)}
    retried = sum(ens.n_retried for ens in ensembles)

    def ratio(num, den):
        if den == 0.0:
            return 0.0 if num == 0.0 else math.inf
        return num / den

    rows = []
    for a, b in zip(ladder, ladder[1:]):
        rows.append(_row(f"e ratio theta {a:g}->{b:g}", 1.0,
                         ratio(e_theta[b], e_theta[a]), 0.05,
                         sided="upper"))
    rows.append(_row(f"total drop theta {ladder[0]:g}->{ladder[-1]:g}",
                     0.25, ratio(e_theta[ladder[-1]], e_theta[ladder[0]]),
                     0.0, sided="upper"))
    if deterministic_rate_check:
        products = [theta * e_theta[theta] for theta in ladder]
        center = sum(products) / len(products)
        spread = 0.0 if center == 0.0 else \
            (max(products) - min(products)) / center
        rows.append(_row("theta*e_theta relative spread", 0.0, spread,
                         0.10, sided="upper"))
    inputs = {"params": _params_fingerprint(params),
              "theta_ladder": ladder, "mode": mode, "t_max": t_max,
              "n_paths": n_paths, "master_seed": master_seed, "dt": dt,
              "x0": x0, "z0": z0, "u_bound": u_bound,
              "deterministic_rate_check": deterministic_rate_check,
              "split": None if split is None else asdict(split)}
    details = {"e_theta": {f"{k:g}": v for k, v in e_theta.items()},
               "n_retried": retried}
    return ExperimentReport(f"fluctuation-{mode}", inputs, tuple(rows),
                            details)


# -- transform-level composition -------------------------------------------

def sc_semigroup_check(params, r, t, u_list, *,
                       tol=1e-9) -> ExperimentReport:
    """Flow-property residuals of the transform at composition points."""
    u_pts, labels = _u_labels(u_list)
    rows = []
    for label, res in zip(labels, flow_residual(params, u_pts, r, t, tol)):
        rows.append(_row(f"state-linear flow {label}", 0.0, res.psi,
                         10.0 * tol, sided="upper"))
        rows.append(_row(f"constant-part flow {label}", 0.0, res.phi,
                         10.0 * tol, sided="upper"))
    inputs = {"params": _params_fingerprint(params), "r": r, "t": t,
              "u_list": _jsonable(u_pts), "tol": tol}
    return ExperimentReport("semigroup-flow", inputs, tuple(rows))
