"""Monte Carlo validation: simulated paths against closed-form predictions.

Every experiment in this module produces an :class:`ExperimentReport` whose
rows compare an observed quantity with an independent prediction under an
explicit tolerance.  Tolerances split into a statistical part (a multiple
of the Monte Carlo standard error) and a scheme-bias budget.  The bias
budget is calibrated per report from a coupled control run at half the
step size: if the scheme error is first order in ``dt``, the difference
between the ``dt`` and ``dt/2`` estimates on shared noise is about half
the bias of the ``dt`` estimate, so four times that difference bounds the
bias with a safety factor of two.

Reports are deterministic functions of their inputs (including the master
seed): rerunning an experiment reproduces every row bit for bit, and the
serialized JSON form excludes wall-clock runtime for that reason.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .noise import refine
from .params import (AdmissibleParams, FiniteAtomicMeasure,
                     ProductExponentialMeasure, UPoint)
from .sde import (CoefficientBounds, GeneralizedCbiSpec, _check_dt,
                  _check_init, _check_reactant, _reactant_starts,
                  _stability_guard, run_ensemble, simulate_affine,
                  simulate_catalytic, simulate_generalized_cbi,
                  simulate_reactant_pair)
from .transform import char_fn, eval_F, eval_R, flow_residual, \
    moment_functionals

__all__ = [
    "CharFnEstimate",
    "CheckRow",
    "ExperimentReport",
    "empirical_char_fn",
    "check_affine_formula",
    "check_moments",
    "check_generator",
    "uniqueness_experiment",
    "fluctuation_experiment",
    "sc_semigroup_check",
    "GENERATOR_CATALOG",
]

DEFAULT_DT = 2.0 ** -10
#: Additive floor under calibrated bias budgets, so a row with a perfectly
#: resolved control run still tolerates representation-level noise.
BIAS_FLOOR = 1e-10
GENERATOR_BIAS_FLOOR = 1e-8
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
    value = complex(value) if isinstance(value, complex) else value
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
    runtime: float = 0.0

    @property
    def overall(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def digest(self) -> str:
        blob = json.dumps(_jsonable(self.inputs), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def payload(self) -> dict:
        """Plain-JSON form; excludes runtime so reruns match bytewise."""
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


def _report(name, inputs, rows, details, started) -> ExperimentReport:
    return ExperimentReport(name=name, inputs=inputs, rows=tuple(rows),
                            details=details,
                            runtime=time.perf_counter() - started)


# -- empirical characteristic function -------------------------------------

@dataclass(frozen=True)
class CharFnEstimate:
    """Sample mean of ``exp(u1 x(t) + u2 z(t))`` over an ensemble."""

    u: UPoint
    t: float
    estimate: complex
    stderr: float
    n_paths: int


def _check_n_paths(n_paths):
    if n_paths < 2:
        raise ValueError("need at least 2 paths for a standard error")


def _as_upoint(u) -> UPoint:
    if isinstance(u, UPoint):
        return u
    return UPoint(*u)


def _column_at(ensemble, t: float) -> int:
    times = np.asarray(ensemble.times)
    hits = np.nonzero(np.isclose(times, t, rtol=0.0,
                                 atol=1e-9 * max(1.0, abs(t))))[0]
    if len(hits) != 1:
        raise ValueError(
            f"t = {t!r} is not a retained grid time; available: "
            f"{np.asarray(times).tolist()}")
    return int(hits[0])


def empirical_char_fn(ensemble, t, u, components=("x", "z")) -> CharFnEstimate:
    """Estimate the joint characteristic function at one grid time.

    ``components`` selects which two ensemble columns play the roles of
    the nonnegative and the real coordinate.  The standard error combines
    the real- and imaginary-part errors in quadrature, so ``3 * stderr``
    bounds the sampling error of the complex estimate.
    """
    u = _as_upoint(u)
    _check_n_paths(ensemble.n_paths)
    idx = _column_at(ensemble, t)
    c1, c2 = components
    x = ensemble.components[c1][:, idx]
    z = ensemble.components[c2][:, idx]
    w = np.exp(u.u1 * x + u.u2 * z)
    n = len(w)
    se = math.sqrt((np.var(w.real, ddof=1) + np.var(w.imag, ddof=1)) / n)
    return CharFnEstimate(u=u, t=float(t), estimate=complex(w.mean()),
                          stderr=float(se), n_paths=n)


# -- shared ensemble plumbing ----------------------------------------------

def _coupled(core):
    """Batch model running the batch ``core`` at ``dt`` and ``dt/2``.

    The fine solution reuses the same driving noise through bridge
    refinement and is reported on the coarse grid as ``<name>_fine``, so
    per-path differences isolate the discretization error of the coarse
    run.
    """

    def model(noise, keep):
        cc, ca, cl = core(noise, keep)
        fc, fa, fl = core(refine(noise), 2 * keep)
        comps = dict(cc)
        for name, arr in fc.items():
            comps[name + "_fine"] = arr
        return comps, np.fmin(ca, fa), cl + fl

    return model


def _grid_indices(t_list, dt):
    """The grid step of each time in ``t_list``: distinct positive
    multiples of ``dt``."""
    steps = {}
    for t in t_list:
        k = round(t / dt)
        if k <= 0 or abs(k * dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(
                f"t = {t!r} is not a positive multiple of dt = {dt!r}")
        if k in steps:
            raise ValueError(f"duplicate entries: t = {steps[k]!r} and "
                             f"t = {t!r} share grid step {k}")
        steps[k] = t
    return list(steps)


def _thinning_bound(u_bound, intensity):
    """``u_bound``, or by default ``8 (1 + intensity)`` for a start
    intensity."""
    return 8.0 * (1.0 + intensity) if u_bound is None else u_bound


def _coupled_affine(params, x0, z0, t_list, dt, u_bound, n_paths, **kwargs):
    """The coupled pair ensemble kept at ``t_list``, and its thinning bound
    (default ``8 (1 + x0)``)."""
    _check_init("x0", x0)
    _check_n_paths(n_paths)
    keep_idx = _grid_indices(t_list, dt)
    _check_dt(dt, params)
    u_bound = _thinning_bound(u_bound, x0)
    model = _coupled(lambda ns, keep: simulate_affine(params, x0, z0, ns,
                                                      keep=keep))
    return run_ensemble(model, m=params.m, mu=params.mu, n_paths=n_paths,
                        t_max=max(t_list), dt=dt, u_bound=u_bound,
                        keep_idx=keep_idx, **kwargs), u_bound


# -- transform-versus-simulation checks ------------------------------------

def check_affine_formula(params, x0, z0, t_list, u_list, *, n_paths,
                         master_seed, dt=DEFAULT_DT, u_bound=None, eps=0.0,
                         tol=1e-9) -> ExperimentReport:
    """Empirical characteristic function against the exact transform.

    One ensemble serves every ``(t, u)`` pair; the bias budget is
    calibrated once per report as four times the largest coupled
    ``dt``-versus-``dt/2`` estimate gap, plus a small floor.
    """
    started = time.perf_counter()
    u_pts = [_as_upoint(u) for u in u_list]
    ens, u_bound = _coupled_affine(params, x0, z0, t_list, dt, u_bound,
                                   n_paths=n_paths, master_seed=master_seed,
                                   eps=eps)
    pairs = [(t, u) for t in t_list for u in u_pts]
    coarse = {p: empirical_char_fn(ens, p[0], p[1]) for p in pairs}
    fine = {p: empirical_char_fn(ens, p[0], p[1],
                                 components=("x_fine", "z_fine"))
            for p in pairs}
    budget = 4.0 * max(abs(coarse[p].estimate - fine[p].estimate)
                       for p in pairs) + BIAS_FLOOR
    rows = []
    for t in t_list:  # one lane batch of frequencies per time
        for u, predicted in zip(u_pts, char_fn(params, (x0, z0), t, u_pts,
                                               tol)):
            est = coarse[(t, u)]
            rows.append(_row(
                f"char_fn t={t:g} u=({_fmt(u.u1)},{_fmt(u.u2)})",
                predicted, est.estimate, 3.0 * est.stderr + budget))
    inputs = {"params": _params_fingerprint(params), "x0": x0, "z0": z0,
              "t_list": list(t_list), "u_list": _jsonable(u_pts),
              "n_paths": n_paths, "master_seed": master_seed, "dt": dt,
              "u_bound": u_bound, "eps": eps, "tol": tol}
    details = {"bias_budget": budget, "n_retried": ens.n_retried}
    return _report("affine-formula", inputs, rows, details, started)


def check_moments(params, x0, z0, t_list, *, n_paths, master_seed,
                  dt=DEFAULT_DT, u_bound=None, eps=0.0) -> ExperimentReport:
    """First moments against their closed forms, plus the a-priori bound.

    Two-sided rows compare ``E[x(t)]`` and ``E[z(t)]`` with the moment
    functionals; one extra one-sided row per time checks the exponential
    a-priori bound ``E[x(t)] <= (x0 + t(b1 + int xi1 m)) e^{t max(b11,0)}``.
    """
    started = time.perf_counter()
    ens, u_bound = _coupled_affine(params, x0, z0, t_list, dt, u_bound,
                                   n_paths=n_paths, master_seed=master_seed,
                                   eps=eps)
    mf = moment_functionals(params)
    stats = []
    for t in t_list:
        col = _column_at(ens, t)
        mx, mz = mf.mean(t, x0, z0)
        for name, target in (("x", mx), ("z", mz)):
            vals = ens.components[name][:, col]
            ctrl = ens.components[name + "_fine"][:, col]
            stats.append((t, name, target, vals.mean(),
                          vals.std(ddof=1) / math.sqrt(len(vals)),
                          abs(vals.mean() - ctrl.mean())))
    budget = 4.0 * max(s[5] for s in stats) + BIAS_FLOOR
    rows = [
        _row(f"mean_{name} t={t:g}", target, observed,
             3.0 * stderr + budget)
        for t, name, target, observed, stderr, _ in stats
    ]
    m1 = params.m.poly_moment(1, 0)
    growth = max(params.beta[0, 0], 0.0)
    for t in t_list:
        col = _column_at(ens, t)
        vals = ens.components["x"][:, col]
        bound = (x0 + t * (params.b[0] + m1)) * math.exp(t * growth)
        stderr = vals.std(ddof=1) / math.sqrt(len(vals))
        rows.append(_row(f"mean_x_bound t={t:g}", bound, vals.mean(),
                         3.0 * stderr + budget, sided="upper"))
    inputs = {"params": _params_fingerprint(params), "x0": x0, "z0": z0,
              "t_list": list(t_list), "n_paths": n_paths,
              "master_seed": master_seed, "dt": dt, "u_bound": u_bound,
              "eps": eps}
    details = {"bias_budget": budget, "n_retried": ens.n_retried}
    return _report("moments", inputs, rows, details, started)


# -- generator checks ------------------------------------------------------

GENERATOR_CATALOG = ("1", "x1", "x2", "x1^2", "x2^2", "x1*x2",
                     "exp(-x1)", "exp(-x1+i*x2)")
_X_ONLY = {"1", "x1", "x1^2", "exp(-x1)"}

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


def _affine_generator_value(params, name, x1, x2):
    """Closed form of the full-plane generator on a catalog function."""
    m, mu = params.m, params.mu
    b1, b2 = params.b
    b11, b21, b22 = params.beta[0, 0], params.beta[1, 0], params.beta[1, 1]
    al = params.alpha
    if name == "1":
        return 0.0
    if name == "x1":
        return b1 + b11 * x1 + m.poly_moment(1, 0)
    if name == "x2":
        return b2 + b21 * x1 + b22 * x2
    if name == "x1^2":
        return (2.0 * x1 * (b1 + b11 * x1) + 2.0 * al[0, 0] * x1
                + 2.0 * x1 * m.poly_moment(1, 0) + m.poly_moment(2, 0)
                + x1 * mu.poly_moment(2, 0))
    if name == "x2^2":
        return (2.0 * x2 * (b2 + b21 * x1 + b22 * x2)
                + 2.0 * (params.a + al[1, 1] * x1)
                + m.poly_moment(0, 2) + x1 * mu.poly_moment(0, 2))
    if name == "x1*x2":
        return (x2 * (b1 + b11 * x1) + x1 * (b2 + b21 * x1 + b22 * x2)
                + 2.0 * al[0, 1] * x1 + x2 * m.poly_moment(1, 0)
                + m.poly_moment(1, 1) + x1 * mu.poly_moment(1, 1))
    u = UPoint(-1.0, 0.0) if name == "exp(-x1)" else UPoint(-1.0, 1j)
    f0 = np.exp(u.u1 * x1 + u.u2 * x2)
    return f0 * (eval_F(params, u) + eval_R(params, u) * x1
                 + b22 * u.u2 * x2)


def _cbi_generator_value(params, name, x, theta0, theta1, l):
    """Closed form of the scalar-branching generator on an x-only function."""
    m, mu = params.m, params.mu
    b, beta, alpha = params.b[0], params.beta[0, 0], params.alpha[0, 0]
    m1 = m.poly_moment(1, 0)
    if name == "1":
        return 0.0
    if name == "x1":
        return b + beta * x + theta0 * m1
    if name == "x1^2":
        return (2.0 * x * (b + beta * x) + 2.0 * alpha * x
                + 2.0 * x * theta0 * m1 + theta0 ** 2 * m.poly_moment(2, 0)
                + l * x * theta1 ** 2 * mu.poly_moment(2, 0))
    if name == "exp(-x1)":
        u1 = -1.0
        imm = m.exp_integral(theta0 * u1, 0.0)
        branch = mu.exp_integral(theta1 * u1, 0.0, compensate_xi1=True)
        return math.exp(u1 * x) * (u1 * b + imm
                                   + x * (u1 * beta + alpha * u1 ** 2
                                          + l * branch))
    raise ValueError(
        f"{name!r} is not in the catalog for mode 'cbi' (x-only functions)")


def _catalytic_generator_value(params, name, x, y, l):
    """Closed form of the catalyst-modulated generator.

    The shared acceptance mark makes candidate jumps move both
    coordinates when the mark clears both thresholds, one coordinate
    otherwise; the coefficients below are the sizes of those three sets.
    """
    m, mu = params.m, params.mu
    b1, b2 = params.b
    b11, b21, b22 = params.beta[0, 0], params.beta[1, 0], params.beta[1, 1]
    al = params.alpha
    joint = min(x, l * x * y)
    x_only = x - joint
    y_only = l * x * y - joint
    if name in _X_ONLY:
        return _affine_generator_value(params, name, x, 0.0)
    if name == "x2":
        return b2 + b21 * x * y + b22 * y + m.poly_moment(0, 1, "plus")
    if name == "x2^2":
        return (2.0 * y * (b2 + b21 * x * y + b22 * y)
                + 2.0 * (params.a * y + al[1, 1] * x * y)
                + 2.0 * y * m.poly_moment(0, 1, "plus")
                + m.poly_moment(0, 2, "plus")
                + l * x * y * mu.poly_moment(0, 2, "plus"))
    if name == "x1*x2":
        return (y * (b1 + b11 * x) + x * (b2 + b21 * x * y + b22 * y)
                + 2.0 * al[0, 1] * x * math.sqrt(y)
                + x * m.poly_moment(0, 1, "plus") + y * m.poly_moment(1, 0)
                + m.poly_moment(1, 1, "plus")
                + joint * mu.poly_moment(1, 1, "plus"))
    if name == "exp(-x1+i*x2)":
        u1, u2 = -1.0, 1j
        f0 = np.exp(u1 * x + u2 * y)
        drift = u1 * (b1 + b11 * x) + u2 * (b2 + b21 * x * y + b22 * y)
        diff = (al[0, 0] * x * u1 ** 2
                + 2.0 * al[0, 1] * x * math.sqrt(y) * u1 * u2
                + (params.a * y + al[1, 1] * x * y) * u2 ** 2)
        imm = (m.exp_integral(u1, u2, region="plus")
               + m.exp_integral(u1, 0.0, region="minus"))
        branch = (joint * mu.exp_integral(u1, u2, region="plus")
                  + x_only * mu.exp_integral(u1, 0.0, region="plus")
                  + y_only * mu.exp_integral(0.0, u2, region="plus")
                  - x * u1 * mu.poly_moment(1, 0, "plus")
                  - l * x * y * u2 * mu.poly_moment(0, 1, "plus")
                  + x * mu.exp_integral(u1, 0.0, region="minus")
                  - x * u1 * mu.poly_moment(1, 0, "minus"))
        return f0 * (drift + diff + imm + branch)
    raise ValueError(f"unknown catalog function {name!r}")


def check_generator(params, state, *, which, n_paths, master_seed,
                    delta=DEFAULT_DT, f=None, theta0=1.0, theta1=1.0,
                    l=1.0, u_bound=None) -> ExperimentReport:
    """One-step weak error against the closed-form generator.

    Simulates a single Euler step of size ``delta`` from ``state`` and
    compares ``(E[f(X(delta))] - f(state)) / delta`` with the generator
    applied to ``f``.  ``which`` selects the dynamics: ``"affine"`` (the
    two-coordinate process), ``"cbi"`` (the scalar branching equation,
    run through the time-dependent-coefficient simulator with constant
    coefficients), or ``"catalytic"`` (the modulated reactant pair).
    ``f=None`` runs the whole catalog applicable to the mode.

    Runs at full jump measures (no truncation band), where every closed
    form on the right-hand side is exact.
    """
    started = time.perf_counter()
    if which not in ("affine", "cbi", "catalytic"):
        raise ValueError(f"unknown generator mode {which!r}")
    if which == "cbi":
        x1 = _check_init("state", state)
        x2 = None
        names = [n for n in GENERATOR_CATALOG if n in _X_ONLY] \
            if f is None else [f]
        intensity = l * x1
    else:
        x1, x2 = _check_init("state[0]", state[0]), float(state[1])
        if which == "catalytic":
            _check_init("state[1]", x2)
        _check_dt(delta, params)
        names = list(GENERATOR_CATALOG) if f is None else [f]
        intensity = x1 if which == "affine" else max(x1, l * x1 * x2)
    for name in names:
        if name not in GENERATOR_CATALOG:
            raise ValueError(f"unknown catalog function {name!r}; "
                             f"choose from {GENERATOR_CATALOG}")
        if which == "cbi" and name not in _X_ONLY:
            raise ValueError(f"{name!r} is not in the catalog for mode "
                             f"'cbi' (x-only functions)")
    _check_n_paths(n_paths)
    u_bound = _thinning_bound(u_bound, intensity)

    if which == "affine":
        def core(noise, keep):
            return simulate_affine(params, x1, x2, noise, keep=keep)
    elif which == "cbi":
        guard = 1.0 + abs(params.beta[0, 0])
        spec = GeneralizedCbiSpec(
            theta0=theta0, theta1=theta1, r=2, sigma=params.sigma[0].copy(),
            b=params.b[0], beta=params.beta[0, 0], l=l,
            bounds=CoefficientBounds(
                float(np.max(np.abs(params.sigma[0]))) + 1.0,
                abs(params.b[0]) + 1.0, guard, l + 1.0),
            mu=params.mu)
        _stability_guard(delta, spec.bounds.beta_bar(delta), "beta_bar")

        def core(noise, keep):
            return simulate_generalized_cbi(spec, x1, noise, keep)
    else:
        def core(noise, keep):
            return simulate_catalytic(params, x1, x2, l, noise, keep)

    ens = run_ensemble(_coupled(core), m=params.m, mu=params.mu,
                       n_paths=n_paths, master_seed=master_seed,
                       t_max=delta, dt=delta, u_bound=u_bound, eps=0.0,
                       keep_idx=[1])
    second = {"affine": "z", "cbi": None, "catalytic": "y"}[which]
    c1 = ens.components["x"][:, 0]
    c2 = ens.components[second][:, 0] if second else None
    f1 = ens.components["x_fine"][:, 0]
    f2 = ens.components[second + "_fine"][:, 0] if second else None

    rows = []
    n = len(c1)
    for name in names:
        samples = _F_EVAL[name](c1, c2)
        control = _F_EVAL[name](f1, f2)
        at_start = complex(_F_EVAL[name](x1, x2))
        observed = (complex(samples.mean()) - at_start) / delta
        if which == "affine":
            predicted = _affine_generator_value(params, name, x1, x2)
        elif which == "cbi":
            predicted = _cbi_generator_value(params, name, x1, theta0,
                                             theta1, l)
        else:
            predicted = _catalytic_generator_value(params, name, x1, x2, l)
        coupled = abs(complex(samples.mean()) - complex(control.mean()))
        budget = (4.0 * coupled + GENERATOR_BIAS_FLOOR) / delta
        if np.iscomplexobj(samples) and name == "exp(-x1+i*x2)":
            for part, tag in ((np.real, "re"), (np.imag, "im")):
                vals = part(samples)
                se = vals.std(ddof=1) / math.sqrt(n) / delta
                rows.append(_row(
                    f"{which}:{name}:{tag}",
                    float(part(complex(predicted))),
                    float(part(observed)), 3.0 * se + budget))
        else:
            vals = np.real(samples)
            se = vals.std(ddof=1) / math.sqrt(n) / delta
            rows.append(_row(f"{which}:{name}", float(np.real(predicted)),
                             float(observed.real), 3.0 * se + budget))
    inputs = {"params": _params_fingerprint(params),
              "state": state if which == "cbi" else list(state),
              "which": which, "delta": delta, "f": f, "n_paths": n_paths,
              "master_seed": master_seed, "theta0": theta0,
              "theta1": theta1, "l": l, "u_bound": u_bound}
    details = {"n_retried": ens.n_retried}
    return _report(f"generator-{which}", inputs, rows, details, started)


# -- pathwise uniqueness and contraction -----------------------------------

def uniqueness_experiment(params, x0_a, x0_b, *, t_max, n_paths,
                          master_seed, dt=2.0 ** -8, z0=0.0, u_bound=None,
                          eps=0.0) -> ExperimentReport:
    """Shared-noise coupling of two starting points.

    Rows: (i) rerunning the whole experiment reproduces every path bit
    for bit; (ii) with equal starts the two solutions coincide exactly;
    (iii) with distinct starts the mean separation at quarter-horizon
    times stays under ``|x0_b - x0_a| e^{t max(b11, 0)}`` — compensated
    branching jumps leave the mean gap unaffected, and the coupled scheme
    keeps the gap one-signed.
    """
    started = time.perf_counter()
    _check_init("x0_a", x0_a)
    _check_init("x0_b", x0_b)
    _check_n_paths(n_paths)
    _check_dt(dt, params)
    u_bound = _thinning_bound(u_bound, max(x0_a, x0_b))
    n_steps = round(t_max / dt)
    keep_idx = sorted({max(1, n_steps // 4), n_steps // 2,
                       (3 * n_steps) // 4, n_steps})

    def model(noise, keep):
        av, aa, ac = simulate_affine(params, x0_a, z0, noise, keep=keep)
        bv, ba, bc = simulate_affine(params, x0_b, z0, noise, keep=keep)
        comps = {"x_a": av["x"], "x_b": bv["x"]}
        return comps, np.fmin(aa, ba), ac + bc

    kwargs = dict(m=params.m, mu=params.mu, n_paths=n_paths,
                  master_seed=master_seed, t_max=t_max, dt=dt,
                  u_bound=u_bound, eps=eps, keep_idx=keep_idx)
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
              "master_seed": master_seed, "dt": dt, "u_bound": u_bound,
              "eps": eps}
    details = {"n_retried": ens.n_retried}
    return _report("uniqueness", inputs, rows, details, started)


# -- scaling-limit fluctuations --------------------------------------------

def _check_ladder(theta_ladder):
    """``theta_ladder`` as floats: at least two scales, strictly
    increasing, none below 1."""
    ladder = [float(t) for t in theta_ladder]
    if len(ladder) < 2:
        raise ValueError("theta_ladder needs at least two scales")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("theta_ladder must be strictly increasing")
    if ladder[0] < 1.0:
        raise ValueError("theta_ladder entries must be >= 1")
    return ladder


def fluctuation_experiment(params, theta_ladder, *, mode="pair", t_max=1.0,
                           n_paths, master_seed, dt=2.0 ** -8, x0=1.0,
                           z0=0.0, u_bound=None, eps=0.0,
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
    coefficient decomposition in pair mode.
    """
    started = time.perf_counter()
    ladder = _check_ladder(theta_ladder)
    _check_reactant(params, ladder[0], mode)
    if mode == "pair" and split is not None:
        split.check_against(params)
    _check_init("x0", x0)
    _check_dt(dt, params)
    u_bound = _thinning_bound(u_bound, x0)

    def rung(theta):
        yp0, ym0 = _reactant_starts(theta, z0, mode)

        def model(noise, keep):
            comps, aborted, clamps = simulate_reactant_pair(
                params, theta, x0, yp0, ym0, noise, mode, split,
                with_limit=True, z0=z0, keep=keep)
            return {"gap": comps["gap"]}, aborted, clamps
        return model

    # every rung runs on the same first-attempt noise of each chunk
    ensembles = run_ensemble([rung(theta) for theta in ladder], m=params.m,
                             mu=params.mu, n_paths=n_paths,
                             master_seed=master_seed, t_max=t_max, dt=dt,
                             u_bound=u_bound, eps=eps, keep_idx=[])
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
              "x0": x0, "z0": z0, "u_bound": u_bound, "eps": eps,
              "deterministic_rate_check": deterministic_rate_check,
              "split": None if split is None else asdict(split)}
    details = {"e_theta": {f"{k:g}": v for k, v in e_theta.items()},
               "n_retried": retried}
    return _report(f"fluctuation-{mode}", inputs, rows, details, started)


# -- transform-level composition -------------------------------------------

def sc_semigroup_check(params, r, t, u_list, *,
                       tol=1e-9) -> ExperimentReport:
    """Flow-property residuals of the transform at composition points."""
    started = time.perf_counter()
    u_pts = [_as_upoint(u) for u in u_list]
    rows = []
    for u, res in zip(u_pts, flow_residual(params, u_pts, r, t, tol)):
        label = f"u=({_fmt(u.u1)},{_fmt(u.u2)})"
        rows.append(_row(f"state-linear flow {label}", 0.0, res.psi,
                         10.0 * tol, sided="upper"))
        rows.append(_row(f"constant-part flow {label}", 0.0, res.phi,
                         10.0 * tol, sided="upper"))
    inputs = {"params": _params_fingerprint(params), "r": r, "t": t,
              "u_list": _jsonable(u_pts), "tol": tol}
    return _report("semigroup-flow", inputs, rows, {}, started)
