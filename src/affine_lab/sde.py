"""Strong-solution simulators for the jump stochastic systems.

All four systems (the affine pair, the scalar branching equation, the
catalyst/reactant coupling and the rescaled reactant pair with its limit
equation) run through one truncated-Euler step loop, ``_step_loop``, on
the noise grid with exact jump insertion.  A system only declares its
coordinates; each ``_Coord`` gives

* ``euler``: the continuous (drift + diffusion) update from the
  step-start states;
* ``marks0`` and ``m``: its weight of each immigration (N0) mark and the
  immigration compensator;
* ``intensity``: the step-start intensity that thins the candidate stream
  N1 for it (a candidate is accepted when its uniform mark does not
  exceed it);
* ``marks1`` and ``comp``: its weight of each accepted N1 mark and the
  thinning compensator, ``dt * intensity * (band moment)`` over exactly
  the retained jump band;
* ``clamp``: whether it is clamped at zero.

Per step of width ``dt`` every coordinate reads only the step-start
states and runs ``euler -> +N0 marks -> -dt*m -> +accepted N1 marks ->
-comp -> clamp``, so recorded grid values are post-jump states.  The loop
reads the batch's Brownian array and its events bucketed by step, and
owns abort detection (a non-finite state, or an intensity above the
thinning bound) and the clamp count.  It holds only the current states
and records what its caller keeps: chosen grid points and running maxima
(the reactant's distance to its limit).  The catalyst coordinate has one
definition shared by every system that contains it, so its path is
bitwise identical across the pair, catalytic and reactant simulators
given the same noise.

Determinism: a path is a pure function of (coefficients, initial state,
its noise).  Each simulator takes one ``NoiseSystem`` holding a batch of
paths (one path is a batch of one) and performs identical elementwise
arithmetic on every path, so each row of a batch equals the one-path
batch of its seed bit for bit.

Explicit-Euler stability is enforced: runs with ``dt * beta_bar > 0.1``
are refused rather than silently degraded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import (NoiseSystem, generate_noise, steps_for,
                    substream_seed_array)
from .params import AdmissibleParams

__all__ = [
    "StepBound",
    "CoefficientBounds",
    "GeneralizedCbiSpec",
    "ParameterSplit",
    "EnsembleResult",
    "ThinningBoundError",
    "simulate_generalized_cbi",
    "simulate_affine",
    "simulate_affine_voc",
    "simulate_catalytic",
    "simulate_reactant_pair",
    "run_ensemble",
    "STABILITY_LIMIT",
]

STABILITY_LIMIT = 0.1
CHUNK = 2048
MAX_DOUBLINGS = 6   # u_bound doublings run_ensemble tries on aborted paths


def _stability_guard(dt: float, rate: float, label: str) -> None:
    if dt * abs(rate) > STABILITY_LIMIT:
        raise ValueError(
            f"explicit-Euler stability rule: dt*{label} = "
            f"{dt * abs(rate):.3g} exceeds {STABILITY_LIMIT}; refuse to run "
            f"(shrink dt)")


def _check_dt(dt: float, params: AdmissibleParams) -> None:
    """The stability rule for the drift matrix of ``params``."""
    _stability_guard(dt, params.beta_bar, "max|beta|")


def _check_init(name, value):
    if value < 0.0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")
    return float(value)


# -- coefficient bounds and specs ------------------------------------------

@dataclass(frozen=True, eq=False)
class StepBound:
    """Nonnegative nondecreasing right-continuous step function of time."""

    times: np.ndarray
    values: np.ndarray

    def __init__(self, times, values=None):
        if values is None:                      # constant bound
            times, values = [0.0], [float(times)]
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size == 0:
            raise ValueError("times and values must be equal-length 1-d")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("times must start at 0 and increase")
        if np.any(v < 0.0) or np.any(np.diff(v) < 0.0):
            raise ValueError("bound values must be nonnegative nondecreasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t):
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float),
                              side="right") - 1
        return self.values[idx]


def _as_bound(value) -> StepBound:
    return value if isinstance(value, StepBound) else StepBound(value)


@dataclass(frozen=True, eq=False)
class CoefficientBounds:
    """Dominating bounds for the scalar equation's coefficient processes."""

    sigma_bar: StepBound
    b_bar: StepBound
    beta_bar: StepBound
    l_bar: StepBound

    def __init__(self, sigma_bar, b_bar, beta_bar, l_bar):
        object.__setattr__(self, "sigma_bar", _as_bound(sigma_bar))
        object.__setattr__(self, "b_bar", _as_bound(b_bar))
        object.__setattr__(self, "beta_bar", _as_bound(beta_bar))
        object.__setattr__(self, "l_bar", _as_bound(l_bar))


def _coeff_on_grid(value, tk):
    """Evaluate a constant / callable / recorded array on step-start times."""
    n = len(tk)
    if callable(value):
        out = np.asarray([value(t) for t in tk], dtype=float)
    else:
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            out = np.full(n, float(arr))
        elif arr.ndim == 1 and arr.shape[0] in (n, n + 1):
            out = arr[:n]                       # recorded path on the grid
        else:
            raise ValueError(f"coefficient shape {arr.shape} does not fit "
                             f"{n} grid steps")
    if out.shape != (n,):
        raise ValueError(f"coefficient evaluates to shape {out.shape}, "
                         f"expected ({n},)")
    return out


@dataclass(frozen=True, eq=False)
class GeneralizedCbiSpec:
    """Data of the scalar branching equation with time-dependent inputs.

    ``sigma`` maps time to an ``(r,)`` vector (or is a constant / recorded
    array); ``b``, ``beta``, ``l`` are scalar-valued.  ``mu`` is the
    candidate-jump measure, needed for the thinning compensator; the
    immigration jumps arrive pre-sampled inside the NoiseSystem.  Marks are
    read through their first coordinate.
    """

    theta0: float
    theta1: float
    r: int
    sigma: object
    b: object
    beta: object
    l: object
    bounds: CoefficientBounds
    mu: object = None

    def __post_init__(self):
        if self.theta0 < 0.0 or self.theta1 < 0.0:
            raise ValueError("theta0 and theta1 must be nonnegative")
        if self.r < 1:
            raise ValueError("r must be a positive integer")

    def _sigma_on_grid(self, tk):
        n, r = len(tk), self.r
        if callable(self.sigma):
            rows = [np.atleast_1d(np.asarray(self.sigma(t), dtype=float))
                    for t in tk]
            out = np.asarray(rows)
        else:
            arr = np.asarray(self.sigma, dtype=float)
            if arr.ndim == 0:
                out = np.full((n, r), float(arr)) if r == 1 else None
            elif arr.ndim == 1 and arr.shape[0] == r:
                out = np.tile(arr, (n, 1))      # per-component constants
            elif arr.ndim == 1 and r == 1 and arr.shape[0] in (n, n + 1):
                out = arr[:n].reshape(n, 1)     # recorded scalar path
            elif arr.ndim == 2 and arr.shape[0] in (n, n + 1) \
                    and arr.shape[1] == r:
                out = arr[:n]
            else:
                out = None
        if out is None or out.shape != (n, r):
            raise ValueError(f"sigma must evaluate to an ({r},) vector per "
                             f"grid step")
        return out

    def grid_coefficients(self, grid: np.ndarray) -> dict:
        """Evaluate all coefficients at step starts and check the bounds."""
        tk = grid[:-1]
        out = {
            "sigma": self._sigma_on_grid(tk),
            "b": _coeff_on_grid(self.b, tk),
            "beta": _coeff_on_grid(self.beta, tk),
            "l": _coeff_on_grid(self.l, tk),
        }
        checks = [
            ("b", out["b"] < 0.0, "b(t) must be nonnegative"),
            ("l", out["l"] < 0.0, "l(t) must be nonnegative"),
            ("sigma", np.abs(out["sigma"]).max(axis=1)
             > self.bounds.sigma_bar(tk), "|sigma(t)| exceeds sigma_bar"),
            ("b", out["b"] > self.bounds.b_bar(tk), "b(t) exceeds b_bar"),
            ("beta", np.abs(out["beta"]) > self.bounds.beta_bar(tk),
             "|beta(t)| exceeds beta_bar"),
            ("l", out["l"] > self.bounds.l_bar(tk), "l(t) exceeds l_bar"),
        ]
        for _, bad, msg in checks:
            if np.any(bad):
                k = int(np.argmax(bad))
                raise ValueError(f"{msg} at t = {tk[k]:g}")
        return out


def _positive_part(v):
    return (max(v, 0.0), max(-v, 0.0))


def _reactant_starts(theta, z0, mode):
    """The reactant starts ``(y_plus0, y_minus0)`` at scale ``theta`` whose
    centred value is the limit start ``z0``: the pair carries the positive
    and the negative part of ``z0``, the single reactant starts at ``theta
    + z0`` (its ``y_minus0`` is unused)."""
    if mode == "single":
        return _check_init("theta + z0", theta + z0), theta
    zp, zm = _positive_part(z0)
    return theta + zp, theta + zm


@dataclass(frozen=True)
class ParameterSplit:
    """Nonnegative decomposition of the sign-carrying pair coefficients.

    Each coefficient c is written c = c_pos - c_neg with both parts >= 0;
    the two reactant equations carry one part each.
    """

    sigma0_pos: float
    sigma0_neg: float
    sigma21_pos: float
    sigma21_neg: float
    sigma22_pos: float
    sigma22_neg: float
    b2_pos: float
    b2_neg: float
    beta21_pos: float
    beta21_neg: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0.0:
                raise ValueError(f"split part {name} must be nonnegative")

    @classmethod
    def from_params(cls, params: AdmissibleParams) -> "ParameterSplit":
        """Canonical split: positive/negative parts of each coefficient."""
        s0 = _positive_part(params.sigma0)
        s21 = _positive_part(params.sigma[1, 0])
        s22 = _positive_part(params.sigma[1, 1])
        b2 = _positive_part(params.b[1])
        b21 = _positive_part(params.beta[1, 0])
        return cls(*s0, *s21, *s22, *b2, *b21)

    def check_against(self, params: AdmissibleParams) -> None:
        pairs = [
            ("sigma0", self.sigma0_pos - self.sigma0_neg, params.sigma0),
            ("sigma21", self.sigma21_pos - self.sigma21_neg,
             params.sigma[1, 0]),
            ("sigma22", self.sigma22_pos - self.sigma22_neg,
             params.sigma[1, 1]),
            ("b2", self.b2_pos - self.b2_neg, params.b[1]),
            ("beta21", self.beta21_pos - self.beta21_neg, params.beta[1, 0]),
        ]
        for name, got, want in pairs:
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                raise ValueError(f"split does not reassemble {name}: "
                                 f"{float(got)!r} != {float(want)!r}")


# -- components and results ------------------------------------------------

_NONNEG_COMPONENTS = frozenset({"x", "y", "y_plus", "y_minus"})


def _check_nonnegative(components: dict) -> None:
    """Reject a negative value of a component that must stay nonnegative;
    NaN tails of aborted paths pass."""
    for name, arr in components.items():
        if name in _NONNEG_COMPONENTS and np.any(arr < 0.0):
            raise ValueError(f"component {name!r} must be nonnegative")


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Stacked per-path outputs of a batched run.

    ``components`` maps names to ``(n_paths, n_kept)`` arrays sampled at
    ``times``; per-path reductions (e.g. running suprema) have one column.
    ``n_clamped`` sums the models' per-path clamp counts over the kept
    attempt of every path.
    """

    times: np.ndarray
    components: dict
    master_seed: int
    dt: float
    eps: float
    u_bound: float
    n_paths: int
    n_retried: int
    n_clamped: int


class ThinningBoundError(RuntimeError):
    """Some paths still exceed the thinning bound after every doubling."""


# -- events by grid step ---------------------------------------------------

class _EventTable:
    """Events of one stream of a batch, grouped by grid step.

    Arrays are sorted by (step, path) with the stable order preserving each
    path's time order; ``offsets[k]:offsets[k+1]`` slices step ``k``.
    """

    __slots__ = ("path", "xi1", "xi2", "umark", "offsets")

    def __init__(self, noise, which):
        path = getattr(noise, which + "_path")
        marks = getattr(noise, which + "_marks")
        step = np.searchsorted(noise.grid, getattr(noise, which + "_times"),
                               side="left") - 1
        order = np.argsort(step * noise.n_paths + path, kind="stable")
        self.path = path[order]
        self.xi1 = marks[:, 0][order]
        self.xi2 = marks[:, 1][order]
        self.umark = noise.n1_umarks[order] if which == "n1" \
            else np.empty(0)
        counts = np.bincount(step, minlength=noise.n_steps)
        self.offsets = np.concatenate(
            ([0], np.cumsum(counts))).astype(np.intp)


def _add_events(target, paths, weights, n_paths):
    if len(paths):
        target += np.bincount(paths, weights=weights, minlength=n_paths)
    return target


def _region_weights(xi2, region):
    """xi2 contribution per event under a jump-region restriction."""
    if region == "all":
        return xi2
    if region == "plus":
        return np.where(xi2 >= 0.0, xi2, 0.0)
    if region == "minus":
        return np.where(xi2 < 0.0, -xi2, 0.0)   # sign-flipped, nonnegative
    raise ValueError(f"unknown region {region!r}")


def _moment(measure, p1, p2, region, eps):
    if measure is None or measure.is_empty:
        return 0.0
    return measure.poly_moment(p1, p2, region=region, eps=eps)


def _thins(measure) -> bool:
    return measure is not None and not measure.is_empty


def _check_components(noise, min_components):
    if noise.n_components < min_components:
        raise ValueError(f"noise must carry at least {min_components} "
                         f"Brownian components, got {noise.n_components}")


# -- the step kernel -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Coord:
    """One coordinate of a batch system (see the module docstring).

    Call signatures: ``euler(s, dB, k)`` with ``s`` the step-start states
    by name and ``dB`` the step's ``(n_paths, n_components)`` Brownian
    increments; ``intensity(s, k)``; ``comp(s, k, lam)`` with ``lam`` the
    coordinate's intensity; ``marks0(xi1, xi2)`` and ``marks1(xi1, xi2)``
    on a whole event table.  Coordinates that share one intensity
    function share its evaluation and bound check in each step.
    """

    name: str
    start: float
    euler: object
    intensity: object
    marks0: object
    marks1: object
    m: float = 0.0
    comp: object = None
    clamp: bool = False


def _thinning_comp(dt, mu):
    """The compensator ``dt * intensity * mu``, or None when ``mu == 0``."""
    if mu == 0.0:
        return None
    return lambda s, k, lam: dt * lam * mu


def _step_loop(noise, coords, thinning, keep=None, sup=None):
    """Euler paths of ``coords`` on the noise of one batch.

    Returns ``(recorded by name, aborted_at, clamps)``: each coordinate at
    the grid indices ``keep`` (any order; None is all) as ``(n_paths,
    len(keep))``, and per name in ``sup`` one ``(n_paths, 1)`` column, the
    maximum of ``sup[name](state)`` over grid points ``1..n_steps``.  A
    path aborts at the first step whose state is not finite or, when
    ``thinning``, whose intensity exceeds ``u_bound`` (candidates above it
    were never drawn); its later recorded values and maxima are NaN.
    """
    n_paths, n_steps, dt, u_bound = noise.n_paths, noise.n_steps, \
        noise.dt, noise.u_bound
    every = np.arange(n_steps + 1)
    keep = every if keep is None else every[keep]   # -1 is the last point
    columns = {}                                # grid index -> kept columns
    for j, i in enumerate(keep.tolist()):
        columns.setdefault(i, []).append(j)
    ev0 = _EventTable(noise, "n0")
    ev1 = _EventTable(noise, "n1")
    w0 = [c.marks0(ev0.xi1, ev0.xi2) for c in coords]
    w1 = [c.marks1(ev1.xi1, ev1.xi2) for c in coords]
    intensities = list(dict.fromkeys(c.intensity for c in coords))

    s = {c.name: np.full(n_paths, c.start, dtype=float) for c in coords}
    kept = {c.name: np.empty((n_paths, len(keep))) for c in coords}
    sup = {} if sup is None else sup
    peaks = {name: np.full(n_paths, -np.inf) for name in sup}
    abort_step = np.full(n_paths, -1, dtype=np.intp)
    clamps = np.zeros(n_paths, dtype=np.intp)
    alive = np.ones(n_paths, dtype=bool)

    def record(i):
        for j in columns.get(i, ()):
            for name, arr in kept.items():
                arr[:, j] = s[name]

    record(0)
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n_steps):
            lam = {f: f(s, k) for f in intensities}
            bad = ~np.logical_and.reduce([np.isfinite(v) for v in s.values()])
            if thinning:
                for v in lam.values():
                    bad |= v > u_bound
            newly = alive & bad
            if newly.any():
                abort_step[newly] = k
                alive &= ~newly

            dB = noise.brownian[:, :, k]
            a0, e0 = ev0.offsets[k], ev0.offsets[k + 1]
            a1, e1 = ev1.offsets[k], ev1.offsets[k + 1]
            step = {}
            for c, v0, v1 in zip(coords, w0, w1):
                lam_c = lam[c.intensity]
                new = c.euler(s, dB, k)
                if e0 > a0:
                    new = _add_events(new, ev0.path[a0:e0], v0[a0:e0],
                                      n_paths)
                if c.m != 0.0:
                    new = new - dt * c.m
                if e1 > a1:
                    acc = ev1.umark[a1:e1] <= lam_c[ev1.path[a1:e1]]
                    if acc.any():
                        new = _add_events(new, ev1.path[a1:e1][acc],
                                          v1[a1:e1][acc], n_paths)
                if c.comp is not None:
                    new = new - c.comp(s, k, lam_c)
                if c.clamp:
                    neg = new < 0.0
                    clamps += neg & alive
                    new = np.where(neg, 0.0, new)
                step[c.name] = new
            s = step
            record(k + 1)
            for name, fn in sup.items():
                np.maximum(peaks[name], fn(s), out=peaks[name])

    aborted = abort_step >= 0
    dead = (keep > abort_step[:, None]) & aborted[:, None]
    for arr in kept.values():
        arr[dead] = np.nan
    for name, peak in peaks.items():
        kept[name] = np.where(aborted, np.nan, peak).reshape(-1, 1)
    aborted_at = np.where(aborted, noise.grid[abort_step], np.nan)
    return kept, aborted_at, clamps


# -- coordinates -----------------------------------------------------------

def _xi1(xi1, xi2):
    return xi1


def _region_marks(region):
    return lambda xi1, xi2: _region_weights(xi2, region)


def _catalyst_intensity(s, k):
    return s["x"]


def _catalyst(params, x0, dt, eps):
    """The first coordinate, one definition for every pair system so the
    catalyst path is bitwise identical across them for shared noise."""
    b1, b11 = params.b[0], params.beta[0, 0]
    s11, s12 = params.sigma[0]

    def euler(s, dB, k):
        xk = s["x"]
        return xk + dt * (b1 + b11 * xk) \
            + np.sqrt(2.0 * xk) * (s11 * dB[:, 1] + s12 * dB[:, 2])

    return _Coord("x", x0, euler, _catalyst_intensity, _xi1, _xi1,
                  comp=_thinning_comp(dt, _moment(params.mu, 1, 0, "all",
                                                  eps)),
                  clamp=True)


def _linear_partner(params, name, z0, region, dt, eps):
    """The real second coordinate driven by the catalyst; ``region``
    restricts which jump marks it reads ("plus" gives the one-sided limit
    equation of the single reactant)."""
    b2, b21, b22 = params.b[1], params.beta[1, 0], params.beta[1, 1]
    s21, s22 = params.sigma[1]
    rt2s0 = math.sqrt(2.0) * params.sigma0

    def euler(s, dB, k):
        xk, zk = s["x"], s[name]
        return zk + dt * (b2 + b21 * xk + b22 * zk) + rt2s0 * dB[:, 0] \
            + np.sqrt(2.0 * xk) * (s21 * dB[:, 1] + s22 * dB[:, 2])

    marks = _region_marks(region)
    return _Coord(name, z0, euler, _catalyst_intensity, marks, marks,
                  m=_moment(params.m, 0, 1, region, eps),
                  comp=_thinning_comp(dt, _moment(params.mu, 0, 1, region,
                                                  eps)))


def _reactant(params, name, y0, theta, coefs, region, dt, eps):
    """A reactant at scale ``theta`` carrying ``coefs = (sigma0, sigma21,
    sigma22, b2, beta21)`` and the marks of one quadrant: "plus" reads
    them as they are, "minus" sign-flipped."""
    sg0, sg21, sg22, bb2, bb21 = coefs
    b22 = params.beta[1, 1]
    sign = 1.0 if region == "plus" else -1.0
    m_c = sign * _moment(params.m, 0, 1, region, eps)
    mu_c = sign * _moment(params.mu, 0, 1, region, eps)

    def intensity(s, k):
        return s["x"] * (s[name] / theta)

    def euler(s, dB, k):
        xk, yk = s["x"], s[name]
        ty = yk / theta
        return yk + dt * (-theta * b22 + bb21 * xk * ty + bb2 * ty
                          + b22 * yk) \
            + sg0 * np.sqrt(2.0 * ty) * dB[:, 0] \
            + np.sqrt(2.0 * xk * ty) * (sg21 * dB[:, 1] + sg22 * dB[:, 2])

    marks = _region_marks(region)
    return _Coord(name, y0, euler, intensity, marks, marks, m=m_c,
                  comp=_thinning_comp(dt, mu_c), clamp=True)


# -- simulators ------------------------------------------------------------
#
# Each simulator runs every path of one ``NoiseSystem`` batch (one path is
# a batch of one), checks its start values before it steps, and returns
# ``_step_loop``'s triple ``(components, aborted_at, clamps)``: each
# component as an ``(n_paths, len(keep))`` array on the grid indices
# ``keep`` (None keeps all), the abort time of each path (NaN if it ran
# through) and its clamp count.

def simulate_generalized_cbi(spec: GeneralizedCbiSpec, x0: float,
                             noise: NoiseSystem, keep=None):
    """Euler paths of the scalar equation with time-dependent
    coefficients; component ``x``."""
    x0 = _check_init("x0", x0)
    _check_components(noise, spec.r + 1)
    dt, grid = noise.dt, noise.grid
    coeffs = spec.grid_coefficients(grid)
    _stability_guard(dt, spec.bounds.beta_bar(grid[-1]), "beta_bar")
    sigma, b, beta, l = (coeffs[n] for n in ("sigma", "b", "beta", "l"))
    theta0, theta1, r = spec.theta0, spec.theta1, spec.r
    mu_x1 = _moment(spec.mu, 1, 0, "all", noise.eps)

    def euler(s, dB, k):
        xk = s["x"]
        # B_j of the equation maps to noise component j, j = 1..r.
        diff = np.einsum("pj,j->p", dB[:, 1:r + 1], sigma[k])
        return xk + dt * (b[k] + beta[k] * xk) + np.sqrt(2.0 * xk) * diff

    def comp(s, k, lam):
        # Product order dt*l*x*theta1*mu, not dt*(l*x)*...: the two round
        # differently.
        return dt * l[k] * s["x"] * theta1 * mu_x1

    x = _Coord("x", x0, euler, lambda s, k: l[k] * s["x"],
               lambda xi1, xi2: theta0 * xi1,
               lambda xi1, xi2: theta1 * xi1,
               comp=comp if mu_x1 != 0.0 else None, clamp=True)
    return _step_loop(noise, [x], _thins(spec.mu), keep)


def simulate_affine(params: AdmissibleParams, x0: float, z0: float,
                    noise: NoiseSystem, z_region="all", keep=None):
    """Euler paths of the pair system; components ``x`` and ``z``.

    ``z_region`` restricts which jump marks feed the second coordinate:
    "all" is the two-sided pair equation, "plus" the one-sided limit
    equation.  The first coordinate always reads every mark.
    """
    x0 = _check_init("x0", x0)
    _check_components(noise, 3)
    _check_dt(noise.dt, params)
    coords = [_catalyst(params, x0, noise.dt, noise.eps),
              _linear_partner(params, "z", z0, z_region, noise.dt,
                              noise.eps)]
    return _step_loop(noise, coords, _thins(params.mu), keep)


def simulate_affine_voc(params: AdmissibleParams, x_path: np.ndarray,
                        z0: float, noise: NoiseSystem,
                        z_region="all") -> np.ndarray:
    """Second coordinate of one path by the variation-of-constants
    representation.

    Discretizes the integrating-factor form on the same grid, consuming
    the identical Brownian increments, events, and acceptance decisions as
    the direct scheme (thinning against the supplied first-coordinate
    path), and serves as its cross-check; the direct scheme remains the
    primary simulator.  ``noise`` holds one path.
    """
    if noise.n_paths != 1:
        raise ValueError(f"simulate_affine_voc needs a one-path noise "
                         f"system, got {noise.n_paths} paths")
    x_path = np.asarray(x_path, dtype=float)
    n_steps = noise.n_steps
    if x_path.shape != (n_steps + 1,):
        raise ValueError(f"x_path has shape {x_path.shape}, but the noise "
                         f"grid has {n_steps + 1} points")
    dt, eps = noise.dt, noise.eps
    b2 = params.b[1]
    b21, b22 = params.beta[1, 0], params.beta[1, 1]
    s21, s22 = params.sigma[1]
    rt2s0 = math.sqrt(2.0) * params.sigma0
    m_z = _moment(params.m, 0, 1, z_region, eps)
    mu_z = _moment(params.mu, 0, 1, z_region, eps)
    ev0 = _EventTable(noise, "n0")
    ev1 = _EventTable(noise, "n1")
    wz0 = _region_weights(ev0.xi2, z_region)
    wz1 = _region_weights(ev1.xi2, z_region)
    grid = noise.grid
    weight = np.exp(-b22 * grid[:-1])           # integrating factor at t_k

    brown = noise.brownian[0]
    z = np.empty(n_steps + 1)
    z[0] = z0
    acc_sum = 0.0
    for k in range(n_steps):
        xk = x_path[k]
        inc = dt * (b2 + b21 * xk) \
            + rt2s0 * brown[0, k] \
            + math.sqrt(2.0 * max(xk, 0.0)) * (s21 * brown[1, k]
                                               + s22 * brown[2, k])
        s, e = ev0.offsets[k], ev0.offsets[k + 1]
        if e > s:
            inc += wz0[s:e].sum()
        inc -= dt * m_z
        s, e = ev1.offsets[k], ev1.offsets[k + 1]
        if e > s:
            acc = ev1.umark[s:e] <= xk
            inc += wz1[s:e][acc].sum()
        inc -= dt * xk * mu_z
        acc_sum += weight[k] * inc
        z[k + 1] = math.exp(b22 * grid[k + 1]) * (z0 + acc_sum)
    return z


def simulate_catalytic(params: AdmissibleParams, x0: float, y0: float,
                       l: float, noise: NoiseSystem, keep=None):
    """Euler paths of the catalyst/reactant system; components ``x`` and
    ``y``."""
    x0, y0 = _check_init("x0", x0), _check_init("y0", y0)
    if params.b[1] < 0.0:
        raise ValueError(f"catalytic reactant requires b2 >= 0, "
                         f"got {params.b[1]!r}")
    if l < 0.0:
        raise ValueError("coupling constant l must be nonnegative")
    _check_components(noise, 3)
    dt = noise.dt
    _check_dt(dt, params)
    b2, b21, b22 = params.b[1], params.beta[1, 0], params.beta[1, 1]
    s21, s22 = params.sigma[1]
    s0 = params.sigma0

    def euler(s, dB, k):
        xk, yk = s["x"], s["y"]
        return yk + dt * (b2 + b21 * xk * yk + b22 * yk) \
            + s0 * np.sqrt(2.0 * yk) * dB[:, 0] \
            + np.sqrt(2.0 * xk * yk) * (s21 * dB[:, 1] + s22 * dB[:, 2])

    plus = _region_marks("plus")
    # Immigration marks in the positive quadrant, uncompensated.
    y = _Coord("y", y0, euler, lambda s, k: l * s["x"] * s["y"], plus, plus,
               comp=_thinning_comp(dt, _moment(params.mu, 0, 1, "plus",
                                               noise.eps)),
               clamp=True)
    return _step_loop(noise, [_catalyst(params, x0, dt, noise.eps), y],
                      _thins(params.mu), keep)


def _check_reactant(params, theta, mode):
    """Input rules of the reactant system, which need no noise to check."""
    if params.beta[1, 1] >= 0.0:
        raise ValueError(f"reactant scaling requires beta22 < 0, "
                         f"got {params.beta[1, 1]!r}")
    if theta < 1.0:
        raise ValueError("theta must be >= 1")
    if mode not in ("single", "pair"):
        raise ValueError(f"unknown mode {mode!r}")


def simulate_reactant_pair(params: AdmissibleParams, theta: float,
                           x0: float, y_plus0: float, y_minus0: float,
                           noise: NoiseSystem, mode="pair",
                           split: ParameterSplit = None, with_limit=False,
                           z0=None, keep=None):
    """Euler paths of the reactant system at scale ``theta``.

    ``mode="pair"`` runs the nonnegative-split pair, components ``x``,
    ``y_plus``, ``y_minus`` and ``z_k = y_plus - y_minus``, the second
    reactant reading sign-flipped lower-quadrant marks; ``split`` (default
    the canonical one) decomposes the coefficients.  ``mode="single"``
    runs one reactant from ``y_plus0`` carrying the undecomposed
    coefficients with positive-quadrant jumps, components ``x``, ``y``
    and ``z_k = y - theta``.  With ``with_limit`` the matching limit
    equation, started at ``z0``, is advanced on the same noise as
    ``z_lim``, and the supremum of ``|z_k - z_lim|`` over the grid is
    reported per path as the one-column ``gap``.
    """
    x0 = _check_init("x0", x0)
    y_plus0 = _check_init("y_plus0", y_plus0)
    y_minus0 = _check_init("y_minus0", y_minus0)
    _check_reactant(params, theta, mode)
    pair = mode == "pair"
    _check_components(noise, 3)
    dt, eps = noise.dt, noise.eps
    _check_dt(dt, params)

    coords = [_catalyst(params, x0, dt, eps)]
    if pair:
        split = ParameterSplit.from_params(params) if split is None else split
        split.check_against(params)
        coords.append(_reactant(
            params, "y_plus", y_plus0, theta,
            (split.sigma0_pos, split.sigma21_pos, split.sigma22_pos,
             split.b2_pos, split.beta21_pos), "plus", dt, eps))
        coords.append(_reactant(
            params, "y_minus", y_minus0, theta,
            (split.sigma0_neg, split.sigma21_neg, split.sigma22_neg,
             split.b2_neg, split.beta21_neg), "minus", dt, eps))
    else:
        coords.append(_reactant(
            params, "y", y_plus0, theta,
            (params.sigma0, *params.sigma[1], params.b[1],
             params.beta[1, 0]), "plus", dt, eps))

    def centered(s):
        return s["y_plus"] - s["y_minus"] if pair else s["y"] - theta

    sup = None
    if with_limit:
        coords.append(_linear_partner(params, "z_lim", z0,
                                      "all" if pair else "plus", dt, eps))
        sup = {"gap": lambda s: np.abs(centered(s) - s["z_lim"])}
    comps, aborted_at, clamps = _step_loop(noise, coords, _thins(params.mu),
                                           keep, sup)
    comps["z_k"] = centered(comps)
    return comps, aborted_at, clamps


# -- ensemble driver -------------------------------------------------------

def run_ensemble(model_fn, *, m, mu, n_paths, master_seed, t_max, dt,
                 u_bound, eps, keep_idx=None):
    """Run batch models over substream-seeded paths and stack the output.

    ``model_fn`` is one model or a sequence of models, each
    ``model(noise, keep) -> (components, aborted_at, clamps)`` and a pure
    function of the batch ``NoiseSystem``; ``keep`` is the array of grid
    indices to record, ``keep_idx`` applied to ``0..n_steps`` (None keeps
    all), and components are ``(n_paths, len(keep))`` arrays or one-column
    per-path reductions.  One model gives one ``EnsembleResult``, a
    sequence a list of one per model.  Paths run sequentially in chunks
    of ``CHUNK``; each chunk's noise is generated once and every model
    runs on it, and outputs are stacked in path-index order, so they
    depend only on the arguments.  Each model regenerates its own aborted
    paths in one batch with the bound doubled (same per-path seeds) up to
    ``MAX_DOUBLINGS`` times; a path still aborted afterwards raises
    ``ThinningBoundError``.
    """
    models = [model_fn] if callable(model_fn) else list(model_fn)
    seeds = substream_seed_array(master_seed, np.arange(n_paths))
    keep = np.arange(steps_for(t_max, dt) + 1)
    if keep_idx is not None:
        keep = keep[keep_idx]

    def finish(model, chunk_seeds, comps, aborted, clamps):
        retry = np.nonzero(~np.isnan(aborted))[0]
        tries, bound, retried = 0, u_bound, 0
        while len(retry) and tries < MAX_DOUBLINGS:
            tries += 1
            bound *= 2.0
            retried += len(retry)
            comps_r, aborted_r, clamps_r = model(generate_noise(
                m, mu, t_max, dt, chunk_seeds[retry], bound, eps), keep)
            for name in comps:
                comps[name][retry] = comps_r[name]
            aborted[retry] = aborted_r
            clamps[retry] = clamps_r
            retry = retry[~np.isnan(aborted_r)]
        if len(retry):
            raise ThinningBoundError(
                f"{len(retry)} paths still exceed the thinning bound after "
                f"{MAX_DOUBLINGS} doublings of u_bound={u_bound!r}")
        return comps, retried, int(clamps.sum())

    def run_chunk(chunk_seeds):
        noise = generate_noise(m, mu, t_max, dt, chunk_seeds, u_bound, eps)
        return [finish(model, chunk_seeds, *model(noise, keep))
                for model in models]

    # one chunk at a time, so only one chunk's noise is alive
    parts = [run_chunk(seeds[lo:lo + CHUNK])
             for lo in range(0, n_paths, CHUNK)]
    results = [
        EnsembleResult(times=keep * dt,
                       components={name: np.concatenate(
                           [c[name] for c, _, _ in chunks])
                           for name in chunks[0][0]},
                       master_seed=int(master_seed), dt=dt, eps=eps,
                       u_bound=u_bound, n_paths=n_paths,
                       n_retried=sum(r for _, r, _ in chunks),
                       n_clamped=sum(c for _, _, c in chunks))
        for chunks in zip(*parts)]
    return results[0] if callable(model_fn) else results
