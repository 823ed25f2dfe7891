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
reads each step's Brownian increments from ``NoiseSystem.increment``
(contiguous per step in the time-major layout, and built from the coarse
increments and bridge midpoints on a refined grid) and its events
bucketed by step, and owns abort detection (a non-finite state, or an
intensity above the thinning bound) and the clamp count.  It holds only
the current states and records what its caller keeps: chosen grid points
and running maxima (the reactant's distance to its limit).

In place: ``euler`` returns a new array, and the loop adds the jumps,
subtracts the compensators and clamps in it.  Terms read twice in one
step (``sqrt(2 x)``, a reactant's ``y / theta``, ``dt * x``) are
computed once, by ``_shared``.  Each update keeps the operation order of
its expression form, so the bytes are that form's.  The catalyst
coordinate has one definition shared by every system that contains it,
so its path is bitwise identical across the pair, catalytic and reactant
simulators given the same noise.

A zero coefficient's term is left out when its coordinate is built, and
a step runs the abort and clamp masks only when one reduction per array
finds something to abort or clamp; README's step-kernel section says
when a left-out ``c * v`` with ``c = +-0`` could differ (a sum of exactly
``+-0``, or an overflowing ``v``).  A coordinate is built on the noise
it runs on and records the Brownian components its update reads, with
their rows there; ``run_ensemble`` draws every batch with only the
components its model's coordinates read on an empty probe batch.

The loop can also advance several copies of one batch, each with its
own starts and coefficients, along a NumPy broadcast axis: the reactant
simulator runs a whole theta ladder this way, so one step's fixed NumPy
call cost is paid once for every rung.  A coordinate that reads no
per-copy value (the catalyst, the limit equation) is advanced once for
all copies.

Determinism: a path is a pure function of (coefficients, initial state,
its noise).  Each simulator takes one ``NoiseSystem`` holding a batch of
paths (one path is a batch of one) and performs identical elementwise
arithmetic on every path and lane, so each row of a batch equals the
one-path batch of its seed bit for bit, and each rung of a ladder the
one-rung run.  ``run_ensemble`` retries aborted paths in rounds at a
doubled thinning bound; a round draws the noise once, for the union of
the paths the model's results aborted.

Explicit-Euler stability is enforced: runs with ``dt * max|beta| > 0.1``
are refused rather than silently degraded.  ``max|beta|`` is the largest
absolute entry of the drift matrix or, for the scalar equation, which
reads only the first coordinate's drift, ``|beta11|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .noise import (_COMPONENTS, NoiseSystem, generate_noise, refine,
                    steps_for, substream_seed_array)
from .params import AdmissibleParams, _check_finite, _region_mask

__all__ = [
    "ParameterSplit",
    "EnsembleResult",
    "ThinningBoundError",
    "simulate_cbi",
    "simulate_affine",
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
    value = _check_finite(name, value)
    if value < 0.0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")
    return value


def _positive_part(v):
    return (max(v, 0.0), max(-v, 0.0))


def _reactant_starts(theta, z0, mode):
    """The reactant starts ``(y_plus0, y_minus0)`` at scale ``theta`` whose
    centred value is the limit start ``z0``: the pair carries the positive
    and the negative part of ``z0``, the single reactant starts at ``theta
    + z0`` (its ``y_minus0`` is unused)."""
    z0 = _check_finite("z0", z0)
    if mode == "single":
        return _check_init("theta + z0", theta + z0), theta
    zp, zm = _positive_part(z0)
    return theta + zp, theta + zm


# The coefficients a ParameterSplit decomposes, in the order a reactant
# takes them, each with the entry of the parameters it reads.
_SPLIT = (("sigma0", lambda p: p.sigma0),
          ("sigma21", lambda p: p.sigma[1, 0]),
          ("sigma22", lambda p: p.sigma[1, 1]),
          ("b2", lambda p: p.b[1]),
          ("beta21", lambda p: p.beta[1, 0]))


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
        return cls(*(part for _, read in _SPLIT
                     for part in _positive_part(read(params))))

    def _part(self, part: str) -> tuple:
        """The ``part`` ("pos" or "neg") of each coefficient, in the order
        of ``_SPLIT``."""
        return tuple(getattr(self, f"{name}_{part}") for name, _ in _SPLIT)

    def check_against(self, params: AdmissibleParams) -> None:
        for (name, read), pos, neg in zip(_SPLIT, self._part("pos"),
                                          self._part("neg")):
            got, want = pos - neg, read(params)
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                raise ValueError(f"split does not reassemble {name}: "
                                 f"{float(got)!r} != {float(want)!r}")


# -- components and results ------------------------------------------------

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
    dt: float
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
    The stream's events come sorted by path, then time, so a stable sort
    by step alone gives that order, at any number of steps; steps are cast
    to the smallest unsigned type that holds ``n_steps``, which NumPy
    radix-sorts below ``2**16`` steps.
    """

    __slots__ = ("path", "xi1", "xi2", "umark", "offsets")

    def __init__(self, noise, which):
        path = getattr(noise, which + "_path")
        marks = getattr(noise, which + "_marks")
        step = np.searchsorted(noise.grid, getattr(noise, which + "_times"),
                               side="left") - 1
        order = np.argsort(step.astype(np.min_scalar_type(noise.n_steps)),
                           kind="stable")
        self.path = path[order]
        self.xi1 = marks[:, 0][order]
        self.xi2 = marks[:, 1][order]
        self.umark = noise.n1_umarks[order] if which == "n1" \
            else np.empty(0)
        counts = np.bincount(step, minlength=noise.n_steps)
        self.offsets = np.concatenate(
            ([0], np.cumsum(counts))).astype(np.intp)


def _region_weights(xi2, region):
    """xi2 contribution per event under a jump-region restriction; the
    "minus" region's marks are sign-flipped, so nonnegative."""
    if region == "all":
        return xi2
    return np.where(_region_mask(xi2, region),
                    -xi2 if region == "minus" else xi2, 0.0)


# -- the step kernel -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Coord:
    """One coordinate of a batch system (see the module docstring).

    ``start`` is one value, or one per copy when ``_step_loop`` runs
    several.  Call signatures: ``euler(s, dB, k)`` with ``s`` the
    step-start states by name and ``dB`` the step's ``(n_paths,
    n_components)`` Brownian increments; ``intensity(s, k)``; ``comp(s,
    k, lam)`` with ``lam`` the coordinate's intensity; ``marks0(xi1,
    xi2)`` and ``marks1(xi1, xi2)`` on a whole event table.  Coordinates
    that share one intensity function share its evaluation and bound
    check in each step.  ``euler`` and ``comp`` return new arrays, which
    the loop may modify, and change no array they are given.  ``euler``
    leaves out the terms whose coefficient is zero, chosen when the
    coordinate is built; ``rows`` maps each Brownian component it reads
    to that component's row in the noise it was built on, where ``euler``
    reads it.
    """

    name: str
    start: object
    euler: object
    intensity: object
    marks0: object
    marks1: object
    m: float = 0.0
    comp: object = None
    clamp: bool = False
    rows: dict = field(default_factory=dict)


def _shared(s, key, fn, *args):
    """``fn(*args)``, once per step: kept in the step's states ``s`` under
    the tuple ``key``, never a coordinate name, so it is never recorded."""
    term = s.get(key)
    if term is None:
        term = s[key] = fn(*args)
    return term


def _thinning_comp(dt, mu, key=None):
    """The compensator ``dt * intensity * mu``, or None when ``mu == 0``.
    Coordinates thinned by one intensity share its ``dt * intensity`` under
    one ``key``; a coordinate alone with its intensity passes none."""
    if mu == 0.0:
        return None
    if key is None:
        return lambda s, k, lam: dt * lam * mu
    return lambda s, k, lam: _shared(s, key, np.multiply, lam, dt) * mu


def _step_loop(noise, coords, thinning, keep=None, sup=None):
    """Euler paths of ``coords`` on one batch's noise.

    A coordinate's ``start`` is one value or one per copy, so the lanes
    have shape ``broadcast(starts) + (n_paths,)``; copies can differ in
    scale and start (the rungs of a reactant ladder), and an array a
    coordinate closes over per copy is ``(copies, 1)``.  A coordinate
    that reads no per-copy value keeps ``(n_paths,)`` states.  Returns
    ``(recorded by name, aborted_at, clamps)`` over the lanes: each
    coordinate at the grid indices ``keep`` (any order; None is all) as
    ``lanes + (len(keep),)``, and per name in ``sup`` one column, the
    maximum of ``sup[name](state)`` over grid points ``1..n_steps``.  A
    lane aborts at the first step whose state is not finite or, when
    ``thinning``, whose intensity exceeds ``u_bound`` (candidates above
    it were never drawn); its later recorded values and maxima are NaN.
    Step ``k`` reads ``dB = noise.increment(k).T``, a view whose columns
    are each one contiguous row of the time-major noise; on a refined
    grid the increments are built as they are read, so no fine-grid
    Brownian array exists.  Every lane does the elementwise arithmetic
    of its one-copy run and sums its events in the same order, so every
    copy equals that run bit for bit.  N1 acceptance is decided once per
    intensity function and step; a ``bincount`` over flat lanes sums the
    accepted marks as ``np.add.at`` on zeros does.  A system's event tables
    are built once and kept on it for every model run on it.  An empty batch
    (the input checks, whose rules the simulators apply before this) returns
    outputs of the right shapes at once, with no table and no lane state.
    A coordinate must read each Brownian component at the row ``noise``
    holds it in, or the loop refuses it; the union of the components the
    coordinates read is recorded on ``noise``, an empty batch's too.
    Whenever the abort masks run with a lane dead, the dead lanes' states
    are set to 0 (in a state the copies share, only for a path none of
    its copies is alive on), so the later steps stay quiet unless a dead
    lane grows back past the bound; its outputs are NaN either way.
    """
    n_paths, n_steps, dt, u_bound = noise.n_paths, noise.n_steps, \
        noise.dt, noise.u_bound
    held = noise.components
    for c in coords:
        for component, row in c.rows.items():
            if held[row:row + 1] != (component,):
                raise ValueError(
                    f"coordinate {c.name} reads Brownian component "
                    f"{component} at row {row}, but the noise holds "
                    f"components {held}")
    noise._read.append(tuple(sorted({i for c in coords for i in c.rows})))
    shape = np.broadcast_shapes(*(np.shape(c.start) for c in coords)) \
        + (n_paths,)
    every = np.arange(n_steps + 1)
    keep = every if keep is None else every[keep]   # -1 is the last point
    kept = {c.name: np.empty(shape + (len(keep),)) for c in coords}
    sup = {} if sup is None else sup
    if not n_paths:
        kept.update((name, np.empty(shape + (1,))) for name in sup)
        return kept, np.empty(shape), np.zeros(shape, dtype=np.intp)
    columns = {}                                # grid index -> kept columns
    for j, i in enumerate(keep.tolist()):
        columns.setdefault(i, []).append(j)
    if not noise._tables:
        noise._tables[:] = _EventTable(noise, "n0"), _EventTable(noise, "n1")
    ev0, ev1 = noise._tables
    w0 = [c.marks0(ev0.xi1, ev0.xi2) for c in coords]
    w1 = [c.marks1(ev1.xi1, ev1.xi2) for c in coords]
    off0, off1 = memoryview(ev0.offsets), memoryview(ev1.offsets)  # int reads
    dtm = [dt * c.m for c in coords]
    intensities = list(dict.fromkeys(c.intensity for c in coords))

    s = {c.name: np.repeat(np.asarray(c.start, dtype=float)[..., None],
                           n_paths, axis=-1) for c in coords}
    peaks = {name: np.full(shape, -np.inf) for name in sup}
    abort_step = np.full(shape, -1, dtype=np.intp)
    clamps = np.zeros(shape, dtype=np.intp)
    alive = np.ones(shape, dtype=bool)

    def record(i):
        for j in columns.get(i, ()):
            for name, arr in kept.items():
                arr[..., j] = s[name]

    record(0)
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n_steps):
            lam = {f: f(s, k) for f in intensities}
            if not (all(math.isfinite(s[c.name].sum()) for c in coords)
                    and (not thinning
                         or all(v.max() <= u_bound for v in lam.values()))):
                bad = ~reduce(np.logical_and,
                              [np.isfinite(s[c.name]) for c in coords])
                if thinning:
                    for v in lam.values():
                        bad |= v > u_bound
                bad &= alive
                if bad.any():
                    abort_step[bad] = k
                    alive &= ~bad
                if not alive.all():     # new aborts, or a dead lane gone bad
                    # the shared terms go with the old states
                    s = {c.name: _zero_dead(s[c.name], alive) for c in coords}

            dB = noise.increment(k).T
            a0, e0, a1, e1 = off0[k], off0[k + 1], off1[k], off1[k + 1]
            p0, p1 = ev0.path[a0:e0], ev1.path[a1:e1]
            hits = {}   # intensity -> (lane copy * n_paths + path, event)
            for f, v in lam.items() if e1 > a1 else ():
                *copy, e = (ev1.umark[a1:e1] <= v.take(p1, axis=-1)).nonzero()
                if len(e):
                    hits[f] = (p1[e] + copy[0] * n_paths if copy else p1[e]), e
            step = {}
            for c, v0, v1, m in zip(coords, w0, w1, dtm):
                lam_c = lam[c.intensity]
                new = c.euler(s, dB, k)
                if e0 > a0:
                    new += np.bincount(p0, weights=v0[a0:e0],
                                       minlength=n_paths)
                if c.m != 0.0:
                    new -= m
                if c.intensity in hits:
                    lane, e = hits[c.intensity]
                    new += np.bincount(
                        lane, weights=v1[a1:e1][e],
                        minlength=lam_c.size).reshape(lam_c.shape)
                if c.comp is not None:
                    new -= c.comp(s, k, lam_c)
                if c.clamp and not new.min() >= 0.0:   # NaN takes the masks
                    neg = new < 0.0
                    np.add(clamps, neg, out=clamps, where=alive)
                    np.copyto(new, 0.0, where=neg)
                step[c.name] = new
            s = step
            record(k + 1)
            for name, fn in sup.items():
                np.maximum(peaks[name], fn(s), out=peaks[name])

    aborted = abort_step >= 0
    dead = (keep > abort_step[..., None]) & aborted[..., None]
    for arr in kept.values():
        arr[dead] = np.nan
    for name, peak in peaks.items():
        kept[name] = np.where(aborted, np.nan, peak)[..., None]
    aborted_at = np.where(aborted, noise.grid[abort_step], np.nan)
    return kept, aborted_at, clamps


def _zero_dead(state, alive):
    """``state`` with 0, in place, in each lane no live lane of ``alive``
    reads: a state without the copy axes only where every copy is dead."""
    live = alive.any(axis=tuple(range(alive.ndim - state.ndim)))
    np.copyto(state, 0.0, where=~live)
    return state


# -- coordinates -----------------------------------------------------------

def _xi1(xi1, xi2):
    return xi1


def _region_marks(region):
    return lambda xi1, xi2: _region_weights(xi2, region)


def _catalyst_intensity(s, k):
    return s["x"]


_DT_X = ("dt x",)   # the shared dt * x of the catalyst and its partners


def _two_x(s):
    """The step's shared ``2 x`` of the catalyst ``x``."""
    return _shared(s, ("2x",), np.multiply, s["x"], 2.0)


def _sqrt_two_x(s):
    return _shared(s, ("sqrt 2x",), np.sqrt, _two_x(s))


def _rows(noise, loadings):
    """The row in ``noise`` of each Brownian component whose loading in
    ``loadings`` (of ``dB_0, dB_1, dB_2``) is not zero, by component: the
    ``rows`` of a coordinate.  A component the noise lacks raises."""
    return {c: noise.row(c) for c, v in enumerate(loadings) if v != 0.0}


def _mix(rows, c1, c2):
    """``dB -> c1 dB_1 + c2 dB_2`` as a new array, of the terms whose
    coefficient is not zero, each component read at its row in
    ``rows``; None when both are zero."""
    if c2 == 0.0:
        if c1 == 0.0:
            return None
        r1 = rows[1]
        return lambda dB: np.multiply(dB[:, r1], c1)
    r2 = rows[2]
    if c1 == 0.0:
        return lambda dB: np.multiply(dB[:, r2], c2)
    r1 = rows[1]

    def mix(dB):
        out = np.multiply(dB[:, r1], c1)
        out += c2 * dB[:, r2]
        return out
    return mix


def _catalyst_noise(rows, c1, c2):
    """The noise term ``sqrt(2 x) (c1 dB_1 + c2 dB_2)`` driven by the
    catalyst ``x``, as a list of none or one ``term(s, dB)``."""
    mix = _mix(rows, c1, c2)
    if mix is None:
        return []

    def term(s, dB):
        out = mix(dB)
        out *= _sqrt_two_x(s)
        return out
    return [term]


def _reactant_noise(rows, v, c0, c1, c2):
    """The noise terms ``c0 sqrt(2 v) dB_0`` and ``sqrt(2 x v) (c1 dB_1 +
    c2 dB_2)`` of a reactant ``v(s)``, those whose coefficients are not
    all zero, as a list of ``term(s, dB)``."""
    terms = []
    if c0 != 0.0:
        r0 = rows[0]

        def own(s, dB):
            out = np.multiply(v(s), 2.0)
            np.sqrt(out, out=out)
            out *= c0
            out *= dB[:, r0]
            return out
        terms.append(own)
    mix = _mix(rows, c1, c2)
    if mix is not None:
        def shared(s, dB):
            out = np.multiply(_two_x(s), v(s))
            np.sqrt(out, out=out)
            out *= mix(dB)
            return out
        terms.append(shared)
    return terms


def _euler(name, dt, lead, drift, noise):
    """The update ``y + dt (lead + d_1 + d_2 + ...) + n_1 + n_2 + ...`` of
    ``y = s[name]``, each drift term ``d(s)`` and noise term ``n(s, dB)``
    a new array, summed left to right in the first drift term's array; a
    ``lead`` of None is left out."""
    first, *rest = drift

    def euler(s, dB, k):
        new = first(s)
        if lead is not None:
            new += lead
        for term in rest:
            new += term(s)
        new *= dt
        new += s[name]
        for term in noise:
            new += term(s, dB)
        return new
    return euler


def _branching_euler(dt, b, beta, noise):
    """The update ``x + dt (b + beta x)`` plus the terms ``noise``."""
    return _euler("x", dt, b, [lambda s: np.multiply(s["x"], beta)], noise)


def _nonzero(c):
    """``c``, or None when it is zero (either sign)."""
    return None if c == 0.0 else c


def _catalyst(params, x0, noise):
    """The first coordinate on ``noise``, one definition for every pair
    system so the catalyst path is bitwise identical across them for
    shared noise."""
    dt, sigma = noise.dt, params.sigma[0]
    rows = _rows(noise, (0.0, *sigma))
    euler = _branching_euler(dt, params.b[0], params.beta[0, 0],
                             _catalyst_noise(rows, *sigma))
    return _Coord("x", x0, euler, _catalyst_intensity, _xi1, _xi1,
                  comp=_thinning_comp(dt, params.mu.poly_moment(1, 0), _DT_X),
                  clamp=True, rows=rows)


def _linear_partner(params, name, z0, region, noise):
    """The real second coordinate driven by the catalyst, on ``noise``;
    ``region`` restricts which jump marks it reads ("plus" gives the
    one-sided limit equation of the single reactant)."""
    # zk + dt (b2 + b21 xk + b22 zk) + rt2s0 dB_0 + sqrt(2 xk) (...)
    dt = noise.dt
    b2, b21, b22 = params.b[1], params.beta[1, 0], params.beta[1, 1]
    rt2s0 = math.sqrt(2.0) * params.sigma0
    rows = _rows(noise, (rt2s0, *params.sigma[1]))
    drift = [lambda s: np.multiply(s["x"], b21)] if b21 != 0.0 else []
    drift.append(lambda s: np.multiply(s[name], b22))
    own = []
    if rt2s0 != 0.0:
        r0 = rows[0]
        own.append(lambda s, dB: np.multiply(dB[:, r0], rt2s0))
    euler = _euler(name, dt, _nonzero(b2), drift,
                   own + _catalyst_noise(rows, *params.sigma[1]))
    marks = _region_marks(region)
    return _Coord(name, z0, euler, _catalyst_intensity, marks, marks,
                  m=params.m.poly_moment(0, 1, region),
                  comp=_thinning_comp(dt, params.mu.poly_moment(0, 1, region),
                                      _DT_X), rows=rows)


def _reactant(params, name, y0, theta, coefs, region, noise):
    """A reactant at scale ``theta`` (one row per copy) on ``noise``,
    carrying ``coefs = (sigma0, sigma21, sigma22, b2, beta21)`` and the
    marks of one quadrant: "plus" reads them as they are, "minus"
    sign-flipped."""
    # yk + dt (-theta b22 + bb21 xk ty + bb2 ty + b22 yk)
    #    + sg0 sqrt(2 ty) dB_0 + sqrt(2 xk ty) (...),  ty = yk / theta
    dt = noise.dt
    sg0, sg21, sg22, bb2, bb21 = coefs
    rows = _rows(noise, (sg0, sg21, sg22))
    b22 = params.beta[1, 1]
    sign = 1.0 if region == "plus" else -1.0
    m_c = sign * params.m.poly_moment(0, 1, region)
    mu_c = sign * params.mu.poly_moment(0, 1, region)

    def ratio(s):
        return _shared(s, (name, "/theta"), np.divide, s[name], theta)

    def intensity(s, k):
        return s["x"] * ratio(s)

    drift = []
    if bb21 != 0.0:
        drift.append(lambda s: np.multiply(np.multiply(s["x"], bb21),
                                           ratio(s)))
    if bb2 != 0.0:
        drift.append(lambda s: np.multiply(ratio(s), bb2))
    drift.append(lambda s: np.multiply(s[name], b22))
    euler = _euler(name, dt, -theta * b22, drift,
                   _reactant_noise(rows, ratio, sg0, sg21, sg22))
    marks = _region_marks(region)
    return _Coord(name, y0, euler, intensity, marks, marks, m=m_c,
                  comp=_thinning_comp(dt, mu_c), clamp=True, rows=rows)


# -- simulators ------------------------------------------------------------
#
# Each simulator runs every path of one ``NoiseSystem`` batch (one path is
# a batch of one), checks its start values before it steps, and returns
# ``_step_loop``'s triple ``(components, aborted_at, clamps)``: each
# component as an ``(n_paths, len(keep))`` array on the grid indices
# ``keep`` (None keeps all), the abort time of each path (NaN if it ran
# through) and its clamp count.

def simulate_cbi(params: AdmissibleParams, x0: float, theta0: float,
                 theta1: float, l: float, noise: NoiseSystem, keep=None):
    """Euler paths of the scalar branching equation; component ``x``.

    Its coefficients are the first coordinate's: drift ``b1 + beta11 x``,
    diffusion ``sqrt(2 x)`` on Brownian components 1 and 2 weighted by
    the row ``sigma[0]``, immigration marks scaled by ``theta0``, and
    candidate marks scaled by ``theta1`` and thinned at intensity ``l x``.
    At ``theta0 = theta1 = l = 1`` it is the catalyst of the pair system.
    """
    x0, theta0, theta1, l = (_check_init(name, value) for name, value in (
        ("x0", x0), ("theta0", theta0), ("theta1", theta1), ("l", l)))
    dt = noise.dt
    b, beta = params.b[0], params.beta[0, 0]
    _stability_guard(dt, beta, "|beta11|")
    mu_x1 = params.mu.poly_moment(1, 0)
    rows = _rows(noise, (0.0, *params.sigma[0]))
    euler = _branching_euler(dt, b, beta,
                             _catalyst_noise(rows, *params.sigma[0]))

    def comp(s, k, lam):
        # Product order dt*l*x*theta1*mu, not dt*(l*x)*...: the two round
        # differently.
        return dt * l * s["x"] * theta1 * mu_x1

    x = _Coord("x", x0, euler, lambda s, k: l * s["x"],
               lambda xi1, xi2: theta0 * xi1,
               lambda xi1, xi2: theta1 * xi1,
               comp=comp if mu_x1 != 0.0 else None, clamp=True, rows=rows)
    return _step_loop(noise, [x], not params.mu.is_empty, keep)


def simulate_affine(params: AdmissibleParams, x0: float, z0: float,
                    noise: NoiseSystem, z_region="all", keep=None):
    """Euler paths of the pair system; components ``x`` and ``z``.

    ``z_region`` restricts which jump marks feed the second coordinate:
    "all" is the two-sided pair equation, "plus" the one-sided limit
    equation.  The first coordinate always reads every mark.
    """
    x0, z0 = _check_init("x0", x0), _check_finite("z0", z0)
    _check_dt(noise.dt, params)
    coords = [_catalyst(params, x0, noise),
              _linear_partner(params, "z", z0, z_region, noise)]
    return _step_loop(noise, coords, not params.mu.is_empty, keep)


def simulate_catalytic(params: AdmissibleParams, x0: float, y0: float,
                       l: float, noise: NoiseSystem, keep=None):
    """Euler paths of the catalyst/reactant system; components ``x`` and
    ``y``."""
    x0, y0, l = (_check_init(name, value)
                 for name, value in (("x0", x0), ("y0", y0), ("l", l)))
    if params.b[1] < 0.0:
        raise ValueError(f"catalytic reactant requires b2 >= 0, "
                         f"got {float(params.b[1])!r}")
    dt = noise.dt
    _check_dt(dt, params)
    # yk + dt (b2 + b21 xk yk + b22 yk) + s0 sqrt(2 yk) dB_0
    #    + sqrt(2 xk yk) (s21 dB_1 + s22 dB_2)
    b2, b21, b22 = params.b[1], params.beta[1, 0], params.beta[1, 1]
    drift = [lambda s: np.multiply(np.multiply(s["x"], b21), s["y"])] \
        if b21 != 0.0 else []
    drift.append(lambda s: np.multiply(s["y"], b22))
    rows = _rows(noise, (params.sigma0, *params.sigma[1]))
    euler = _euler("y", dt, _nonzero(b2), drift,
                   _reactant_noise(rows, lambda s: s["y"], params.sigma0,
                                   *params.sigma[1]))
    plus = _region_marks("plus")
    # Immigration marks in the positive quadrant, uncompensated.
    y = _Coord("y", y0, euler, lambda s, k: l * s["x"] * s["y"], plus, plus,
               comp=_thinning_comp(dt, params.mu.poly_moment(0, 1, "plus")),
               clamp=True, rows=rows)
    return _step_loop(noise, [_catalyst(params, x0, noise), y],
                      not params.mu.is_empty, keep)


def _check_reactant(params, theta, mode):
    """Input rules of the reactant system, which need no noise to check."""
    if params.beta[1, 1] >= 0.0:
        raise ValueError(f"reactant scaling requires beta22 < 0, "
                         f"got {float(params.beta[1, 1])!r}")
    if _check_finite("theta", theta) < 1.0:
        raise ValueError("theta must be >= 1")
    if mode not in ("single", "pair"):
        raise ValueError(f"unknown mode {mode!r}")


def simulate_reactant_pair(params: AdmissibleParams, theta, x0: float,
                           y_plus0, y_minus0, noise: NoiseSystem,
                           mode="pair", split: ParameterSplit = None,
                           with_limit=False, z0=None, keep=None):
    """Euler paths of the reactant system at scale ``theta``.

    ``mode="pair"`` runs the nonnegative-split pair, components ``x``,
    ``y_plus``, ``y_minus`` and ``z_k = y_plus - y_minus``, the second
    reactant reading sign-flipped lower-quadrant marks; ``split`` (default
    the canonical one) decomposes the coefficients.  ``mode="single"``
    runs one reactant from ``y_plus0`` carrying the undecomposed
    coefficients with positive-quadrant jumps, components ``x``, ``y``
    and ``z_k = y - theta``; it has no split to take, so a ``split`` is
    refused.  With ``with_limit`` the matching limit equation, started at
    ``z0``, is advanced on the same noise as ``z_lim``, and the supremum
    of ``|z_k - z_lim|`` over the grid is reported per path as the
    one-column ``gap``.

    ``theta`` may be a ladder, a 1-d sequence of scales, with
    ``y_plus0`` and ``y_minus0`` one start per rung.  The rungs then run
    as copies of one step loop on the same noise, and the result is a
    list of one triple per rung, each equal bit for bit to the run of
    that rung alone (which is the one-rung ladder).
    """
    ladder = np.ndim(theta) > 0
    rungs, yp0, ym0 = (list(v) if ladder else [v]
                       for v in (theta, y_plus0, y_minus0))
    if not rungs or not len(rungs) == len(yp0) == len(ym0):
        raise ValueError(f"a ladder needs one y_plus0 and one y_minus0 per "
                         f"theta, got {len(rungs)}, {len(yp0)} and "
                         f"{len(ym0)}")
    x0 = _check_init("x0", x0)
    yp0 = [_check_init("y_plus0", y) for y in yp0]
    ym0 = [_check_init("y_minus0", y) for y in ym0]
    for rung in rungs:
        _check_reactant(params, rung, mode)
    pair = mode == "pair"
    if split is not None and not pair:
        raise ValueError("a split applies only in pair mode; the single "
                         "reactant carries the undecomposed coefficients")
    dt = noise.dt
    _check_dt(dt, params)

    scales = np.array(rungs, dtype=float)[:, None]  # one row per rung
    coords = [_catalyst(params, x0, noise)]
    if pair:
        split = ParameterSplit.from_params(params) if split is None else split
        split.check_against(params)
        coords.append(_reactant(params, "y_plus", yp0, scales,
                                split._part("pos"), "plus", noise))
        coords.append(_reactant(params, "y_minus", ym0, scales,
                                split._part("neg"), "minus", noise))
    else:
        coords.append(_reactant(params, "y", yp0, scales,
                                tuple(read(params) for _, read in _SPLIT),
                                "plus", noise))

    def centered(s, theta):
        return s["y_plus"] - s["y_minus"] if pair else s["y"] - theta

    sup = None
    if with_limit:
        coords.append(_linear_partner(params, "z_lim",
                                      _check_finite("z0", z0),
                                      "all" if pair else "plus", noise))
        def gap(s):
            d = centered(s, scales)
            return np.abs(np.subtract(d, s["z_lim"], out=d), out=d)

        sup = {"gap": gap}
    comps, aborted_at, clamps = _step_loop(
        noise, coords, not params.mu.is_empty, keep, sup)
    comps["z_k"] = centered(comps, scales[..., None])
    out = [({name: arr[r] for name, arr in comps.items()}, aborted_at[r],
            clamps[r]) for r in range(len(rungs))]
    return out if ladder else out[0]


# -- ensemble driver -------------------------------------------------------

def run_ensemble(model, *, m, mu, n_paths, master_seed, t_max, dt,
                 u_bound, keep_idx=None, n_fine=0):
    """Run a batch model over substream-seeded paths and stack the output.

    ``model(noise, keep)`` is a pure function of the batch ``NoiseSystem``
    returning ``(components, aborted_at, clamps)``, or a list of such
    triples, one per result (the rungs of a reactant ladder run as one
    model); ``keep`` is the array of grid indices to record, ``keep_idx``
    applied to ``0..n_steps`` (None keeps all), and components are
    ``(n_paths, len(keep))`` arrays or one-column per-path reductions.
    One triple gives one ``EnsembleResult``, a list a list of one per
    triple.  Paths run sequentially in chunks of ``CHUNK``; each chunk's
    noise is generated once, and outputs are stacked in path-index
    order, so they depend only on the arguments.  Aborted paths are
    retried in rounds with the bound doubled (same per-path seeds), up
    to ``MAX_DOUBLINGS`` times: a round draws noise once, for the union
    of the paths any result still has aborted, and each result takes the
    rows of its own.  A path's noise depends only on its seed and bound,
    so a result is the same as if it were retried alone.  A path still
    aborted afterwards raises ``ThinningBoundError``.  The model first
    runs on an empty batch, so its input rules are checked before
    ``u_bound`` is and before any path's noise is drawn; the Brownian
    components its step loops read there are the only ones every batch
    draws and holds (all three if it runs no step loop).

    With ``n_fine > 0`` the result is a pair ``(plain, coupled)``:
    ``coupled`` holds the first ``n_fine`` paths at ``dt`` and, on their
    bridge-refined noise, at ``dt/2`` as ``<name>_fine``, with the
    earlier abort time and the summed clamps.  Its ``dt`` level starts
    as a copy of the plain first-round rows, equal to a rerun bit for
    bit; its retry rounds run both levels.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths!r}")
    if not 0 <= n_fine <= n_paths:
        raise ValueError(f"n_fine must lie in [0, n_paths = {n_paths}], "
                         f"got {n_fine!r}")
    seeds = substream_seed_array(master_seed, np.arange(n_paths))
    keep = np.arange(steps_for(t_max, dt) + 1)
    if keep_idx is not None:
        keep = keep[keep_idx]
    probe = generate_noise(m, mu, t_max, dt, [], u_bound)
    several = isinstance(model(probe, keep), list)
    # the components the model's step loops read, all if it ran none
    read = probe._read
    components = tuple(sorted(set().union(*read))) if read else _COMPONENTS

    def draw(batch, bound):
        return generate_noise(m, mu, t_max, dt, batch, bound, components)

    def results(noise, at=keep):
        out = model(noise, at)
        return out if several else [out]

    def coupled(noise, coarse=None):
        coarse = results(noise) if coarse is None else coarse
        return [(dict(c, **{n + "_fine": a for n, a in f.items()}),
                 np.fmin(c_at, f_at), c_clamps + f_clamps)
                for (c, c_at, c_clamps), (f, f_at, f_clamps)
                in zip(coarse, results(refine(noise), 2 * keep))]

    def settle(level, rows, first):
        """Retries the aborted paths of ``first``, the first round of
        ``level(noise)`` on the seeds ``rows``."""
        def union(retry):
            # not np.unique: its first call imports numpy.ma (about 1 MB)
            return np.flatnonzero(np.bincount(np.concatenate(retry),
                                              minlength=len(rows)))

        retry = [np.flatnonzero(~np.isnan(aborted)) for _, aborted, _ in first]
        retried = [0] * len(first)
        tries, bound = 0, u_bound
        while any(len(r) for r in retry) and tries < MAX_DOUBLINGS:
            tries += 1
            bound *= 2.0
            redo_rows = union(retry)
            redo = level(draw(rows[redo_rows], bound))
            for j, (comps, aborted, clamps) in enumerate(first):
                comps_r, aborted_r, clamps_r = redo[j]
                own = np.searchsorted(redo_rows, retry[j])  # rows in redo
                for name in comps:
                    comps[name][retry[j]] = comps_r[name][own]
                aborted[retry[j]] = aborted_r[own]
                clamps[retry[j]] = clamps_r[own]
                retried[j] += len(retry[j])
                retry[j] = retry[j][~np.isnan(aborted_r[own])]
        left = union(retry)
        if len(left):
            raise ThinningBoundError(
                f"{len(left)} paths still exceed the thinning bound after "
                f"{MAX_DOUBLINGS} doublings of u_bound={u_bound!r}")
        return [(comps, n, int(clamps.sum()))
                for (comps, _, clamps), n in zip(first, retried)]

    # one chunk at a time, so only one chunk's noise is alive
    plain_parts, coupled_parts = [], []
    for lo in range(0, n_paths, CHUNK):
        rows, head = seeds[lo:lo + CHUNK], seeds[lo:min(lo + CHUNK, n_fine)]
        first = results(draw(rows, u_bound))
        # copied before the plain retry rounds overwrite these rows
        coarse = [({n: a[:len(head)].copy() for n, a in comps.items()},
                   aborted[:len(head)].copy(), clamps[:len(head)].copy())
                  for comps, aborted, clamps in first]
        plain_parts.append(settle(results, rows, first))
        if len(head):
            coupled_parts.append(settle(coupled, head, coupled(
                draw(head, u_bound), coarse)))

    def stack(parts, n):
        ensembles = [
            EnsembleResult(times=keep * dt,
                           components={name: np.concatenate(
                               [c[name] for c, _, _ in chunks])
                               for name in chunks[0][0]},
                           dt=dt, n_paths=n,
                           n_retried=sum(r for _, r, _ in chunks),
                           n_clamped=sum(c for _, _, c in chunks))
            for chunks in zip(*parts)]
        return ensembles if several else ensembles[0]

    plain = stack(plain_parts, n_paths)
    return (plain, stack(coupled_parts, n_fine)) if n_fine else plain
