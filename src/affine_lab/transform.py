"""Exact characteristic functions through a generalized Riccati system.

For an admissible parameter set the conditional characteristic function of
the pair ``(x(t), z(t))`` started at ``(x1, x2)`` is

    ``E[exp(u1 x(t) + u2 z(t))] = exp(x1 psi1(t, u) + x2 psi2(t, u) + phi(t, u))``

where ``psi2(t, u) = exp(beta22 t) u2`` in closed form and ``psi1``, ``phi``
solve

    ``d psi1 / dt = R(psi1(t), psi2(t))``,        ``psi1(0) = u1``,
    ``phi(t) = int_0^t F(psi1(s), psi2(s)) ds``,  ``phi(0) = 0``,

with the constant-part functional ``F`` and the state-linear functional ``R``

    ``F(u) = b1 u1 + b2 u2 + a u2**2 + int (e^{<u, xi>} - 1 - u2 xi2) m(dxi)``
    ``R(u) = beta11 u1 + beta21 u2 + alpha11 u1**2 + 2 alpha12 u1 u2
             + alpha22 u2**2 + int (e^{<u, xi>} - 1 - u1 xi1 - u2 xi2) mu(dxi)``.

The solver integrates the 4-real system [Re psi1, Im psi1, Re phi, Im phi]
with the package's own Dormand-Prince 5(4) stepper and samples its dense
output; ``psi2`` is always evaluated, never integrated.  The stepper is
vectorised over lanes, one lane per frequency ``u``, so
:func:`solve_transforms` solves a whole list of frequencies in one pass,
and a lane's bytes do not depend on the other lanes of its batch.  The
flow identities

    ``psi(r + t, u) = psi(r, psi(t, u))``
    ``phi(r + t, u) = phi(r, psi(t, u)) + phi(t, u)``

are exposed as residuals for validation, and the first-moment functionals
``q11, q12, h1, h2`` (with ``E[x(t)] = x1 q11(t) + h1(t)`` and
``E[z(t)] = x1 q12(t) + x2 e^{beta22 t} + h2(t)``) come in closed form with
the degenerate case ``beta11 == beta22`` handled by a series switch.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .params import AdmissibleParams, UPoint, _check_finite

__all__ = [
    "TransformError",
    "TransformSolution",
    "eval_F",
    "eval_R",
    "solve_transforms",
    "char_fn",
    "FlowResidual",
    "flow_residual",
    "MomentFunctionals",
    "moment_functionals",
]

_TOL_RANGE = (1e-12, 1e-4)


def _check_tol(tol) -> None:
    """The solver tolerance rule: ``tol`` lies in ``_TOL_RANGE``."""
    if not _TOL_RANGE[0] <= tol <= _TOL_RANGE[1]:
        raise ValueError(f"tol must lie in [{_TOL_RANGE[0]:g}, {_TOL_RANGE[1]:g}]")


class TransformError(RuntimeError):
    """Integration failure or domain-invariant breach in the transform solver."""


def eval_F(params: AdmissibleParams, u1, u2):
    """Constant-part functional ``F(u1, u2)``; drives ``phi``.  ``u1`` and
    ``u2`` are scalars or lane arrays."""
    out = params.b[0] * u1 + params.b[1] * u2 + params.a * u2 * u2
    if not params.m.is_empty:
        out += params.m.exp_integral(u1, u2, compensate_xi2=True)
    return out


def eval_R(params: AdmissibleParams, u1, u2):
    """State-linear functional ``R(u1, u2)``; drives ``psi1``.  ``u1`` and
    ``u2`` are scalars or lane arrays."""
    al, mu = params.alpha, params.mu
    out = (params.beta[0, 0] * u1 + params.beta[1, 0] * u2
           + al[0, 0] * u1 * u1 + 2.0 * al[0, 1] * u1 * u2 + al[1, 1] * u2 * u2)
    if not mu.is_empty:
        out += mu.exp_integral(u1, u2, compensate_xi1=True, compensate_xi2=True)
    return out


@dataclass(frozen=True, eq=False)
class TransformSolution:
    """Sampled transform curves with solver diagnostics.

    ``psi1``, ``psi2``, ``phi`` are complex arrays along ``t_grid``;
    ``psi2[k] == exp(beta22 * t_grid[k]) * u2`` exactly.
    """

    u: UPoint
    t_grid: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    phi: np.ndarray
    tol_used: float
    steps_taken: int


def _check_grid(t_grid) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    if not np.isfinite(t_grid).all():
        raise ValueError("t_grid must be finite")
    if t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    if t_grid.size > 1 and np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    return t_grid


# -- Dormand-Prince 5(4) over lanes -----------------------------------------
#
# The embedded pair of Dormand & Prince (1980) with Shampine's dense output
# and the standard step-size controller (Hairer, Norsett & Wanner, "Solving
# ODEs I", II.4): the tableau, first-step rule, controller constants and RMS
# error norm are SciPy's RK45.  Lane ``i`` of an array is frequency ``i``;
# the state rows are [Re psi1, Im psi1, Re phi, Im phi].  Sums over stages
# and components are written out in a fixed order, never ``np.dot``, so a
# lane's bytes do not depend on which other lanes share its batch.

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = ((),
      (1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
      1 / 40)
# dense output: y(t_old + x h) = y_old + h sum_j Q_j x**(j+1) with
# Q_j = sum_s P[s][j] K_s
_P = ((1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
       -12715105075 / 11282082432),
      (0.0, 0.0, 0.0, 0.0),
      (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
       87487479700 / 32700410799),
      (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
       -10690763975 / 1880347072),
      (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
       701980252875 / 199316789632),
      (0.0, -282668133 / 205662961, 2019193451 / 616988883,
       -1453857185 / 822651844),
      (0.0, 40617522 / 29380423, -110615467 / 29380423,
       69997945 / 29380423))
_P_COLUMNS = tuple(zip(*_P))  # the P[s][j] of each Q_j
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5  # the error estimator has order 4


def _combine(coeffs, stages):
    """``sum_j coeffs[j] * stages[j]`` accumulated in order, zeros skipped."""
    out = None
    for c, k in zip(coeffs, stages):
        if c != 0.0:
            out = c * k if out is None else out + c * k
    return out


def _rms(x):
    """RMS over the four state rows, per lane."""
    return np.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3]) / 2.0


def _complex(re, im):
    z = np.empty(re.shape, dtype=complex)
    z.real = re
    z.imag = im
    return z


def _first_step(fun, lanes, y0, f0, horizon, rtol, atol):
    """Hairer-Norsett-Wanner starting step, per lane."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, horizon)
    d2 = _rms((fun(lanes, h0, y0 + h0 * f0) - f0) / scale) / h0
    with np.errstate(divide="ignore"):
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (1 / 5))
    return np.minimum(np.minimum(100.0 * h0, h1), horizon)


def _dopri(fun, y0, t_grid, rtol, atol):
    """Integrate ``y' = fun(lanes, t, y)`` from ``y0`` up to ``t_grid[-1]``.

    Every lane keeps its own time, step size and accept/reject state; a
    lane leaves the batch when it reaches the horizon or its step size
    underflows.  Each accepted step's dense output is sampled at the grid
    times in ``(t_old, t_new]`` (and at 0 by the first step).

    Returns ``(samples, peak, steps, failed_at)``: samples of shape
    ``(4, n_lanes, n_grid)``, the largest row-0 value over the accepted
    steps, the accepted step count, and the last good time of each lane
    whose step size underflowed (NaN for the others).
    """
    horizon = float(t_grid[-1])
    n_lanes = y0.shape[1]
    samples = np.empty((4, n_lanes, t_grid.size))
    peak = y0[0].copy()
    steps = np.zeros(n_lanes, dtype=np.int64)
    failed_at = np.full(n_lanes, np.nan)

    lanes = np.arange(n_lanes)
    t = np.zeros(n_lanes)
    y = y0
    f = fun(lanes, t, y)
    h_abs = _first_step(fun, lanes, y, f, horizon, rtol, atol)
    rejected = np.zeros(n_lanes, dtype=bool)
    K = [None] * 7
    while lanes.size:
        min_step = 10.0 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
        fine = h_abs >= min_step
        if not fine.all():
            failed_at[lanes[~fine]] = t[~fine]
            lanes, t, h_abs, rejected, y, f = (
                v[..., fine] for v in (lanes, t, h_abs, rejected, y, f))
            if not lanes.size:
                break

        t_new = np.minimum(t + h_abs, horizon)
        h = t_new - t
        K[0] = f
        for s in range(1, 6):
            K[s] = fun(lanes, t + _C[s] * h, y + _combine(_A[s], K) * h)
        y_new = y + h * _combine(_B, K)
        K[6] = f_new = fun(lanes, t + h, y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err = _rms(_combine(_E, K) * h / scale)

        accept = err < 1.0
        with np.errstate(divide="ignore"):
            factor = _SAFETY * err ** _ERROR_EXPONENT
        factor = np.where(accept, np.minimum(_MAX_FACTOR, factor),
                          np.fmax(_MIN_FACTOR, factor))
        factor = np.where(accept & rejected, np.minimum(1.0, factor), factor)
        h_abs = h * factor
        rejected = ~accept

        a = np.flatnonzero(accept)
        if a.size:
            t_old = t[a]
            lo = np.searchsorted(t_grid, t_old, side="right")
            lo[t_old == 0.0] = 0
            counts = np.searchsorted(t_grid, t_new[a], side="right") - lo
            at = np.repeat(a, counts)  # the batch lane of each sample
            cols = np.arange(at.size) + np.repeat(lo - np.cumsum(counts)
                                                  + counts, counts)
            x = (t_grid[cols] - t[at]) / h[at]
            # each Q_j over the whole batch, then gathered per sample
            p, poly = x, None
            for coeffs in _P_COLUMNS:
                term = _combine(coeffs, K)[:, at] * p
                poly = term if poly is None else poly + term
                p = p * x
            samples[:, lanes[at], cols] = h[at] * poly + y[:, at]
            steps[lanes[a]] += 1
            peak[lanes[a]] = np.maximum(peak[lanes[a]], y_new[0, a])

        t = np.where(accept, t_new, t)
        y = np.where(accept, y_new, y)
        f = np.where(accept, f_new, f)
        going = ~(accept & (t_new >= horizon))
        if not going.all():
            lanes, t, h_abs, rejected, y, f = (
                v[..., going] for v in (lanes, t, h_abs, rejected, y, f))
    return samples, peak, steps, failed_at


# -- transform solves ------------------------------------------------------

def _lane(u, enforce_domain):
    """``(UPoint or None, u1, u2)`` for one requested frequency."""
    if enforce_domain and not isinstance(u, UPoint):
        u = UPoint(*u)  # validates the domain
    if isinstance(u, UPoint):
        return u, u.u1, u.u2
    return None, complex(u[0]), complex(u[1])


def solve_transforms(params: AdmissibleParams, u_list, t_grid,
                     tol: float = 1e-9, *, _enforce_domain: bool = True
                     ) -> list:
    """Solve the Riccati system for ``(psi1, phi)`` at every ``u`` at once.

    One Dormand-Prince pass integrates all frequencies as lanes; each lane
    keeps its own step size and error control, so its solution is the one
    it would get alone, byte for byte.

    Parameters
    ----------
    params : AdmissibleParams
    u_list : sequence of UPoint
        Initial transform variables (each also fixes its ``psi2``).
    t_grid : array_like
        Strictly increasing times starting at 0, shared by every lane.
    tol : float
        Solver tolerance in ``[1e-12, 1e-4]`` (``rtol = tol``,
        ``atol = tol / 1000``); also bounds the permitted positivity breach
        of ``Re(psi1)`` and ``Re(phi)`` before the run aborts.

    Returns
    -------
    list of TransformSolution, one per entry of ``u_list``.

    Raises
    ------
    TransformError
        If a lane's step size underflows (reporting its last good time) or
        its ``Re(psi1)`` or ``Re(phi)`` exceeds ``tol``.
    """
    _check_tol(tol)
    t_grid = _check_grid(t_grid)
    lanes = [_lane(u, _enforce_domain) for u in u_list]
    if not lanes:
        return []
    beta22 = params.beta[1, 1]
    growth = np.exp(beta22 * t_grid)
    u1 = np.array([lane[1] for lane in lanes], dtype=complex)
    u2 = np.array([lane[2] for lane in lanes], dtype=complex)

    if t_grid[-1] == 0.0:
        return [TransformSolution(u=u_point, t_grid=t_grid,
                                  psi1=np.array([v1]), psi2=growth * v2,
                                  phi=np.array([0j]), tol_used=tol,
                                  steps_taken=0)
                for u_point, v1, v2 in lanes]

    def rhs(idx, s, y):
        p1 = _complex(y[0], y[1])
        p2 = np.exp(beta22 * s) * u2[idx]
        dp, df = eval_R(params, p1, p2), eval_F(params, p1, p2)
        out = np.empty((4, idx.size))
        out[0], out[1], out[2], out[3] = dp.real, dp.imag, df.real, df.imag
        return out

    zero = np.zeros(len(lanes))
    # a lane that overflows gets a non-finite error norm, so its step is
    # rejected until it fails with a TransformError below, not a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        samples, peak, steps, failed_at = _dopri(
            rhs, np.stack((u1.real, u1.imag, zero, zero)), t_grid,
            rtol=tol, atol=tol * 1e-3)

    out = []
    for i, (u_point, v1, v2) in enumerate(lanes):
        where = f"u = ({v1!r}, {v2!r})"
        if not np.isnan(failed_at[i]):
            raise TransformError(
                f"transform integration failed for {where} after "
                f"t={failed_at[i]:.6g}: required step size is less than "
                f"spacing between numbers")
        psi1 = _complex(samples[0, i], samples[1, i])
        phi = _complex(samples[2, i], samples[3, i])
        if _enforce_domain:
            worst = max(float(np.max(psi1.real)), float(peak[i]))
            if worst > tol:
                raise TransformError(
                    f"domain invariant breached for {where}: Re(psi1) "
                    f"reached {worst:.3e} > tol")
            psi1 = np.where(psi1.real > 0.0, 1j * psi1.imag, psi1)
            worst_phi = float(np.max(phi.real))
            if worst_phi > tol:
                raise TransformError(
                    f"domain invariant breached for {where}: Re(phi) "
                    f"reached {worst_phi:.3e} > tol")
            phi = np.where(phi.real > 0.0, 1j * phi.imag, phi)
        out.append(TransformSolution(u=u_point, t_grid=t_grid, psi1=psi1,
                                     psi2=growth * v2, phi=phi, tol_used=tol,
                                     steps_taken=int(steps[i])))
    return out


def _as_batch(u):
    """``(list of UPoint, whether a sequence was given)``; one frequency
    is a UPoint or a pair ``(u1, u2)``, an empty sequence an empty batch."""
    batch = not (isinstance(u, UPoint)
                 or len(u) and isinstance(u[0], numbers.Number))
    return [v if isinstance(v, UPoint) else UPoint(*v)
            for v in (u if batch else [u])], batch


def char_fn(params: AdmissibleParams, x, t: float, u,
            tol: float = 1e-9):
    """``E[exp(u1 x(t) + u2 z(t)) | (x(0), z(0)) = x]``; modulus at most 1.

    ``u`` is one UPoint, or a sequence of them solved as one lane batch,
    which gives a list of values (empty for an empty sequence).
    """
    x1, x2 = _check_finite("x[0]", x[0]), _check_finite("x[1]", x[1])
    if x1 < 0.0:
        raise ValueError("initial state must have x1 >= 0")
    if _check_finite("t", t) < 0.0:
        raise ValueError("t must be nonnegative")
    u_list, batch = _as_batch(u)
    if t == 0.0:
        values = [cmath.exp(v.u1 * x1 + v.u2 * x2) for v in u_list]
    else:
        values = [cmath.exp(x1 * s.psi1[-1] + x2 * s.psi2[-1] + s.phi[-1])
                  for s in solve_transforms(params, u_list, [0.0, t], tol)]
    return values if batch else values[0]


class FlowResidual(NamedTuple):
    psi: float
    phi: float


def flow_residual(params: AdmissibleParams, u, r: float, t: float,
                  tol: float = 1e-9):
    """Residuals of the semigroup identities at ``(r, t)``.

    Returns ``|psi(r+t, u) - psi(r, psi(t, u))|`` (max over both
    coordinates) and ``|phi(r+t, u) - phi(r, psi(t, u)) - phi(t, u)|``.
    Both vanish identically in exact arithmetic.  ``u`` is one UPoint, or
    a sequence of them solved as one lane batch, which gives a list.
    """
    r, t = _check_finite("r", r), _check_finite("t", t)
    if r < 0.0 or t < 0.0:
        raise ValueError("r and t must be nonnegative")
    u_list, batch = _as_batch(u)
    grid = sorted({0.0, t, r + t})
    first = solve_transforms(params, u_list, grid, tol)
    at = {tau: i for i, tau in enumerate(grid)}
    i_t, i_rt = at[t], at[r + t]
    mid = [UPoint(s.psi1[i_t], s.psi2[i_t]) for s in first]
    second = solve_transforms(params, mid, sorted({0.0, r}), tol)

    out = []
    for s1, s2 in zip(first, second):
        psi_res = max(abs(s1.psi1[i_rt] - s2.psi1[-1]),
                      abs(s1.psi2[i_rt] - s2.psi2[-1]))
        phi_res = abs(s1.phi[i_rt] - (s2.phi[-1] + s1.phi[i_t]))
        out.append(FlowResidual(psi=float(psi_res), phi=float(phi_res)))
    return out if batch else out[0]


# -- first-moment functionals ---------------------------------------------

def _phi1(z: float) -> float:
    """``(e^z - 1) / z`` with the removable singularity filled."""
    return 1.0 if z == 0.0 else math.expm1(z) / z


def _int_exp(beta: float, t: float) -> float:
    """``int_0^t e^{beta s} ds``."""
    return t * _phi1(beta * t)


def _int_poly_exp(k: int, beta: float, t: float) -> float:
    """``int_0^t s^k e^{beta s} ds``, stable for small ``beta * t``."""
    x = beta * t
    if abs(x) < 0.5:
        total = 1.0 / (k + 1)
        power = 1.0
        for j in range(1, 60):
            power *= x / j
            term = power / (k + 1 + j)
            total += term
            if abs(term) <= 1e-18 * abs(total):
                break
        return t ** (k + 1) * total
    value = _int_exp(beta, t)
    ebt = math.exp(x)
    for i in range(1, k + 1):
        value = (t ** i * ebt - i * value) / beta
    return value


@dataclass(frozen=True)
class MomentFunctionals:
    """Closed-form first-moment functionals of the pair ``(x, z)``.

    ``q11(t) = e^{beta11 t}`` propagates ``E[x]``; ``q12`` solves
    ``q12' = beta21 e^{beta11 t} + beta22 q12`` and propagates the
    ``x``-to-``z`` coupling; ``h1``, ``h2`` are the inhomogeneous parts fed
    by ``b`` and the uncompensated jump inflow ``int xi1 m(dxi)``.
    """

    q11: Callable[[float], float]
    q12: Callable[[float], float]
    h1: Callable[[float], float]
    h2: Callable[[float], float]
    #: ``mean(t, x0, z0) -> (E[x(t)], E[z(t)])``
    mean: Callable[[float, float, float], tuple]


def moment_functionals(params: AdmissibleParams) -> MomentFunctionals:
    b1, b2 = params.b
    b11, b21, b22 = params.beta[0, 0], params.beta[1, 0], params.beta[1, 1]
    inflow = b1 + params.m.poly_moment(1, 0)

    def q11(t):
        return math.exp(b11 * t)

    def q12(t):
        return b21 * t * math.exp(b11 * t) * _phi1((b22 - b11) * t)

    def _int_q12(t):
        delta = b22 - b11
        if abs(delta * t) >= 0.1:
            return b21 * (_int_exp(b22, t) - _int_exp(b11, t)) / delta
        total = 0.0
        coeff = 1.0  # delta^n / (n+1)!
        for n in range(0, 30):
            if n > 0:
                coeff *= delta / (n + 1)
            term = coeff * _int_poly_exp(n + 1, b11, t)
            total += term
            if abs(term) <= 1e-18 * abs(total) + 1e-300:
                break
        return b21 * total

    def h1(t):
        return inflow * _int_exp(b11, t)

    def h2(t):
        return inflow * _int_q12(t) + b2 * _int_exp(b22, t)

    def mean(t, x0, z0):
        return (x0 * q11(t) + h1(t),
                x0 * q12(t) + z0 * math.exp(b22 * t) + h2(t))

    return MomentFunctionals(q11=q11, q12=q12, h1=h1, h2=h2, mean=mean)


# -- closed-form generators, which validate.check_generators tests ---------

_X_ONLY = {"1", "x1", "x1^2", "exp(-x1)"}


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
    return f0 * (eval_F(params, u.u1, u.u2)
                 + eval_R(params, u.u1, u.u2) * x1 + b22 * u.u2 * x2)


def _cbi_generator_value(params, name, x, theta0, theta1, l):
    """Closed form of the scalar-branching generator on an x-only function
    (``check_generators`` has rejected every other name)."""
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
    u1 = -1.0                                   # exp(-x1)
    imm = m.exp_integral(theta0 * u1, 0.0)
    branch = mu.exp_integral(theta1 * u1, 0.0, compensate_xi1=True)
    return math.exp(u1 * x) * (u1 * b + imm
                               + x * (u1 * beta + alpha * u1 ** 2
                                      + l * branch))


def _catalytic_generator_value(params, name, x, y, l):
    """Closed form of the catalyst-modulated generator on a catalog name.

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
    u1, u2 = -1.0, 1j                           # exp(-x1+i*x2)
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
