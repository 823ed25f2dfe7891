"""Parameter sets and jump measures for two-dimensional affine dynamics.

The state space is ``D = [0, inf) x R`` and transform variables live in
``U = {u = (u1, u2) : Re(u1) <= 0, Re(u2) = 0}``.  A parameter set

    ``(a, alpha, b, beta, m, mu)``

with finite real coefficients ``a``, ``alpha``, ``b`` and ``beta`` is
*admissible* when

    (i)    ``a >= 0``,
    (ii)   ``alpha`` is a symmetric positive-semidefinite 2x2 matrix,
    (iii)  ``b in D`` (first coordinate nonnegative),
    (iv)   ``beta[0, 1] == 0`` (the first coordinate feels no feedback
           from the second),
    (v)    ``m`` is a measure on ``D \\ {0}`` with
           ``int (l1(xi1) + l12(xi2)) m(dxi) < inf``,
    (vi)   ``mu`` is a measure on ``D \\ {0}`` with
           ``int (l12(xi1) + l12(xi2)) mu(dxi) < inf``,

where ``l1(x) = |x|`` and ``l12(x) = |x| wedge x**2``.  Diffusion loadings
are derived, not free: ``sigma0 = sqrt(a)`` and ``sigma`` is the
lower-triangular factor of ``alpha``.

Two jump-measure families are supported: finitely many atoms (exact sums)
and a product of an exponential in ``xi1`` with a two-sided exponential in
``xi2`` (closed-form moments and exponential integrals).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "UPoint",
    "FiniteAtomicMeasure",
    "ProductExponentialMeasure",
    "AdmissibleParams",
    "AdmissibilityError",
    "validate_admissible",
    "psd_factor",
]

_PSD_TOL = 1e-12


@dataclass(frozen=True)
class UPoint:
    """A transform variable ``u = (u1, u2)`` in ``U = C- x iR``.

    ``Re(u1) <= 0`` and ``Re(u2) == 0`` exactly; the second condition keeps
    ``exp(u2 * x2)`` on the unit circle for the unbounded coordinate.
    """

    u1: complex
    u2: complex

    def __post_init__(self):
        u1 = complex(self.u1)
        u2 = complex(self.u2)
        for name, v in (("u1", u1), ("u2", u2)):
            if not cmath.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if u1.real > 0.0:
            raise ValueError(f"u1 must have Re(u1) <= 0, got {u1}")
        if u2.real != 0.0:
            raise ValueError(f"u2 must be purely imaginary, got {u2}")
        object.__setattr__(self, "u1", u1)
        object.__setattr__(self, "u2", u2)

    def conj(self) -> "UPoint":
        return UPoint(self.u1.conjugate(), self.u2.conjugate())


def _check_finite(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _l12(x):
    ax = np.abs(x)
    return np.minimum(ax, ax * ax)


def _lanes(u1, u2):
    """``u1``, ``u2`` as complex arrays of one shape (0-d for scalars)."""
    u1, u2 = np.asarray(u1, dtype=complex), np.asarray(u2, dtype=complex)
    if u1.shape != u2.shape:
        u1, u2 = np.broadcast_arrays(u1, u2)
    return u1, u2


def _unlane(out):
    """A complex for a 0-d result, else the lane array."""
    return complex(out) if np.ndim(out) == 0 else out


def _region_mask(xi2, region):
    if region == "all":
        return np.ones_like(xi2, dtype=bool)
    if region == "plus":
        return xi2 >= 0.0
    if region == "minus":
        return xi2 < 0.0
    raise ValueError(f"unknown region {region!r}")


@dataclass(frozen=True, eq=False)
class FiniteAtomicMeasure:
    """A finite sum of point masses ``sum_k w_k * delta_{(xi1_k, xi2_k)}``.

    Atoms must lie in ``D \\ {0}`` (``xi1 >= 0``, not both coordinates zero)
    with strictly positive weights.  All queries are exact sums.
    """

    atoms: np.ndarray  # (k, 2)
    weights: np.ndarray  # (k,)

    def __init__(self, atoms):
        rows = np.asarray(atoms, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, 3)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError("atoms must be rows (xi1, xi2, weight)")
        pts, w = rows[:, :2], rows[:, 2]
        if np.any(w <= 0.0):
            raise ValueError("atom weights must be strictly positive")
        if np.any(pts[:, 0] < 0.0):
            raise ValueError("atom xi1 coordinates must be nonnegative")
        if np.any((pts[:, 0] == 0.0) & (pts[:, 1] == 0.0)):
            raise ValueError("atoms must avoid the origin")
        object.__setattr__(self, "atoms", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_moments", {})  # query -> poly_moment

    # -- queries ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.atoms.shape[0] == 0

    def mass(self, region="all") -> float:
        return self.poly_moment(0, 0, region)

    def poly_moment(self, p1, p2, region="all") -> float:
        query = (p1, p2, region)   # each simulator call reads several
        if query not in self._moments:
            k = _region_mask(self.atoms[:, 1], region)
            v = self.weights[k] * self.atoms[k, 0] ** p1
            self._moments[query] = float((v * self.atoms[k, 1] ** p2).sum())
        return self._moments[query]

    def l1_moment(self, coord) -> float:
        return float((self.weights * np.abs(self.atoms[:, coord])).sum())

    def l12_moment(self, coord) -> float:
        return float((self.weights * _l12(self.atoms[:, coord])).sum())

    def exp_integral(self, u1, u2, compensate_xi1=False, compensate_xi2=False,
                     region="all"):
        """``int (e^{<u, xi>} - 1 [- u1 xi1] [- u2 xi2]) nu(dxi)``.

        ``u1``, ``u2`` are scalars (a complex result) or lane arrays (one
        value per lane).  The atoms' terms are summed one after another,
        so each lane's value does not depend on the other lanes.
        """
        u1, u2 = _lanes(u1, u2)
        atoms, w = self.atoms, self.weights
        if region != "all":
            k = _region_mask(atoms[:, 1], region)
            atoms, w = atoms[k], w[k]
        v1 = np.multiply.outer(atoms[:, 0], u1)  # (atom,) + lane shape
        v2 = np.multiply.outer(atoms[:, 1], u2)
        term = v1 + v2  # worked on in place, operands in the same order
        np.exp(term, out=term)
        term -= 1.0
        if compensate_xi1:
            term -= v1
        if compensate_xi2:
            term -= v2
        np.multiply(w.reshape((-1,) + (1,) * u1.ndim), term, out=term)
        out = np.zeros(term.shape[1:], dtype=complex)
        for row in term:
            out += row
        return _unlane(out)

    def sample(self, rng, n):
        """Draw ``n`` marks from the normalized measure.

        The draws equal ``rng.choice(len(w), size=n, p=w / w.sum())`` over
        the weights ``w``, from a CDF built once the way
        ``Generator.choice`` builds it.
        """
        return self._marks([self._mark_draws(rng, n)])

    # sample, split for a batch of streams: uniforms per stream, one lookup;
    # plain uniforms, so a stream may read them from a block buffer
    _uniform_draws = True

    def _mark_draws(self, rng, n):
        return rng.random(n)

    def _marks(self, draws):
        return self.atoms[self._cdf.searchsorted(np.concatenate(draws),
                                                 side="right")]

    @cached_property
    def _cdf(self):
        if self.is_empty:
            raise ValueError("an empty measure has no marks to draw")
        cdf = (self.weights / self.weights.sum()).cumsum()
        cdf /= cdf[-1]
        return cdf


def _exp_partial(p, rate, cutoff):
    """``int_0^c x**p * rate * exp(-rate x) dx`` for p in {1, 2}."""
    rc = rate * cutoff
    e = math.exp(-rc)
    if p == 1:
        return (1.0 - e * (1.0 + rc)) / rate
    if p == 2:
        return (2.0 - e * (2.0 + 2.0 * rc + rc * rc)) / (rate * rate)
    raise ValueError("partial moments implemented for p in {1, 2}")


def _exp_l12(rate):
    """``E[|X| wedge X**2]`` for ``X ~ Exp(rate)``."""
    full_first = 1.0 / rate
    return _exp_partial(2, rate, 1.0) + (full_first - _exp_partial(1, rate, 1.0))


@dataclass(frozen=True)
class ProductExponentialMeasure:
    """``total_rate`` times a product probability law on ``D``.

    ``xi1 ~ Exp(rate1)`` on ``[0, inf)``; independently ``xi2`` is a
    two-sided exponential with ``P(xi2 > 0) = sign_mix`` and ``|xi2| ~
    Exp(rate2)``.  Moment and exponential-integral queries integrate the
    full measure.
    """

    total_rate: float
    rate1: float
    rate2: float
    sign_mix: float = 1.0

    def __post_init__(self):
        if self.total_rate < 0.0:
            raise ValueError("total_rate must be nonnegative")
        if self.rate1 <= 0.0 or self.rate2 <= 0.0:
            raise ValueError("rate1 and rate2 must be positive")
        if not 0.0 <= self.sign_mix <= 1.0:
            raise ValueError("sign_mix must lie in [0, 1]")

    @property
    def is_empty(self) -> bool:
        return self.total_rate == 0.0

    # probability-law marginal moments -----------------------------------

    def _m1(self, p):
        return math.factorial(p) / self.rate1 ** p

    def _m2(self, p, region):
        base = math.factorial(p) / self.rate2 ** p
        plus = self.sign_mix * base
        minus = (1.0 - self.sign_mix) * ((-1.0) ** p) * base
        if region == "plus":
            return plus
        if region == "minus":
            return minus
        if region == "all":
            return plus + minus
        raise ValueError(f"unknown region {region!r}")

    def mass(self, region="all") -> float:
        return self.poly_moment(0, 0, region)

    def poly_moment(self, p1, p2, region="all") -> float:
        return self.total_rate * (self._m1(p1) * self._m2(p2, region))

    def l1_moment(self, coord) -> float:
        if coord == 0:
            return self.total_rate / self.rate1
        return self.total_rate / self.rate2

    def l12_moment(self, coord) -> float:
        rate = self.rate1 if coord == 0 else self.rate2
        return self.total_rate * _exp_l12(rate)

    def exp_integral(self, u1, u2, compensate_xi1=False, compensate_xi2=False,
                     region="all"):
        """Closed form of the exponential integral; ``u1``, ``u2`` are
        scalars or lane arrays, and any diverging lane raises."""
        u1, u2 = _lanes(u1, u2)
        if np.any(u1.real >= self.rate1):
            raise ValueError("exp integral diverges: Re(u1) >= rate1")
        if np.any(np.abs(u2.real) >= self.rate2):
            raise ValueError("exp integral diverges: |Re(u2)| >= rate2")
        # Laplace factors as 1 + g: r / (r - u) = 1 + u / (r - u), so the
        # integral is an exact 0 at the origin, in every lane
        s = self.sign_mix
        g_plus = u2 / (self.rate2 - u2)
        g_minus = -u2 / (self.rate2 + u2)
        if region == "plus":
            g2, p2 = s * g_plus, s
        elif region == "minus":
            g2, p2 = (1.0 - s) * g_minus, 1.0 - s
        else:
            g2, p2 = s * g_plus + (1.0 - s) * g_minus, 1.0
        g1 = u1 / (self.rate1 - u1)
        out = g1 * (p2 + g2) + g2  # (1 + g1)(p2 + g2) - p2
        if compensate_xi1:
            out = out - u1 * p2 / self.rate1
        if compensate_xi2:
            out = out - u2 * self._m2(1, region)
        return _unlane(self.total_rate * out)

    def sample(self, rng, n):
        """Draw ``n`` marks: ``xi1``, then ``|xi2|``, then the signs of
        ``xi2``, each as one batch of ``max(n, 16)`` draws, the first ``n``
        kept (the stream layout the golden digests pin)."""
        size = max(n, 16)
        xi1 = rng.exponential(1.0 / self.rate1, size=size)
        mag = rng.exponential(1.0 / self.rate2, size=size)
        sign = np.where(rng.random(size) < self.sign_mix, 1.0, -1.0)
        return np.column_stack((xi1, sign * mag))[:n]

    # sample, split as FiniteAtomicMeasure's: marks drawn whole per stream
    _uniform_draws = False

    def _mark_draws(self, rng, n):
        return self.sample(rng, n)

    def _marks(self, draws):
        return np.concatenate(draws)


#: Union of the supported jump-measure kinds.
JumpMeasure = (FiniteAtomicMeasure, ProductExponentialMeasure)


class AdmissibilityError(ValueError):
    """Raised when a candidate parameter set violates an admissibility clause.

    ``violations`` lists one human-readable message per violated clause,
    each tagged ``clause (i)`` .. ``clause (vi)``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def psd_factor(alpha) -> np.ndarray:
    """Lower-triangular ``L`` with ``L @ L.T == alpha`` for 2x2 PSD input.

    Eigenvalues in ``[-1e-12, 0)`` are clamped to zero; for a semidefinite
    matrix with vanishing first pivot the first column of ``L`` is zeroed.
    """
    alpha = np.asarray(alpha, dtype=float)
    w, v = np.linalg.eigh(0.5 * (alpha + alpha.T))
    if w[0] < -_PSD_TOL:
        raise ValueError("alpha is not positive semidefinite")
    alpha = (v * np.maximum(w, 0.0)) @ v.T
    a11, a12, a22 = alpha[0, 0], alpha[0, 1], alpha[1, 1]
    lo = np.zeros((2, 2))
    if a11 > _PSD_TOL:
        lo[0, 0] = math.sqrt(a11)
        lo[1, 0] = a12 / lo[0, 0]
        lo[1, 1] = math.sqrt(max(a22 - lo[1, 0] ** 2, 0.0))
    else:
        # zero pivot: PSD forces a12 == 0, first column stays zero
        lo[1, 1] = math.sqrt(max(a22, 0.0))
    return lo


@dataclass(frozen=True, eq=False)
class AdmissibleParams:
    """An admissible parameter set with derived diffusion loadings.

    Construction checks the admissibility clauses, and so does
    ``dataclasses.replace``: any violation raises
    :class:`AdmissibilityError` listing every violated clause (i)-(vi).
    Clauses (i)-(iv) also require ``a``, ``alpha``, ``b`` and ``beta`` to
    be finite.  ``sigma0 = sqrt(a)`` and ``sigma`` is the lower-triangular
    factor of ``alpha``, so ``sigma @ sigma.T`` reproduces ``alpha`` to
    machine precision.
    """

    a: float
    alpha: np.ndarray
    b: np.ndarray
    beta: np.ndarray
    m: object
    mu: object
    sigma0: float = field(init=False)
    sigma: np.ndarray = field(init=False)

    def __post_init__(self):
        violations = []
        a = float(self.a)
        alpha = np.asarray(self.alpha, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(2)
        beta = np.asarray(self.beta, dtype=float)

        if not math.isfinite(a):
            violations.append(f"clause (i): a must be finite, got {a}")
        elif a < 0.0:
            violations.append(f"clause (i): a must be nonnegative, got {a}")
        if alpha.shape != (2, 2):
            violations.append("clause (ii): alpha must be a 2x2 matrix")
        elif not np.isfinite(alpha).all():
            violations.append(f"clause (ii): alpha must be finite, got "
                              f"{alpha.tolist()}")
        elif abs(alpha[0, 1] - alpha[1, 0]) > _PSD_TOL:
            violations.append("clause (ii): alpha must be symmetric")
        else:
            w = np.linalg.eigvalsh(0.5 * (alpha + alpha.T))
            if w[0] < -_PSD_TOL:
                violations.append(
                    f"clause (ii): alpha must be positive semidefinite "
                    f"(smallest eigenvalue {w[0]:.3e})")
        if not np.isfinite(b).all():
            violations.append(f"clause (iii): b must be finite, got "
                              f"{b.tolist()}")
        elif b[0] < 0.0:
            violations.append(f"clause (iii): b must lie in the state space, "
                              f"b1 >= 0 required, got {b[0]}")
        if beta.shape != (2, 2):
            violations.append("clause (iv): beta must be a 2x2 matrix")
        elif not np.isfinite(beta).all():
            violations.append(f"clause (iv): beta must be finite, got "
                              f"{beta.tolist()}")
        elif beta[0, 1] != 0.0:
            violations.append(f"clause (iv): beta12 must be exactly 0, got {beta[0, 1]}")

        for clause, name, nu in (("(v)", "m", self.m), ("(vi)", "mu", self.mu)):
            if not isinstance(nu, JumpMeasure):
                violations.append(f"clause {clause}: {name} must be a supported jump measure")
                continue
            # (v) integrates |xi1| against m, (vi) only |xi1| wedge xi1**2
            xi1 = ("int_l1_xi1", nu.l1_moment(0)) if name == "m" else \
                ("int_l12_xi1", nu.l12_moment(0))
            for kind, val in (xi1, ("int_l12_xi2", nu.l12_moment(1))):
                if not math.isfinite(val):
                    violations.append(f"clause {clause}: {name} moment {kind} is not finite")

        if violations:
            raise AdmissibilityError(violations)
        for name, value in (("a", a), ("alpha", alpha), ("b", b),
                            ("beta", beta), ("sigma0", math.sqrt(a)),
                            ("sigma", psd_factor(alpha))):
            object.__setattr__(self, name, value)

    @property
    def beta_bar(self) -> float:
        """``max |beta_ij|`` — the linear-growth rate bound used by schemes."""
        return float(np.max(np.abs(self.beta)))


def validate_admissible(a, alpha, b, beta, m, mu) -> AdmissibleParams:
    """``AdmissibleParams(a, alpha, b, beta, m, mu)``, which checks the
    admissibility clauses and raises :class:`AdmissibilityError` listing
    every violated one."""
    return AdmissibleParams(a=a, alpha=alpha, b=b, beta=beta, m=m, mu=mu)
