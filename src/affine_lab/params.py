"""Parameter sets and jump measures for two-dimensional affine dynamics.

The state space is ``D = [0, inf) x R`` and transform variables live in
``U = {u = (u1, u2) : Re(u1) <= 0, Re(u2) = 0}``.  A parameter set

    ``(a, alpha, b, beta, m, mu)``

is *admissible* when

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

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UPoint",
    "FiniteAtomicMeasure",
    "ProductExponentialMeasure",
    "AdmissibleParams",
    "AdmissibilityError",
    "validate_admissible",
    "psd_factor",
    "jump_moment",
    "jump_exp_integral",
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
        if u1.real > 0.0:
            raise ValueError(f"u1 must have Re(u1) <= 0, got {u1}")
        if u2.real != 0.0:
            raise ValueError(f"u2 must be purely imaginary, got {u2}")
        object.__setattr__(self, "u1", u1)
        object.__setattr__(self, "u2", u2)

    def conj(self) -> "UPoint":
        return UPoint(self.u1.conjugate(), self.u2.conjugate())


def _l12(x):
    ax = np.abs(x)
    return np.minimum(ax, ax * ax)


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
    truncation_eps: float = 0.0

    def __init__(self, atoms, weights=None, truncation_eps=0.0):
        if weights is None:
            rows = np.asarray(atoms, dtype=float)
            if rows.size == 0:
                rows = rows.reshape(0, 3)
            if rows.ndim != 2 or rows.shape[1] != 3:
                raise ValueError("atoms must be rows (xi1, xi2, weight)")
            pts, w = rows[:, :2], rows[:, 2]
        else:
            pts = np.asarray(atoms, dtype=float).reshape(-1, 2)
            w = np.asarray(weights, dtype=float).reshape(-1)
        if pts.shape[0] != w.shape[0]:
            raise ValueError("atoms and weights length mismatch")
        if np.any(w <= 0.0):
            raise ValueError("atom weights must be strictly positive")
        if np.any(pts[:, 0] < 0.0):
            raise ValueError("atom xi1 coordinates must be nonnegative")
        if np.any((pts[:, 0] == 0.0) & (pts[:, 1] == 0.0)):
            raise ValueError("atoms must avoid the origin")
        object.__setattr__(self, "atoms", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "truncation_eps", float(truncation_eps))
        object.__setattr__(self, "_cdfs", {})  # eps -> (kept atoms, cdf)

    # -- queries ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.atoms.shape[0] == 0

    def _mask(self, region, eps):
        keep = _region_mask(self.atoms[:, 1], region)
        if eps > 0.0:
            keep &= np.maximum(self.atoms[:, 0], np.abs(self.atoms[:, 1])) > eps
        return keep

    def mass(self, region="all", eps=0.0) -> float:
        return float(self.weights[self._mask(region, eps)].sum())

    def poly_moment(self, p1, p2, region="all", eps=0.0) -> float:
        k = self._mask(region, eps)
        v = self.weights[k] * self.atoms[k, 0] ** p1 * self.atoms[k, 1] ** p2
        return float(v.sum())

    def l1_moment(self, coord) -> float:
        return float((self.weights * np.abs(self.atoms[:, coord])).sum())

    def l12_moment(self, coord) -> float:
        return float((self.weights * _l12(self.atoms[:, coord])).sum())

    def exp_integral(self, u1, u2, compensate_xi1=False, compensate_xi2=False,
                     region="all") -> complex:
        k = _region_mask(self.atoms[:, 1], region)
        xi1, xi2, w = self.atoms[k, 0], self.atoms[k, 1], self.weights[k]
        term = np.exp(u1 * xi1 + u2 * xi2) - 1.0
        if compensate_xi1:
            term = term - u1 * xi1
        if compensate_xi2:
            term = term - u2 * xi2
        return complex((w * term).sum())

    def sample(self, rng, n, eps=None):
        """Draw ``n`` marks from the band-normalized measure.

        The draws equal ``rng.choice(len(w), size=n, p=w / w.sum())`` over
        the kept weights ``w``, from a CDF built once per ``eps`` the way
        ``Generator.choice`` builds it.
        """
        eps = self.truncation_eps if eps is None else eps
        cached = self._cdfs.get(eps)
        if cached is None:
            keep = self._mask("all", eps)
            w = self.weights[keep]
            total = w.sum()
            if total <= 0.0:
                raise ValueError("no atoms outside the truncation band")
            cdf = (w / total).cumsum()
            cdf /= cdf[-1]
            cached = self._cdfs[eps] = (self.atoms[keep], cdf)
        atoms, cdf = cached
        return atoms[cdf.searchsorted(rng.random(n), side="right")]


def _exp_partial(p, rate, cutoff):
    """``int_0^c x**p * rate * exp(-rate x) dx`` for p in {0, 1, 2}."""
    if cutoff <= 0.0:
        return 0.0
    rc = rate * cutoff
    e = math.exp(-rc)
    if p == 0:
        return 1.0 - e
    if p == 1:
        return (1.0 - e * (1.0 + rc)) / rate
    if p == 2:
        return (2.0 - e * (2.0 + 2.0 * rc + rc * rc)) / (rate * rate)
    raise ValueError("partial moments implemented for p <= 2")


def _exp_l12(rate):
    """``E[|X| wedge X**2]`` for ``X ~ Exp(rate)``."""
    full_first = 1.0 / rate
    return _exp_partial(2, rate, 1.0) + (full_first - _exp_partial(1, rate, 1.0))


@dataclass(frozen=True)
class ProductExponentialMeasure:
    """``total_rate`` times a product probability law on ``D``.

    ``xi1 ~ Exp(rate1)`` on ``[0, inf)``; independently ``xi2`` is a
    two-sided exponential with ``P(xi2 > 0) = sign_mix`` and ``|xi2| ~
    Exp(rate2)``.  ``truncation_eps`` is the default sampler band: no mark
    with ``max(xi1, |xi2|) <= eps`` is ever produced.  Moment and
    exponential-integral queries always integrate the full measure unless an
    explicit band is requested.
    """

    total_rate: float
    rate1: float
    rate2: float
    sign_mix: float = 1.0
    truncation_eps: float = 0.0

    def __post_init__(self):
        if self.total_rate < 0.0:
            raise ValueError("total_rate must be nonnegative")
        if self.rate1 <= 0.0 or self.rate2 <= 0.0:
            raise ValueError("rate1 and rate2 must be positive")
        if not 0.0 <= self.sign_mix <= 1.0:
            raise ValueError("sign_mix must lie in [0, 1]")
        if self.truncation_eps < 0.0:
            raise ValueError("truncation_eps must be nonnegative")

    @property
    def is_empty(self) -> bool:
        return self.total_rate == 0.0

    # probability-law marginal moments -----------------------------------

    def _m1(self, p, cutoff=None):
        if cutoff is None:
            return math.factorial(p) / self.rate1 ** p
        return _exp_partial(p, self.rate1, cutoff)

    def _m2(self, p, region, cutoff=None):
        if cutoff is None:
            base = math.factorial(p) / self.rate2 ** p
        else:
            base = _exp_partial(p, self.rate2, cutoff)
        plus = self.sign_mix * base
        minus = (1.0 - self.sign_mix) * ((-1.0) ** p) * base
        if region == "plus":
            return plus
        if region == "minus":
            return minus
        if region == "all":
            return plus + minus
        raise ValueError(f"unknown region {region!r}")

    def mass(self, region="all", eps=0.0) -> float:
        inside = self._m1(0, eps) * self._m2(0, region, eps) if eps > 0.0 else 0.0
        return self.total_rate * (self._m2(0, region) - inside)

    def poly_moment(self, p1, p2, region="all", eps=0.0) -> float:
        full = self._m1(p1) * self._m2(p2, region)
        inside = self._m1(p1, eps) * self._m2(p2, region, eps) if eps > 0.0 else 0.0
        return self.total_rate * (full - inside)

    def l1_moment(self, coord) -> float:
        if coord == 0:
            return self.total_rate / self.rate1
        return self.total_rate / self.rate2

    def l12_moment(self, coord) -> float:
        rate = self.rate1 if coord == 0 else self.rate2
        return self.total_rate * _exp_l12(rate)

    def exp_integral(self, u1, u2, compensate_xi1=False, compensate_xi2=False,
                     region="all") -> complex:
        u1 = complex(u1)
        u2 = complex(u2)
        if u1.real >= self.rate1:
            raise ValueError("exp integral diverges: Re(u1) >= rate1")
        if abs(u2.real) >= self.rate2:
            raise ValueError("exp integral diverges: |Re(u2)| >= rate2")
        s = self.sign_mix
        if region == "plus":
            e2, p2 = s * self.rate2 / (self.rate2 - u2), s
        elif region == "minus":
            e2, p2 = (1.0 - s) * self.rate2 / (self.rate2 + u2), 1.0 - s
        else:
            e2 = s * self.rate2 / (self.rate2 - u2) + (1.0 - s) * self.rate2 / (self.rate2 + u2)
            p2 = 1.0
        e1 = self.rate1 / (self.rate1 - u1)
        out = e1 * e2 - p2
        if compensate_xi1:
            out = out - u1 * p2 / self.rate1
        if compensate_xi2:
            out = out - u2 * self._m2(1, region)
        return complex(self.total_rate * out)

    def sample(self, rng, n, eps=None):
        """Draw ``n`` marks, rejecting the ``eps``-box around the origin."""
        eps = self.truncation_eps if eps is None else eps
        out = np.empty((n, 2))
        filled = 0
        while filled < n:
            batch = max(n - filled, 16)
            xi1 = rng.exponential(1.0 / self.rate1, size=batch)
            mag = rng.exponential(1.0 / self.rate2, size=batch)
            sign = np.where(rng.random(batch) < self.sign_mix, 1.0, -1.0)
            xi2 = sign * mag
            ok = np.maximum(xi1, mag) > eps
            take = min(int(ok.sum()), n - filled)
            out[filled:filled + take, 0] = xi1[ok][:take]
            out[filled:filled + take, 1] = xi2[ok][:take]
            filled += take
        return out


#: Union of the supported jump-measure kinds.
JumpMeasure = (FiniteAtomicMeasure, ProductExponentialMeasure)


_MOMENT_KINDS = {
    "mass": lambda nu, eps: nu.mass(eps=eps),
    "int_xi1": lambda nu, eps: nu.poly_moment(1, 0, eps=eps),
    "int_xi2": lambda nu, eps: nu.poly_moment(0, 1, eps=eps),
    "int_xi1_sq": lambda nu, eps: nu.poly_moment(2, 0, eps=eps),
    "int_xi2_sq": lambda nu, eps: nu.poly_moment(0, 2, eps=eps),
    "int_xi1_xi2": lambda nu, eps: nu.poly_moment(1, 1, eps=eps),
    "int_l1_xi1": lambda nu, eps: nu.l1_moment(0),
    "int_l1_xi2": lambda nu, eps: nu.l1_moment(1),
    "int_l12_xi1": lambda nu, eps: nu.l12_moment(0),
    "int_l12_xi2": lambda nu, eps: nu.l12_moment(1),
}


def jump_moment(measure, kind, eps=0.0) -> float:
    """Evaluate a moment of a jump measure.

    Parameters
    ----------
    measure : FiniteAtomicMeasure or ProductExponentialMeasure
    kind : str
        One of ``mass``, ``int_xi1``, ``int_xi2``, ``int_xi1_sq``,
        ``int_xi2_sq``, ``int_xi1_xi2``, ``int_l1_xi1``, ``int_l1_xi2``,
        ``int_l12_xi1``, ``int_l12_xi2``.
    eps : float
        Optional truncation band: restrict to ``max(xi1, |xi2|) > eps``.
        The ``l1``/``l12`` kinds always integrate the full measure.
    """
    try:
        fn = _MOMENT_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown moment kind {kind!r}") from None
    return fn(measure, eps)


def jump_exp_integral(measure, u: UPoint, compensation="none") -> complex:
    """``int (exp(<u, xi>) - 1 - C(xi)) nu(dxi)`` over the full measure.

    ``compensation`` selects ``C``: ``"none"`` gives 0, ``"xi2_only"`` gives
    ``u2 * xi2`` and ``"full"`` gives ``u1 * xi1 + u2 * xi2``.  The real part
    of the uncompensated integral is nonpositive on ``U`` since
    ``|exp(<u, xi>)| <= 1`` there.
    """
    if compensation not in ("none", "xi2_only", "full"):
        raise ValueError(f"unknown compensation {compensation!r}")
    return measure.exp_integral(
        u.u1, u.u2,
        compensate_xi1=(compensation == "full"),
        compensate_xi2=(compensation in ("xi2_only", "full")),
    )


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
    """A validated parameter set with derived diffusion loadings.

    Construct through :func:`validate_admissible`; direct construction skips
    the clause checks.  ``sigma0 = sqrt(a)`` and ``sigma`` is the
    lower-triangular factor of ``alpha``, so ``sigma @ sigma.T`` reproduces
    ``alpha`` to machine precision.
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
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).reshape(2))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "sigma0", math.sqrt(max(self.a, 0.0)))
        object.__setattr__(self, "sigma", psd_factor(self.alpha))

    @property
    def beta_bar(self) -> float:
        """``max |beta_ij|`` — the linear-growth rate bound used by schemes."""
        return float(np.max(np.abs(self.beta)))


def validate_admissible(a, alpha, b, beta, m, mu) -> AdmissibleParams:
    """Check the admissibility clauses and build an :class:`AdmissibleParams`.

    Raises
    ------
    AdmissibilityError
        Listing every violated clause (the report names clauses (i)-(vi)).
    """
    violations = []
    a = float(a)
    alpha = np.asarray(alpha, dtype=float)
    b = np.asarray(b, dtype=float).reshape(2)
    beta = np.asarray(beta, dtype=float)

    if a < 0.0:
        violations.append(f"clause (i): a must be nonnegative, got {a}")
    if alpha.shape != (2, 2):
        violations.append("clause (ii): alpha must be a 2x2 matrix")
    else:
        if abs(alpha[0, 1] - alpha[1, 0]) > _PSD_TOL:
            violations.append("clause (ii): alpha must be symmetric")
        else:
            w = np.linalg.eigvalsh(0.5 * (alpha + alpha.T))
            if w[0] < -_PSD_TOL:
                violations.append(
                    f"clause (ii): alpha must be positive semidefinite "
                    f"(smallest eigenvalue {w[0]:.3e})")
    if b[0] < 0.0:
        violations.append(f"clause (iii): b must lie in the state space, "
                          f"b1 >= 0 required, got {b[0]}")
    if beta.shape != (2, 2):
        violations.append("clause (iv): beta must be a 2x2 matrix")
    elif beta[0, 1] != 0.0:
        violations.append(f"clause (iv): beta12 must be exactly 0, got {beta[0, 1]}")

    for clause, name, nu, kinds in (
        ("(v)", "m", m, ("int_l1_xi1", "int_l12_xi2")),
        ("(vi)", "mu", mu, ("int_l12_xi1", "int_l12_xi2")),
    ):
        if not isinstance(nu, JumpMeasure):
            violations.append(f"clause {clause}: {name} must be a supported jump measure")
            continue
        for kind in kinds:
            val = jump_moment(nu, kind)
            if not math.isfinite(val):
                violations.append(f"clause {clause}: {name} moment {kind} is not finite")

    if violations:
        raise AdmissibilityError(violations)
    return AdmissibleParams(a=a, alpha=alpha, b=b, beta=beta, m=m, mu=mu)
