"""Jump-measure queries against quadrature oracles; admissibility clauses."""

import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import integrate

from affine_lab.params import (
    AdmissibilityError,
    FiniteAtomicMeasure,
    ProductExponentialMeasure,
    UPoint,
    jump_exp_integral,
    jump_moment,
    psd_factor,
    validate_admissible,
)


def make_pe(total=1.3, r1=2.0, r2=3.0, mix=0.6, eps=0.0):
    return ProductExponentialMeasure(total_rate=total, rate1=r1, rate2=r2,
                                     sign_mix=mix, truncation_eps=eps)


def make_atoms():
    return FiniteAtomicMeasure([(0.5, 0.3, 0.6), (1.2, -0.4, 0.3), (0.0, 0.8, 0.4)])


# -- UPoint ---------------------------------------------------------------

def test_upoint_accepts_left_half_plane_and_imaginary_axis():
    u = UPoint(-1.0 + 2.0j, 0.5j)
    assert u.u1 == -1.0 + 2.0j and u.u2 == 0.5j
    assert u.conj().u1 == -1.0 - 2.0j


def test_upoint_rejects_positive_real_parts():
    with pytest.raises(ValueError):
        UPoint(0.1, 0.0)
    with pytest.raises(ValueError):
        UPoint(-1.0, 1e-12 + 1.0j)


# -- finite atomic measures ----------------------------------------------

def test_atomic_moments_are_exact_sums():
    nu = make_atoms()
    assert jump_moment(nu, "mass") == pytest.approx(1.3, abs=1e-15)
    assert jump_moment(nu, "int_xi1") == pytest.approx(0.5 * 0.6 + 1.2 * 0.3, abs=1e-15)
    assert jump_moment(nu, "int_xi2") == pytest.approx(
        0.3 * 0.6 - 0.4 * 0.3 + 0.8 * 0.4, abs=1e-15)
    assert jump_moment(nu, "int_xi2_sq") == pytest.approx(
        0.09 * 0.6 + 0.16 * 0.3 + 0.64 * 0.4, abs=1e-15)
    # l12 kinks at |x| = 1: the 1.2 atom contributes |xi1| not xi1**2
    assert jump_moment(nu, "int_l12_xi1") == pytest.approx(
        0.25 * 0.6 + 1.2 * 0.3 + 0.0, abs=1e-15)


def test_atomic_region_and_band_restrictions():
    nu = make_atoms()
    assert nu.mass(region="plus") == pytest.approx(1.0)
    assert nu.mass(region="minus") == pytest.approx(0.3)
    assert nu.poly_moment(0, 1, region="minus") == pytest.approx(-0.12)
    # band at eps = 0.35 drops the (0.5, 0.3) atom? no: max(0.5, 0.3) > 0.35 keeps it
    assert nu.mass(eps=0.35) == pytest.approx(1.3)
    # eps = 0.6 drops (0.5, 0.3) only
    assert nu.mass(eps=0.6) == pytest.approx(0.7)


def test_atomic_exp_integral_single_atom_closed_form():
    nu = FiniteAtomicMeasure([(1.0, 0.0, 1.0)])
    u = UPoint(-1.0, 0.0)
    assert jump_exp_integral(nu, u, "none") == pytest.approx(math.exp(-1.0) - 1.0)
    assert jump_exp_integral(nu, u, "full") == pytest.approx(math.exp(-1.0) - 1.0 + 1.0)
    nu2 = FiniteAtomicMeasure([(0.0, 1.0, 1.0)])
    u2 = UPoint(0.0, 1.0j)
    val = jump_exp_integral(nu2, u2, "xi2_only")
    assert val == pytest.approx(complex(math.cos(1.0) - 1.0, math.sin(1.0) - 1.0))


def test_atomic_additivity_under_atom_split():
    whole = make_atoms()
    part1 = FiniteAtomicMeasure([(0.5, 0.3, 0.6)])
    part2 = FiniteAtomicMeasure([(1.2, -0.4, 0.3), (0.0, 0.8, 0.4)])
    u = UPoint(-0.7, 1.3j)
    for kind in ("mass", "int_xi1", "int_xi2_sq", "int_l12_xi2"):
        assert jump_moment(whole, kind) == pytest.approx(
            jump_moment(part1, kind) + jump_moment(part2, kind), abs=1e-14)
    assert jump_exp_integral(whole, u, "full") == pytest.approx(
        jump_exp_integral(part1, u, "full") + jump_exp_integral(part2, u, "full"))


def test_atomic_rejects_bad_atoms():
    with pytest.raises(ValueError):
        FiniteAtomicMeasure([(-0.1, 0.5, 1.0)])
    with pytest.raises(ValueError):
        FiniteAtomicMeasure([(0.0, 0.0, 1.0)])
    with pytest.raises(ValueError):
        FiniteAtomicMeasure([(1.0, 0.0, 0.0)])


# -- product exponential vs quadrature oracles ---------------------------

def _pe_quad_moment(nu, f1, f2):
    """Independent oracle: factorized 1-d quadrature of f1(xi1) * f2(xi2)."""
    g1, _ = integrate.quad(lambda x: f1(x) * nu.rate1 * math.exp(-nu.rate1 * x),
                           0, np.inf)
    plus, _ = integrate.quad(lambda x: f2(x) * nu.rate2 * math.exp(-nu.rate2 * x),
                             0, np.inf)
    minus, _ = integrate.quad(lambda x: f2(-x) * nu.rate2 * math.exp(-nu.rate2 * x),
                              0, np.inf)
    return nu.total_rate * g1 * (nu.sign_mix * plus + (1.0 - nu.sign_mix) * minus)


@pytest.mark.parametrize("kind,f1,f2", [
    ("mass", lambda x: 1.0, lambda y: 1.0),
    ("int_xi1", lambda x: x, lambda y: 1.0),
    ("int_xi2", lambda x: 1.0, lambda y: y),
    ("int_xi1_sq", lambda x: x * x, lambda y: 1.0),
    ("int_xi2_sq", lambda x: 1.0, lambda y: y * y),
    ("int_xi1_xi2", lambda x: x, lambda y: y),
    ("int_l1_xi1", lambda x: x, lambda y: 1.0),
    ("int_l12_xi1", lambda x: min(x, x * x), lambda y: 1.0),
    ("int_l12_xi2", lambda x: 1.0, lambda y: min(abs(y), y * y)),
])
def test_pe_moments_match_quadrature(kind, f1, f2):
    nu = make_pe()
    oracle = _pe_quad_moment(nu, f1, f2)
    assert jump_moment(nu, kind) == pytest.approx(oracle, abs=1e-10)


def test_pe_frozen_values():
    # hand-computed from the closed forms: E[xi1]=1/2, E[xi2]=(2*0.6-1)/3,
    # E[xi2^2]=2/9, all scaled by total_rate=1.3
    nu = make_pe()
    assert jump_moment(nu, "int_xi1") == pytest.approx(0.65, abs=1e-14)
    assert jump_moment(nu, "int_xi2") == pytest.approx(1.3 * 0.2 / 3.0, abs=1e-14)
    assert jump_moment(nu, "int_xi2_sq") == pytest.approx(1.3 * 2.0 / 9.0, abs=1e-14)


def test_pe_region_moments_match_quadrature():
    nu = make_pe()
    plus, _ = integrate.quad(lambda y: y * nu.rate2 * math.exp(-nu.rate2 * y), 0, np.inf)
    assert nu.poly_moment(0, 1, region="plus") == pytest.approx(
        nu.total_rate * nu.sign_mix * plus, abs=1e-12)
    assert nu.poly_moment(0, 1, region="minus") == pytest.approx(
        -nu.total_rate * (1 - nu.sign_mix) * plus, abs=1e-12)
    assert nu.poly_moment(1, 2, region="all") == pytest.approx(
        _pe_quad_moment(nu, lambda x: x, lambda y: y * y), abs=1e-10)


def test_pe_band_mass_closed_form():
    # inside-box mass factorizes: R * (1 - e^{-r1 eps}) * (1 - e^{-r2 eps})
    nu = make_pe(total=2.0, r1=1.5, r2=2.5, mix=0.5)
    eps = 0.3
    inside = 2.0 * (1 - math.exp(-1.5 * eps)) * (1 - math.exp(-2.5 * eps))
    assert nu.mass(eps=eps) == pytest.approx(2.0 - inside, abs=1e-12)


def _pe_quad_exp(nu, u1, u2, c1, c2, region="all"):
    r1, r2, s, tot = nu.rate1, nu.rate2, nu.sign_mix, nu.total_rate

    def law2(f):
        plus, _ = integrate.quad(lambda y: f(y) * r2 * math.exp(-r2 * y), 0, np.inf)
        minus, _ = integrate.quad(lambda y: f(-y) * r2 * math.exp(-r2 * y), 0, np.inf)
        if region == "plus":
            return s * plus
        if region == "minus":
            return (1 - s) * minus
        return s * plus + (1 - s) * minus

    def law1(f):
        v, _ = integrate.quad(lambda x: f(x) * r1 * math.exp(-r1 * x), 0, np.inf)
        return v

    # complex quadrature done coordinatewise
    e1 = law1(lambda x: np.exp(u1 * x).real) + 1j * law1(lambda x: np.exp(u1 * x).imag)
    e2 = law2(lambda y: np.exp(u2 * y).real) + 1j * law2(lambda y: np.exp(u2 * y).imag)
    mass = law2(lambda y: 1.0)
    out = e1 * e2 - mass
    if c1:
        out -= u1 * law1(lambda x: x) * mass
    if c2:
        out -= u2 * law2(lambda y: y)
    return tot * out


@pytest.mark.parametrize("u1,u2", [
    (-1.0, 0.0), (0.0, 1.0j), (-0.5 + 0.3j, 2.0j), (-1.9, -0.9j),
])
@pytest.mark.parametrize("comp", ["none", "xi2_only", "full"])
def test_pe_exp_integral_matches_quadrature(u1, u2, comp):
    nu = make_pe()
    c1 = comp == "full"
    c2 = comp in ("xi2_only", "full")
    oracle = _pe_quad_exp(nu, u1, u2, c1, c2)
    got = jump_exp_integral(nu, UPoint(u1, u2), comp)
    assert got == pytest.approx(oracle, abs=1e-9)


def test_pe_region_exp_integral_matches_quadrature():
    nu = make_pe()
    for region in ("plus", "minus"):
        oracle = _pe_quad_exp(nu, -0.8, 1.1j, True, True, region=region)
        got = nu.exp_integral(-0.8, 1.1j, compensate_xi1=True,
                              compensate_xi2=True, region=region)
        assert got == pytest.approx(oracle, abs=1e-9)


def test_pe_exp_integral_divergence_guard():
    nu = make_pe(r1=2.0)
    with pytest.raises(ValueError):
        nu.exp_integral(2.5, 0.0)


# -- shared invariants ----------------------------------------------------

@pytest.mark.parametrize("nu", [make_atoms(), make_pe()])
def test_exp_integral_real_part_nonpositive_on_domain(nu):
    for u in (UPoint(0, 0), UPoint(-1, 0), UPoint(0, 2j), UPoint(-0.5, -1.5j),
              UPoint(-3, 0.7j)):
        val = jump_exp_integral(nu, u, "none")
        assert val.real <= 1e-15


@pytest.mark.parametrize("nu", [make_atoms(), make_pe()])
def test_exp_integral_conjugate_symmetry(nu):
    u = UPoint(-0.4 + 0.8j, 1.7j)
    a = jump_exp_integral(nu, u, "full")
    b = jump_exp_integral(nu, u.conj(), "full")
    assert a == pytest.approx(b.conjugate(), abs=1e-14)


@pytest.mark.parametrize("nu", [make_atoms(), make_pe()])
def test_exp_integral_vanishes_at_origin(nu):
    for comp in ("none", "xi2_only", "full"):
        assert jump_exp_integral(nu, UPoint(0, 0), comp) == 0


def test_sampler_respects_band_and_marginals():
    rng = Generator(Philox(key=[7, 0]))
    nu = make_pe(total=1.0, r1=2.0, r2=3.0, mix=0.6, eps=0.2)
    marks = nu.sample(rng, 20000)
    assert marks.shape == (20000, 2)
    assert np.all(np.maximum(marks[:, 0], np.abs(marks[:, 1])) > 0.2)
    # conditional-on-band means, oracle by 2-d quadrature of the band density
    def band_mean(coord):
        def integrand(y, x):
            dens = (2.0 * math.exp(-2.0 * x)) * (3.0 * math.exp(-3.0 * abs(y))) \
                * (0.6 if y >= 0 else 0.4)
            if max(x, abs(y)) <= 0.2:
                return 0.0
            return (x if coord == 0 else y) * dens
        val, _ = integrate.dblquad(integrand, 0, 8, -8, 8, epsabs=1e-10)
        return val / nu.mass(eps=0.2)
    for coord in (0, 1):
        got = marks[:, coord].mean()
        want = band_mean(coord)
        sd = marks[:, coord].std() / math.sqrt(len(marks))
        assert abs(got - want) < 4 * sd


def test_atomic_sampler_matches_weights():
    rng = Generator(Philox(key=[11, 0]))
    nu = make_atoms()
    marks = nu.sample(rng, 30000)
    frac = np.mean((marks[:, 0] == 1.2) & (marks[:, 1] == -0.4))
    assert abs(frac - 0.3 / 1.3) < 0.01


def test_atomic_sampler_cached_cdf_matches_choice():
    # eps 0.1 drops the atom (0.05, 0.02); alternating eps values fail a
    # cache not keyed by eps
    nu = FiniteAtomicMeasure([(0.5, 0.3, 0.6), (0.05, 0.02, 0.5),
                              (1.2, -0.4, 0.3), (0.0, 0.8, 0.4)])
    for k, eps in enumerate([0.0, 0.1, 0.0, 0.1, 0.1, 0.0]):
        keep = [0, 2, 3] if eps else [0, 1, 2, 3]
        w = nu.weights[keep]
        ref = Generator(Philox(key=[k, 2]))
        want = nu.atoms[keep][ref.choice(len(w), size=500, p=w / w.sum())]
        rng = Generator(Philox(key=[k, 2]))
        assert np.array_equal(nu.sample(rng, 500, eps=eps), want)
        assert rng.random() == ref.random()       # same draws consumed
    with pytest.raises(ValueError, match="no atoms outside"):
        nu.sample(Generator(Philox(key=[0, 2])), 5, eps=2.0)
    with pytest.raises(ValueError, match="no atoms outside"):
        nu.sample(Generator(Philox(key=[0, 2])), 5, eps=2.0)


# -- factorization and admissibility --------------------------------------

@pytest.mark.parametrize("alpha", [
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.4, 0.1], [0.1, 0.3]],
    [[0.5, 0.0], [0.0, 0.0]],       # zero second pivot
    [[0.0, 0.0], [0.0, 0.7]],       # zero first pivot, column zeroed
    [[1.0, 1.0], [1.0, 1.0]],       # rank one
    [[2.0, -0.7], [-0.7, 0.5]],
])
def test_psd_factor_reproduces_alpha(alpha):
    lo = psd_factor(alpha)
    assert lo[0, 1] == 0.0
    assert np.abs(lo @ lo.T - np.asarray(alpha)).max() <= 1e-12


def test_psd_factor_rejects_indefinite():
    with pytest.raises(ValueError):
        psd_factor([[1.0, 2.0], [2.0, 1.0]])


def test_admissible_accepts_trivial_set():
    empty = FiniteAtomicMeasure([])
    p = validate_admissible(0.0, np.zeros((2, 2)), [0.0, 0.0], np.zeros((2, 2)),
                            empty, empty)
    assert p.sigma0 == 0.0
    assert np.all(p.sigma == 0.0)


def test_admissible_rejections_cite_clauses():
    empty = FiniteAtomicMeasure([])
    ok = dict(a=1.0, alpha=np.eye(2), b=[1.0, -1.0],
              beta=[[-1.0, 0.0], [0.5, -1.0]], m=empty, mu=empty)

    with pytest.raises(AdmissibilityError, match=r"clause \(iv\)"):
        validate_admissible(**{**ok, "beta": [[-1.0, 0.1], [0.5, -1.0]]})
    with pytest.raises(AdmissibilityError, match=r"clause \(i\)"):
        validate_admissible(**{**ok, "a": -0.5})
    with pytest.raises(AdmissibilityError, match=r"clause \(iii\)"):
        validate_admissible(**{**ok, "b": [-0.2, 0.0]})
    with pytest.raises(AdmissibilityError, match=r"clause \(ii\)"):
        validate_admissible(**{**ok, "alpha": [[1.0, 2.0], [2.0, 1.0]]})
    with pytest.raises(AdmissibilityError, match=r"clause \(v\)"):
        validate_admissible(**{**ok, "m": None})
    # multiple violations are all reported
    try:
        validate_admissible(-1.0, [[1.0, 0.5], [0.4, 1.0]], [-2.0, 0.0],
                            [[0.0, 1.0], [0.0, 0.0]], empty, empty)
    except AdmissibilityError as err:
        assert len(err.violations) == 4


def test_admissible_derived_loadings():
    empty = FiniteAtomicMeasure([])
    p = validate_admissible(0.25, [[0.4, 0.1], [0.1, 0.3]], [1.0, 0.0],
                            [[-1.0, 0.0], [0.2, -0.5]], empty, empty)
    assert p.sigma0 == pytest.approx(0.5)
    assert np.abs(p.sigma @ p.sigma.T - p.alpha).max() <= 1e-12
    assert p.beta_bar == pytest.approx(1.0)
