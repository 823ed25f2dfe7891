"""The in-place step kernel against its expression-form reference.

``sde`` builds each Euler update in one new array with augmented
operations and computes the terms a step shares once.  The reference
simulator here keeps the plain expression form of every update, the
compensator ``dt * lam * mu`` per coordinate and the recursive split of
refined increments, so each simulator must equal it bit for bit: the
kernel may reorder no floating-point operation.  The kernel also leaves
out every term whose coefficient is zero, while the reference keeps it,
so the inputs include signed-zero coefficients next to nonzero ones.

A system reads only the Brownian components its nonzero loadings touch,
and every run on noise holding only those must equal its run on noise
holding all three bit for bit, since the components held carry the
bytes of the full draw.
"""

from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from affine_lab import noise as noise_module
from affine_lab import sde
from affine_lab.noise import generate_noise, refine, substream_seed_array
from affine_lab.params import FiniteAtomicMeasure, validate_admissible
from affine_lab.presets import (cir_params, jump_affine_params,
                                symmetric_split_params)
from affine_lab.sde import (ParameterSplit, run_ensemble, simulate_affine,
                            simulate_catalytic, simulate_cbi,
                            simulate_reactant_pair)


def jump_affine_at(a):
    """``jump_affine`` with ``a`` set, so ``sigma0 = sqrt(a)``, which the
    affine partner and every reactant read, is ``a`` when ``a`` is a zero
    while the other noise coefficients stay nonzero."""
    p = jump_affine_params()
    return validate_admissible(a, p.alpha, p.b, p.beta, p.m, p.mu)


def user_split(p):
    """A pair split with ``beta21`` nonzero on both sides, next to
    ``sigma0`` zero on both (``-0.0`` on the positive side, ``+0.0`` on
    the negative one)."""
    return replace(ParameterSplit.from_params(p), beta21_pos=0.5,
                   beta21_neg=0.1, sigma0_pos=-0.0, sigma0_neg=0.0)


# name -> (parameters, the pair split or None for the canonical one)
CASES = {"jump_affine": (jump_affine_params, None),
         "cir": (cir_params, None),
         "symmetric_split": (symmetric_split_params, None),
         "a=+0": (lambda: jump_affine_at(0.0), None),
         "a=-0": (lambda: jump_affine_at(-0.0), None),
         "user-split": (lambda: jump_affine_at(0.0), user_split)}
LADDER = [1.0, 4.0, 16.0, 64.0]
HUGE = 1.7e308      # 2 y / theta overflows on the rung theta = 1


# -- the expression-form reference ----------------------------------------

def ref_increment(noise, k, level=None):
    """The step-``k`` increments as the parent's half plus or minus the
    bridge midpoint, recomputing the parent for each half."""
    level = noise.refinement_level if level is None else level
    if level == 0:
        return noise.brownian[k]
    out = ref_increment(noise, k >> 1, level - 1) / 2.0
    mid = noise.bridges[level - 1][k >> 1]
    if k & 1:
        out -= mid
    else:
        out += mid
    return out


def ref_comp(dt, mu):
    return None if mu == 0.0 else lambda s, k, lam: dt * lam * mu


def ref_step_loop(noise, coords, thinning, keep=None, sup=None):
    n_paths, n_steps, dt, u_bound = noise.n_paths, noise.n_steps, \
        noise.dt, noise.u_bound
    shape = np.broadcast_shapes(*(np.shape(c.start) for c in coords)) \
        + (n_paths,)
    every = np.arange(n_steps + 1)
    keep = every if keep is None else every[keep]
    kept = {c.name: np.empty(shape + (len(keep),)) for c in coords}
    sup = {} if sup is None else sup
    columns = {}
    for j, i in enumerate(keep.tolist()):
        columns.setdefault(i, []).append(j)
    ev0, ev1 = sde._EventTable(noise, "n0"), sde._EventTable(noise, "n1")
    w0 = [c.marks0(ev0.xi1, ev0.xi2) for c in coords]
    w1 = [c.marks1(ev1.xi1, ev1.xi2) for c in coords]
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
            bad = ~reduce(np.logical_and, [np.isfinite(v) for v in s.values()])
            if thinning:
                for v in lam.values():
                    bad = bad | (v > u_bound)
            newly = alive & bad
            if newly.any():
                abort_step[newly] = k
                alive &= ~newly
            dB = ref_increment(noise, k).T
            a0, e0 = ev0.offsets[k], ev0.offsets[k + 1]
            a1, e1 = ev1.offsets[k], ev1.offsets[k + 1]
            p0, p1 = ev0.path[a0:e0], ev1.path[a1:e1]
            hits = {}
            for f, v in lam.items() if e1 > a1 else ():
                *copy, e = (ev1.umark[a1:e1] <= v.take(p1, axis=-1)).nonzero()
                if len(e):
                    hits[f] = (p1[e] + copy[0] * n_paths if copy else p1[e]), e
            step = {}
            for c, v0, v1 in zip(coords, w0, w1):
                lam_c = lam[c.intensity]
                new = c.euler(s, dB, k)
                if e0 > a0:
                    new += np.bincount(p0, weights=v0[a0:e0],
                                       minlength=n_paths)
                if c.m != 0.0:
                    new = new - dt * c.m
                if c.intensity in hits:
                    lane, e = hits[c.intensity]
                    new = new + np.bincount(
                        lane, weights=v1[a1:e1][e],
                        minlength=lam_c.size).reshape(lam_c.shape)
                if c.comp is not None:
                    new = new - c.comp(s, k, lam_c)
                if c.clamp:
                    neg = new < 0.0
                    clamps += neg & alive
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


def ref_catalyst(p, x0, dt):
    b1, b11 = p.b[0], p.beta[0, 0]
    s11, s12 = p.sigma[0]

    def euler(s, dB, k):
        xk = s["x"]
        return xk + dt * (b1 + b11 * xk) \
            + np.sqrt(2.0 * xk) * (s11 * dB[:, 1] + s12 * dB[:, 2])

    return sde._Coord("x", x0, euler, lambda s, k: s["x"], sde._xi1,
                      sde._xi1, comp=ref_comp(dt, p.mu.poly_moment(1, 0)),
                      clamp=True)


def ref_partner(p, name, z0, region, dt, intensity):
    b2, b21, b22 = p.b[1], p.beta[1, 0], p.beta[1, 1]
    s21, s22 = p.sigma[1]
    rt2s0 = np.sqrt(2.0) * p.sigma0

    def euler(s, dB, k):
        xk, zk = s["x"], s[name]
        return zk + dt * (b2 + b21 * xk + b22 * zk) + rt2s0 * dB[:, 0] \
            + np.sqrt(2.0 * xk) * (s21 * dB[:, 1] + s22 * dB[:, 2])

    marks = sde._region_marks(region)
    return sde._Coord(name, z0, euler, intensity, marks, marks,
                      m=p.m.poly_moment(0, 1, region),
                      comp=ref_comp(dt, p.mu.poly_moment(0, 1, region)))


def ref_reactant(p, name, y0, theta, coefs, region, dt):
    sg0, sg21, sg22, bb2, bb21 = coefs
    b22 = p.beta[1, 1]
    sign = 1.0 if region == "plus" else -1.0

    def euler(s, dB, k):
        xk, yk = s["x"], s[name]
        ty = yk / theta
        return yk + dt * (-theta * b22 + bb21 * xk * ty + bb2 * ty
                          + b22 * yk) \
            + sg0 * np.sqrt(2.0 * ty) * dB[:, 0] \
            + np.sqrt(2.0 * xk * ty) * (sg21 * dB[:, 1] + sg22 * dB[:, 2])

    marks = sde._region_marks(region)
    return sde._Coord(name, y0, euler,
                      lambda s, k: s["x"] * (s[name] / theta), marks, marks,
                      m=sign * p.m.poly_moment(0, 1, region),
                      comp=ref_comp(dt, sign * p.mu.poly_moment(0, 1, region)),
                      clamp=True)


def ref_cbi(p, x0, theta0, theta1, l, noise):
    dt = noise.dt
    b, beta, sigma = p.b[0], p.beta[0, 0], p.sigma[0]
    mu_x1 = p.mu.poly_moment(1, 0)

    def euler(s, dB, k):
        xk = s["x"]
        diff = np.einsum("pj,j->p", dB[:, 1:3], sigma)
        return xk + dt * (b + beta * xk) + np.sqrt(2.0 * xk) * diff

    x = sde._Coord("x", x0, euler, lambda s, k: l * s["x"],
                   lambda xi1, xi2: theta0 * xi1,
                   lambda xi1, xi2: theta1 * xi1,
                   comp=(lambda s, k, lam: dt * l * s["x"] * theta1 * mu_x1)
                   if mu_x1 != 0.0 else None, clamp=True)
    return ref_step_loop(noise, [x], not p.mu.is_empty)


def ref_affine(p, x0, z0, noise, z_region):
    x = ref_catalyst(p, x0, noise.dt)
    return ref_step_loop(noise, [x, ref_partner(p, "z", z0, z_region,
                                                noise.dt, x.intensity)],
                         not p.mu.is_empty)


def ref_catalytic(p, x0, y0, l, noise):
    dt = noise.dt
    b2, b21, b22 = p.b[1], p.beta[1, 0], p.beta[1, 1]
    s21, s22 = p.sigma[1]
    s0 = p.sigma0

    def euler(s, dB, k):
        xk, yk = s["x"], s["y"]
        return yk + dt * (b2 + b21 * xk * yk + b22 * yk) \
            + s0 * np.sqrt(2.0 * yk) * dB[:, 0] \
            + np.sqrt(2.0 * xk * yk) * (s21 * dB[:, 1] + s22 * dB[:, 2])

    plus = sde._region_marks("plus")
    y = sde._Coord("y", y0, euler, lambda s, k: l * s["x"] * s["y"], plus,
                   plus, comp=ref_comp(dt, p.mu.poly_moment(0, 1, "plus")),
                   clamp=True)
    return ref_step_loop(noise, [ref_catalyst(p, x0, dt), y],
                         not p.mu.is_empty)


def ref_ladder(p, ladder, x0, yp0, ym0, z0, noise, mode, split=None):
    """The rungs of one ladder with the limit equation, one triple each."""
    dt = noise.dt
    scales = np.array(ladder, dtype=float)[:, None]
    x = ref_catalyst(p, x0, dt)
    if mode == "pair":
        split = ParameterSplit.from_params(p) if split is None else split
        ys = [ref_reactant(p, "y_plus", yp0, scales, split._part("pos"),
                           "plus", dt),
              ref_reactant(p, "y_minus", ym0, scales, split._part("neg"),
                           "minus", dt)]
    else:
        ys = [ref_reactant(p, "y", yp0, scales,
                           tuple(read(p) for _, read in sde._SPLIT), "plus",
                           dt)]

    def centered(s, theta):
        return s["y_plus"] - s["y_minus"] if mode == "pair" \
            else s["y"] - theta

    lim = ref_partner(p, "z_lim", z0, "all" if mode == "pair" else "plus",
                      dt, x.intensity)
    comps, aborted_at, clamps = ref_step_loop(
        noise, [x, *ys, lim], not p.mu.is_empty,
        sup={"gap": lambda s: np.abs(centered(s, scales) - s["z_lim"])})
    comps["z_k"] = centered(comps, scales[..., None])
    return [({name: arr[r] for name, arr in comps.items()}, aborted_at[r],
             clamps[r]) for r in range(len(ladder))]


# -- helpers ---------------------------------------------------------------

def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def assert_bitwise(got, want, label):
    """Equal triples ``(components, aborted_at, clamps)``: every float
    compared by its bits, so signed zeros and NaNs count."""
    assert list(got[0]) == list(want[0]), label
    for name, arr in want[0].items():
        assert got[0][name].shape == arr.shape, (label, name)
        assert np.array_equal(bits(got[0][name]), bits(arr)), (label, name)
    assert np.array_equal(bits(got[1]), bits(want[1])), label
    assert got[2].dtype == want[2].dtype, label
    assert np.array_equal(got[2], want[2]), label


ALL = (0, 1, 2)


def make_noise(p, level, u_bound=16.0, n=24, t_max=0.5, dt=0.0125,
               components=ALL):
    noise = generate_noise(p.m, p.mu, t_max, dt,
                           substream_seed_array(5, np.arange(n)), u_bound,
                           components)
    for _ in range(level):
        noise = refine(noise)
    return noise


def simulators(p, start, split=None, y0=None):
    """Every simulator from ``start`` as ``(label, run)``, where
    ``run(noise, keep=None)`` gives a list of triples (a ladder's one per
    rung).  ``split`` is the pair ladder's (None: the canonical one);
    ``y0`` (default ``start``) starts the catalytic reactant and the
    first rung's ``y`` and ``y_plus``."""
    y0 = start if y0 is None else y0
    starts = [start] * len(LADDER)
    firsts = [y0] + starts[1:]

    def ladder(mode):
        return lambda noise, keep=None: simulate_reactant_pair(
            p, LADDER, start, firsts, starts, noise, mode,
            split=split if mode == "pair" else None, with_limit=True,
            z0=start, keep=keep)
    return [
        ("cbi", lambda noise, keep=None: [
            simulate_cbi(p, start, 1.5, 0.75, 1.25, noise, keep)]),
        ("affine-all", lambda noise, keep=None: [
            simulate_affine(p, start, start, noise, keep=keep)]),
        ("affine-plus", lambda noise, keep=None: [
            simulate_affine(p, start, start, noise, "plus", keep)]),
        ("catalytic", lambda noise, keep=None: [
            simulate_catalytic(p, start, y0, 0.8, noise, keep)]),
        ("single", ladder("single")),
        ("pair", ladder("pair"))]


def all_runs(p, start, noise, split=None, y0=None):
    """Every simulator of :func:`simulators` on ``noise``, each with its
    reference: ``(label, got, want)`` triples, a ladder one per rung."""
    y0 = start if y0 is None else y0
    starts = [start] * len(LADDER)
    firsts = [y0] + starts[1:]
    wants = {"cbi": [ref_cbi(p, start, 1.5, 0.75, 1.25, noise)],
             "affine-all": [ref_affine(p, start, start, noise, "all")],
             "affine-plus": [ref_affine(p, start, start, noise, "plus")],
             "catalytic": [ref_catalytic(p, start, y0, 0.8, noise)]}
    for mode, cut in (("single", None), ("pair", split)):
        wants[mode] = ref_ladder(p, LADDER, start, firsts, starts, start,
                                 noise, mode, cut)
    runs = []
    for label, run in simulators(p, start, split, y0):
        got = run(noise)
        if label in ("single", "pair"):
            runs += [(f"{label}-rung{r}", g, w)
                     for r, (g, w) in enumerate(zip(got, wants[label]))]
        else:
            runs.append((label, got[0], wants[label][0]))
    return runs


# -- the tests -------------------------------------------------------------

@pytest.mark.parametrize("level", [1, 2])
def test_refined_increments_match_recursive_split(level):
    """Each half of a pair of fine steps reads one shared parent half;
    its bytes equal the recursive split's, read in order or not."""
    noise = make_noise(jump_affine_params(), level)
    order = list(range(noise.n_steps))
    shuffled = np.random.default_rng(0).permutation(noise.n_steps).tolist()
    for k in order + shuffled + order[::-1]:
        got = noise.increment(k)
        assert got.tobytes() == ref_increment(noise, k).tobytes(), k
        assert got.flags.writeable


@pytest.mark.parametrize("start", [1.0, 0.0, -0.0])
@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("preset", sorted(CASES))
def test_simulators_equal_expression_form(preset, level, start):
    params, split = CASES[preset]
    p = params()
    for label, got, want in all_runs(p, start, make_noise(p, level),
                                     split and split(p)):
        assert_bitwise(got, want, label)


@pytest.mark.parametrize("level", [0, 1])
def test_aborting_runs_equal_expression_form(level):
    """A thinning bound low enough to abort paths: the abort times, the
    NaN tails and the clamp counts equal the reference's.  From 0 some
    reactants still go negative after their abort, so a clamp counted on
    a dead lane would show.  From a reactant start of ``HUGE`` the
    nonzero-coefficient term ``c0 sqrt(2 y) dB_0`` overflows in the first
    step: a lane whose ``dB_0`` is positive reaches +inf and aborts, one
    whose ``dB_0`` is negative reaches -inf and is clamped to 0 without
    aborting, so a quiet-step test that missed either would show.  With
    no jumps, hence no thinning, and an ``x`` start of ``HUGE`` the affine
    ``z`` overflows on lanes where ``x`` is clamped to 0, so only their
    non-finite state aborts them."""
    p = jump_affine_params()
    noise = make_noise(p, level, u_bound=1.6, n=40)
    runs = all_runs(p, 0.0, noise)
    aborted = {label for label, got, _ in runs
               if 0 < np.isfinite(got[1]).sum() < len(got[1])}
    assert {"affine-all", "catalytic", "pair-rung0"} <= aborted
    overflow = all_runs(p, 0.0, noise, y0=HUGE)
    for label, name in (("catalytic", "y"), ("single-rung0", "y"),
                        ("pair-rung0", "y_plus")):
        comps, aborted_at, clamps = dict((l, g) for l, g, _ in overflow)[label]
        up = comps[name][:, 1] == np.inf
        assert up.any() and (aborted_at[up] == noise.grid[1]).all(), label
        down = comps[name][:, 1] == 0.0
        assert down.any() and (up | down).all(), label
        assert not (aborted_at[down] <= noise.grid[1]).any(), label
        assert (clamps[down] >= 1).all(), label
    calm = validate_admissible(p.a, p.alpha, p.b, p.beta,
                               FiniteAtomicMeasure([]), FiniteAtomicMeasure([]))
    noise = make_noise(calm, level, n=40)
    got = simulate_affine(calm, HUGE, 0.0, noise)
    hidden = (got[0]["x"][:, 1] == 0.0) & ~np.isfinite(got[0]["z"][:, 1])
    assert hidden.any() and (got[1][hidden] == noise.grid[1]).all()
    overflow.append(("affine-x", got,
                     ref_affine(calm, HUGE, 0.0, noise, "all")))
    for label, got, want in runs + overflow:
        assert_bitwise(got, want, label)


def test_zero_split_ladder_takes_one_sqrt_per_step(monkeypatch):
    """In ``symmetric_split`` every split part of both reactants and every
    noise coefficient of the limit equation is zero, so those terms are
    left out and a step's one square root is the catalyst's
    ``sqrt(2 x)``."""
    p = symmetric_split_params()
    noise = make_noise(p, 0)
    sqrt, calls = np.sqrt, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return sqrt(*args, **kwargs)
    monkeypatch.setattr(np, "sqrt", counted)
    simulate_reactant_pair(p, LADDER, 0.5, LADDER, LADDER, noise, "pair",
                           with_limit=True, z0=0.0)
    assert calls == [(noise.n_paths,)] * noise.n_steps


def test_run_writes_no_noise_and_repeats(monkeypatch):
    """A run leaves every array of its noise unchanged, records exactly
    its coordinates' names (and its maxima's), never a shared term, and
    a second run on the same noise gives the same bytes."""
    p = symmetric_split_params()
    noise = make_noise(p, 1)
    arrays = [noise.seeds, noise.brownian, *noise.bridges, noise.n0_path,
              noise.n0_times, noise.n0_marks, noise.n1_path,
              noise.n1_times, noise.n1_umarks, noise.n1_marks]
    before = [a.tobytes() for a in arrays]
    names = []
    step_loop = sde._step_loop

    def spy(noise, coords, thinning, keep=None, sup=None):
        out = step_loop(noise, coords, thinning, keep, sup)
        names.append((sorted(out[0]),
                      sorted([c.name for c in coords] + list(sup or ()))))
        return out
    monkeypatch.setattr(sde, "_step_loop", spy)
    first = all_runs(p, 0.5, noise)
    assert [a.tobytes() for a in arrays] == before
    assert len(names) == 6
    assert all(got == want for got, want in names)
    for (label, got, _), (_, again, _) in zip(first,
                                              all_runs(p, 0.5, noise)):
        assert_bitwise(again, got, label)


# -- noise holding only the components a system reads ----------------------

def read_by(run, p):
    """The components ``run`` reads, as its step loops record them on an
    empty batch."""
    probe = generate_noise(p.m, p.mu, 0.5, 0.0125, [], 16.0)
    run(probe)
    return tuple(sorted(set().union(*probe._read)))


# the components each CASES entry's simulators read (lower-triangular
# sigma: the catalyst never reads dB_2; a = 0: nothing reads dB_0)
READS = {"jump_affine": {(1,), ALL}, "cir": {(1,)},
         "symmetric_split": {(1,)}, "a=+0": {(1,), (1, 2)},
         "a=-0": {(1,), (1, 2)}, "user-split": {(1,), (1, 2)}}


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("preset", sorted(CASES))
def test_runs_on_read_components_equal_full_noise(preset, level):
    """Every simulator on noise holding only the components it reads
    equals its run on noise holding all three, bit for bit, on the
    generated grid and a refined one."""
    params, split = CASES[preset]
    p = params()
    full, reads = make_noise(p, level), set()
    for label, run in simulators(p, 1.0, split and split(p)):
        components = read_by(run, p)
        reads.add(components)
        lean = make_noise(p, level, components=components)
        assert lean.brownian.shape[1] == len(components)
        for r, (got, want) in enumerate(zip(run(lean), run(full))):
            assert_bitwise(got, want, f"{label}-{r}")
    assert reads == READS[preset]


def one_model(p, split=None):
    """Every simulator of ``p`` as one ``run_ensemble`` model, and its
    arguments: a bound low enough to retry paths, and a coupled
    control."""
    runs = simulators(p, 1.0, split)

    def model(noise, keep):
        return [triple for _, run in runs for triple in run(noise, keep)]
    return model, dict(m=p.m, mu=p.mu, n_paths=40, master_seed=5,
                       t_max=0.5, dt=0.0125, u_bound=1.6, n_fine=8)


def lean_run(monkeypatch, model, kw):
    """The ensembles of ``model`` from the noise ``run_ensemble`` draws,
    and the components each of its nonempty batches held."""
    held = []

    def spy(*args):
        noise = generate_noise(*args)
        if noise.n_paths:
            held.append(noise.components)
        return noise
    monkeypatch.setattr(sde, "generate_noise", spy)
    return run_ensemble(model, **kw), held


def full_run(monkeypatch, model, kw):
    """The ensembles of ``model`` from noise holding all three
    components."""
    monkeypatch.setattr(sde, "generate_noise",
                        lambda *args: generate_noise(*args[:6]))
    return run_ensemble(model, **kw)


def assert_same_ensembles(got, want):
    for level, (gots, wants) in enumerate(zip(got, want)):
        for r, (g, w) in enumerate(zip(gots, wants)):
            assert (g.n_retried, g.n_clamped) == (w.n_retried, w.n_clamped)
            assert list(g.components) == list(w.components)
            for name, arr in w.components.items():
                assert np.array_equal(bits(g.components[name]), bits(arr)), \
                    (level, r, name)


@pytest.mark.parametrize("preset", sorted(CASES))
def test_ensemble_retries_on_read_components_equal_full_noise(monkeypatch,
                                                              preset):
    """``run_ensemble`` draws every chunk, retry round and control batch
    with the components its model read on the empty probe, and its
    ensembles equal those drawn with all three bit for bit."""
    params, split = CASES[preset]
    p = params()
    model, kw = one_model(p, split and split(p))
    lean, held = lean_run(monkeypatch, model, kw)
    assert set(held) == {tuple(sorted(set().union(*READS[preset])))}
    retried = sum(ens.n_retried for ens in lean[0])
    assert len(held) > 2 if retried else len(held) == 2
    assert retried or p.mu.is_empty
    assert_same_ensembles(lean, full_run(monkeypatch, model, kw))


def test_zero_loadings_draw_no_brownian_stream(monkeypatch):
    """A parameter set whose diffusion loadings are all zero reads no
    component: ``run_ensemble`` opens no role-0 stream and no bridge
    stream, and its ensembles equal those of full noise."""
    q = jump_affine_params()
    p = validate_admissible(0.0, np.zeros((2, 2)), q.b, q.beta, q.m, q.mu)
    roles, stream = [], noise_module._stream

    def spy(key0, role):
        roles.append(role)
        return stream(key0, role)
    monkeypatch.setattr(noise_module, "_stream", spy)
    model, kw = one_model(p)
    lean, held = lean_run(monkeypatch, model, kw)
    assert set(held) == {()} and len(held) > 2        # retry rounds too
    assert set(roles) == {noise_module.ROLE_N0, noise_module.ROLE_N1}
    roles.clear()
    assert_same_ensembles(lean, full_run(monkeypatch, model, kw))
    assert noise_module.ROLE_BROWNIAN in roles


@pytest.mark.parametrize("components, missing",
                         [((1, 2), 0), ((0, 2), 1), ((0, 1), 2)])
def test_coordinate_refuses_noise_without_its_components(components,
                                                         missing):
    """Building a coordinate on noise that lacks a component it reads
    raises, naming the component; the step loop refuses a coordinate
    whose component sits at another row of its noise, so no run reads
    another component's row."""
    p = jump_affine_params()
    lean = make_noise(p, 0, components=components)
    with pytest.raises(ValueError, match=f"^Brownian component {missing} "
                                         f"is not held by this noise"):
        simulate_affine(p, 1.0, 0.0, lean)
    x = sde._catalyst(p, 1.0, make_noise(p, 0))
    assert x.rows == {1: 1}
    if components == (0, 1):       # dB_1 is at row 1 here too
        assert_bitwise(sde._step_loop(lean, [x], True),
                       sde._step_loop(make_noise(p, 0), [x], True), "x")
    else:
        with pytest.raises(ValueError, match=r"^coordinate x reads Brownian "
                                             r"component 1 at row 1"):
            sde._step_loop(lean, [x], True)


def test_dead_lanes_keep_later_steps_quiet(monkeypatch):
    """The limit-ladder config at ``u_bound = 3`` (seed 1) aborts lanes;
    their states are set to 0, so the abort masks run only on the steps
    where a live lane goes bad, and the outputs still equal the
    reference bit for bit."""
    p = symmetric_split_params()
    ladder = [4.0, 16.0, 64.0, 256.0]
    noise = generate_noise(p.m, p.mu, 1.0, 2.0 ** -8,
                           substream_seed_array(1, np.arange(1000)), 3.0)
    masks = []

    def counted(*args):
        masks.append(1)
        return reduce(*args)
    monkeypatch.setattr(sde, "reduce", counted)
    got = simulate_reactant_pair(p, ladder, 1.0, ladder, ladder, noise,
                                 "pair", with_limit=True, z0=0.0)
    aborted_at = np.concatenate([at for _, at, _ in got])
    bad_steps = np.unique(aborted_at[~np.isnan(aborted_at)])
    assert len(bad_steps) > 100 and len(masks) == len(bad_steps)
    want = ref_ladder(p, ladder, 1.0, ladder, ladder, 0.0, noise, "pair")
    for r, (g, w) in enumerate(zip(got, want)):
        assert_bitwise(g, w, f"rung{r}")
