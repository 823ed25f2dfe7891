"""Noise layer: determinism, stream laws, refinement, and the batch layout."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.random import Generator, Philox

from affine_lab import noise as noise_module
from affine_lab.noise import (
    _normals,
    _philox_keys,
    _stream,
    _stream_events,
    substream_seed,
    substream_seed_array,
    generate_noise,
    refine,
    steps_for,
)
from affine_lab.params import FiniteAtomicMeasure, ProductExponentialMeasure
from affine_lab.presets import jump_affine_params

EMPTY = FiniteAtomicMeasure([])
ATOMIC = FiniteAtomicMeasure([(0.5, 0.3, 2.0), (1.0, -0.2, 1.0)])   # mass 3.0
PE = ProductExponentialMeasure(total_rate=1.5, rate1=2.0, rate2=3.0,
                               sign_mix=0.7)


def make(seed=7, *, m=ATOMIC, mu=ATOMIC, t_max=2.0, dt=0.25, u_bound=4.0):
    return generate_noise(m, mu, t_max, dt, seed, u_bound)


# -- grid bookkeeping ------------------------------------------------------

def test_steps_for_exact_multiples():
    assert steps_for(1.0, 2.0 ** -10) == 1024
    assert steps_for(2.0, 0.25) == 8


def test_steps_for_rejects_non_multiples():
    with pytest.raises(ValueError):
        steps_for(1.0, 0.3)
    with pytest.raises(ValueError):
        steps_for(0.0, 0.1)
    with pytest.raises(ValueError):
        steps_for(1.0, -0.1)


@pytest.mark.parametrize("t_max", [math.inf, -math.inf, math.nan, 1e300])
def test_steps_for_rejects_non_finite_step_counts(t_max):
    # inf used to raise OverflowError, NaN a float-to-integer error
    with pytest.raises(ValueError, match=r"^t = .* is not a positive "
                                         r"multiple of dt = 1e-300$"):
        steps_for(t_max, 1e-300)
    with pytest.raises(ValueError, match="dt must be positive"):
        steps_for(1.0, math.nan)


def test_grid_and_shapes():
    ns = make(dt=0.5)
    assert ns.n_paths == 1
    assert ns.n_steps == 4
    assert ns.n_components == 3
    assert np.allclose(ns.grid, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert ns.brownian.shape == (4, 3, 1)     # (steps, components, paths)
    assert ns.seeds.dtype == np.uint64 and ns.seeds.tolist() == [7]
    assert ns.n0_path.shape == ns.n0_times.shape
    assert ns.n0_marks.shape == (len(ns.n0_times), 2)
    assert ns.n1_path.shape == ns.n1_times.shape
    assert ns.n1_umarks.shape == ns.n1_times.shape
    assert not ns.n0_path.any() and not ns.n1_path.any()


@pytest.mark.parametrize("shape", [(4, 2, 1), (4, 4, 1), (4, 3)])
def test_brownian_carries_three_components(shape):
    """Every system reads components 0-2, so a system holds exactly
    three, also after ``dataclasses.replace``."""
    ns = make(dt=0.5)
    with pytest.raises(ValueError, match=r"^brownian must have shape "
                                         r"\(n_steps, 3, n_paths\)"):
        dataclasses.replace(ns, brownian=np.zeros(shape))


def test_batch_shapes():
    ns = make(seed=[3, 4, 5], dt=0.5)
    assert ns.n_paths == 3
    assert ns.brownian.shape == (4, 3, 3)
    for stream in ("n0", "n1"):
        path = getattr(ns, stream + "_path")
        times = getattr(ns, stream + "_times")
        assert path.dtype == np.intp
        assert np.all(np.diff(path) >= 0)          # path order
        for p in range(3):
            assert np.all(np.diff(times[path == p]) > 0)   # then time order


def arrays_of(system):
    """Every array a system holds: its array fields, then its bridges."""
    return [getattr(system, f.name) for f in dataclasses.fields(system)
            if isinstance(getattr(system, f.name), np.ndarray)] \
        + list(system.bridges)


def test_arrays_are_read_only():
    ns = make(seed=[3, 4, 5], dt=0.5)
    for system in (ns, refine(ns), refine(refine(ns))):
        arrays = arrays_of(system)
        assert len(arrays) == 9 + system.refinement_level
        for arr in arrays:
            assert arr.size
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0


# -- stream reset ------------------------------------------------------------

# Both sides of 2**63, float64 rounding ties above it (2**63 + 1024 rounds
# down to even, 2**63 + 3072 up), and the top seeds whose key rounds to
# 2**64 and wraps to 0.
EDGE_SEEDS = [0, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 63 + 1024,
              2 ** 63 + 3072, 2 ** 64 - 1025, 2 ** 64 - 1024, 2 ** 64 - 1]


def _draws(rng):
    """Normal, exponential, uniform and random draws; the float32 draw at
    the end leaves half a word buffered for the next reset to discard."""
    return np.concatenate([rng.normal(0.0, 0.7, size=5),
                           rng.exponential(2.0, size=5),
                           rng.uniform(0.0, 3.0, size=5), rng.random(5),
                           rng.random(1, dtype=np.float32)])


def test_stream_reset_matches_constructed_philox():
    seeds = EDGE_SEEDS + np.random.default_rng(2011).integers(
        0, 2 ** 64, size=3000, dtype=np.uint64, endpoint=False).tolist()
    keys = _philox_keys(np.array(seeds, dtype=np.uint64))
    assert keys[:len(EDGE_SEEDS)] == [0, 2 ** 63 - 1, 2 ** 63, 2 ** 63,
                                      2 ** 63, 2 ** 63 + 4096,
                                      2 ** 64 - 2048, 0, 0]
    with warnings.catch_warnings():
        # Philox(key=[2**64 - 1, role]) casts 2.0**64 to uint64
        warnings.filterwarnings("ignore", "invalid value encountered in cast")
        for seed, key in zip(seeds, keys):
            for role in range(5):
                want = _draws(Generator(Philox(key=[seed, role])))
                assert same_bits(_draws(_stream(key, role)), want), \
                    (seed, role)


# -- determinism -----------------------------------------------------------

def test_bitwise_determinism():
    a, b = make(seed=123), make(seed=123)
    assert np.array_equal(a.brownian, b.brownian)
    assert np.array_equal(a.n0_times, b.n0_times)
    assert np.array_equal(a.n0_marks, b.n0_marks)
    assert np.array_equal(a.n1_times, b.n1_times)
    assert np.array_equal(a.n1_umarks, b.n1_umarks)
    assert np.array_equal(a.n1_marks, b.n1_marks)


def test_seeds_differ():
    a, b = make(seed=1), make(seed=2)
    assert not np.array_equal(a.brownian, b.brownian)


def test_streams_are_independent_roles():
    # Emptying m must not perturb the N1 stream, and vice versa.
    full = make(seed=9)
    no_m = make(seed=9, m=EMPTY)
    no_mu = make(seed=9, mu=EMPTY)
    assert np.array_equal(no_m.n1_times, full.n1_times)
    assert np.array_equal(no_m.n1_umarks, full.n1_umarks)
    assert np.array_equal(no_mu.n0_times, full.n0_times)
    assert np.array_equal(no_mu.brownian, full.brownian)


def test_empty_measures_give_no_events():
    ns = make(m=EMPTY, mu=EMPTY)
    assert len(ns.n0_times) == 0
    assert len(ns.n1_times) == 0
    assert ns.n0_marks.shape == ns.n1_marks.shape == (0, 2)
    assert ns.brownian.shape == (8, 3, 1)


def test_u_bound_required_when_mu_nonempty():
    with pytest.raises(ValueError):
        make(u_bound=0.0)
    make(u_bound=0.0, mu=EMPTY)          # fine without candidates


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_u_bound_rejected_before_drawing(monkeypatch, value):
    def draw(*args):
        raise AssertionError("noise was drawn")

    monkeypatch.setattr(noise_module, "_normals", draw)
    monkeypatch.setattr(noise_module, "_philox_keys", draw)
    with pytest.raises(ValueError, match="^u_bound must be finite"):
        make(u_bound=value)


ONE = FiniteAtomicMeasure([(0.5, 0.3, 1.0)])                     # mass 1.0
OVER = np.nextafter(2.0 ** 19, np.inf)   # times t_max = 2: just over 2**20


@pytest.mark.parametrize("kwargs, name", [
    (dict(u_bound=1e308), "u_bound"),
    (dict(mu=ONE, u_bound=OVER), "u_bound"),
    (dict(m=FiniteAtomicMeasure([(0.5, 0.3, OVER)])), "the mass of m")],
    ids=["1e308", "u_bound-over", "m-over"])
def test_expected_event_count_bounded_before_drawing(monkeypatch, kwargs,
                                                     name):
    """A path's first gap batch is sized by its expected event count, so
    more than 2**20 expected events on either stream is refused before
    anything is drawn; 2**20 itself goes on to draw."""
    def draw(*args):
        raise AssertionError("noise was drawn")

    monkeypatch.setattr(noise_module, "_normals", draw)
    monkeypatch.setattr(noise_module, "_philox_keys", draw)
    with pytest.raises(ValueError, match=f"^{name} asks for .* expected "
                                         f"events per path"):
        make(**kwargs)
    with pytest.raises(AssertionError, match="noise was drawn"):
        make(mu=ONE, u_bound=2.0 ** 19)


# -- event stream laws -----------------------------------------------------

def test_event_times_sorted_in_window():
    for seed in range(20):
        ns = make(seed=seed, t_max=3.0, dt=0.5)
        for times in (ns.n0_times, ns.n1_times):
            assert np.all(np.diff(times) > 0)
            if len(times):
                assert times[0] > 0.0
                assert times[-1] <= 3.0


def batched_event_times(rng, rate, t_max):
    """Reference: every gap drawn in batches, no single first draw."""
    chunks, t0 = [], 0.0
    size = max(16, int(rate * t_max * 1.5) + 8)
    while True:
        times = t0 + np.cumsum(rng.exponential(1.0 / rate, size=size))
        if times[-1] > t_max:
            chunks.append(times[times <= t_max])
            return np.concatenate(chunks)
        chunks.append(times)
        t0 = times[-1]


@pytest.mark.parametrize("rate, t_max", [(10.0, 1.0), (3.0, 2.0 ** -4)])
def test_event_times_match_batched_draws(rate, t_max):
    # at mean 10 about 3 in 10**4 paths overflow the first batch of 23;
    # the batch draws each path's first gap alone, as generate_noise does
    keys = list(range(20000))
    tags, times, _ = _stream_events(keys, 1, rate, t_max, ATOMIC)
    counts = np.bincount(tags, minlength=len(keys))
    for key, got in zip(keys, np.split(times, np.cumsum(counts)[:-1])):
        want = batched_event_times(Generator(Philox(key=[key, 1])), rate,
                                   t_max)
        assert same_bits(got, want), key
    size = max(16, int(rate * t_max * 1.5) + 8)
    assert min(counts) == 0
    if rate * t_max > 1.0:
        assert max(counts) >= size


def reference_events(seed, role, rate, t_max, measure, u_bound=None):
    """Reference: one stream's fields from a constructed generator, gaps
    in batches, then ``uniform(0, u_bound, n)``, then ``sample``."""
    rng = Generator(Philox(key=[seed, role]))
    times = batched_event_times(rng, rate, t_max)
    fields = [times]
    if u_bound is not None:
        fields.append(rng.uniform(0.0, u_bound, size=len(times)))
    fields.append(measure.sample(rng, len(times)))
    return fields


@pytest.mark.parametrize("measure", [ATOMIC, PE], ids=["atomic", "pe"])
@pytest.mark.parametrize("mean, n_paths", [(11.0, 6000), (0.05, 400)],
                         ids=["long", "short"])
def test_event_fields_match_reference_streams(measure, mean, n_paths):
    """Every event field of every path, N0 times and marks and N1 times,
    umarks and marks, equals its own stream's reference draws bit for
    bit: a long horizon whose overflowing paths draw a second gap batch
    (means 11 and 16.5, about 5 in 10**4 paths overflow), and a short one
    where most paths have none."""
    u_bound, mass = 1.5, measure.mass()
    t_max = mean / mass
    ns = generate_noise(measure, measure, t_max, t_max, range(n_paths),
                        u_bound)
    for role, which, rate, bound in ((1, "n0", mass, None),
                                     (2, "n1", u_bound * mass, u_bound)):
        names = ["times", "umarks", "marks"] if bound else ["times", "marks"]
        counts = np.bincount(getattr(ns, which + "_path"),
                             minlength=n_paths)
        cuts = np.cumsum(counts)[:-1]
        got = [np.split(getattr(ns, f"{which}_{name}"), cuts)
               for name in names]
        for seed in range(n_paths):
            want = reference_events(seed, role, rate, t_max, measure, bound)
            for name, field, ref in zip(names, got, want):
                assert same_bits(field[seed], ref), (which, name, seed)
        size = max(16, int(rate * t_max * 1.5) + 8)
        if mean > 1.0:
            assert max(counts) >= size, which
        else:
            assert min(counts) == 0, which


@pytest.mark.parametrize("measure", [ATOMIC, PE], ids=["atomic", "pe"])
@pytest.mark.parametrize("role", [1, 2], ids=["n0", "n1"])
@pytest.mark.parametrize("mean", [0.05, 7.0], ids=["short", "long"])
def test_block_fill_matches_reference_streams(measure, role, mean):
    """``2 * _BLOCK + 3`` paths, laid out from a scan of keys.  The block
    buffers hold ``_BLOCK`` rows of paths with events.  On the short
    horizon the first ``_BLOCK`` paths have no events and the rest
    alternate paths with and without.  On the long one a full row (a count
    that fills its gap batch, redrawn path by path) ends the first buffer
    and starts the second, among zero-count paths.  Every path equals its
    reference stream bit for bit, through the block fill (atomic) or the
    per-path code (PE)."""
    u_bound = 1.5 if role == 2 else None
    rate = measure.mass() * (u_bound or 1.0)
    t_max = mean / rate
    size = max(16, int(rate * t_max * 1.5) + 8)
    scan = list(range(20000 if mean > 1.0 else 2000))
    counts = np.bincount(_stream_events(scan, role, rate, t_max, measure,
                                        u_bound)[0], minlength=len(scan))
    empty = [k for k, c in zip(scan, counts) if c == 0]
    some = [k for k, c in zip(scan, counts) if 0 < c < size]
    full = [k for k, c in zip(scan, counts) if c >= size]
    B = noise_module._BLOCK
    if mean < 1.0:
        keys = empty[:B] + [k for pair in zip(some, empty[B:]) for k in pair]
    else:
        keys = some[:B - 1] + [full[0], empty[0], full[1], empty[1],
                               full[2]] + some[B - 1:]
    keys = keys[:2 * B + 3]
    assert len(keys) == 2 * B + 3

    tags, *fields = _stream_events(keys, role, rate, t_max, measure, u_bound)
    cuts = np.cumsum(np.bincount(tags, minlength=len(keys)))[:-1]
    got = [np.split(field, cuts) for field in fields]
    want = [reference_events(key, role, rate, t_max, measure, u_bound)
            for key in keys]
    for p, ref in enumerate(want):
        for field, value in zip(got, ref):
            assert same_bits(field[p], value), (p, keys[p])
    n = np.array([len(ref[0]) for ref in want])
    if mean < 1.0:
        assert n[:B].max() == 0 and n[B:].max() > 0
    else:
        assert min(n[B - 1], n[B + 1], n[B + 3]) >= size
        assert n[B] == n[B + 2] == 0


def test_per_path_code_runs_only_for_full_rows(monkeypatch):
    """On finite-atomic marks ``_event_times`` runs once per full row and
    never for the other rows; on product-exponential marks, for every
    path with events."""
    calls = []

    def spy(rng, rate, t_max, first):
        calls.append(rate)
        return event_times(rng, rate, t_max, first)

    event_times = noise_module._event_times
    monkeypatch.setattr(noise_module, "_event_times", spy)
    u_bound = 1.5
    for measure, n_paths in ((ATOMIC, 6000), (PE, 300)):
        mass = measure.mass()
        t_max = 11.0 / mass
        ns = generate_noise(measure, measure, t_max, t_max, range(n_paths),
                            u_bound)
        for which, rate in (("n0", mass), ("n1", u_bound * mass)):
            counts = np.bincount(getattr(ns, which + "_path"),
                                 minlength=n_paths)
            size = max(16, int(rate * t_max * 1.5) + 8)
            want = (counts >= size) if measure is ATOMIC else (counts > 0)
            assert calls.count(rate) == want.sum() > 0, which
        calls.clear()


@pytest.mark.parametrize("n_paths, dt, n1_mean", [(2048, 2.0 ** -10, None),
                                                  (96, 1.0, 2000.0)],
                         ids=["sparse", "dense"])
def test_block_buffers_add_at_most_one_block_to_the_peak(monkeypatch, n_paths,
                                                         dt, n1_mean):
    """The block fill raises the ``tracemalloc`` peak of a ``jump_affine``
    batch by at most one block's buffers over the per-path code, which
    draws every row as the streams did before: 2048 paths x 1024 steps at
    ``u_bound = 16``, and 96 one-step paths with 2000 N1 events each on
    average, where 64 rows would take 4.6 MB and ``_BLOCK_BYTES`` holds
    the buffers to 1 MB."""
    params = jump_affine_params()
    t_max = 1.0
    u_bound = 16.0 if n1_mean is None else n1_mean / params.mu.mass()

    def peak():
        tracemalloc.start()
        try:
            generate_noise(params.m, params.mu, t_max, dt, range(n_paths),
                           u_bound)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block = peak()
    monkeypatch.setattr(FiniteAtomicMeasure, "_uniform_draws", False)
    per_path = peak()
    rate = u_bound * params.mu.mass()
    size = max(16, int(rate * t_max * 1.5) + 8)
    buffers = min(noise_module._BLOCK * 3 * size * 8,   # N1: times, 2 uniforms
                  noise_module._BLOCK_BYTES)
    assert block <= per_path + buffers, (block, per_path, buffers)


@pytest.mark.parametrize("fit", [1, 3])
def test_dense_stream_buffers_hold_fewer_rows(monkeypatch, fit):
    """Where ``_BLOCK`` rows would pass ``_BLOCK_BYTES``, the buffers hold
    as many rows as fit in it, at least one, and every path still equals
    its reference stream bit for bit, full rows among them."""
    u_bound, role = 1.5, 2
    rate = ATOMIC.mass() * u_bound
    t_max = 7.0 / rate
    size = max(16, int(rate * t_max * 1.5) + 8)
    monkeypatch.setattr(noise_module, "_BLOCK_BYTES", fit * 3 * size * 8)
    keys = list(range(4000))
    tags, *fields = _stream_events(keys, role, rate, t_max, ATOMIC, u_bound)
    counts = np.bincount(tags, minlength=len(keys))
    picked = np.flatnonzero(counts >= size)[:2].tolist() + list(range(10))
    cuts = np.cumsum(counts)
    for p in picked:
        ref = reference_events(keys[p], role, rate, t_max, ATOMIC, u_bound)
        for field, value in zip(fields, ref):
            assert same_bits(field[cuts[p] - counts[p]:cuts[p]], value), p
    assert counts.max() >= size


# -- normal draws ------------------------------------------------------------

@pytest.mark.parametrize("n_paths", [1, 2 * noise_module._BLOCK + 3])
@pytest.mark.parametrize("n_steps", [1, 256])
@pytest.mark.parametrize("role, scale", [(0, 2.0 ** -4),
                                         (4, math.sqrt(2.0 ** -9) / 2.0)])
def test_normals_equal_per_path_normal_draws(n_paths, n_steps, role, scale):
    """The block fill, scaled in place and copied transposed, gives every
    path's ``normal(0, scale)`` draws bit for bit, in a partial last
    block too."""
    seeds = substream_seed_array(31, np.arange(n_paths)).tolist()
    got = _normals(_philox_keys(np.array(seeds, dtype=np.uint64)), role,
                   scale, n_steps)
    assert got.shape == (n_steps, 3, n_paths)
    for p, seed in enumerate(seeds):
        want = Generator(Philox(key=[seed, role])).normal(
            0.0, scale, size=(3, n_steps))
        assert same_bits(np.ascontiguousarray(got[:, :, p].T), want), p


def test_block_scaling_matches_c_normal_arithmetic():
    """``normal`` returns ``0.0 + scale * z``; the blocks compute ``z *
    scale + 0.0``, the same sum, so the bits agree on every input: the
    ``+ 0.0`` turns a ``-0.0`` draw, or a negative product that
    underflows, into ``+0.0``."""
    tiny = np.finfo(float).smallest_subnormal
    z = np.array([-0.0, 0.0, tiny, -tiny, tiny * 2.0 ** 40, -1e-310,
                  1e300, -1e300, -1.7e308, 3e-19, -3e-19, 1.25])
    for scale in (1.0, 0.7, 3.0, 2.0 ** -5, math.sqrt(2.0 ** -9) / 2.0):
        block = z.copy()
        with np.errstate(over="ignore"):        # -1.7e308 * 3.0 is -inf
            block *= scale
            block += 0.0
            want = 0.0 + scale * z
        assert same_bits(block, want), scale
        assert not np.signbit(block[:2]).any()
    assert same_bits(np.array([-tiny]) * 0.5 + 0.0, np.array([0.0]))


def test_n0_counts_match_poisson_mean():
    # N0 rate is m.mass = 3.0 on t_max = 2.0: counts ~ Poisson(6).
    n_seeds = 10_000
    counts = np.array([
        len(generate_noise(ATOMIC, EMPTY, 2.0, 0.5, s, 1.0).n0_times)
        for s in range(n_seeds)
    ])
    assert abs(counts.mean() - 6.0) < 3.0 * np.sqrt(6.0 / n_seeds)
    assert abs(counts.var() - 6.0) < 4.0 * 6.0 * np.sqrt(3.0 / n_seeds)


def test_n1_rate_scales_with_u_bound():
    # Candidate intensity is u_bound * mass; doubling u_bound doubles counts.
    mean_at = {}
    for ub in (2.0, 4.0):
        counts = [
            len(generate_noise(EMPTY, ATOMIC, 2.0, 0.5, s, ub).n1_times)
            for s in range(4000)
        ]
        mean_at[ub] = np.mean(counts)
    lam = 2.0 * 3.0 * 2.0                      # t_max * mass * u_bound=2
    assert abs(mean_at[2.0] - lam) < 3.0 * np.sqrt(lam / 4000)
    assert abs(mean_at[4.0] - 2 * lam) < 3.0 * np.sqrt(2 * lam / 4000)


def test_umarks_uniform_on_bound():
    samples = np.concatenate([
        make(seed=s, t_max=4.0, dt=1.0, u_bound=4.0).n1_umarks
        for s in range(300)
    ])
    assert len(samples) > 5000
    assert samples.min() >= 0.0
    assert samples.max() <= 4.0
    se = 4.0 / np.sqrt(12 * len(samples))
    assert abs(samples.mean() - 2.0) < 4.0 * se


def test_marks_live_on_atoms():
    ns = make(seed=3)
    atoms = {(0.5, 0.3), (1.0, -0.2)}
    for row in np.vstack([ns.n0_marks, ns.n1_marks]):
        assert tuple(row) in atoms


def test_brownian_increment_law():
    ns = make(seed=5, m=EMPTY, mu=EMPTY, t_max=8.0, dt=2.0 ** -9)
    flat = ns.brownian.ravel()
    dt = ns.dt
    assert abs(flat.mean()) < 4.0 * np.sqrt(dt / flat.size)
    assert abs(flat.var() - dt) < 4.0 * dt * np.sqrt(2.0 / flat.size)


# -- substream derivation --------------------------------------------------

def test_substream_seed_injective_over_scan():
    seeds = substream_seed_array(987654321, np.arange(1_000_000))
    assert len(np.unique(seeds)) == 1_000_000


def test_substream_seed_vector_matches_scalar():
    idx = [0, 1, 2, 17, 12345, 2 ** 40, 2 ** 63, 2 ** 64 - 2, 2 ** 64 - 1]
    vec = substream_seed_array(42, idx)
    for i, v in zip(idx, vec):
        assert substream_seed(42, i) == int(v)


@pytest.mark.parametrize("index", [-1, 2 ** 64, 1.5, np.float64(2.0)],
                         ids=["-1", "2**64", "1.5", "float64"])
def test_substream_seed_refuses_indices_it_would_alias(index):
    """An index outside ``[0, 2**64)`` would alias a valid one modulo
    2**64 (``-1`` is ``2**64 - 1``, ``2**64`` is 0) and a float would be
    truncated, so each is refused, by both twins."""
    with pytest.raises((TypeError, ValueError)):
        substream_seed(0, index)
    for indices in ([index], np.array([index]), [3, index]):
        with pytest.raises((TypeError, ValueError)):
            substream_seed_array(0, indices)


def test_substream_seed_master_sensitivity():
    a = substream_seed_array(1, np.arange(10_000))
    b = substream_seed_array(2, np.arange(10_000))
    assert not np.intersect1d(a, b).size


# -- refinement ------------------------------------------------------------

def increments(ns):
    """The system's increments on its current grid as one time-major
    ``(n_steps, n_components, n_paths)`` array."""
    return np.stack([ns.increment(k) for k in range(ns.n_steps)])


def test_refine_preserves_pair_sums():
    ns = make(seed=21, t_max=1.0, dt=2.0 ** -4)
    fine = refine(ns)
    assert fine.dt == ns.dt / 2
    assert fine.refinement_level == 1
    assert fine.n_steps == 2 * ns.n_steps
    inc = increments(fine)
    recombined = inc[0::2] + inc[1::2]
    assert np.max(np.abs(recombined - ns.brownian)) < 1e-15


def test_refine_keeps_events():
    ns = make(seed=22)
    fine = refine(ns)
    assert np.array_equal(fine.n0_times, ns.n0_times)
    assert np.array_equal(fine.n0_marks, ns.n0_marks)
    assert np.array_equal(fine.n1_times, ns.n1_times)
    assert np.array_equal(fine.n1_umarks, ns.n1_umarks)
    assert np.array_equal(fine.n1_marks, ns.n1_marks)


def test_refine_is_deterministic_per_level():
    ns = make(seed=23)
    a, b = refine(refine(ns)), refine(refine(ns))
    assert np.array_equal(increments(a), increments(b))
    for mid_a, mid_b in zip(a.bridges, b.bridges, strict=True):
        assert np.array_equal(mid_a, mid_b)
    # Levels use distinct bridge substreams.
    once, twice = refine(ns), refine(refine(ns))
    assert once.n_steps * 2 == twice.n_steps


def reference_levels(seeds, n_components, n_steps, dt, depth):
    """Path-major increments at levels ``0..depth`` as the materialising
    refinement built them: each path draws its Brownian block and its
    midpoints from constructed Philox streams, and each level is split
    into a fresh array by one interleave."""
    b = np.stack([Generator(Philox(key=[s, 0])).normal(
        0.0, np.sqrt(dt), size=(n_components, n_steps)) for s in seeds])
    levels = [b]
    for level in range(depth):
        mid = np.stack([Generator(Philox(key=[s, 3 + level])).normal(
            0.0, np.sqrt(dt) / 2.0, size=b.shape[1:]) for s in seeds])
        out = np.empty(b.shape[:2] + (2 * b.shape[2],))
        even, odd = out[:, :, 0::2], out[:, :, 1::2]
        np.divide(b, 2.0, out=even)
        np.subtract(even, mid, out=odd)
        even += mid
        b, dt = out, dt / 2.0
        levels.append(b)
    return levels


@pytest.mark.parametrize("n_paths", [1, 63, 64, 65, 130])
def test_lazy_increments_match_interleaved_refinement(n_paths):
    seeds = list(range(1000, 1000 + n_paths))       # keys equal to seeds
    ns = make(seed=seeds, m=EMPTY, mu=EMPTY, t_max=1.0, dt=2.0 ** -3)
    levels = reference_levels(seeds, 3, ns.n_steps, ns.dt, 2)
    for want in levels:
        assert same_bits(increments(ns),
                         np.ascontiguousarray(want.transpose(2, 1, 0)))
        ns = refine(ns)


def test_refine_stores_only_midpoints():
    ns = make(seed=list(range(70)), t_max=1.0, dt=2.0 ** -4)
    coarse_bytes = sum(a.nbytes for a in arrays_of(ns))
    once, twice = refine(ns), refine(refine(ns))
    for fine in (once, twice):
        assert fine.brownian is ns.brownian
        arrays = arrays_of(fine)
        fine_size = fine.n_steps * fine.n_components * fine.n_paths
        assert all(a.size < fine_size for a in arrays)
        mids = sum(mid.nbytes for mid in fine.bridges)
        assert sum(a.nbytes for a in arrays) == coarse_bytes + mids
    assert [mid.shape for mid in twice.bridges] == \
        [ns.brownian.shape, (2 * ns.n_steps, 3, 70)]
    assert same_bits(twice.bridges[0], once.bridges[0])


def test_refine_allocates_no_fine_grid_array():
    ns = make(seed=list(range(256)), m=EMPTY, mu=EMPTY, t_max=1.0,
              dt=2.0 ** -9)
    tracemalloc.start()
    try:
        refine(ns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the midpoints are as large as the coarse array; the fine grid twice
    assert ns.brownian.nbytes <= peak < 1.5 * ns.brownian.nbytes


def test_refined_increments_have_correct_variance():
    ns = make(seed=24, m=EMPTY, mu=EMPTY, t_max=4.0, dt=2.0 ** -6)
    fine = refine(ns)
    flat = increments(fine).ravel()
    assert abs(flat.var() - fine.dt) < 4.0 * fine.dt * np.sqrt(2.0 / flat.size)


# -- batch layout ----------------------------------------------------------

SPARSE = FiniteAtomicMeasure([(0.5, 0.3, 0.05)])      # mass 0.05


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def assert_batch_is_concatenation(batch, singles):
    for name in ("t_max", "dt", "u_bound", "refinement_level"):
        assert all(getattr(batch, name) == getattr(s, name) for s in singles)
    for name in ("seeds", "n0_times", "n0_marks", "n1_times", "n1_umarks",
                 "n1_marks"):
        joined = np.concatenate([getattr(s, name) for s in singles])
        assert same_bits(getattr(batch, name), joined), name
    # time-major arrays: paths are the last axis
    joined = np.concatenate([s.brownian for s in singles], axis=-1)
    assert same_bits(batch.brownian, joined), "brownian"
    for level, mid in enumerate(batch.bridges):
        joined = np.concatenate([s.bridges[level] for s in singles], axis=-1)
        assert same_bits(mid, joined), f"bridges[{level}]"
    joined = np.concatenate([increments(s) for s in singles], axis=-1)
    assert same_bits(increments(batch), joined), "increments"
    for stream in ("n0", "n1"):
        tags = np.concatenate([
            np.full(len(getattr(s, stream + "_times")), p, dtype=np.intp)
            for p, s in enumerate(singles)])
        assert same_bits(getattr(batch, stream + "_path"), tags), stream


@pytest.mark.parametrize("m, mu", [(ATOMIC, ATOMIC), (PE, ATOMIC),
                                   (EMPTY, EMPTY), (SPARSE, EMPTY),
                                   (EMPTY, SPARSE)])
def test_batch_equals_concatenated_single_seed_batches(m, mu):
    seeds = [0, 7, 2 ** 63 + 4096, 12, 2 ** 64 - 2 ** 20, 3]
    kw = dict(m=m, mu=mu, t_max=2.0, dt=0.25)
    batch = make(seed=seeds, **kw)
    singles = [make(seed=s, **kw) for s in seeds]
    for _ in range(3):                  # unrefined, refined once, twice
        assert_batch_is_concatenation(batch, singles)
        batch, singles = refine(batch), [refine(s) for s in singles]
    if SPARSE in (m, mu):               # some paths have no events, some do
        counts = [len(s.n0_times) + len(s.n1_times) for s in singles]
        assert 0 in counts and max(counts) > 0


def test_array_of_seeds_matches_list():
    seeds = substream_seed_array(5, np.arange(4))
    a = make(seed=seeds)
    b = make(seed=[int(s) for s in seeds])
    assert same_bits(a.brownian, b.brownian)
    assert same_bits(a.n1_marks, b.n1_marks)


def test_caller_seed_array_stays_writeable_and_unchanged():
    """A uint64 seed array is copied, not frozen: the system's seeds are
    read-only and the caller's array keeps its flags and values."""
    seeds = substream_seed_array(3, np.arange(5))
    before = seeds.copy()
    ns = make(seed=seeds)
    assert seeds.flags.writeable and np.array_equal(seeds, before)
    assert not ns.seeds.flags.writeable
    seeds[0] += np.uint64(1)
    assert ns.seeds.tolist() == before.tolist()
    assert same_bits(ns.brownian, make(seed=before.tolist()).brownian)


# -- seed range --------------------------------------------------------------

@pytest.mark.parametrize("seed", [-1, 2 ** 64, [4, -1], [2 ** 64 + 5]])
def test_out_of_range_seed_rejected(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"seed -?\d+ is outside"):
            make(seed=seed)


# 2**64 - 1 rounds up to 2**64 in the Philox key (see the xfail below)
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
def test_seed_range_edges_accepted():
    ns = make(seed=[0, 2 ** 64 - 1])
    assert ns.seeds.tolist() == [0, 2 ** 64 - 1]


def test_non_integer_and_nested_seeds_rejected():
    with pytest.raises(TypeError):
        make(seed=1.5)
    with pytest.raises(ValueError, match="1-d"):
        make(seed=np.zeros((2, 2), dtype=np.uint64))


def test_out_of_range_master_seed_rejected():
    for bad in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=f"master_seed {bad} is outside"):
            substream_seed(bad, 0)
        with pytest.raises(ValueError, match=f"master_seed {bad} is outside"):
            substream_seed_array(bad, [0, 1])


@pytest.mark.xfail(strict=True, reason=(
    "Philox(key=[seed, role]) converts the list through float64, so seeds "
    ">= 2**63 are keyed after rounding; fixing it changes stream bytes and "
    "needs an RNG_ID bump"))
def test_seeds_above_2_63_key_distinct_streams():
    a = make(seed=2 ** 63, m=EMPTY, mu=EMPTY)
    b = make(seed=2 ** 63 + 1, m=EMPTY, mu=EMPTY)
    assert not np.array_equal(a.brownian, b.brownian)
