"""Replayable driving noise: Brownian increments plus marked event streams.

A ``NoiseSystem`` holds the noise of a batch of paths on one grid; a
single path is a batch of one.  Each path has its own 64-bit seed, which
keys independent counter-based substreams (Philox4x64) per role:

    role 0  Brownian increments (all components)
    role 1  events of the immigration stream N0 (times, then marks)
    role 2  candidate events of the thinned stream N1
            (times, then uniform thinning marks on [0, u_bound], then marks)
    role 3+ Brownian-bridge midpoints for successive grid refinements

The Brownian increments are one ``(n_paths, n_components, n_steps)``
array.  Each stream's events are flat arrays tagged by path index
(``n0_path``, ``n1_path``), in path order and then time order, so a path's
noise does not depend on which batch it was generated in.

N1 is generated with the dominating intensity ``u_bound * mass`` and carries
uniform ``umarks``; simulators accept a candidate when its umark falls below
the state-dependent intensity, and must abort if that intensity ever exceeds
``u_bound`` (the stream above the bound was never generated).

Refining the grid halves ``dt``, splits each Brownian increment with a
bridge midpoint from the next dedicated role, and leaves the event arrays
untouched, so schemes at dt and dt/2 are driven by the same underlying path.
Every array of a ``NoiseSystem`` is read-only: one system may drive
several models.

A Philox stream is a pure function of its key and counter, so no
generator is constructed per path: ``_stream`` resets the key of one
module-level Philox to ``(key0, role)``, its counter to 0 and its buffer
to empty, which yields the same bytes as ``Generator(Philox(key=[seed,
role]))``.  ``key0`` is the first key word that construction stores,
computed once per batch by ``_philox_keys``.

``substream_seed`` derives per-path seeds from a master seed; it is exactly
injective in the path index for a fixed master seed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "NoiseSystem",
    "substream_seed",
    "generate_noise",
    "refine",
    "steps_for",
]

RNG_ID = "philox4x64"

ROLE_BROWNIAN = 0
ROLE_N0 = 1
ROLE_N1 = 2
ROLE_BRIDGE_BASE = 3

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _check_seed(value, name: str = "seed") -> int:
    """``value`` as an int, rejected unless it lies in ``[0, 2**64)``."""
    seed = operator.index(value)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"{name} {seed} is outside [0, 2**64)")
    return seed


def _as_seeds(seed) -> np.ndarray:
    """One seed or a 1-d sequence of seeds as a checked uint64 array.

    Read as Python ints: a plain ``np.asarray`` rounds a list holding a
    seed >= 2**63 through float64.
    """
    values = np.asarray(seed, dtype=object)
    if values.ndim > 1:
        raise ValueError(f"seed must be 1-d, got shape {values.shape}")
    return np.array([_check_seed(v) for v in values.reshape(-1)],
                    dtype=np.uint64)


def substream_seed(master_seed: int, index: int) -> int:
    """Derive the seed of path ``index`` from ``master_seed``.

    SplitMix64 finalizer applied to ``master + GOLDEN * (index + 1)``; the
    odd multiplier makes the map injective in ``index`` (mod 2**64).
    """
    z = (_check_seed(master_seed, "master_seed")
         + _GOLDEN * (int(index) + 1)) & _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def substream_seed_array(master_seed: int, indices) -> np.ndarray:
    """Vectorized twin of :func:`substream_seed` (uint64 in, uint64 out)."""
    master = np.uint64(_check_seed(master_seed, "master_seed"))
    with np.errstate(over="ignore"):
        z = master + np.uint64(_GOLDEN) * (
            np.asarray(indices, dtype=np.uint64) + np.uint64(1))
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
    return z


_PHILOX = Philox(key=0)
_RNG = Generator(_PHILOX)
# Philox(key=...) at counter 0 with an empty buffer; _stream sets the key.
_FRESH = {"bit_generator": "Philox",
          "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
          "buffer": (0, 0, 0, 0), "buffer_pos": 4,
          "has_uint32": 0, "uinteger": 0}


def _philox_keys(seeds: np.ndarray) -> np.ndarray:
    """First Philox key word of each uint64 seed, as the streams use it.

    ``Philox(key=[seed, role])`` reads the list through float64 when
    ``seed >= 2**63``: such a seed is keyed by its float64 rounding, and
    by 0 when that rounding reaches 2**64 (seeds in
    ``[2**64 - 1024, 2**64)``).  The streams keep that keying until an
    ``RNG_ID`` change fixes it.
    """
    keys = seeds.copy()
    big = seeds >= np.uint64(1 << 63)
    rounded = seeds[big].astype(np.float64)
    keys[big] = np.where(rounded < 2.0 ** 64, rounded, 0.0).astype(np.uint64)
    return keys


def _stream(key0: int, role: int) -> Generator:
    """The Philox stream keyed ``(key0, role)``, from its start.

    Resets one module-level generator instead of constructing one, so the
    generator returned is valid only until the next ``_stream`` call.
    ``key0`` comes from :func:`_philox_keys`.
    """
    _FRESH["state"]["key"] = (key0, role)
    _PHILOX.state = _FRESH
    return _RNG


def steps_for(t_max: float, dt: float) -> int:
    """Number of grid steps; ``t_max`` must be an integer multiple of ``dt``."""
    if dt <= 0.0 or t_max <= 0.0:
        raise ValueError("t_max and dt must be positive")
    n = round(t_max / dt)
    if n < 1 or abs(n * dt - t_max) > 1e-9 * max(1.0, t_max):
        raise ValueError(f"t_max={t_max!r} is not an integer multiple of dt={dt!r}")
    return n


@dataclass(frozen=True, eq=False)
class NoiseSystem:
    """Driving noise of a batch of paths on one uniform grid.

    ``brownian[p, c, k]`` is the increment of component ``c`` of path
    ``p`` over step ``k``.  Event arrays of a stream are flat, tagged by
    ``n0_path`` or ``n1_path`` and sorted by path, then by time in
    ``(0, t_max]``; marks are rows ``(xi1, xi2)``.  Every array is made
    read-only on construction, because one system may drive several
    models and a kernel writing into it would change the later ones.
    """

    seeds: np.ndarray
    t_max: float
    dt: float
    u_bound: float
    eps: float
    refinement_level: int
    brownian: np.ndarray
    n0_path: np.ndarray
    n0_times: np.ndarray
    n0_marks: np.ndarray
    n1_path: np.ndarray
    n1_times: np.ndarray
    n1_umarks: np.ndarray
    n1_marks: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def n_paths(self) -> int:
        return self.brownian.shape[0]

    @property
    def n_components(self) -> int:
        return self.brownian.shape[1]

    @property
    def n_steps(self) -> int:
        return self.brownian.shape[2]

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


def _event_times(rng: Generator, rate: float, t_max: float) -> np.ndarray:
    """Times in ``(0, t_max]`` of a Poisson stream of rate ``rate``.

    Gaps are drawn in batches sized to the expected count.  The first gap
    is drawn alone, so a path without events (most paths on a short
    horizon) costs one draw; the gaps equal the batched draws either way,
    and nothing reads a stream that has no events.
    """
    scale = 1.0 / rate
    first = rng.exponential(scale)
    if first > t_max:
        return np.empty(0)
    size = max(16, int(rate * t_max * 1.5) + 8)
    gaps = np.concatenate(([first], rng.exponential(scale, size=size - 1)))
    chunks, t0 = [], 0.0
    while True:
        times = t0 + gaps.cumsum()
        if times[-1] > t_max:
            chunks.append(times[times <= t_max])
            return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        chunks.append(times)
        t0 = times[-1]
        gaps = rng.exponential(scale, size=size)


def _events(rng, rate, t_max, measure, eps, u_bound=None):
    """One path's events: times, umarks (if ``u_bound``), marks."""
    times = _event_times(rng, rate, t_max)
    umarks = () if u_bound is None else \
        (rng.uniform(0.0, u_bound, size=len(times)),)
    marks = measure.sample(rng, len(times), eps=eps) if len(times) \
        else np.empty((0, 2))
    return (times, *umarks, marks)


def _batch_events(per_path, n_fields):
    """Path tags, then each field of a stream's per-path events joined.

    ``per_path`` holds one ``_events`` tuple per path, or nothing when
    the stream is empty; ``n_fields`` counts its 1-d fields.
    """
    if not per_path:
        return (np.empty(0, dtype=np.intp),
                *(np.empty(0) for _ in range(n_fields)), np.empty((0, 2)))
    counts = [len(fields[0]) for fields in per_path]
    tags = np.repeat(np.arange(len(per_path), dtype=np.intp), counts)
    return (tags, *(np.concatenate(f) for f in zip(*per_path)))


def generate_noise(m, mu, t_max: float, dt: float, seed,
                   u_bound: float, eps: float,
                   n_components: int = 3) -> NoiseSystem:
    """Generate the noise of one path per seed.

    ``seed`` is one seed or a 1-d sequence of seeds, each in
    ``[0, 2**64)``; path ``p`` is a pure function of ``seed[p]`` and the
    other arguments, so a batch equals its single-seed batches
    concatenated.  ``m`` feeds N0 at rate ``m.mass(eps=eps)``; ``mu``
    feeds the candidate stream N1 at rate ``u_bound * mu.mass(eps=eps)``.
    Empty (or fully truncated) measures produce no events without
    consuming any randomness.
    """
    n_steps = steps_for(t_max, dt)
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if u_bound <= 0.0 and not mu.is_empty:
        raise ValueError("u_bound must be positive when mu is nonempty")
    seeds = _as_seeds(seed)

    rate0 = m.mass(eps=eps) if m is not None else 0.0
    rate1 = (u_bound * mu.mass(eps=eps)) if mu is not None else 0.0
    scale = np.sqrt(dt)
    brownian = np.empty((len(seeds), n_components, n_steps))
    n0, n1 = [], []
    for p, key in enumerate(_philox_keys(seeds).tolist()):
        brownian[p] = _stream(key, ROLE_BROWNIAN).normal(
            0.0, scale, size=(n_components, n_steps))
        if rate0 > 0.0:
            n0.append(_events(_stream(key, ROLE_N0), rate0, t_max, m, eps))
        if rate1 > 0.0:
            n1.append(_events(_stream(key, ROLE_N1), rate1, t_max, mu, eps,
                              u_bound))

    n0_path, n0_times, n0_marks = _batch_events(n0, 1)
    n1_path, n1_times, n1_umarks, n1_marks = _batch_events(n1, 2)
    return NoiseSystem(seeds=seeds, t_max=float(t_max), dt=float(dt),
                       u_bound=float(u_bound), eps=float(eps),
                       refinement_level=0, brownian=brownian,
                       n0_path=n0_path, n0_times=n0_times, n0_marks=n0_marks,
                       n1_path=n1_path, n1_times=n1_times,
                       n1_umarks=n1_umarks, n1_marks=n1_marks)


def refine(noise: NoiseSystem) -> NoiseSystem:
    """Halve ``dt``, splitting increments with Brownian-bridge midpoints.

    Each path draws its midpoints from its own substream of the current
    refinement level, so ``refine(refine(ns))`` is deterministic as well;
    the whole batch is then split in one interleave.  Component sums over
    the grid are preserved and event arrays are reused unchanged.
    """
    role = ROLE_BRIDGE_BASE + noise.refinement_level
    scale = np.sqrt(noise.dt) / 2.0
    mid = np.empty_like(noise.brownian)
    for p, key in enumerate(_philox_keys(noise.seeds).tolist()):
        mid[p] = _stream(key, role).normal(0.0, scale,
                                           size=noise.brownian.shape[1:])
    half = noise.brownian / 2.0
    out = np.empty((noise.n_paths, noise.n_components, 2 * noise.n_steps))
    np.add(half, mid, out=out[:, :, 0::2])
    np.subtract(half, mid, out=out[:, :, 1::2])
    return replace(noise, dt=noise.dt / 2.0, brownian=out,
                   refinement_level=noise.refinement_level + 1)
