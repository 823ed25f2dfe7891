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


def _stream(seed: int, role: int) -> Generator:
    return Generator(Philox(key=[seed, role]))


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
    ``(0, t_max]``; marks are rows ``(xi1, xi2)``.
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
    chunks = []
    t0 = 0.0
    size = max(16, int(rate * t_max * 1.5) + 8)
    while True:
        gaps = rng.exponential(1.0 / rate, size=size)
        times = t0 + np.cumsum(gaps)
        if times[-1] > t_max:
            chunks.append(times[times <= t_max])
            break
        chunks.append(times)
        t0 = times[-1]
    return np.concatenate(chunks)


def _events(p, rng, rate, t_max, measure, eps, u_bound=None):
    """Path ``p``'s events: path tags, times, umarks (if ``u_bound``),
    marks."""
    times = _event_times(rng, rate, t_max)
    umarks = () if u_bound is None else \
        (rng.uniform(0.0, u_bound, size=len(times)),)
    marks = measure.sample(rng, len(times), eps=eps) if len(times) \
        else np.empty((0, 2))
    return (np.full(len(times), p, dtype=np.intp), times, *umarks, marks)


def _no_events(n_fields):
    """Empty path tags, ``n_fields`` empty 1-d fields and empty marks."""
    return (np.empty(0, dtype=np.intp),
            *(np.empty(0) for _ in range(n_fields)), np.empty((0, 2)))


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
    brownian = np.empty((len(seeds), n_components, n_steps))
    n0, n1 = [_no_events(1)], [_no_events(2)]
    for p, s in enumerate(seeds.tolist()):
        brownian[p] = _stream(s, ROLE_BROWNIAN).normal(
            0.0, np.sqrt(dt), size=(n_components, n_steps))
        if rate0 > 0.0:
            n0.append(_events(p, _stream(s, ROLE_N0), rate0, t_max, m, eps))
        if rate1 > 0.0:
            n1.append(_events(p, _stream(s, ROLE_N1), rate1, t_max, mu, eps,
                              u_bound))

    n0_path, n0_times, n0_marks = (np.concatenate(f) for f in zip(*n0))
    n1_path, n1_times, n1_umarks, n1_marks = (np.concatenate(f)
                                              for f in zip(*n1))
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
    for p, s in enumerate(noise.seeds.tolist()):
        mid[p] = _stream(s, role).normal(0.0, scale,
                                         size=noise.brownian.shape[1:])
    half = noise.brownian / 2.0
    out = np.empty((noise.n_paths, noise.n_components, 2 * noise.n_steps))
    np.add(half, mid, out=out[:, :, 0::2])
    np.subtract(half, mid, out=out[:, :, 1::2])
    return replace(noise, dt=noise.dt / 2.0, brownian=out,
                   refinement_level=noise.refinement_level + 1)
