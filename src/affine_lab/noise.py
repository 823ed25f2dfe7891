"""Replayable driving noise: Brownian increments plus marked event streams.

A ``NoiseSystem`` holds the noise of a batch of paths on one grid; a
single path is a batch of one.  Each path has its own 64-bit seed, which
keys independent counter-based substreams (Philox4x64) per role:

    role 0  Brownian increments (all components)
    role 1  events of the immigration stream N0 (times, then marks)
    role 2  candidate events of the thinned stream N1
            (times, then uniform thinning marks on [0, u_bound], then marks)
    role 3+ Brownian-bridge midpoints for successive grid refinements

The Brownian increments of the generated grid are one time-major
``(n_steps, 3, n_paths)`` array, three components per path, so the
increments of one step are contiguous for the whole batch.  Each
stream's events are flat arrays tagged by path index (``n0_path``,
``n1_path``), in path order and then time order, so a path's noise does
not depend on which batch it was generated in.

N1 is generated with the dominating intensity ``u_bound * mass`` and carries
uniform ``umarks``; simulators accept a candidate when its umark falls below
the state-dependent intensity, and must abort if that intensity ever exceeds
``u_bound`` (the stream above the bound was never generated).

Refining the grid halves ``dt`` and adds one array of bridge midpoints,
drawn from the next dedicated role and shaped like the grid it splits; the
event arrays are untouched, so schemes at dt and dt/2 are driven by the
same underlying path.  The refined increments are never stored: step
``k`` is built when it is read, as half its parent increment plus or
minus its midpoint.  Every array of a ``NoiseSystem`` is read-only: one
system may drive several models.

A Philox stream is a pure function of its key and counter, so no
generator is constructed per path: ``_stream`` resets the key of one
module-level Philox to ``(key0, role)``, its counter to 0 and its buffer
to empty, which yields the same bytes as ``Generator(Philox(key=[seed,
role]))``.  ``key0`` is the first key word that construction stores,
computed once per batch by ``_philox_keys`` for every role.  ``_normals``
fills a buffer of ``_BLOCK`` paths with standard normals, each path's
``(3, n_steps)`` block in one call, scales the buffer in place as ``z *
scale + 0.0`` and copies it into the batch one component at a time,
transposed: bit for bit what ``normal(0, scale)`` computes in C, ``0.0 +
scale * z``, the ``+ 0.0`` turning a ``-0.0`` product into ``+0.0``.

An event stream draws each path's first gap alone, so a path whose first
gap passes ``t_max`` (most paths on a short horizon) costs one reset and
one draw.  A path with events makes two more calls, into the next row of
buffers of ``_BLOCK`` rows reused for the whole stream (fewer if that
would pass ``_BLOCK_BYTES``, so a dense stream's buffers stay bounded):
``standard_exponential`` for its first gap batch (sized as in
``_event_times``) and ``random`` for twice as many uniforms on N1, as
many on N0.  Each full buffer, and the last, is then read at once: times
by a scale in place (``exponential(scale)`` is ``scale * e`` in C) and a
row-wise cumsum (the same sequential sums), counts by the ``<= t_max``
mask, umarks as ``u_bound * r`` (``uniform(0, u_bound)`` is ``0.0 +
u_bound * r``) and the marks' draws as the ``n`` uniforms after them,
which ``measure._marks`` turns into the batch's marks at once.  Nothing
follows the marks in a stream, so the uniforms left in a row are never
read.  A row whose count fills its gap batch, and every path of a
measure whose draws are not plain uniforms (no ``_uniform_draws``), is
drawn call by call from a new reset by ``_path_events``.

``substream_seed`` derives per-path seeds from a master seed; it is exactly
injective in the path index for a fixed master seed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace

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

_BLOCK = 64          # paths per buffer in _normals, rows in _stream_events
_BLOCK_BYTES = 1 << 20   # _stream_events' buffers: at most this, or one row
_COMPONENTS = 3      # Brownian components of every path
_MAX_EVENTS = 1 << 20    # expected events per path a stream may ask for

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


def _as_seeds(seed, name: str = "seed") -> np.ndarray:
    """One seed or a 1-d sequence of seeds as a checked uint64 array.

    Read as Python ints: a plain ``np.asarray`` rounds a list holding a
    seed >= 2**63 through float64.  A 1-d uint64 array is valid as it is,
    and copied: a ``NoiseSystem`` makes its arrays read-only.
    """
    if isinstance(seed, np.ndarray) and seed.dtype == np.uint64 \
            and seed.ndim == 1:
        return seed.copy()
    values = np.asarray(seed, dtype=object)
    if values.ndim > 1:
        raise ValueError(f"{name} must be 1-d, got shape {values.shape}")
    return np.array([_check_seed(v, name) for v in values.reshape(-1)],
                    dtype=np.uint64)


def substream_seed(master_seed: int, index: int) -> int:
    """Derive the seed of path ``index`` from ``master_seed``.

    SplitMix64 finalizer applied to ``master + GOLDEN * (index + 1)``; the
    odd multiplier makes the map injective in ``index``, an integer in
    ``[0, 2**64)`` like the seeds.
    """
    z = (_check_seed(master_seed, "master_seed")
         + _GOLDEN * (_check_seed(index, "index") + 1)) & _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def substream_seed_array(master_seed: int, indices) -> np.ndarray:
    """Vectorized twin of :func:`substream_seed` (uint64 out).  The indices
    are integers in ``[0, 2**64)``, read like seeds unless they come as an
    integer array."""
    master = np.uint64(_check_seed(master_seed, "master_seed"))
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":      # floats, or ints NumPy could not hold
        idx = _as_seeds(indices, "index")
    elif idx.size and idx.min() < 0:
        raise ValueError(f"index {idx.min()} is outside [0, 2**64)")
    with np.errstate(over="ignore"):
        z = master + np.uint64(_GOLDEN) * (
            idx.astype(np.uint64) + np.uint64(1))
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


def _philox_keys(seeds: np.ndarray) -> list:
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
    return keys.tolist()


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
    """Grid steps to ``t_max``, a positive multiple of ``dt`` (to 1e-9)."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    n = round(t_max / dt) if np.isfinite(t_max / dt) else 0
    if n < 1 or abs(n * dt - t_max) > 1e-9 * max(1.0, t_max):
        raise ValueError(
            f"t = {t_max!r} is not a positive multiple of dt = {dt!r}")
    return n


@dataclass(frozen=True, eq=False)
class NoiseSystem:
    """Driving noise of a batch of paths on one uniform grid.

    ``brownian[k, c, p]`` is the increment of component ``c`` (0, 1 or
    2; construction checks the shape) of path ``p`` over step ``k`` of
    the generated grid.  ``bridges`` holds one midpoint array per
    refinement, each shaped like the grid it splits (the first like
    ``brownian``, the next twice as long, ...); the increments of the
    current grid are read with :meth:`increment`.
    Event arrays of a stream are flat, tagged by ``n0_path`` or
    ``n1_path`` and sorted by path, then by time in ``(0, t_max]``; marks
    are rows ``(xi1, xi2)``.  Every array is made read-only on
    construction, because one system may drive several models and a
    kernel writing into it would change the later ones.
    """

    seeds: np.ndarray
    t_max: float
    dt: float
    u_bound: float
    brownian: np.ndarray
    n0_path: np.ndarray
    n0_times: np.ndarray
    n0_marks: np.ndarray
    n1_path: np.ndarray
    n1_times: np.ndarray
    n1_umarks: np.ndarray
    n1_marks: np.ndarray
    bridges: tuple = ()
    # the step loop's event tables, built once; refine starts without them
    _tables: list = field(default_factory=list, init=False, repr=False)
    # per refinement level, the last parent step read and its half
    _halves: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.brownian.ndim != 3 or self.brownian.shape[1] != _COMPONENTS:
            raise ValueError(f"brownian must have shape (n_steps, "
                             f"{_COMPONENTS}, n_paths), got "
                             f"{self.brownian.shape}")
        for value in (*vars(self).values(), *self.bridges):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def refinement_level(self) -> int:
        return len(self.bridges)

    @property
    def n_paths(self) -> int:
        return self.brownian.shape[2]

    @property
    def n_components(self) -> int:
        return self.brownian.shape[1]

    @property
    def n_steps(self) -> int:
        return self.brownian.shape[0] << len(self.bridges)

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def increment(self, k: int) -> np.ndarray:
        """The ``(n_components, n_paths)`` increments of step ``k``: a
        read-only row of ``brownian`` on the generated grid, a new array
        on a refined one."""
        return self._increment(k, len(self.bridges))

    def _increment(self, k, level):
        # the split of the parent increment b: b/2 + mid for the even
        # half, b/2 - mid for the odd one; b/2 is computed once for both
        if level == 0:
            return self.brownian[k]
        j = k >> 1
        if self._halves.get(level, (None,))[0] != j:
            self._halves[level] = j, self._increment(j, level - 1) / 2.0
        half, mid = self._halves[level][1], self.bridges[level - 1][j]
        return np.subtract(half, mid) if k & 1 else np.add(half, mid)


def _event_times(rng, rate, t_max, first):
    """Times in ``(0, t_max]`` of a Poisson stream of rate ``rate`` whose
    first gap, ``first <= t_max``, was drawn from ``rng`` alone.

    The later gaps are drawn in batches sized to the expected count; all
    gaps equal the batched draws of a stream that draws no gap alone.
    """
    scale = 1.0 / rate
    size = max(16, int(rate * t_max * 1.5) + 8)
    chunks, t0, times = [], 0.0, np.empty(size)
    times[0], gaps = first, times[1:]
    while True:
        rng.standard_exponential(out=gaps)
        gaps *= scale
        times.cumsum(out=times)
        if t0:
            times += t0
        n = times.searchsorted(t_max, side="right")
        if n < size:
            chunks.append(times[:n].copy())
            return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        chunks.append(times)
        t0 = times[-1]
        times = gaps = np.empty(size)


def _path_events(key, role, rate, t_max, measure, u_bound):
    """One path's times, umarks (if ``u_bound``) and mark draws, drawn
    call by call from its stream's start; ``None`` if it has no events."""
    rng = _stream(key, role)
    first = rng.exponential(1.0 / rate)
    if first > t_max:
        return None
    times = _event_times(rng, rate, t_max, first)
    umarks = () if u_bound is None else (rng.uniform(0.0, u_bound,
                                                     size=len(times)),)
    return times, *umarks, measure._mark_draws(rng, len(times))


def _stream_events(keys, role, rate, t_max, measure, u_bound=None):
    """Path tags, then times, umarks (if ``u_bound``) and marks of one
    stream over the batch, flat in path order; a path without events
    (its first gap past ``t_max``) adds nothing but a zero count.

    Paths with events fill reused buffers of up to ``_BLOCK`` rows, read a
    buffer at a time (see the module docstring).  A row whose count fills
    its gap batch, and every path of a measure without
    ``_uniform_draws``, is drawn by :func:`_path_events` instead.
    """
    counts = np.zeros(len(keys), dtype=np.intp)
    # times[, umarks], then the mark draws, which start empty for _marks
    out = [[np.empty(0)] for _ in range(1 + (u_bound is not None))] + [[]]
    if rate > 0.0 and not measure._uniform_draws:
        for p, key in enumerate(keys):
            path = _path_events(key, role, rate, t_max, measure, u_bound)
            if path is not None:
                counts[p] = len(path[0])
                # by index: a name left on out[-1] would keep the draws
                for j, value in enumerate(path):
                    out[j].append(value)
    elif rate > 0.0 and len(keys):      # an empty batch sizes nothing
        scale = 1.0 / rate
        size = max(16, int(rate * t_max * 1.5) + 8)    # as _event_times
        fit = _BLOCK_BYTES // (len(out) * size * 8)     # fewer rows if dense
        times = np.empty((max(1, min(_BLOCK, len(keys), fit)), size))
        unis = np.empty((len(times), (len(out) - 1) * size))  # [umarks,] draws
        gap_rows, uni_rows = [row[1:] for row in times], list(unis)
        rows, firsts = [], []       # the paths with events in the buffers

        def flush():                # the rows in the buffers, at once
            t, u = times[:len(rows)], unis[:len(rows)]
            t[:, 0] = firsts
            t[:, 1:] *= scale
            t.cumsum(axis=1, out=t)
            inside = t <= t_max
            n = inside.sum(axis=1)
            full = np.flatnonzero(n == size)
            n[full] = 0
            inside[full] = False
            fields, take = [t[inside]], inside
            if u_bound is not None:     # the n uniforms after the umarks
                fields.append(u_bound * u[:, :size][inside])
                take = np.arange(2 * size) < 2 * n[:, None]
                take[:, :size] ^= inside
            fields.append(u[take])
            if len(full):           # splice in the full rows, redrawn
                redrawn = [_path_events(keys[rows[i]], role, rate, t_max,
                                        measure, u_bound) for i in full]
                lens = [len(path[0]) for path in redrawn]
                at = np.repeat(np.cumsum(n)[full], lens)
                fields = [np.insert(value, at, np.concatenate(extra))
                          for value, extra in zip(fields, zip(*redrawn))]
                n[full] = lens
            counts[rows] = n
            for j, value in enumerate(fields):
                out[j].append(value)
            rows.clear()
            firsts.clear()

        for p, key in enumerate(keys):
            rng = _stream(key, role)
            first = rng.exponential(scale)
            if first <= t_max:
                rng.standard_exponential(out=gap_rows[len(rows)])
                rng.random(out=uni_rows[len(rows)])
                rows.append(p)
                firsts.append(first)
                if len(rows) == len(times):
                    flush()
        if rows:
            flush()
    draws = out.pop()
    marks = measure._marks(draws) if draws else np.empty((0, 2))
    del draws               # before the other fields are joined
    return (np.repeat(np.arange(len(keys), dtype=np.intp), counts),
            *map(np.concatenate, out), marks)


def _normals(keys, role, scale, n_steps):
    """Time-major ``(n_steps, _COMPONENTS, n_paths)`` normal draws.

    Path ``p`` draws ``normal(0, scale, size=(_COMPONENTS, n_steps))``
    from its stream of ``role`` keyed ``keys[p]``, in blocks scaled as
    the module docstring says.
    """
    out = np.empty((n_steps, _COMPONENTS, len(keys)))
    block = np.empty((min(_BLOCK, len(keys)), _COMPONENTS, n_steps))
    rows = list(block)
    for lo in range(0, len(keys), _BLOCK):
        chunk = keys[lo:lo + _BLOCK]
        for key, row in zip(chunk, rows):
            _stream(key, role).standard_normal(out=row)
        block *= scale      # a partial last block's spare rows are unread
        block += 0.0
        for c in range(_COMPONENTS):    # faster than one 3-d transpose
            out[:, c, lo:lo + len(chunk)] = block[:len(chunk), c].T
    return out


def generate_noise(m, mu, t_max: float, dt: float, seed,
                   u_bound: float) -> NoiseSystem:
    """Generate the noise of one path per seed.

    ``seed`` is one seed or a 1-d sequence of seeds, each in
    ``[0, 2**64)``; path ``p`` is a pure function of ``seed[p]`` and the
    other arguments, so a batch equals its single-seed batches
    concatenated.  ``m`` feeds N0 at rate ``m.mass()``; ``mu`` feeds the
    candidate stream N1 at rate ``u_bound * mu.mass()``.  Both measures
    are sampled whole: empty measures produce no events without consuming
    any randomness.  An empty batch draws nothing, so only a
    batch with a path checks ``u_bound``: ``run_ensemble`` runs its model
    on an empty batch to check its inputs before it checks the bound.
    Neither stream may expect more than ``_MAX_EVENTS`` events per path,
    since each path's first gap batch is sized by that expectation.
    """
    n_steps = steps_for(t_max, dt)
    seeds = _as_seeds(seed)
    if len(seeds):
        if not np.isfinite(u_bound):
            raise ValueError(f"u_bound must be finite, got {u_bound!r}")
        if u_bound <= 0.0 and not mu.is_empty:
            raise ValueError("u_bound must be positive when mu is nonempty")
        for name, rate in (("u_bound", u_bound * mu.mass()),
                           ("the mass of m", m.mass())):
            if rate * t_max > _MAX_EVENTS:
                raise ValueError(f"{name} asks for {rate * t_max:.6g} "
                                 f"expected events per path on [0, "
                                 f"{t_max!r}], above {_MAX_EVENTS}")

    keys = _philox_keys(seeds)
    brownian = _normals(keys, ROLE_BROWNIAN, np.sqrt(dt), n_steps)
    n0 = _stream_events(keys, ROLE_N0, m.mass(), t_max, m)
    n1 = _stream_events(keys, ROLE_N1, u_bound * mu.mass(), t_max, mu,
                        u_bound)
    # the event fields in the order of NoiseSystem's, as the streams give them
    return NoiseSystem(seeds, float(t_max), float(dt), float(u_bound),
                       brownian, *n0, *n1)


def refine(noise: NoiseSystem) -> NoiseSystem:
    """Halve ``dt``, splitting increments with Brownian-bridge midpoints.

    Each path draws its midpoints from its own substream of the current
    refinement level, so ``refine(refine(ns))`` is deterministic as well.
    Only the midpoints are stored, appended to ``bridges``; the split
    increments are built by :meth:`NoiseSystem.increment` when read, so
    component sums over the grid are preserved and no array of the fine
    grid's size is allocated.  Event arrays are reused unchanged.
    """
    mid = _normals(_philox_keys(noise.seeds),
                   ROLE_BRIDGE_BASE + noise.refinement_level,
                   np.sqrt(noise.dt) / 2.0, noise.n_steps)
    return replace(noise, dt=noise.dt / 2.0, bridges=noise.bridges + (mid,))
