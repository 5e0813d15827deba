"""Time grids, Brownian noise with reproducible substreams, path containers,
and deterministic Monte Carlo reduction primitives.

Reproducibility contract: every stochastic quantity in the library is keyed by
(seed, path_index) through a counter-based Philox stream, so regenerating with
the same key is bit-identical and distinct paths are independent.  Exactly:
the Brownian increments of a path are ``Generator(Philox(ss)).standard_normal
((N, m)) * sqrt(dt)``, drawn from counter 0 in row-major (N, m) order, where
``ss = SeedSequence(entropy=seed, spawn_key=(path_index,))``; the probe
points of probe_assumptions use ``spawn_key=(0, 2)``.  A batch derives the
Philox keys of all its paths in one vectorised pass over SeedSequence's hash
and re-keys a single Philox per path, with the same bytes; tests/test_core.py
pins them.
Estimators process paths in fixed chunks of ``CHUNK`` paths.  With
``workers > 1`` the chunks run in up to that many worker processes forked
from the caller, each holding one chunk's working set at a time, so peak
memory is about ``workers`` times that.  Chunks fork only on Linux from a
process running no other Python thread; elsewhere they run serially.  The
worker count only schedules chunks and never changes any result.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError

#: Fixed reduction chunk size (paths per work unit).  Results are independent
#: of the worker count because chunk boundaries never move.
CHUNK = 1024


# ---------------------------------------------------------------------------
# Grids and path containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_N = T with t_i = i * dt."""

    T: float
    N: int

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.N + 1) * self.dt

    @property
    def left_times(self) -> np.ndarray:
        return np.arange(self.N) * self.dt

    def index_of(self, t: float) -> int:
        """Nearest node index for a time that should sit on the grid."""
        i = int(round(t / self.dt))
        if i < 0 or i > self.N or abs(i * self.dt - t) > 1e-9 * max(1.0, self.T):
            raise InvalidParameterError(f"time {t} is not a node of the grid")
        return i


def make_grid(T: float, N: int) -> TimeGrid:
    if not (T > 0.0) or not math.isfinite(T):
        raise InvalidParameterError("grid.T must be > 0")
    if int(N) < 1:
        raise InvalidParameterError("grid.N must be >= 1")
    return TimeGrid(float(T), int(N))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class NoisePath:
    """One realization of m-dimensional Brownian increments on a grid, with
    the index of its (seed, path_index) stream when it was drawn from one."""

    grid: TimeGrid
    m: int
    increments: np.ndarray  # (N, m), increment i ~ Normal(0, dt I_m)
    path_index: Optional[int] = None

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.shape != (self.grid.N, self.m):
            raise DimensionMismatchError(
                f"increments shape {inc.shape} != {(self.grid.N, self.m)}"
            )
        if not np.all(np.isfinite(inc)):
            raise InvalidParameterError("noise increments must be finite")
        object.__setattr__(self, "increments", _readonly(inc))

    def brownian(self) -> np.ndarray:
        """Cumulative path W(t_i), shape (N + 1, m), W(0) = 0."""
        w = np.zeros((self.grid.N + 1, self.m))
        np.cumsum(self.increments, axis=0, out=w[1:])
        return w


@dataclass(frozen=True, eq=False)
class CameronMartinPath:
    """Piecewise-constant density hdot of a Cameron-Martin direction h.

    h(t) is the running integral of the density, so h(0) = 0 by construction.
    """

    grid: TimeGrid
    m: int
    density: np.ndarray  # (N, m)

    def __post_init__(self):
        dens = np.asarray(self.density, dtype=float)
        if dens.ndim == 1:
            dens = dens[:, None]
        if dens.shape != (self.grid.N, self.m):
            raise DimensionMismatchError(
                f"density shape {dens.shape} != {(self.grid.N, self.m)}"
            )
        if not np.all(np.isfinite(dens)):
            raise InvalidParameterError("hdot must be finite")
        object.__setattr__(self, "density", _readonly(dens))

    @classmethod
    def constant(cls, grid: TimeGrid, value: float, m: int = 1) -> "CameronMartinPath":
        return cls(grid, m, np.full((grid.N, m), float(value)))

    def path(self) -> np.ndarray:
        """h(t_i) = sum_{k<i} hdot_k dt, shape (N + 1, m)."""
        h = np.zeros((self.grid.N + 1, self.m))
        np.cumsum(self.density * self.grid.dt, axis=0, out=h[1:])
        return h

    def check_on(self, grid: TimeGrid, m: int):
        """Reject use on another grid than grid, or with another noise
        dimension than m."""
        if self.grid != grid or self.m != m:
            raise InvalidParameterError("direction h lives on a different grid or dimension")

    def norm_sq(self) -> float:
        """L2 norm squared of the density: sum |hdot_i|^2 dt."""
        return float(np.sum(self.density**2) * self.grid.dt)


@dataclass(frozen=True, eq=False)
class StatePath:
    """Discrete solution values X(t_i) on the grid, all finite."""

    grid: TimeGrid
    d: int
    values: np.ndarray  # (N + 1, d)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.N + 1, self.d):
            raise DimensionMismatchError(
                f"values shape {vals.shape} != {(self.grid.N + 1, self.d)}"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidParameterError(
                "StatePath values must be finite; diverged paths raise DivergenceError"
            )
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]


@dataclass(frozen=True, eq=False)
class MCEstimate:
    """Monte Carlo mean with standard error and 95% CI half-width."""

    mean: np.ndarray
    stderr: np.ndarray
    n_paths: int

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        se = np.atleast_1d(np.asarray(self.stderr, dtype=float))
        if mean.shape != se.shape:
            raise DimensionMismatchError("mean and stderr shapes differ")
        if np.any(se < 0):
            raise InvalidParameterError("stderr must be >= 0")
        if self.n_paths < 2:
            raise InvalidParameterError("n_paths >= 2 required to report a stderr")
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "stderr", _readonly(se))

    @property
    def ci95_halfwidth(self) -> np.ndarray:
        return 1.96 * self.stderr


def mc_estimate(samples: np.ndarray) -> MCEstimate:
    """Reduce per-path samples (n,) or (n, k) to an MCEstimate.

    The samples array is always assembled in path order before reduction, so
    the result does not depend on how chunks were scheduled.  Raises
    InvalidParameterError when a sample, their sum or a square is not finite.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n < 2:
        raise InvalidParameterError("need at least 2 samples")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        se = x.std(axis=0, ddof=1) / math.sqrt(n)
    # a non-finite mean makes the stderr non-finite as well
    if not np.all(np.isfinite(se)):
        raise InvalidParameterError("the Monte Carlo estimate is out of floating-point range")
    return MCEstimate(mean, se, n)


def paired_z_score(diff_samples: np.ndarray) -> float:
    """|mean| / stderr of per-path differences; 0 when the difference is
    exactly 0.  Raises InvalidParameterError when the stderr is not finite, or
    is 0 (equal differences, or squares that underflow) while the mean is not."""
    d = np.asarray(diff_samples, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        m = float(d.mean())
        se = float(d.std(ddof=1)) / math.sqrt(len(d))
    if m == 0.0 and se == 0.0:
        return 0.0
    if not 0.0 < se < math.inf:
        raise InvalidParameterError(
            "the z-score of the paired differences is out of floating-point range "
            f"(mean {m:.3g}, stderr {se:.3g})"
        )
    return abs(m) / se


# ---------------------------------------------------------------------------
# Noise generation
# ---------------------------------------------------------------------------


def _check_streams(seed: int, start: int, count: int = 1) -> None:
    """Reject the arguments no (seed, path_index) stream range exists for."""
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    if start < 0:
        raise InvalidParameterError(f"path index must be >= 0, got {start}")
    if count < 0:
        raise InvalidParameterError(f"path count must be >= 0, got {count}")


def _seed_sequence(seed: int, path_index: int, branch: int = 0) -> np.random.SeedSequence:
    """The SeedSequence of one (seed, path_index) substream.

    branch separates independent per-path streams (0 = Brownian increments,
    2 = the probe points of probe_assumptions, on path 0 only; branch 1, once
    random initial conditions, is retired and 2 keeps its number).
    """
    key = (path_index,) if branch == 0 else (path_index, branch)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=key)


def _path_generator(seed: int, path_index: int) -> np.random.Generator:
    """Philox generator for one (seed, path_index) Brownian substream."""
    _check_streams(seed, path_index)
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path_index)))


def _path_increments(grid: TimeGrid, m: int, seed: int, path_index: int) -> np.ndarray:
    """The (seed, path_index) Brownian stream: N x m Normal(0, dt) draws."""
    gen = _path_generator(seed, path_index)
    return gen.standard_normal((grid.N, m)) * math.sqrt(grid.dt)


def sample_noise(grid: TimeGrid, m: int, seed: int, path_index: int = 0) -> NoisePath:
    """Draw N independent Normal(0, dt I_m) increments for one path."""
    if m < 1:
        raise InvalidParameterError("m must be >= 1")
    return NoisePath(grid, m, _path_increments(grid, m, seed, path_index), path_index)


def _hash_multipliers(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < n: the running multiplier of
    SeedSequence's hash, which does not depend on the data hashed."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# SeedSequence's hash with its pool of 4 words.  Hash call k of mix_entropy
# xors with _HASH_A[k] and multiplies by _HASH_A[k + 1]; the seed's words take
# calls 0..15 and spawn-key word j calls 16 + 4j .. 19 + 4j, one per pool word.
# Output word i of generate_state does the same with _HASH_B[i], _HASH_B[i + 1].
_HASH_A = _hash_multipliers(0x43B0D7E5, 0x931E8875, 25)
_HASH_B = _hash_multipliers(0x8B51F9DD, 0x58F38DED, 5)


def _philox_keys(seed: int, start: int, count: int, branch: int = 0) -> np.ndarray:
    """Philox keys (count, 2) of the streams (seed, start + k), k < count.

    Row k equals _seed_sequence(seed, start + k, branch).generate_state(2,
    np.uint64).  The spawn-key words are hashed into the seed's pool for all
    rows and all pool words in one vectorised uint32 pass.
    """
    if seed >= 1 << 128 or start + count > 1 << 32:
        # more than 4 seed words or a 2-word path index: another entropy layout
        keys = [_seed_sequence(seed, start + k, branch).generate_state(2, np.uint64)
                for k in range(count)]
        return np.array(keys, dtype=np.uint64).reshape(count, 2)
    # the seed hashed into the pool: numpy pads a spawned seed's words with
    # zeros to the pool size, which hashes as an unspawned seed's missing words
    pool = np.random.SeedSequence(int(seed)).pool
    words = [np.arange(start, start + count, dtype=np.uint32)[:, None]]
    if branch:
        words.append(np.uint32(branch))
    for j, word in enumerate(words):
        h = (word ^ _HASH_A[16 + 4 * j:20 + 4 * j]) * _HASH_A[17 + 4 * j:21 + 4 * j]
        h ^= h >> 16
        pool = 0xCA01F9DD * pool - 0x4973F715 * h  # SeedSequence's mix(pool, h)
        pool ^= pool >> 16
    state = (pool ^ _HASH_B[:4]) * _HASH_B[1:]
    state ^= state >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _keyed_generators(keys: np.ndarray):
    """One generator per Philox key row, at counter 0 with an empty buffer:
    the generator Philox(SeedSequence) gives for that key.  One Philox is
    re-keyed for every row, so each must be used up before the next."""
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for key in keys:
        state["state"]["key"] = key
        bitgen.state = state
        yield gen


def sample_increments(
    grid: TimeGrid, m: int, seed: int, start: int, count: int
) -> np.ndarray:
    """Increments for paths start..start+count-1, shape (count, N, m); row k
    is the stream _path_increments(grid, m, seed, start + k)."""
    _check_streams(seed, start, count)
    if m < 1:
        raise InvalidParameterError("m must be >= 1")
    out = np.empty((count, grid.N, m))
    for row, gen in zip(out, _keyed_generators(_philox_keys(seed, start, count))):
        gen.standard_normal(out=row)
    out *= math.sqrt(grid.dt)
    return out


# ---------------------------------------------------------------------------
# History: the noise-prefix view handed to coefficient callbacks
# ---------------------------------------------------------------------------


class History:
    """Read-only view of a batch of Brownian paths for coefficient callbacks.

    Callbacks receive the full object together with the current time t and may
    only use information up to t (progressive measurability is a documented
    contract, asserted statistically by model tests).  Cached cumulatives make
    running Ito integrals O(1) per step.

    With variants = K, the batch is K runs of the same P paths: row k * P + p
    is path p of variant k.  Without shifts every variant reads the noise of
    the P paths; with shifts (K, N, m), variant k reads the noise shifted by
    shifts[k], increments inc[p] + shifts[k].  Each view is built on first
    use, so none is built that no callback reads: on the P paths and tiled,
    or on each variant's shifted noise, as a history of that noise builds it.
    """

    def __init__(self, grid: TimeGrid, increments: np.ndarray, variants: int = 1,
                 shifts: Optional[np.ndarray] = None):
        inc = np.asarray(increments, dtype=float)
        if inc.ndim == 2:
            inc = inc[None]
        self.grid = grid
        self._paths = inc  # (P, N, m)
        self._shifts = shifts
        self.variants = variants if shifts is None else len(shifts)
        self.B = self.variants * inc.shape[0]
        self.m = inc.shape[2]
        self._ito = {}

    @classmethod
    def from_path(cls, w: NoisePath) -> "History":
        return cls(w.grid, w.increments[None])

    def _rows(self, view) -> np.ndarray:
        """view(increments) of each variant's (P, N, m) noise, in row order."""
        if self._shifts is not None:
            return np.concatenate([view(self._paths + s) for s in self._shifts])
        a = view(self._paths)
        if self.variants == 1:
            return a
        return np.tile(a, (self.variants,) + (1,) * (a.ndim - 1))

    @cached_property
    def increments(self) -> np.ndarray:
        """dW per row, shape (B, N, m)."""
        return self._rows(lambda inc: inc)

    @cached_property
    def brownian(self) -> np.ndarray:
        """W(t_i) per row, shape (B, N + 1, m)."""

        def cumulate(inc):
            wb = np.zeros((inc.shape[0], self.grid.N + 1, self.m))
            np.cumsum(inc, axis=1, out=wb[:, 1:])
            return wb

        return self._rows(cumulate)

    def idx(self, t: float) -> int:
        return self.grid.index_of(t)

    def cum_ito(self, key: str, integrand: np.ndarray) -> np.ndarray:
        """Running sums S_i = sum_{k<i} g_k . dW_k, shape (B, N + 1).

        integrand: (N,) or (N, m) deterministic values at the left nodes.
        Cached per key for the lifetime of this history (one batch of paths).
        """
        if key not in self._ito:
            g = np.asarray(integrand, dtype=float)
            if g.ndim == 1:
                g = g[:, None]

            def cumulate(inc):
                s = np.zeros((inc.shape[0], self.grid.N + 1))
                np.cumsum(np.einsum("bnm,nm->bn", inc, g), axis=1, out=s[:, 1:])
                return s

            self._ito[key] = self._rows(cumulate)
        return self._ito[key]


# ---------------------------------------------------------------------------
# Deterministic chunked execution
# ---------------------------------------------------------------------------


def chunk_ranges(n_paths: int, chunk: int = CHUNK):
    """Fixed chunk boundaries [(start, count), ...] independent of workers."""
    return [(s, min(chunk, n_paths - s)) for s in range(0, n_paths, chunk)]


#: The chunk function of the pool this worker process was forked for; set only
#: in the worker, by the pool's initializer.
_worker_fn = None


def _set_worker_fn(fn):
    global _worker_fn
    _worker_fn = fn


def _run_chunk(start, count):
    return _worker_fn(start, count)


def run_chunks(fn, n_paths: int, workers: int = 1, chunk: int = CHUNK) -> list:
    """Evaluate fn(start, count) over fixed chunks; results in chunk order.

    fn must be pure.  With workers > 1 and more than one chunk, the chunks
    run in min(workers, chunks) worker processes forked from this one: fn
    reaches them by inheritance, so it may be a closure, and only (start,
    count) and the returned arrays are pickled.  Peak memory is about workers
    times one chunk's working set.  Only on Linux, and only when the calling
    process runs no other Python thread, is the pool used; otherwise the
    chunks run serially.  The returned list, and the exception raised (the
    first failing chunk's, in chunk order), are the same for any worker
    count.
    """
    ranges = chunk_ranges(n_paths, chunk)
    # fork is known safe only on Linux (on macOS a child forked after system
    # frameworks such as numpy's BLAS are in use can crash or hang), and only
    # from a process running no other Python thread, whose held locks the
    # child would inherit locked
    forks_safely = sys.platform.startswith("linux") and threading.active_count() == 1
    if workers <= 1 or len(ranges) <= 1 or not forks_safely:
        return [fn(s, c) for s, c in ranges]
    # imported here: a serial run pays neither their import time nor memory
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        min(workers, len(ranges)), multiprocessing.get_context("fork"),
        initializer=_set_worker_fn, initargs=(fn,),
    )
    try:
        futures = [pool.submit(_run_chunk, s, c) for s, c in ranges]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# Text output
# ---------------------------------------------------------------------------


def format_block(block: np.ndarray, row_fmt: str) -> str:
    """The rows of a 2-d block as text, each row through the %-format row_fmt
    (one field per column, line ending included), in one formatting call.
    '%.17g' writes a double exactly as '{:.17g}'.format does."""
    return (row_fmt * len(block)) % tuple(block.ravel().tolist())
