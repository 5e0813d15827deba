"""Time grids, Brownian noise with reproducible substreams, path containers,
and deterministic Monte Carlo reduction primitives.

Reproducibility contract: every stochastic quantity in the library is keyed by
(seed, path_index) through a counter-based Philox stream, so regenerating with
the same key is bit-identical and distinct paths are independent.  Estimators
process paths in fixed chunks of ``CHUNK`` paths; worker count only schedules
chunks and never changes any result.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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
    """One realization of m-dimensional Brownian increments on a grid."""

    grid: TimeGrid
    m: int
    increments: np.ndarray  # (N, m), increment i ~ Normal(0, dt I_m)

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
    the result does not depend on how chunks were scheduled.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n < 2:
        raise InvalidParameterError("need at least 2 samples")
    mean = x.mean(axis=0)
    se = x.std(axis=0, ddof=1) / math.sqrt(n)
    return MCEstimate(mean, se, n)


def paired_z_score(diff_samples: np.ndarray) -> float:
    """|mean| / stderr of per-path differences; 0 when the difference is exactly 0."""
    d = np.asarray(diff_samples, dtype=float)
    m = float(d.mean())
    se = float(d.std(ddof=1)) / math.sqrt(len(d))
    if se == 0.0:
        return 0.0 if m == 0.0 else math.inf
    return abs(m) / se


# ---------------------------------------------------------------------------
# Noise generation
# ---------------------------------------------------------------------------


def _path_generator(seed: int, path_index: int, branch: int = 0) -> np.random.Generator:
    """Philox generator for one (seed, path_index) substream.

    branch separates independent per-path streams (0 = Brownian increments,
    1 = random initial conditions).
    """
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    key = (path_index,) if branch == 0 else (path_index, branch)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _path_increments(grid: TimeGrid, m: int, seed: int, path_index: int) -> np.ndarray:
    """The (seed, path_index) Brownian stream: N x m Normal(0, dt) draws."""
    gen = _path_generator(seed, path_index)
    return gen.standard_normal((grid.N, m)) * math.sqrt(grid.dt)


def sample_noise(grid: TimeGrid, m: int, seed: int, path_index: int = 0) -> NoisePath:
    """Draw N independent Normal(0, dt I_m) increments for one path."""
    if m < 1:
        raise InvalidParameterError("m must be >= 1")
    return NoisePath(grid, m, _path_increments(grid, m, seed, path_index))


def sample_increments(
    grid: TimeGrid, m: int, seed: int, start: int, count: int
) -> np.ndarray:
    """Increments for paths start..start+count-1, shape (count, N, m)."""
    out = np.empty((count, grid.N, m))
    for k in range(count):
        out[k] = _path_increments(grid, m, seed, start + k)
    return out


def sample_theta(
    sampler, d: int, seed: int, start: int, count: int
) -> np.ndarray:
    """Initial conditions from a per-path stream independent of the noise;
    sampler(gen, n) draws n initial conditions (n, d)."""
    out = np.empty((count, d))
    for k in range(count):
        gen = _path_generator(seed, start + k, branch=1)
        out[k] = np.asarray(sampler(gen, 1), dtype=float).reshape(d)
    return out


def shift_noise(w: NoisePath, h: CameronMartinPath, eps: float) -> NoisePath:
    """Cameron-Martin shift: increments become dW_i + eps * hdot_i * dt."""
    if w.grid != h.grid or w.m != h.m:
        raise DimensionMismatchError("noise and direction grids/dimensions differ")
    if eps == 0.0:
        return NoisePath(w.grid, w.m, w.increments.copy())
    return NoisePath(w.grid, w.m, w.increments + eps * h.density * w.grid.dt)


def coarsen_noise(w: NoisePath, factor: int) -> NoisePath:
    """Aggregate increments onto a grid coarsened by an integer factor."""
    if factor < 1 or w.grid.N % factor != 0:
        raise InvalidParameterError("factor must divide N")
    coarse = make_grid(w.grid.T, w.grid.N // factor)
    inc = w.increments.reshape(coarse.N, factor, w.m).sum(axis=1)
    return NoisePath(coarse, w.m, inc)


# ---------------------------------------------------------------------------
# History: the noise-prefix view handed to coefficient callbacks
# ---------------------------------------------------------------------------


class History:
    """Read-only view of a batch of Brownian paths for coefficient callbacks.

    Callbacks receive the full object together with the current time t and may
    only use information up to t (progressive measurability is a documented
    contract, asserted statistically by model tests).  Cached cumulatives make
    running Ito integrals O(1) per step.
    """

    def __init__(self, grid: TimeGrid, increments: np.ndarray):
        inc = np.asarray(increments, dtype=float)
        if inc.ndim == 2:
            inc = inc[None]
        self.grid = grid
        self.increments = inc  # (B, N, m)
        self.B, _, self.m = inc.shape
        self._brownian = None
        self._ito = {}

    @classmethod
    def from_path(cls, w: NoisePath) -> "History":
        return cls(w.grid, w.increments[None])

    @property
    def brownian(self) -> np.ndarray:
        """W(t_i) per path, shape (B, N + 1, m)."""
        if self._brownian is None:
            wb = np.zeros((self.B, self.grid.N + 1, self.m))
            np.cumsum(self.increments, axis=1, out=wb[:, 1:])
            self._brownian = wb
        return self._brownian

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
            s = np.zeros((self.B, self.grid.N + 1))
            np.cumsum(np.einsum("bnm,nm->bn", self.increments, g), axis=1, out=s[:, 1:])
            self._ito[key] = s
        return self._ito[key]


# ---------------------------------------------------------------------------
# Deterministic chunked execution
# ---------------------------------------------------------------------------


def chunk_ranges(n_paths: int, chunk: int = CHUNK):
    """Fixed chunk boundaries [(start, count), ...] independent of workers."""
    return [(s, min(chunk, n_paths - s)) for s in range(0, n_paths, chunk)]


def run_chunks(fn, n_paths: int, workers: int = 1, chunk: int = CHUNK) -> list:
    """Evaluate fn(start, count) over fixed chunks; results in chunk order.

    fn must be pure.  With workers > 1 the chunks are mapped onto a thread
    pool; the returned list ordering (and hence every reduction downstream)
    is identical for any worker count.
    """
    ranges = chunk_ranges(n_paths, chunk)
    if workers <= 1 or len(ranges) <= 1:
        return [fn(s, c) for s, c in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda rc: fn(*rc), ranges))


# ---------------------------------------------------------------------------
# Text output
# ---------------------------------------------------------------------------


def format_block(block: np.ndarray, row_fmt: str) -> str:
    """The rows of a 2-d block as text, each row through the %-format row_fmt
    (one field per column, line ending included), in one formatting call.
    '%.17g' writes a double exactly as '{:.17g}'.format does."""
    return (row_fmt * len(block)) % tuple(block.ravel().tolist())
